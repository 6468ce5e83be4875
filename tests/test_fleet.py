"""Tests for the fleet layer: machine generation, routing, registry."""

import pytest

from repro.benchsuite import get_benchmark
from repro.core import TrainingConfig, train_system
from repro.fleet import FleetRouter, ModelRegistry, ROUTING_POLICIES, spec_fingerprint
from repro.machines import FLEET_VARIANTS, MC1, MC2, fleet_platforms
from repro.partitioning import partition_space
from repro.serving import (
    PartitioningService,
    ServiceConfig,
    ServingRequest,
    key_universe,
    serve_trace,
    zipf_trace,
)

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)


def _train(platform):
    return train_system(platform, BENCHMARKS, model_kind="knn", config=TRAIN)


def _router(platforms, policy="least-loaded", **service_kwargs):
    services = [
        PartitioningService(_train(p), ServiceConfig(**service_kwargs))
        for p in platforms
    ]
    return FleetRouter(services, policy=policy)


def _trace(n=40, seed=5):
    keys = key_universe(
        [get_benchmark(p) for p in ("vec_add", "mat_mul", "saxpy", "mandelbrot")],
        max_sizes=2,
    )
    return zipf_trace(keys, n, skew=1.2, seed=seed)


class TestFleetPlatforms:
    def test_requested_count_with_unique_names(self):
        platforms = fleet_platforms(9)
        assert len(platforms) == 9
        assert len({p.name for p in platforms}) == 9

    def test_prefix_property(self):
        # A fleet of 2 is a prefix of a fleet of 5: scaling runs compare
        # like with like.
        small = fleet_platforms(2)
        large = fleet_platforms(5)
        assert [p.name for p in large[:2]] == [p.name for p in small]
        assert large[0].device_specs == small[0].device_specs

    def test_first_cycle_is_stock(self):
        platforms = fleet_platforms(2)
        assert platforms[0].device_specs == MC1.device_specs
        assert platforms[1].device_specs == MC2.device_specs

    def test_variants_scale_specs(self):
        platforms = fleet_platforms(4)  # third/fourth are the fast bin
        _tag, clock_scale, mem_scale = FLEET_VARIANTS[1]
        stock, fast = platforms[0], platforms[2]
        for s, f in zip(stock.device_specs, fast.device_specs):
            assert f.clock_ghz == pytest.approx(s.clock_ghz * clock_scale)
            assert f.mem_bandwidth_gbs == pytest.approx(
                s.mem_bandwidth_gbs * mem_scale
            )

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            fleet_platforms(0)
        with pytest.raises(ValueError):
            fleet_platforms(2, base=())


@pytest.fixture(scope="module")
def duo_router():
    """A two-machine fleet (stock mc1 + mc2 variants) for routing tests."""
    return _router(fleet_platforms(2))


class TestRouterConstruction:
    def test_unknown_policy_rejected(self):
        platforms = fleet_platforms(1)
        service = PartitioningService(_train(platforms[0]), ServiceConfig())
        with pytest.raises(ValueError, match="policy"):
            FleetRouter([service], policy="round-robin")

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            FleetRouter([], policy="least-loaded")

    def test_duplicate_machine_names_rejected(self):
        platform = fleet_platforms(1)[0]
        services = [
            PartitioningService(_train(platform), ServiceConfig()) for _ in range(2)
        ]
        with pytest.raises(ValueError, match="unique"):
            FleetRouter(services)

    def test_policies_constant_is_exhaustive(self):
        assert set(ROUTING_POLICIES) == {
            "least-loaded",
            "affinity",
            "predicted",
            "energy",
        }


class TestRouting:
    def test_serve_places_every_request(self, duo_router):
        trace = _trace(30)
        responses = serve_trace(duo_router, trace).responses
        assert len(responses) == 30
        assert sum(r.routed for r in duo_router.replicas) == 30
        assert all(
            fr.replica_name == duo_router.replicas[fr.replica_index].name
            for fr in responses
        )
        # Every response carries the underlying service response.
        assert all(fr.response.measured_s >= 0 for fr in responses)

    def test_least_loaded_uses_both_machines(self, duo_router):
        # A 30-request trace on two machines cannot sit on one replica.
        assert all(r.routed > 0 for r in duo_router.replicas)

    def test_affinity_is_stable_per_key(self):
        router = _router(fleet_platforms(2), policy="affinity")
        trace = _trace(30)
        responses = serve_trace(router, trace).responses
        placement: dict[tuple[str, int], int] = {}
        for fr in responses:
            key = (fr.response.request.program, fr.response.request.size)
            assert placement.setdefault(key, fr.replica_index) == fr.replica_index

    def test_routing_is_deterministic(self):
        for policy in ROUTING_POLICIES:
            a, b = (
                serve_trace(_router(fleet_platforms(2), policy=policy), _trace(25))
                .responses
                for _ in range(2)
            )
            assert [fr.replica_index for fr in a] == [fr.replica_index for fr in b]
            assert [fr.response.partitioning for fr in a] == [
                fr.response.partitioning for fr in b
            ]

    def test_predicted_policy_prefers_idle_machine(self):
        # With one replica's devices all busy far into the future, the
        # makespan-aware policy must place the next request elsewhere.
        router = _router(fleet_platforms(2), policy="predicted")
        busy = router.replicas[0].scheduler
        for d in range(len(busy.device_free_s)):
            busy.device_free_s[d] = 1e6
        size = get_benchmark("vec_add").problem_sizes()[0]
        fr = router.submit(ServingRequest(request_id=0, program="vec_add", size=size))
        assert fr.replica_index == 1

    def test_predicted_peek_tracks_adaptations(self):
        # Regression: the router memoized peeked predictions per refit
        # generation only, so a pinned adaptation winner (which does
        # not refit) left the router pricing a stale partitioning.
        router = _router(fleet_platforms(2), policy="predicted")
        size = get_benchmark("mandelbrot").problem_sizes()[-1]
        req = ServingRequest(request_id=0, program="mandelbrot", size=size)
        fr = router.submit(req)  # cold key: the serving replica adapts
        assert fr.response.adapted
        replica = router.replicas[fr.replica_index]
        _, features = router._plumbing(req)
        assert router._peek(replica, req, features) == replica.service.peek_prediction(
            req
        )
        assert router._peek(replica, req, features) == fr.response.partitioning

    def test_predicted_probing_does_not_touch_serving_telemetry(self):
        router = _router(fleet_platforms(2), policy="predicted")
        serve_trace(router, _trace(10))
        for replica in router.replicas:
            # Only served requests hit the runner (plus adaptation
            # probes); duration estimation runs on a private runner.
            stats = replica.service.system.runner.stats
            served = replica.service.stats.requests
            probes = stats.executions - served
            assert probes >= 0
            # And peeking never counted cache lookups for unserved keys.
            cache = replica.service.cache.stats
            assert cache.lookups == served


class TestFleetStats:
    def test_fleet_makespan_is_max_over_replicas(self, duo_router):
        stats = duo_router.stats()
        assert stats.makespan_s == pytest.approx(
            max(r.makespan_s for r in stats.replicas)
        )
        assert stats.requests == sum(r.routed for r in stats.replicas)
        assert stats.num_replicas == 2

    def test_throughput_scales_with_fleet_size(self):
        trace = _trace(40)
        solo = _router(fleet_platforms(1))
        duo = _router(fleet_platforms(2))
        serve_trace(solo, trace)
        serve_trace(duo, trace)
        assert duo.stats().throughput_rps >= solo.stats().throughput_rps

    def test_idle_fleet_reports_zeros(self):
        router = _router(fleet_platforms(1))
        stats = router.stats()
        assert stats.requests == 0
        assert stats.throughput_rps == 0.0
        assert stats.makespan_s == 0.0

    def test_adaptations_aggregate_across_replicas(self, duo_router):
        stats = duo_router.stats()
        assert stats.adaptations == sum(r.adaptations for r in stats.replicas)
        assert stats.refits == sum(r.refits for r in stats.replicas)


class TestRateEWMA:
    def test_serving_rate_ewma_tracks_and_stays_finite(self):
        import math

        router = _router(fleet_platforms(1))
        for request in _trace(8):
            router.submit(request)
        stats = router.stats()
        assert stats.replicas[0].rate_ewma > 0.0
        assert math.isfinite(stats.replicas[0].rate_ewma)

    def test_inf_throughput_sentinel_excluded_from_rate_ewma(self):
        # Regression: BatchScheduler.throughput_rps reports an ``inf``
        # sentinel when everything a replica served took zero simulated
        # time.  One such sample folded into the health rate EWMA would
        # make it inf forever; non-finite rates must be excluded the
        # same way non-finite costs already are.
        import math

        from repro.partitioning import Partitioning
        from repro.serving.service import ServedResponse

        router = _router(fleet_platforms(1))
        replica = router.replicas[0]
        replica.scheduler.dispatch(Partitioning((100, 0, 0)), 0.0)
        assert math.isinf(replica.scheduler.throughput_rps())
        response = ServedResponse(
            request=_trace(1)[0],
            partitioning=Partitioning((100, 0, 0)),
            cache_hit=True,
            measured_s=1e-3,
            estimate_s=1e-3,
            slot=None,
            cost=1e-3,
        )
        router._observe_health(replica, response)
        view = router.replica_health(0)
        # The poisoned sample was skipped entirely: no observation, no
        # change to the (still unseeded) EWMA.
        assert view.rate_observations == 0
        assert view.rate_ewma == 0.0
        assert math.isfinite(router.stats().replicas[0].rate_ewma)
        # Once the span is real, finite samples seed the EWMA normally.
        replica.scheduler.dispatch(Partitioning((0, 100, 0)), 2.0)
        router._observe_health(replica, response)
        view = router.replica_health(0)
        assert view.rate_observations == 1
        assert math.isfinite(view.rate_ewma)
        assert view.rate_ewma == pytest.approx(
            replica.scheduler.throughput_rps()
        )


class TestModelRegistry:
    def test_round_trip_predictions_identical(self, tmp_path):
        platform = fleet_platforms(1)[0]
        system = _train(platform)
        registry = ModelRegistry(tmp_path)
        registry.save(system)
        assert registry.machines() == (platform.name,)
        assert registry.has(platform.name)
        loaded = registry.load(platform)
        assert len(loaded.database) == len(system.database)
        loaded_labels = [
            p.label for p in loaded.predictor.model.predict_many(loaded.database)
        ]
        assert loaded_labels == [
            p.label for p in system.predictor.model.predict_many(system.database)
        ]

    def test_load_unregistered_machine_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(LookupError):
            registry.load(fleet_platforms(1)[0])

    def test_most_similar_prefers_same_lineage(self, tmp_path):
        platforms = fleet_platforms(3)  # mc1, mc2, mc1-fast-bin
        registry = ModelRegistry(tmp_path)
        registry.save(_train(platforms[0]))
        registry.save(_train(platforms[1]))
        # The mc1 fast bin is closer to mc1 than to mc2.
        assert registry.most_similar(platforms[2]) == platforms[0].name

    def test_warm_start_relabels_donor_records(self, tmp_path):
        platforms = fleet_platforms(3)
        registry = ModelRegistry(tmp_path)
        registry.save(_train(platforms[0]))
        cold = platforms[2]
        system = registry.warm_start(cold, model_kind="knn")
        assert system.platform is cold
        assert len(system.database) > 0
        assert {r.machine for r in system.database} == {cold.name}
        # The warm-started system serves immediately, on the trained grid.
        service = PartitioningService(system, ServiceConfig())
        size = get_benchmark("vec_add").problem_sizes()[0]
        response = service.submit(
            ServingRequest(request_id=0, program="vec_add", size=size)
        )
        grid = {p.label for p in partition_space(cold.num_devices, 10)}
        assert response.partitioning.label in grid

    def test_warm_start_with_empty_registry_raises(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(LookupError):
            registry.warm_start(fleet_platforms(1)[0])

    def test_warm_start_with_explicit_donor(self, tmp_path):
        platforms = fleet_platforms(3)
        registry = ModelRegistry(tmp_path)
        registry.save(_train(platforms[0]))
        system = registry.warm_start(platforms[2], donor=platforms[0].name)
        assert {r.machine for r in system.database} == {platforms[2].name}
        with pytest.raises(LookupError, match="donor"):
            registry.warm_start(platforms[2], donor="no-such-machine")

    def test_fingerprint_tracks_spec_scaling(self):
        platforms = fleet_platforms(4)
        stock, fast = spec_fingerprint(platforms[0]), spec_fingerprint(platforms[2])
        assert len(stock) == len(fast)
        assert stock != fast
