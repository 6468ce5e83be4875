"""The per-request serving hot path.

One :func:`~repro.serving.serve_trace` call enters the facade exactly
once, whatever the backend, arrival process or request kind: the event
loop, the routers and the sequential path call the per-request cores
directly.  The public ``submit`` shims stay bit-identical to those
cores, and a timed generator trace streams through the facade in
bounded memory.
"""

import gc
import tracemalloc

import pytest

import repro.serving.options as options_module
from repro.benchsuite import get_benchmark
from repro.cluster import ClusterRouter, with_tenants
from repro.core import TrainingConfig, train_system
from repro.fleet import FleetRouter
from repro.graphs import pipeline_chain
from repro.machines import fleet_platforms
from repro.serving import (
    GraphServingRequest,
    PartitioningService,
    ServeOptions,
    ServiceConfig,
    ServingRequest,
    key_universe,
    zipf_trace,
)

BENCHMARKS = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul"))
TRAIN = TrainingConfig(repetitions=1, max_sizes=2)
CHAIN = pipeline_chain([("vec_add", 4096), ("mat_mul", 64)])


def _service(platform=None):
    platform = platform if platform is not None else fleet_platforms(1)[0]
    system = train_system(platform, BENCHMARKS, model_kind="knn", config=TRAIN)
    return PartitioningService(system, ServiceConfig())


def _kernel_trace(n=24, seed=5):
    keys = key_universe(list(BENCHMARKS), max_sizes=2)
    return list(with_tenants(zipf_trace(keys, n, skew=1.2, seed=seed), ("a", "b")))


def _graph_trace(n=4):
    return [GraphServingRequest(i, CHAIN) for i in range(n)]


@pytest.fixture(scope="module")
def backends():
    return {
        "service": _service(),
        "fleet": FleetRouter(
            [_service(p) for p in fleet_platforms(2)], policy="least-loaded"
        ),
        "cluster": ClusterRouter.build(
            2, 1, benchmarks=BENCHMARKS, model_kind="knn", training=TRAIN
        ),
    }


@pytest.fixture
def facade_entries(monkeypatch):
    """Count every entry into ``serve_trace`` and every ``ServeOptions``."""
    counts = {"serve_trace": 0, "options": 0}
    serve_trace = options_module.serve_trace
    post_init = options_module.ServeOptions.__post_init__

    def counting_serve_trace(*args, **kwargs):
        counts["serve_trace"] += 1
        return serve_trace(*args, **kwargs)

    def counting_post_init(self):
        counts["options"] += 1
        post_init(self)

    monkeypatch.setattr(options_module, "serve_trace", counting_serve_trace)
    monkeypatch.setattr(
        options_module.ServeOptions, "__post_init__", counting_post_init
    )
    return counts


class TestOneFacadeEntryPerTrace:
    @pytest.mark.parametrize("kind", ["service", "fleet", "cluster"])
    @pytest.mark.parametrize("arrival", ["sequential", "poisson"])
    @pytest.mark.parametrize("requests", ["kernel", "graph"])
    def test_serve_trace_is_entered_once(
        self, backends, facade_entries, kind, arrival, requests
    ):
        trace = _kernel_trace() if requests == "kernel" else _graph_trace()
        options = ServeOptions(arrival=arrival, rate_rps=500.0)
        facade_entries["options"] = 0
        result = options_module.serve_trace(backends[kind], trace, options)
        served = (
            len(result.responses) if arrival == "sequential" else result.stats.completed
        )
        assert served == len(trace)
        assert facade_entries == {"serve_trace": 1, "options": 0}

    def test_service_serve_enters_once(self, backends, facade_entries):
        responses = backends["service"].serve(_kernel_trace())
        assert len(responses) == 24
        assert facade_entries == {"serve_trace": 1, "options": 1}


class TestShimsMatchTheCores:
    """The public shims are outside-only wrappers over the same cores."""

    def test_submit_and_serve(self):
        trace = _kernel_trace(16)
        shim, core = _service(), _service()
        assert [shim.submit(r) for r in trace] == [core._submit(r, None) for r in trace]
        assert shim.serve(trace) == [core._submit(r, None) for r in trace]

    def test_submit_many(self):
        trace = _kernel_trace(16)
        assert _service().submit_many(trace) == _service()._submit_many(trace)

    def test_submit_graph(self):
        shim, core = _service(), _service()
        for request in _graph_trace(3):
            assert shim.submit_graph(request) == core._submit_graph(request)


def _timed_stream(num_requests, keys, rate_rps=2000.0):
    """A lazily generated, already-timed trace: nothing is held per request."""
    for i in range(num_requests):
        program, size = keys[(i * 7) % len(keys)]
        yield (i / rate_rps, ServingRequest(request_id=i, program=program, size=size))


def _peak_bytes(service, num_requests, keys):
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        result = options_module.serve_trace(
            service, _timed_stream(num_requests, keys), ServeOptions(arrival="poisson")
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.stats.completed == num_requests
    return peak - start


def test_timed_generator_streams_in_bounded_memory():
    service = _service()
    keys = key_universe(list(BENCHMARKS), max_sizes=2)
    # Warm every per-key cache so both runs start from the same state.
    _peak_bytes(service, 200, keys)
    small = _peak_bytes(service, 2_000, keys)
    large = _peak_bytes(service, 20_000, keys)
    assert large <= 2 * small + 64 * 1024, (small, large)
