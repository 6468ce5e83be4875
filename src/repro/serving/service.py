"""The online-adaptive partitioning service.

Ties the trained system into a long-running loop à la HeSP/HeMT:

1. **Predict** — answer each (program, size) request from an LRU
   prediction cache, falling back to the model on a miss.
2. **Dispatch** — place the measured execution on the multiplexed
   device timeline of the :class:`~repro.serving.dispatch.BatchScheduler`.
3. **Observe** — append every measured run to the training database.
4. **Adapt** — when the observed makespan regresses past a threshold
   versus the predicted-best estimate (or a key outside the training
   set arrives), re-search the local partition-space neighbourhood,
   pin the locally-validated winner, and periodically refit the model
   incrementally on the augmented database.
5. **Detect drift** — a sliding-window EWMA detector
   (:mod:`repro.serving.drift`) watches measured vs. predicted makespan
   per key; sustained disagreement invalidates the key's stale cache
   entry, restores its adaptation budget and re-baselines its estimate,
   and a burst of flags across keys escalates to a full cache flush +
   refit (the platform itself drifted, not one key).

The service is deterministic given its seed: the same trace against the
same trained system reproduces the same cache behaviour, adaptations
and refits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..benchsuite.base import Benchmark
from ..benchsuite.registry import get_benchmark
from ..core.database import TrainingDatabase
from ..core.pipeline import TrainedSystem
from ..core.predictor import PartitioningPredictor
from ..energy.meter import EnergyMeter
from ..energy.objectives import (
    Objective,
    cap_feasible,
    coerce_objective,
    objective_cost,
)
from ..engine import SweepEngine
from ..graphs.compose import GraphRun, node_requests
from ..graphs.graph import TaskGraph
from ..graphs.planner import GraphPlan, GraphPlanner
from ..partitioning import (
    DEFAULT_STEP_PERCENT,
    Partitioning,
    neighborhood,
    partition_space,
)
from ..runtime.scheduler import ExecutionRequest
from .cache import CacheKey, PredictionCache
from .dispatch import BatchScheduler, DispatchSlot
from .drift import DriftDetector
from .trace import GraphServingRequest, ServingRequest

__all__ = [
    "ServiceConfig",
    "ServiceStats",
    "ServedResponse",
    "GraphServedResponse",
    "PartitioningService",
]


def _trained_grid_step(database: TrainingDatabase) -> int | None:
    """The partition-grid step the database's sweeps were measured on.

    The gcd of every share ever swept (training sweeps cover the full
    ``partition_space``, so for a 10% grid this is exactly 10).  ``None``
    when the database holds no sweeps yet.
    """
    step = 0
    for record in database:
        for label in record.timings:
            for share in Partitioning.from_label(label).shares:
                step = math.gcd(step, share)
    return step or None


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving loop.

    Attributes:
        cache_capacity: LRU prediction-cache entries.
        regression_threshold: relative slack before an observed makespan
            counts as a regression (0.3 = 30% over the estimate).
        adaptation_step: partition-space step of the local re-search.
        max_adaptations_per_key: local searches allowed per key (bounds
            probing cost on persistently noisy keys).
        refit_interval: adaptations to batch before one incremental
            model refit (each refit invalidates the prediction cache,
            so refitting per-adaptation would churn it).
        repetitions: measurement repetitions per served execution.
        validate_cold_keys: locally search keys the training database
            has never seen (the feedback-driven refinement path for
            out-of-distribution programs/sizes).
        incremental_refit: pass-through to the predictor's refit.
        instance_seed: seed for generated problem instances.
        memoize: measure through the memoizing
            :class:`~repro.engine.SweepEngine` (repeated keys and local
            searches compose cached per-device timelines instead of
            re-simulating).  ``False`` is the unmemoized pre-engine
            path, kept for benchmarking the engine against it.
        detect_drift: run the sliding-window EWMA drift detector.
            ``False`` falls back to the single-run regression check
            alone (and is the frozen-model baseline in the drift
            benchmark).
        drift_window: sliding window (in observations) the escalation
            check looks at.
        drift_alpha: EWMA smoothing of the per-key measured/estimate
            ratio (1.0 = last observation only).
        drift_threshold: sustained relative slack before a key is
            flagged as drifted (0.3 = smoothed ratio above 1.3).
        drift_min_observations: observations of a key before it may
            flag (one noisy run is not drift).
        drift_cooldown: observations a flagged key sits out before it
            can flag again (bounds search storms on noisy keys).
        drift_escalation: flags inside the window that escalate to
            platform-level drift — full cache invalidation, pinned
            winners dropped, model refit.  0 disables escalation.
        objective: what the service optimizes (makespan / energy / EDP /
            energy-capped-makespan).  Every measured run is priced in
            this objective's scalar cost: regression checks, drift
            detection and local-search winners all compare costs, so an
            energy-objective service adapts on *energy* regressions.
        power_cap_w: average-power budget per served launch.  When set,
            a model answer whose measured draw exceeds the cap is
            replaced by the best cap-feasible grid point (measured,
            memoized per key) before dispatch.  Required for the
            ``energy-capped-makespan`` objective.
    """

    cache_capacity: int = 512
    regression_threshold: float = 0.3
    adaptation_step: int = DEFAULT_STEP_PERCENT
    max_adaptations_per_key: int = 1
    refit_interval: int = 4
    repetitions: int = 1
    validate_cold_keys: bool = True
    incremental_refit: bool = True
    instance_seed: int = 0
    memoize: bool = True
    detect_drift: bool = True
    drift_window: int = 32
    drift_alpha: float = 0.4
    drift_threshold: float = 0.3
    drift_min_observations: int = 3
    drift_cooldown: int = 8
    drift_escalation: int = 8
    objective: Objective = Objective.MAKESPAN
    power_cap_w: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "objective", coerce_objective(self.objective))
        if self.power_cap_w is not None and not self.power_cap_w > 0:
            raise ValueError("power_cap_w must be positive")
        if self.objective is Objective.ENERGY_CAPPED and self.power_cap_w is None:
            raise ValueError(
                "the energy-capped-makespan objective needs a power_cap_w"
            )
        if self.regression_threshold < 0:
            raise ValueError("regression_threshold must be non-negative")
        if self.refit_interval < 1:
            raise ValueError("refit_interval must be >= 1")
        if self.max_adaptations_per_key < 0:
            raise ValueError("max_adaptations_per_key must be non-negative")
        if not 1 <= self.adaptation_step <= 100:
            raise ValueError("adaptation_step must be a percentage in [1, 100]")
        if self.drift_window < 1:
            raise ValueError("drift_window must be >= 1")
        if not 0.0 < self.drift_alpha <= 1.0:
            raise ValueError("drift_alpha must be in (0, 1]")
        if self.drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if self.drift_min_observations < 1:
            raise ValueError("drift_min_observations must be >= 1")
        if self.drift_cooldown < 0:
            raise ValueError("drift_cooldown must be non-negative")
        if self.drift_escalation < 0:
            raise ValueError("drift_escalation must be non-negative")


@dataclass
class ServiceStats:
    """Counters over one service lifetime.

    ``improvement_s`` is measured in the configured objective's units
    (seconds under makespan, joules under energy, J·s under EDP).
    ``energy_j`` totals the joules of every *served* run (adaptation
    probes are visible in the runner's session stats instead).
    """

    requests: int = 0
    adaptations: int = 0
    refits: int = 0
    regressions: int = 0
    cold_validations: int = 0
    improvement_s: float = 0.0
    drift_flags: int = 0
    drift_escalations: int = 0
    rewarms: int = 0
    energy_j: float = 0.0
    power_capped: int = 0
    power_cap_violations: int = 0
    #: Graph requests served (each also counts once in ``requests``).
    graph_requests: int = 0
    #: Full scheduling × partitioning co-searches run (cold graph keys
    #: and graph-level regressions/drift flags trigger them).
    graph_cosearches: int = 0


@dataclass(frozen=True)
class ServedResponse:
    """Everything the service decided and observed for one request.

    ``estimate_s`` and ``improvement_s`` are in the configured
    objective's units (seconds only under the makespan objective).
    """

    request: ServingRequest
    partitioning: Partitioning
    cache_hit: bool
    measured_s: float
    estimate_s: float | None
    slot: DispatchSlot
    adapted: bool = False
    improvement_s: float = 0.0
    energy_j: float = 0.0
    capped: bool = False
    #: Measured scalar cost under the service's objective — the number
    #: ``estimate_s`` is comparable against (equals ``measured_s`` only
    #: under the makespan objective).
    cost: float = 0.0

    @property
    def power_w(self) -> float:
        """Average platform draw over this launch (0 for a zero span)."""
        return self.energy_j / self.measured_s if self.measured_s > 0 else 0.0


@dataclass(frozen=True)
class GraphServedResponse:
    """Everything the service decided and observed for one graph request.

    ``measured_s`` is the composed critical-path makespan the request
    experienced (queue/predict spans are added by the event loop,
    exactly as for single-kernel responses); ``plan`` is the per-task
    partitioning assignment the *next* request under this key will use
    (the co-searched winner when adaptation fired).
    """

    request: GraphServingRequest
    plan: GraphPlan
    cache_hit: bool
    measured_s: float
    estimate_s: float | None
    energy_j: float = 0.0
    adapted: bool = False
    improvement_s: float = 0.0
    #: Measured scalar cost under the service's objective.
    cost: float = 0.0
    #: Task names along the makespan-defining dependency chain.
    critical_path: tuple[str, ...] = ()
    #: The full composed run (schedules, transfers, per-task runs).
    run: GraphRun | None = None

    @property
    def power_w(self) -> float:
        """Average platform draw over the composed run (0 for zero span)."""
        return self.energy_j / self.measured_s if self.measured_s > 0 else 0.0


class PartitioningService:
    """Serves concurrent launch requests against one trained system."""

    def __init__(self, system: TrainedSystem, config: ServiceConfig = ServiceConfig()):
        trained_step = _trained_grid_step(system.database)
        if trained_step is not None and config.adaptation_step % trained_step != 0:
            # An off-grid step would let the local search pin a winner
            # outside partition_space: its label never matches a model
            # class after refit, so the adaptation could never be
            # confirmed (or corrected) by the model again.
            raise ValueError(
                f"adaptation_step {config.adaptation_step} is off the trained "
                f"partition grid (step {trained_step}); use a multiple of it"
            )
        if config.power_cap_w is not None:
            idle_floor = EnergyMeter(system.runner.devices).platform_idle_w()
            if config.power_cap_w <= idle_floor:
                # Idle watts of every device accrue over any launch, so
                # no partitioning can ever average below the floor.
                raise ValueError(
                    f"power_cap_w {config.power_cap_w:g} W is at or below the "
                    f"platform idle floor ({idle_floor:g} W); no partitioning "
                    "can satisfy it"
                )
        if config.objective is not Objective.MAKESPAN or config.power_cap_w:
            # Fail at construction, not on the first request deep in a
            # serve loop: a database recorded before the energy
            # subsystem (e.g. loaded from an old registry snapshot)
            # cannot answer energy-aware estimates.
            legacy = [
                f"{r.program}@{r.size}" for r in system.database if not r.energies
            ]
            if legacy:
                raise ValueError(
                    f"objective {config.objective.value!r}"
                    + (" with a power cap" if config.power_cap_w else "")
                    + f" needs energy sweeps, but {len(legacy)} database "
                    f"records have none (e.g. {legacy[0]}); retrain or "
                    "serve with the makespan objective"
                )
        self.system = system
        self.config = config
        self.cache = PredictionCache(config.cache_capacity)
        self.scheduler = BatchScheduler(system.platform.num_devices)
        self.stats = ServiceStats()
        self.engine = SweepEngine(system.runner) if config.memoize else None
        self.detector = (
            DriftDetector(
                window=config.drift_window,
                alpha=config.drift_alpha,
                threshold=config.drift_threshold,
                min_observations=config.drift_min_observations,
                cooldown=config.drift_cooldown,
            )
            if config.detect_drift
            else None
        )
        self._validated: dict[CacheKey, Partitioning] = {}
        self._adaptations_by_key: dict[CacheKey, int] = {}
        # Power-cap substitutions, memoized per key: the cap decision is
        # measurement-backed, so it survives refits but not drift.
        self._capped: dict[CacheKey, Partitioning] = {}
        # Post-drift estimate re-baselines: the database's best_time is
        # a *pre-drift* minimum the hardware may no longer reach, so a
        # flagged key's estimate is pinned to the best time measured on
        # the drifted hardware instead.
        self._drift_estimates: dict[CacheKey, float] = {}
        # Best measured objective cost per graph key: graphs have no
        # training-database record, so their regression/drift baseline
        # is the best composed cost observed so far (re-based after a
        # drift flag, exactly like _drift_estimates for kernels).
        self._graph_estimates: dict[CacheKey, float] = {}
        self._pending_refit = 0
        # Per-key memoization of the expensive request plumbing: problem
        # instances, execution requests and feature dicts are identical
        # across repeats of a key (timing-only runs never mutate arrays).
        self._requests: dict[CacheKey, ExecutionRequest] = {}
        self._features: dict[CacheKey, dict[str, float]] = {}

    # -- plumbing ---------------------------------------------------------

    @property
    def machine(self) -> str:
        return self.system.platform.name

    def _key(self, request: ServingRequest) -> CacheKey:
        return (self.machine, request.program, request.size)

    def _execution_request(self, bench: Benchmark, key: CacheKey) -> ExecutionRequest:
        if key not in self._requests:
            instance = bench.make_instance(key[2], seed=self.config.instance_seed)
            self._requests[key] = bench.request(instance)
            self._features[key] = self.system.predictor.features_for(bench, instance)
        return self._requests[key]

    def _estimate(self, key: CacheKey) -> float | None:
        """Best achievable objective cost for a key, from the database.

        Post-drift re-baselines (measured on the drifted hardware)
        override the database minimum.  Under a power cap the estimate
        comes from cap-feasible sweep points only — a capped service
        must not judge itself against a draw it is forbidden to use.
        """
        override = self._drift_estimates.get(key)
        if override is not None:
            return override
        record = self.system.database.record_for(*key)
        if record is None:
            return None
        return record.best_cost_for(
            self.config.objective, power_cap_w=self.config.power_cap_w
        )

    def _measure(
        self, exec_request: ExecutionRequest, p: Partitioning
    ) -> tuple[float, float]:
        """Measure one partitioning; returns (median seconds, joules)."""
        if self.engine is not None:
            run = self.engine.measure(
                exec_request, p, repetitions=self.config.repetitions
            )
        else:
            run = self.system.runner.run(
                exec_request, p, functional=False, repetitions=self.config.repetitions
            )
        return run.median_s, run.energy_j

    def _cost(self, time_s: float, energy_j: float) -> float:
        """Scalar cost of one measurement under the configured objective."""
        return objective_cost(
            self.config.objective,
            time_s,
            energy_j,
            power_cap_w=self.config.power_cap_w,
        )

    def peek_prediction(
        self,
        request: ServingRequest,
        features: dict[str, float] | None = None,
    ) -> Partitioning:
        """The partitioning this service would answer with, right now.

        Resolution order matches :meth:`submit` — cache, then locally
        validated winners, then the model — but nothing is served: no
        cache accounting, no dispatch, no database write.  The fleet
        router uses this to ask every replica's model where a request
        would run before placing it; it passes ``features`` (which are
        machine-independent) so N replicas don't each build the
        problem instance just to answer a peek.
        """
        key = self._key(request)
        cached = self.cache.peek(key)
        if cached is None:
            cached = self._validated.get(key)
        if cached is not None:
            return cached
        if features is None:
            self._execution_request(get_benchmark(request.program), key)
            features = self._features[key]
        return self.system.predictor.predict_features(features)

    # -- the serving loop -------------------------------------------------
    #
    # The public entrypoints below are thin shims over the unified
    # ``serve_trace`` facade (:mod:`repro.serving.options`), kept for
    # outside callers.  The serving cores are the private ``_submit`` /
    # ``_submit_many`` / ``_submit_graph``: the facade's sequential
    # path, the event loop and the fleet/cluster routers call them
    # directly, so no request re-enters the facade.  Shim and direct
    # call produce bit-identical responses (golden-pinned in the test
    # suite).

    def submit(self, request: ServingRequest) -> ServedResponse:
        """Serve one launch request end-to-end."""
        from .options import ServeOptions, serve_trace

        result = serve_trace(
            self, [request], ServeOptions(batch_predict=False)
        )
        return result.responses[0]

    def _submit(
        self, request: ServingRequest, prefetched: Partitioning | None
    ) -> ServedResponse:
        """Serve one request; ``prefetched`` is a batch-predicted answer
        for this request's key (used only when the key is cold)."""
        bench = get_benchmark(request.program)
        key = self._key(request)
        self.stats.requests += 1

        cached = self.cache.get(key)
        cache_hit = cached is not None
        exec_request = self._execution_request(bench, key)
        if cached is None:
            # A locally-validated winner outranks the model: it was
            # measured, the prediction wasn't.  This also restores
            # adapted keys that fell out of the LRU cache.
            cached = self._validated.get(key)
        if cached is None:
            cached = prefetched
        if cached is None:
            cached = self.system.predictor.predict_features(self._features[key])
        if not cache_hit:
            self.cache.put(key, cached)
        partitioning = cached

        capped = False
        if self.config.power_cap_w is not None:
            partitioning, capped = self._enforce_cap(key, exec_request, partitioning)
            if capped:
                self.stats.power_capped += 1

        estimate = self._estimate(key)
        cold = estimate is None
        measured, energy = self._measure(exec_request, partitioning)
        cost = self._cost(measured, energy)
        slot = self.scheduler.dispatch(partitioning, measured)
        self.stats.energy_j += energy
        if (
            self.config.power_cap_w is not None
            and measured > 0
            and energy / measured > self.config.power_cap_w
        ):
            self.stats.power_cap_violations += 1

        regressed = (
            estimate is not None
            and cost > (1.0 + self.config.regression_threshold) * estimate
        )
        if regressed:
            self.stats.regressions += 1

        drifted = False
        if self.detector is not None and estimate is not None:
            drifted = self.detector.observe(key, cost, estimate)
        if drifted:
            # Sustained disagreement: every decision made for this key
            # on the old evidence is suspect.  Drop the cached answer,
            # the pinned winner and the power-cap substitution, and
            # restore the adaptation budget so the re-search below is
            # allowed to run.
            self.stats.drift_flags += 1
            self.cache.invalidate(key)
            self._validated.pop(key, None)
            self._adaptations_by_key.pop(key, None)
            self._capped.pop(key, None)

        adapted = False
        improvement = 0.0
        timings = {partitioning.label: measured}
        energies = {partitioning.label: energy}
        costs = {partitioning.label: cost}
        if self._should_search(key, cold, regressed or drifted):
            adapted, improvement, partitioning = self._adapt(
                key, exec_request, partitioning, cost, timings, energies, costs, cold
            )
        if drifted:
            # Re-baseline against the drifted hardware: the freshest
            # measured best is the estimate future requests are judged
            # by (the database minimum may be unreachable now), and the
            # search winner goes back in the cache either way.
            self._drift_estimates[key] = min(costs.values())
            self.cache.put(key, partitioning)
            if (
                self.config.drift_escalation > 0
                and self.detector.flags_in_window() >= self.config.drift_escalation
            ):
                self._escalate()

        # Every measured run — adapted or not — lands in the database.
        self.system.database.merge_timings(
            *key,
            features=self._features[key],
            timings=timings,
            energies=energies,
        )

        return ServedResponse(
            request=request,
            partitioning=partitioning,
            cache_hit=cache_hit,
            measured_s=measured,
            estimate_s=estimate,
            slot=slot,
            adapted=adapted,
            improvement_s=improvement,
            energy_j=energy,
            capped=capped,
            cost=cost,
        )

    def serve(self, trace: Sequence[ServingRequest]) -> list[ServedResponse]:
        """Serve a whole trace sequentially; returns per-request responses."""
        from .options import ServeOptions, serve_trace

        return list(
            serve_trace(self, trace, ServeOptions(batch_predict=False)).responses
        )

    def submit_many(self, trace: Sequence[ServingRequest]) -> list[ServedResponse]:
        """Serve a whole trace with batched model inference.

        Groups the trace by cache key and answers every *cold* unique
        key (neither cached, validated, nor already served) with one
        vectorized model pass, then dispatches the requests in arrival
        order through the normal serving loop — cache accounting,
        adaptation and refit behave exactly as under :meth:`serve`.
        Batch-predicted answers are invalidated whenever a mid-trace
        refit changes the model; the remaining cold keys are then
        re-predicted in one fresh pass.
        """
        from .options import ServeOptions, serve_trace

        return list(serve_trace(self, trace, ServeOptions()).responses)

    def _submit_many(self, trace: Sequence[ServingRequest]) -> list[ServedResponse]:
        """The batched-inference serving core behind :meth:`submit_many`."""
        requests = list(trace)
        responses: list[ServedResponse] = []
        prefetched: dict[CacheKey, Partitioning] = {}
        prefetched_at_refit = -1
        for i, request in enumerate(requests):
            if prefetched_at_refit != self.stats.refits:
                prefetched = self._prefetch(requests[i:])
                prefetched_at_refit = self.stats.refits
            responses.append(self._submit(request, prefetched.get(self._key(request))))
        return responses

    def _prefetch(
        self, remaining: Sequence[ServingRequest]
    ) -> dict[CacheKey, Partitioning]:
        """One vectorized model pass over the remaining cold unique keys."""
        cold_keys: list[CacheKey] = []
        seen: set[CacheKey] = set()
        for request in remaining:
            key = self._key(request)
            if key in seen or key in self.cache or key in self._validated:
                continue
            seen.add(key)
            # Builds (and memoizes) the instance plumbing so the feature
            # dict exists; repeated keys reuse it during dispatch.
            self._execution_request(get_benchmark(request.program), key)
            cold_keys.append(key)
        if not cold_keys:
            return {}
        predictions = self.system.predictor.predict_features_many(
            [self._features[k] for k in cold_keys]
        )
        return dict(zip(cold_keys, predictions))

    # -- graph serving ------------------------------------------------------

    def _graph_key(self, graph: TaskGraph) -> CacheKey:
        """Graph-level prediction-cache key: same shape, graph identity."""
        return (self.machine, graph.signature_label, graph.total_size)

    def _graph_measure(self, graph: TaskGraph, plan: GraphPlan) -> GraphRun:
        """Compose one graph run on the configured measurement path."""
        if self.engine is not None:
            return self.engine.measure_graph(
                graph,
                plan,
                repetitions=self.config.repetitions,
                instance_seed=self.config.instance_seed,
            )
        return self.system.runner.run_graph(
            graph,
            plan,
            repetitions=self.config.repetitions,
            instance_seed=self.config.instance_seed,
        )

    def _predict_plan(self, graph: TaskGraph) -> GraphPlan:
        """Per-task model predictions — the plan before any co-search.

        Each node is answered exactly as a single-kernel request would
        be (features → model), so a cold graph starts from the same
        evidence the kernel path has; what it *cannot* see is the
        transfers and overlap between tasks — that is the co-search's
        job.
        """
        assignments: dict[str, Partitioning] = {}
        for node in graph.nodes:
            node_key = (self.machine, node.program, node.size)
            self._execution_request(get_benchmark(node.program), node_key)
            assignments[node.name] = self.system.predictor.predict_features(
                self._features[node_key]
            )
        return GraphPlan.from_dict(assignments)

    def _graph_search(self, graph: TaskGraph) -> tuple[GraphPlan, GraphRun]:
        """Co-search placement × per-task partitioning for one graph."""
        runner = self.system.runner
        if self.engine is not None:
            measure = self.engine.measure
            requests = self.engine.graph_requests(
                graph, instance_seed=self.config.instance_seed
            )
        else:

            def measure(request, partitioning, repetitions=1):
                return runner.run(
                    request, partitioning, functional=False, repetitions=repetitions
                )

            requests = node_requests(graph, seed=self.config.instance_seed)
        planner = GraphPlanner(
            measure,
            runner.devices,
            EnergyMeter(runner.devices).platform_idle_w(),
            step_percent=self.config.adaptation_step,
        )
        return planner.search(graph, requests, repetitions=self.config.repetitions)

    def submit_graph(self, request: GraphServingRequest) -> GraphServedResponse:
        """Serve one task-graph request end-to-end.

        The graph analogue of :meth:`submit`: resolve a plan (cache →
        pinned winner → per-task model predictions), measure the
        composed critical path, check it against the best cost this
        graph has ever achieved, and co-search scheduling ×
        partitioning when the key is cold, regressed or drift-flagged
        — budgeted by ``max_adaptations_per_key`` exactly like kernel
        adaptations.  Every per-task measurement of the composed run
        lands in the training database under its own (program, size)
        key, so graph traffic keeps teaching the single-kernel model.
        """
        from .options import ServeOptions, serve_trace

        result = serve_trace(
            self, [request], ServeOptions(batch_predict=False)
        )
        return result.responses[0]

    def _submit_graph(self, request: GraphServingRequest) -> GraphServedResponse:
        """The graph serving core behind :meth:`submit_graph`."""
        graph = request.graph
        key = self._graph_key(graph)
        self.stats.requests += 1
        self.stats.graph_requests += 1

        cached = self.cache.get(key)
        cache_hit = cached is not None
        if cached is None:
            cached = self._validated.get(key)
        if cached is None:
            cached = self._predict_plan(graph)
        if not cache_hit:
            self.cache.put(key, cached)
        assert isinstance(cached, GraphPlan)
        plan = cached

        run = self._graph_measure(graph, plan)
        measured = run.median_s
        energy = run.energy_j
        cost = self._cost(measured, energy)
        self.stats.energy_j += energy

        estimate = self._graph_estimates.get(key)
        cold = estimate is None
        regressed = (
            estimate is not None
            and cost > (1.0 + self.config.regression_threshold) * estimate
        )
        if regressed:
            self.stats.regressions += 1

        drifted = False
        if self.detector is not None and estimate is not None:
            drifted = self.detector.observe(key, cost, estimate)
        if drifted:
            self.stats.drift_flags += 1
            self.cache.invalidate(key)
            self._validated.pop(key, None)
            self._adaptations_by_key.pop(key, None)
            # The old baseline was measured on pre-drift hardware; the
            # best cost observed from here on re-bases it.
            estimate = None

        adapted = False
        improvement = 0.0
        best_cost = cost
        if self._should_search(key, cold, regressed or drifted):
            self._adaptations_by_key[key] = (
                self._adaptations_by_key.get(key, 0) + 1
            )
            if cold:
                self.stats.cold_validations += 1
            self.stats.graph_cosearches += 1
            searched_plan, searched_run = self._graph_search(graph)
            searched_cost = self._cost(searched_run.median_s, searched_run.energy_j)
            best_cost = min(best_cost, searched_cost)
            if searched_plan != plan and searched_cost < cost:
                adapted = True
                improvement = cost - searched_cost
                if not math.isfinite(improvement):
                    improvement = 0.0
                self.stats.adaptations += 1
                self.stats.improvement_s += improvement
                plan = searched_plan
            # Measurement-backed winner (even when it matches the
            # prediction): pin it so LRU eviction cannot lose it.
            self._validated[key] = plan
            self.cache.put(key, plan)
        if drifted:
            self.cache.put(key, plan)
        self._graph_estimates[key] = (
            best_cost if estimate is None else min(estimate, best_cost)
        )

        # Per-task evidence flows into the same database single-kernel
        # serving feeds — graph traffic trains the kernel model too.
        for name, node_run in run.node_runs.items():
            node = graph.node(name)
            node_key = (self.machine, node.program, node.size)
            self._execution_request(get_benchmark(node.program), node_key)
            self.system.database.merge_timings(
                *node_key,
                features=self._features[node_key],
                timings={node_run.partitioning.label: node_run.median_s},
                energies={node_run.partitioning.label: node_run.energy_j},
            )

        return GraphServedResponse(
            request=request,
            plan=plan,
            cache_hit=cache_hit,
            measured_s=measured,
            estimate_s=estimate,
            energy_j=energy,
            adapted=adapted,
            improvement_s=improvement,
            cost=cost,
            critical_path=run.critical_path,
            run=run,
        )

    # -- online adaptation -------------------------------------------------

    def _should_search(self, key: CacheKey, cold: bool, regressed: bool) -> bool:
        if self._adaptations_by_key.get(key, 0) >= self.config.max_adaptations_per_key:
            return False
        return regressed or (cold and self.config.validate_cold_keys)

    def _adapt(
        self,
        key: CacheKey,
        exec_request: ExecutionRequest,
        predicted: Partitioning,
        measured_cost: float,
        timings: dict[str, float],
        energies: dict[str, float],
        costs: dict[str, float],
        cold: bool,
    ) -> tuple[bool, float, Partitioning]:
        """Local neighbourhood re-search around a suspect prediction.

        Candidates are compared in the configured objective's scalar
        cost; under a power cap the winner must additionally be
        cap-feasible unless *nothing* measured is (the request still
        has to run somewhere).
        """
        self._adaptations_by_key[key] = self._adaptations_by_key.get(key, 0) + 1
        for candidate in neighborhood(predicted, self.config.adaptation_step):
            t, e = self._measure(exec_request, candidate)
            timings[candidate.label] = t
            energies[candidate.label] = e
            costs[candidate.label] = self._cost(t, e)
        eligible = costs
        cap = self.config.power_cap_w
        if cap is not None:
            feasible = {
                label: c
                for label, c in costs.items()
                if cap_feasible(timings[label], energies[label], cap)
            }
            eligible = feasible or costs
        best_label = min(eligible, key=lambda label: (eligible[label], label))
        best = Partitioning.from_label(best_label)
        if cold:
            self.stats.cold_validations += 1
        if best == predicted:
            return False, 0.0, predicted

        # The model mispredicted this key: pin the validated winner and
        # queue the new evidence for an incremental refit.  Two
        # infinite costs (cap-infeasible served run AND winner) carry
        # no magnitude — record zero gain rather than inf - inf = NaN.
        improvement = measured_cost - costs[best_label]
        if not math.isfinite(improvement):
            improvement = 0.0
        self.stats.adaptations += 1
        self.stats.improvement_s += improvement
        self._validated[key] = best
        self.cache.put(key, best)
        if cap is not None:
            # The winner was measured under the cap; future cap checks
            # for this key must start from it, not the old substitute.
            self._capped[key] = best
        self._pending_refit += 1
        if self._pending_refit >= self.config.refit_interval:
            self.refit_now()
        return True, improvement, best

    def _enforce_cap(
        self,
        key: CacheKey,
        exec_request: ExecutionRequest,
        predicted: Partitioning,
    ) -> tuple[Partitioning, bool]:
        """Swap an over-cap answer for the best cap-feasible grid point.

        The check is measurement-backed (one probe of the candidate;
        a full grid probe only when it violates), and the decision is
        memoized per key — probes compose from the engine's cached
        tapes, so steady-state requests pay a dictionary lookup.  When
        no grid point satisfies the cap the minimum-power one serves
        (and the violation will be counted at dispatch).
        """
        hit = self._capped.get(key)
        if hit is not None:
            return hit, hit != predicted
        cap = self.config.power_cap_w
        assert cap is not None
        t, e = self._measure(exec_request, predicted)
        if cap_feasible(t, e, cap):
            self._capped[key] = predicted
            return predicted, False
        best: Partitioning | None = None
        best_cost = math.inf
        fallback = predicted
        fallback_power = e / t
        for candidate in partition_space(
            predicted.num_devices, self.config.adaptation_step
        ):
            ct, ce = self._measure(exec_request, candidate)
            power = ce / ct if ct > 0 else 0.0
            if power < fallback_power:
                fallback, fallback_power = candidate, power
            if cap_feasible(ct, ce, cap):
                cost = self._cost(ct, ce)
                if cost < best_cost:
                    best, best_cost = candidate, cost
        chosen = best if best is not None else fallback
        self._capped[key] = chosen
        return chosen, chosen != predicted

    def refit_now(self) -> None:
        """Incrementally refit the model and re-seed the cache.

        The refit consumes the augmented database (training sweeps plus
        every online observation), so the next cache misses are answered
        by a model that has seen the serving traffic.  Locally-validated
        winners survive the invalidation: a measurement beats a model
        prediction.
        """
        self.system.predictor.refit(
            self.system.database, incremental=self.config.incremental_refit
        )
        self.cache.invalidate()
        for key, partitioning in self._validated.items():
            self.cache.put(key, partitioning)
        self._pending_refit = 0
        self.stats.refits += 1

    def _escalate(self) -> None:
        """Platform-level drift: too many keys flagged inside the window.

        When disagreement is spread across the traffic rather than
        confined to one key, the *hardware* (or the whole popularity
        regime) moved — key-by-key firefighting would re-search the
        entire working set one flag at a time.  Drop every pinned
        winner and spent budget, refit on everything observed so far
        and restart detection from a clean slate.  Post-drift estimate
        baselines survive: they were measured on the new hardware.
        """
        self.stats.drift_escalations += 1
        self._validated.clear()
        self._adaptations_by_key.clear()
        self._capped.clear()
        self.detector.reset()
        self.refit_now()

    def rewarm(
        self,
        predictor: PartitioningPredictor | None = None,
        database: TrainingDatabase | None = None,
    ) -> None:
        """Reset every online decision; optionally swap in fresh state.

        The fleet router drains a persistently degraded replica and
        re-warms it through here — with a registry-loaded predictor and
        database when available (roll back to the last known-good
        snapshot), otherwise by refitting the current model on the full
        observation history.  Either way the prediction cache, pinned
        winners, adaptation budgets and detector state all restart
        cold; the scheduler timeline and runner telemetry carry on.
        Post-drift estimate baselines *survive*, exactly as they do
        across an escalation: a model rollback does not roll back the
        hardware, and reverting to pre-drift database minima the
        drifted machine can never reach would re-trip the health check
        and thrash the replica through endless drain/re-warm cycles.
        """
        if database is not None:
            self.system.database = database
        if predictor is not None:
            self.system.predictor = predictor
        else:
            # Refit after any database swap: a model fitted on the
            # discarded history would disagree with the rolled-back
            # records it serves against.
            self.system.predictor.refit(
                self.system.database, incremental=self.config.incremental_refit
            )
        self.cache.invalidate()
        self._validated.clear()
        self._adaptations_by_key.clear()
        self._capped.clear()
        self._pending_refit = 0
        if self.detector is not None:
            self.detector.reset()
        self.stats.rewarms += 1

    def publish_metrics(self, registry, prefix: str = "service") -> None:
        """Publish the service's counters as ``service.*`` gauges.

        Covers :class:`ServiceStats`, the prediction cache, and — when
        drift detection is on — the detector, all under one prefix so a
        fleet/cluster can publish each member service under its own.
        """
        stats = self.stats
        registry.gauge(f"{prefix}.requests").set(stats.requests)
        registry.gauge(f"{prefix}.graph_requests").set(stats.graph_requests)
        registry.gauge(f"{prefix}.graph_cosearches").set(stats.graph_cosearches)
        registry.gauge(f"{prefix}.adaptations").set(stats.adaptations)
        registry.gauge(f"{prefix}.refits").set(stats.refits)
        registry.gauge(f"{prefix}.regressions").set(stats.regressions)
        registry.gauge(f"{prefix}.cold_validations").set(stats.cold_validations)
        registry.gauge(f"{prefix}.improvement_s").set(stats.improvement_s)
        registry.gauge(f"{prefix}.drift_flags").set(stats.drift_flags)
        registry.gauge(f"{prefix}.drift_escalations").set(stats.drift_escalations)
        registry.gauge(f"{prefix}.rewarms").set(stats.rewarms)
        registry.gauge(f"{prefix}.energy_j").set(stats.energy_j)
        registry.gauge(f"{prefix}.power_capped").set(stats.power_capped)
        registry.gauge(f"{prefix}.power_cap_violations").set(
            stats.power_cap_violations
        )
        cache = self.cache.stats
        registry.gauge(f"{prefix}.cache.hits").set(cache.hits)
        registry.gauge(f"{prefix}.cache.misses").set(cache.misses)
        registry.gauge(f"{prefix}.cache.evictions").set(cache.evictions)
        registry.gauge(f"{prefix}.cache.invalidations").set(cache.invalidations)
        registry.gauge(f"{prefix}.cache.hit_rate").set(cache.hit_rate)
        if self.detector is not None:
            self.detector.publish_metrics(registry, prefix=f"{prefix}.drift")
