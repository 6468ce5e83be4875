"""The simulated-time event loop: arrivals, queues, tail latency, faults.

The original serving path replays a trace *synchronously*: every
request is measured back-to-back and throughput is derived after the
fact from the batch scheduler's dense timeline.  That answers "how fast
can the service go" but not the production question — "what latency do
requests *see* when they arrive on their own clock?"  There is no
queueing in a closed-loop replay, hence no p99 and nothing for
admission control to do.

This module is the open-loop core.  Requests arrive with explicit
timestamps (a :class:`~repro.workloads.WorkloadSpec` arrival process),
queue FIFO per replica, and each request accrues

    latency = queue wait + predict + execute

on one monotone simulated clock.  The loop streams: per-request state
lives only while the request is in flight, and everything reported at
the end — latency/queue/service histograms, per-tenant SLO counters,
shed counts — is bounded-memory (:mod:`repro.serving.histogram`), so a
million-request trace produces a histogram, not a list of responses.

Admission control runs at arrival time (:mod:`repro.serving.slo`):
``deadline`` sheds requests whose predicted completion already misses
their SLO target, ``priority`` sheds only low-priority tenants.  The
backlog prediction uses a per-replica EWMA of observed service times
plus the in-flight duplicate count (pending retries), so the decision
is deterministic and needs no oracle.

Nothing in production completes every dispatched request, so neither
does the loop.  A seeded :class:`~repro.faults.FaultSchedule` injects
replica crashes, straggler slowdown windows and transient errors; the
*handling* side threads through the same event heap: SLO-derived
per-request timeouts, bounded retries with exponential backoff under a
retry-token budget, hedged duplicates fired when a request outlives a
latency-percentile trigger (first completion wins, the loser is
cancelled and its remaining busy span reclaimed), and failover that
routes around crashed replicas and redistributes their queued work.
Every outcome is counted, so conservation tightens to

    arrivals == completed + shed + failed

and a faulted run is exactly as reproducible as a clean one.

At cluster scope (:class:`~repro.cluster.ClusterRouter` behind
``for_cluster``) the loop adds straggler-escape machinery beyond
drain-and-rewarm: *speculative re-execution* launches a duplicate in a
different machine pool when a request outlives a latency-quantile
trigger (first completion wins, the loser is cancelled and retired),
and *work-stealing* lets a replica that just went idle pull the
tail-most queued attempt from the most backlogged replica of another
pool.  Every speculative launch is retired exactly once, so the
identity extends to

    arrivals + speculations == completed + shed + failed + cancelled_speculative

which reduces to the plain form whenever speculation is off.  All of
it is opt-in: with the new knobs at their defaults the loop replays
pre-cluster traces event for event.

Replicas serve one request at a time.  Execution time comes from the
normal serving core (``PartitioningService._submit`` at service
*start*, so adaptation/refit state evolves in start order exactly as
it would synchronously); predict time is a configurable simulated cost
that distinguishes a cache hit from a model inference.  Between
requests the replica's devices sit idle on the simulated wall clock,
and that idle span is priced into the runner's
:class:`~repro.runtime.measurement.SessionStats` as idle joules —
crashed downtime is idle too: the devices draw idle watts while the
replica is unavailable, so busy + idle still tile the loop span.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..energy.meter import EnergyMeter
from ..faults import FaultInjector, FaultSchedule
from ..telemetry import MetricsRegistry, Telemetry
from .histogram import LatencyHistogram
from .slo import SHED_POLICIES, SLOConfig, SLOTracker, shed_decision
from .trace import GraphServingRequest, ServingRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.router import ClusterRouter
    from ..fleet.router import FleetRouter
    from ..workloads.spec import DriftEvent
    from .service import GraphServedResponse, PartitioningService, ServedResponse

#: What a backend's ``serve`` may return: the loop only reads
#: ``cache_hit`` and ``measured_s``, which both response types carry.
AnyResponse = "ServedResponse | GraphServedResponse"

#: What may arrive on the request stream: a kernel launch or a whole
#: task graph (per-graph latency = queue + predict + composed critical
#: path, accumulated on the same simulated clock).
AnyRequest = (ServingRequest, GraphServingRequest)

__all__ = [
    "QUEUE_DISCIPLINES",
    "EventLoopConfig",
    "EventLoopStats",
    "CompletedRequest",
    "EventLoop",
]

#: Per-replica queue service orders the loop supports.
QUEUE_DISCIPLINES = ("fifo", "weighted-fair")

#: A timed item on the arrival stream: (timestamp, request-or-drift).
TimedItem = "tuple[float, ServingRequest | DriftEvent]"


@dataclass(frozen=True)
class EventLoopConfig:
    """Knobs of the event-driven serving core.

    Attributes:
        predict_hit_s: simulated seconds one prediction-cache hit adds
            to a request's latency (a dictionary lookup).
        predict_miss_s: simulated seconds a cache miss adds (feature
            assembly + model inference).
        shed_policy: one of :data:`~repro.serving.slo.SHED_POLICIES`.
        slo: latency targets and tenant priorities; shedding policies
            other than ``none`` need at least a default target.
        backlog_alpha: EWMA smoothing of the per-replica observed
            service time the admission test predicts backlogs with.
        initial_service_s: backlog estimate before a replica has
            served anything (only admission decisions read it).
        meter_idle: price inter-request idle spans into the runners'
            session stats (simulated-time energy accounting).
        faults: seeded fault schedule to inject, or ``None`` for a
            fault-free run (the default; identical to the pre-fault
            loop, event for event).
        timeout_factor: fail a request outright once its age exceeds
            ``timeout_factor ×`` its tenant's SLO target; ``None``
            disables timeouts.  Needs an SLO target to derive from.
        max_retries: service attempts a request may consume *beyond*
            its first (and beyond any hedge), each after a transient
            failure.
        retry_backoff_s: base backoff before retry ``n`` fires, doubling
            each time (``retry_backoff_s × 2^(n-1)``).
        retry_budget: retry tokens earned per admitted request; one
            retry spends one token.  0.2 caps retry traffic at ~20% of
            admissions, so a fault storm cannot melt into a retry storm.
        hedge_at: latency quantile (e.g. ``0.95``) of completions so
            far whose value triggers one hedged duplicate for any
            request older than it; ``None`` disables hedging.
        hedge_min_completions: completions observed before the hedge
            trigger is trusted (an empty histogram hedges nothing).
        failover: route arrivals and retries around crashed replicas
            and redistribute a crashed replica's queue; ``False`` is
            the availability baseline where work stays stranded.
        speculate_at: latency quantile whose value triggers one
            speculative re-execution of any request older than it;
            ``None`` disables speculation.  Unlike a hedge (which races
            a duplicate on the least-loaded replica anywhere), a
            speculative copy asks the backend where to escape to — on
            a cluster that means a *different pool* than every live
            copy, which is what beats pool-local straggler windows.
        speculate_min_completions: completions observed before the
            speculation trigger is trusted.
        work_steal: let a replica that just went idle pull the
            tail-most queued attempt from the most backlogged replica
            the backend names as a victim (cross-pool on a cluster);
            off by default — stealing reorders queues, so it must be
            opted into.
        queue_discipline: ``"fifo"`` (arrival order per replica) or
            ``"weighted-fair"`` (start-time fair queueing: each
            tenant's attempts carry virtual finish tags advanced by
            ``est_service / weight``, and the replica serves the
            smallest tag first, so a high-priority tenant's queue
            share tracks its weight instead of its arrival rate).
        telemetry: the run's :class:`~repro.telemetry.Telemetry`
            context, or ``None`` (the default) for no tracing and a
            loop-private metrics registry.  With a context the loop's
            stats publish into its shared registry, and in ``trace``
            mode every request is traced span by span.
    """

    predict_hit_s: float = 2e-6
    predict_miss_s: float = 5e-5
    shed_policy: str = "none"
    slo: SLOConfig = field(default_factory=SLOConfig)
    backlog_alpha: float = 0.3
    initial_service_s: float = 1e-3
    meter_idle: bool = True
    faults: FaultSchedule | None = None
    timeout_factor: float | None = None
    max_retries: int = 2
    retry_backoff_s: float = 1e-3
    retry_budget: float = 0.2
    hedge_at: float | None = None
    hedge_min_completions: int = 32
    failover: bool = True
    speculate_at: float | None = None
    speculate_min_completions: int = 32
    work_steal: bool = False
    queue_discipline: str = "fifo"
    telemetry: Telemetry | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.predict_hit_s < 0 or self.predict_miss_s < 0:
            raise ValueError("predict costs must be non-negative")
        if self.shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"choose from {SHED_POLICIES}"
            )
        if not 0.0 < self.backlog_alpha <= 1.0:
            raise ValueError("backlog_alpha must be in (0, 1]")
        if not self.initial_service_s > 0:
            raise ValueError("initial_service_s must be positive")
        has_target = self.slo.target_s is not None or bool(self.slo.tenant_targets)
        if self.shed_policy != "none" and not has_target:
            raise ValueError(
                f"shed policy {self.shed_policy!r} needs an SLO target to shed "
                "against (slo.target_s or tenant_targets)"
            )
        if self.timeout_factor is not None:
            if not self.timeout_factor > 0:
                raise ValueError("timeout_factor must be positive")
            if not has_target:
                raise ValueError(
                    "timeout_factor derives timeouts from the SLO target "
                    "(slo.target_s or tenant_targets); none is set"
                )
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if self.hedge_at is not None and not 0.0 < self.hedge_at < 1.0:
            raise ValueError("hedge_at is a quantile in (0, 1)")
        if self.hedge_min_completions < 1:
            raise ValueError("hedge_min_completions must be >= 1")
        if self.speculate_at is not None and not 0.0 < self.speculate_at < 1.0:
            raise ValueError("speculate_at is a quantile in (0, 1)")
        if self.speculate_min_completions < 1:
            raise ValueError("speculate_min_completions must be >= 1")
        if self.queue_discipline not in QUEUE_DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {self.queue_discipline!r}; "
                f"choose from {QUEUE_DISCIPLINES}"
            )


@dataclass(frozen=True)
class CompletedRequest:
    """One finished request, handed to the optional observer callback.

    The loop itself never stores these — tests and debuggers opt in
    via ``on_complete`` and pay the memory themselves.
    """

    request: ServingRequest
    replica_index: int
    arrival_s: float
    start_s: float
    finish_s: float
    queue_s: float
    service_s: float
    violated: bool
    #: Service attempts this request consumed (first + retries + hedge).
    attempts: int = 1
    #: Whether a hedged duplicate was fired for it.
    hedged: bool = False
    #: Speculative re-executions fired for it (cluster straggler escape).
    speculated: int = 0

    @property
    def latency_s(self) -> float:
        return self.finish_s - self.arrival_s


#: Scalar stats attribute → stable dotted registry name.  ``clock_s``
#: is a gauge (last value of the monotone clock); the rest are counters
#: whose integer cells stay integers, so JSON baselines compare exactly.
_STAT_SCALARS = {
    "arrivals": "loop.arrivals",
    "admitted": "loop.admitted",
    "completed": "loop.completed",
    "shed": "loop.shed",
    "failed": "loop.failed",
    "clock_s": "loop.clock_s",
    "service_time_s": "loop.service_time_s",
    "execute_time_s": "loop.execute_time_s",
    "idle_energy_j": "loop.idle_energy_j",
    "timeouts": "loop.faults.timeouts",
    "retries": "loop.faults.retries",
    "hedges": "loop.faults.hedges",
    "hedge_wins": "loop.faults.hedge_wins",
    "hedge_cancels": "loop.faults.hedge_cancels",
    "failovers": "loop.faults.failovers",
    "requeued": "loop.faults.requeued",
    "crashes": "loop.faults.crashes",
    "recoveries": "loop.faults.recoveries",
    "exec_errors": "loop.faults.exec_errors",
    "predict_errors": "loop.faults.predict_errors",
    "cancelled_busy_s": "loop.faults.cancelled_busy_s",
    "speculations": "loop.faults.speculations",
    "spec_wins": "loop.faults.spec_wins",
    "cancelled_speculative": "loop.faults.cancelled_speculative",
    "steals": "loop.faults.steals",
}


class EventLoopStats:
    """Everything one event-loop run reports, in bounded memory.

    Since the telemetry layer landed this is a *thin view* over a
    :class:`~repro.telemetry.MetricsRegistry`: every scalar lives in
    the registry under its :data:`_STAT_SCALARS` dotted name and the
    three histograms are registry-owned (``loop.latency`` /
    ``loop.queue_wait`` / ``loop.service``).  The attribute API is
    unchanged — ``stats.completed``, ``stats.retries += 1`` and
    ``to_dict()`` read and write the registry cells through properties
    — so pre-registry callers and committed baselines see identical
    numbers, while ``metrics-report`` reads the same cells by name.

    Scalar semantics (see also :meth:`to_dict`):

    * ``failed`` — admitted requests lost to faults: timed out, out of
      retries, or stranded by a crash with failover off.
    * ``clock_s`` — final value of the monotone simulated clock.
    * ``service_time_s`` / ``execute_time_s`` — sums of every
      dispatched attempt's predict + execute span / execute span alone.
    * ``idle_energy_j`` — joules of inter-request device idle.
    * ``cancelled_busy_s`` — busy seconds reclaimed by cancelling
      losing/lost attempts early.
    * ``speculations`` / ``spec_wins`` / ``cancelled_speculative`` —
      cluster-scope speculative re-execution accounting; every launch
      retires exactly once, extending conservation to ``arrivals +
      speculations == completed + shed + failed +
      cancelled_speculative`` (the plain ``arrivals == completed +
      shed + failed`` whenever speculation is off).
    * ``steals`` — queued attempts pulled to an idle replica.
    """

    def __init__(
        self,
        slo: SLOTracker | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.slo = slo if slo is not None else SLOTracker()
        self.latency: LatencyHistogram = self.registry.histogram("loop.latency")
        self.queue_wait: LatencyHistogram = self.registry.histogram(
            "loop.queue_wait"
        )
        self.service: LatencyHistogram = self.registry.histogram("loop.service")
        self.replica_completed: list[int] = []
        self.replica_busy_s: list[float] = []
        self._cells = {
            attr: (
                self.registry.gauge(name)
                if attr == "clock_s"
                else self.registry.counter(name)
            )
            for attr, name in _STAT_SCALARS.items()
        }

    @property
    def in_flight(self) -> int:
        """Requests admitted but not yet resolved (0 after a drain)."""
        return self.admitted - self.completed - self.failed

    @property
    def availability(self) -> float:
        """Completed fraction of all arrivals (sheds and failures count
        against it — a refused or lost request was not served)."""
        return self.completed / self.arrivals if self.arrivals else 1.0

    @property
    def throughput_rps(self) -> float:
        """Completions per simulated second of the loop clock."""
        return self.completed / self.clock_s if self.clock_s > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.arrivals if self.arrivals else 0.0

    @property
    def violation_rate(self) -> float:
        return self.slo.violation_rate

    def to_dict(self) -> dict:
        """JSON-ready summary (benchmarks and baselines consume this)."""
        return {
            "arrivals": self.arrivals,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": self.shed_rate,
            "failed": self.failed,
            "availability": self.availability,
            "clock_s": self.clock_s,
            "throughput_rps": self.throughput_rps,
            "latency": self.latency.to_dict(),
            "queue_wait": self.queue_wait.to_dict(),
            "service": self.service.to_dict(),
            "violation_rate": self.violation_rate,
            "tenants": self.slo.snapshot(),
            "idle_energy_j": self.idle_energy_j,
            "faults": {
                "timeouts": self.timeouts,
                "retries": self.retries,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "hedge_cancels": self.hedge_cancels,
                "failovers": self.failovers,
                "requeued": self.requeued,
                "crashes": self.crashes,
                "recoveries": self.recoveries,
                "exec_errors": self.exec_errors,
                "predict_errors": self.predict_errors,
                "cancelled_busy_s": self.cancelled_busy_s,
                "speculations": self.speculations,
                "spec_wins": self.spec_wins,
                "cancelled_speculative": self.cancelled_speculative,
                "steals": self.steals,
            },
        }


def _stat_cell_property(attr: str) -> property:
    """A read/write property over one registry cell of the stats view."""

    def fget(self):
        return self._cells[attr].value

    def fset(self, value):
        self._cells[attr].value = value

    return property(fget, fset)


for _attr in _STAT_SCALARS:
    setattr(EventLoopStats, _attr, _stat_cell_property(_attr))
del _attr


@dataclass
class _Pending:
    """One admitted request, alive until it completes or fails."""

    seq: int
    request: ServingRequest
    arrival_s: float
    #: Service attempts started so far (feeds the error hash draws).
    attempts: int = 0
    #: Retries consumed (bounded by ``max_retries``).
    retries: int = 0
    hedged: bool = False
    #: Speculative re-executions launched for this request; retired
    #: into ``cancelled_speculative`` exactly once, at resolution.
    speculated: int = 0
    done: bool = False
    #: Attempts currently queued or running on some replica.
    live: list = field(default_factory=list)


@dataclass
class _Attempt:
    """One queued-or-running service attempt of a pending request."""

    pending: _Pending
    replica: int
    is_hedge: bool = False
    #: A speculative re-execution (cluster straggler escape); accounted
    #: apart from hedges so wins/cancels stay attributable.
    is_spec: bool = False
    running: bool = False
    cancelled: bool = False
    start_s: float = 0.0
    finish_s: float = 0.0
    service_s: float = 0.0
    #: Weighted-fair virtual finish tag (0 under FIFO).
    vtag: float = 0.0
    #: Tracer marker id (0 when tracing is off).
    tid: int = 0


@dataclass
class _ReplicaState:
    """Event-loop-side queue and clock of one serving replica."""

    index: int
    idle_w: float
    est_service_s: float
    queue: deque = field(default_factory=deque)
    busy: bool = False
    free_at: float = 0.0
    #: Instant the replica last became idle (idle-span metering).
    idle_since: float = 0.0
    busy_s: float = 0.0
    crashed: bool = False
    #: Recovery instant while crashed (∞ when up); failover fallback
    #: uses it to pick the least-bad replica when the whole fleet is down.
    recover_at: float = math.inf
    #: The attempt in service right now, if any.
    current: _Attempt | None = None
    #: Live (non-cancelled) entries in ``queue`` — the deque may also
    #: hold lazily-cancelled attempts that are skipped on pop.
    queued_live: int = 0


class _ServiceBackend:
    """One :class:`PartitioningService` behind the loop.

    Every backend calls the per-request serving cores (``_submit`` /
    ``_submit_graph``) directly: the public ``submit`` shims would
    re-enter :func:`~repro.serving.serve_trace` once per request.
    """

    def __init__(self, service: "PartitioningService"):
        self.services = [service]

    def place(self, request: "ServingRequest | GraphServingRequest") -> int:
        return 0

    def serve(
        self, index: int, request: "ServingRequest | GraphServingRequest"
    ) -> AnyResponse:
        if isinstance(request, GraphServingRequest):
            return self.services[0]._submit_graph(request)
        return self.services[0]._submit(request, None)

    def tick(self, now_s: float) -> None:
        pass


class _FleetBackend:
    """A :class:`FleetRouter` behind the loop: policy placement per arrival."""

    def __init__(self, router: "FleetRouter"):
        self.router = router
        self.services = [r.service for r in router.replicas]

    def place(self, request: "ServingRequest | GraphServingRequest") -> int:
        # Graph requests bypass the router's model-peek policies (those
        # interrogate per-kernel predictors); a deterministic spread
        # keeps fleet graph traffic balanced without asking any model.
        if isinstance(request, GraphServingRequest):
            return request.request_id % len(self.services)
        return self.router.place(request)

    def serve(
        self, index: int, request: "ServingRequest | GraphServingRequest"
    ) -> AnyResponse:
        if isinstance(request, GraphServingRequest):
            return self.services[index]._submit_graph(request)
        return self.router.serve_on(index, request).response

    def tick(self, now_s: float) -> None:
        # Simulated time reaches the router so drain cooldowns decay
        # even when no placements arrive (see FleetRouter.tick).
        self.router.tick(now_s)


class _ClusterBackend:
    """A :class:`ClusterRouter` behind the loop: pools, tenants, network.

    Replica indices are the cluster's *flat* indices (pool 0's replicas
    first); the response's ``measured_s`` already carries the
    interconnect handoff when the cluster served a request outside its
    tenant's home pool, so network time accrues into latency with no
    special-casing in the loop.  Beyond ``place``/``serve``/``tick``
    the backend exports the two cluster-scope straggler hooks the loop
    probes for: :meth:`speculative_index` (escape the pools already
    running a copy) and :meth:`steal_candidates` (cross-pool victims).
    """

    def __init__(self, cluster: "ClusterRouter"):
        self.cluster = cluster
        self.services = cluster.services

    def place(self, request: "ServingRequest | GraphServingRequest") -> int:
        return self.cluster.place(request)

    def serve(
        self, index: int, request: "ServingRequest | GraphServingRequest"
    ) -> AnyResponse:
        return self.cluster.serve_on(index, request)

    def tick(self, now_s: float) -> None:
        self.cluster.tick(now_s)

    def speculative_index(
        self, request: "ServingRequest | GraphServingRequest", exclude: set[int]
    ) -> int | None:
        return self.cluster.speculative_index(request, exclude)

    def steal_candidates(self, thief: int) -> tuple[int, ...]:
        return self.cluster.steal_candidates(thief)


class EventLoop:
    """Single-use simulated-time serving loop over one backend.

    Build one per trace (:meth:`for_service` / :meth:`for_fleet`), feed
    it a stream of ``(arrival_s, request)`` items — non-decreasing in
    time, optionally interleaved with
    :class:`~repro.workloads.DriftEvent` payloads — and read the
    :class:`EventLoopStats` it returns.

    Everything that happens between arrivals — completions, attempt
    failures, retry firings, hedge triggers, timeouts, crashes and
    recoveries — lives on one typed event heap ordered by
    ``(time, schedule seq)``, so the simulation is a deterministic
    function of the trace and the fault schedule.
    """

    def __init__(self, backend, config: EventLoopConfig = EventLoopConfig()):
        self.backend = backend
        self.config = config
        #: Span tracer of the run's telemetry context (None = tracing
        #: off; the disabled path costs one ``is None`` test per hook).
        self._tracer = (
            config.telemetry.tracer if config.telemetry is not None else None
        )
        self.stats = EventLoopStats(
            slo=SLOTracker(config.slo),
            registry=(
                config.telemetry.registry
                if config.telemetry is not None
                else None
            ),
        )
        self._replicas = [
            _ReplicaState(
                index=i,
                idle_w=EnergyMeter(s.system.runner.devices).platform_idle_w(),
                est_service_s=config.initial_service_s,
            )
            for i, s in enumerate(backend.services)
        ]
        self.stats.replica_completed = [0] * len(self._replicas)
        self.stats.replica_busy_s = [0.0] * len(self._replicas)
        self._injector = (
            FaultInjector(config.faults, len(self._replicas))
            if config.faults
            else None
        )
        #: The typed event heap: (time, schedule seq, kind, payload).
        self._events: list = []
        self._eseq = 0
        self._seq = 0
        self._clock = 0.0
        self._ran = False
        #: Admitted-but-unresolved requests, by admission seq.
        self._live: dict[int, _Pending] = {}
        #: Retries scheduled but not yet re-enqueued (backoff limbo) —
        #: admission control counts them as in-flight duplicates.
        self._retry_limbo = 0
        self._retry_tokens = 0.0
        #: Weighted-fair queueing: each tenant's virtual finish time,
        #: advanced by est_service/weight per enqueued attempt.
        self._tenant_vtime: dict[str, float] = {}

    @classmethod
    def for_service(
        cls, service: "PartitioningService", config: EventLoopConfig = EventLoopConfig()
    ) -> "EventLoop":
        return cls(_ServiceBackend(service), config)

    @classmethod
    def for_fleet(
        cls, router: "FleetRouter", config: EventLoopConfig = EventLoopConfig()
    ) -> "EventLoop":
        return cls(_FleetBackend(router), config)

    @classmethod
    def for_cluster(
        cls, cluster: "ClusterRouter", config: EventLoopConfig = EventLoopConfig()
    ) -> "EventLoop":
        return cls(_ClusterBackend(cluster), config)

    # -- the loop ----------------------------------------------------------

    def run(
        self,
        arrivals: Iterable,
        on_complete: Callable[[CompletedRequest], None] | None = None,
        drift_handler: "Callable[[DriftEvent], None] | None" = None,
    ) -> EventLoopStats:
        """Play the whole arrival stream and drain every queue.

        ``arrivals`` yields ``(timestamp, payload)`` with non-decreasing
        timestamps; a payload that is not a request (kernel
        :class:`ServingRequest` or :class:`GraphServingRequest`) is
        treated as a drift event and handed to ``drift_handler`` at its
        place on the simulated timeline (so requests already queued are
        measured on the drifted hardware, exactly as a wall-clock drift
        would hit them).
        """
        if self._ran:
            raise RuntimeError("an EventLoop is single-use; build a new one")
        self._ran = True
        self._schedule_crashes()
        last_arrival = 0.0
        for at_s, payload in arrivals:
            if at_s < last_arrival:
                raise ValueError(
                    f"arrival timestamps must be non-decreasing "
                    f"(got {at_s} after {last_arrival})"
                )
            last_arrival = at_s
            # Events due before this arrival happen first — the
            # simulated clock never moves backwards.
            while self._events and self._events[0][0] <= at_s:
                self._dispatch(on_complete)
            self._advance(at_s)
            if isinstance(payload, AnyRequest):
                self._arrive(payload)
            else:
                if drift_handler is None:
                    raise ValueError(
                        "arrival stream carries a drift event but no "
                        "drift_handler was given"
                    )
                drift_handler(payload)
        # Drain until every admitted request is resolved.  Fault windows
        # scheduled beyond the last resolution (a recovery on an already
        # idle fleet) are dropped rather than stretching the clock.
        while self._events and self._live:
            self._dispatch(on_complete)
        self._events.clear()
        for seq in sorted(self._live):  # pragma: no cover - safety net
            self._fail(self._live[seq], self._clock, reason="stranded")
        self.stats.clock_s = self._clock
        if self.config.meter_idle:
            self._meter_trailing_idle()
        return self.stats

    def _push(self, at_s: float, kind: str, payload) -> None:
        self._eseq += 1
        heapq.heappush(self._events, (at_s, self._eseq, kind, payload))

    def _advance(self, at_s: float) -> None:
        if at_s > self._clock:
            self._clock = at_s
            self.backend.tick(at_s)

    def _dispatch(self, on_complete) -> None:
        at_s, _eseq, kind, payload = heapq.heappop(self._events)
        self._advance(at_s)
        if kind == "complete":
            self._on_complete(at_s, payload, on_complete)
        elif kind == "attempt-failed":
            self._on_attempt_failed(at_s, payload)
        elif kind == "retry":
            self._on_retry(at_s, payload)
        elif kind == "hedge":
            self._on_hedge(at_s, payload)
        elif kind == "speculate":
            self._on_speculate(at_s, payload)
        elif kind == "timeout":
            self._on_timeout(at_s, payload)
        elif kind == "crash":
            self._on_crash(at_s, payload)
        else:
            self._on_recover(at_s, payload)

    def _schedule_crashes(self) -> None:
        if self._injector is None:
            return
        for replica in self._replicas:
            for start, end in self._injector.crash_windows(replica.index):
                self._push(start, "crash", (replica.index, end))
                self._push(end, "recover", replica.index)

    # -- arrivals and admission --------------------------------------------

    def _arrive(self, request: ServingRequest) -> None:
        self.stats.arrivals += 1
        replica = self._replicas[self.backend.place(request)]
        if replica.crashed and self.config.failover:
            # Failover placement: route around the dead replica.  The
            # router committed its decision (it has no crash knowledge);
            # the loop overrides the physical target.
            fallback = self._healthy_replica()
            if fallback is not None:
                replica = fallback
                self.stats.failovers += 1
                if self._tracer is not None:
                    self._tracer.event(
                        self._clock,
                        "failover",
                        request_id=request.request_id,
                        replica=replica.index,
                    )
        decision = shed_decision(
            self.config.shed_policy,
            self.config.slo,
            request.tenant,
            idle=not replica.busy and replica.queued_live == 0,
            busy_wait_s=(
                max(replica.free_at - self._clock, 0.0) if replica.busy else 0.0
            ),
            queue_depth=replica.queued_live,
            duplicate_depth=self._retry_limbo,
            est_service_s=replica.est_service_s,
        )
        if decision.shed:
            self.stats.shed += 1
            self.stats.slo.record_shed(request.tenant)
            if self._tracer is not None:
                self._tracer.event(
                    self._clock,
                    "shed",
                    request_id=request.request_id,
                    tenant=request.tenant,
                )
            return
        self.stats.admitted += 1
        self._retry_tokens += self.config.retry_budget
        self._seq += 1
        pending = _Pending(seq=self._seq, request=request, arrival_s=self._clock)
        self._live[pending.seq] = pending
        if self._tracer is not None:
            self._tracer.begin(pending.seq, self._clock, request)
        self._enqueue(pending, replica, is_hedge=False)
        self._schedule_timeout(pending)
        self._schedule_hedge(pending)
        self._schedule_speculation(pending)

    def _schedule_timeout(self, pending: _Pending) -> None:
        if self.config.timeout_factor is None:
            return
        target = self.config.slo.target_for(pending.request.tenant)
        if target is None:
            return
        self._push(
            pending.arrival_s + self.config.timeout_factor * target,
            "timeout",
            pending,
        )

    def _schedule_hedge(self, pending: _Pending) -> None:
        if self.config.hedge_at is None:
            return
        if self.stats.completed < self.config.hedge_min_completions:
            return
        trigger = self.stats.latency.quantile(self.config.hedge_at)
        if trigger <= 0.0:
            return
        self._push(pending.arrival_s + trigger, "hedge", pending)

    def _schedule_speculation(self, pending: _Pending) -> None:
        if self.config.speculate_at is None:
            return
        if self.stats.completed < self.config.speculate_min_completions:
            return
        trigger = self.stats.latency.quantile(self.config.speculate_at)
        if trigger <= 0.0:
            return
        self._push(pending.arrival_s + trigger, "speculate", pending)

    # -- queueing and service ----------------------------------------------

    def _enqueue(
        self,
        pending: _Pending,
        replica: _ReplicaState,
        is_hedge: bool,
        is_spec: bool = False,
    ) -> None:
        attempt = _Attempt(
            pending=pending,
            replica=replica.index,
            is_hedge=is_hedge,
            is_spec=is_spec,
        )
        if self._tracer is not None:
            attempt.tid = self._tracer.enqueue(
                pending.seq, self._clock, replica.index, is_hedge, is_spec
            )
        if self.config.queue_discipline == "weighted-fair":
            # Start-time fair queueing: the attempt's virtual finish tag
            # is the tenant's virtual clock (never behind the real one)
            # plus the replica's estimated service span scaled down by
            # the tenant's weight — a weight-2 tenant's tags advance
            # half as fast, so it wins twice the dequeues under
            # contention.
            tenant = pending.request.tenant
            weight = 1.0 + max(0, self.config.slo.priority_for(tenant))
            vtime = max(self._tenant_vtime.get(tenant, 0.0), self._clock)
            attempt.vtag = vtime + replica.est_service_s / weight
            self._tenant_vtime[tenant] = attempt.vtag
        pending.live.append(attempt)
        replica.queue.append(attempt)
        replica.queued_live += 1
        if not replica.busy and not replica.crashed:
            self._start_next(replica, self._clock)

    def _start_next(self, replica: _ReplicaState, now: float) -> None:
        if self.config.queue_discipline == "weighted-fair":
            best = None
            for attempt in replica.queue:
                if attempt.cancelled:
                    continue
                if best is None or attempt.vtag < best.vtag:
                    best = attempt
            if best is None:
                # Only lazily-cancelled entries left; drop them all.
                replica.queue.clear()
                return
            replica.queue.remove(best)
            replica.queued_live -= 1
            self._begin(replica, best, now)
            return
        while replica.queue:
            attempt = replica.queue.popleft()
            if attempt.cancelled:
                # Lazily dropped; queued_live was adjusted at cancel time.
                continue
            replica.queued_live -= 1
            self._begin(replica, attempt, now)
            return

    def _begin(self, replica: _ReplicaState, attempt: _Attempt, now: float) -> None:
        pending = attempt.pending
        request = pending.request
        if self.config.meter_idle and now > replica.idle_since:
            self._record_idle(replica, now - replica.idle_since)
        attempt_no = pending.attempts
        pending.attempts += 1
        attempt.running = True
        attempt.start_s = now
        replica.busy = True
        replica.current = attempt
        if self._injector is not None and self._injector.predict_error(
            replica.index, request.request_id, attempt_no, now
        ):
            # The prediction path blows up before any execution: the
            # attempt burns one cache-miss span and produces nothing.
            # The service is never consulted, so no EWMA update either.
            self.stats.predict_errors += 1
            attempt.service_s = self.config.predict_miss_s
            attempt.finish_s = now + attempt.service_s
            replica.free_at = attempt.finish_s
            if self._tracer is not None:
                self._tracer.start(
                    attempt.tid,
                    now,
                    predict_end_s=attempt.finish_s,
                    net_start_s=attempt.finish_s,
                    finish_s=attempt.finish_s,
                    outcome="predict-error",
                )
            self._push(attempt.finish_s, "attempt-failed", attempt)
            return
        response = self.backend.serve(replica.index, request)
        predict_s = (
            self.config.predict_hit_s
            if response.cache_hit
            else self.config.predict_miss_s
        )
        service_s = predict_s + response.measured_s
        scale = 1.0
        if self._injector is not None:
            scale = self._injector.slowdown(replica.index, now)
            service_s *= scale
        attempt.service_s = service_s
        attempt.finish_s = now + service_s
        replica.free_at = attempt.finish_s
        alpha = self.config.backlog_alpha
        replica.est_service_s = (
            alpha * service_s + (1.0 - alpha) * replica.est_service_s
        )
        self.stats.service_time_s += service_s
        self.stats.execute_time_s += response.measured_s
        failing = self._injector is not None and self._injector.exec_error(
            replica.index, request.request_id, attempt_no, now
        )
        if self._tracer is not None:
            # The span split of the attempt's service window: predict
            # ends after the (straggler-scaled) cache/model cost, the
            # cross-pool network hop (a cluster response's network_s,
            # zero elsewhere) occupies the tail, execute fills between.
            self._tracer.start(
                attempt.tid,
                now,
                predict_end_s=now + predict_s * scale,
                net_start_s=attempt.finish_s
                - getattr(response, "network_s", 0.0) * scale,
                finish_s=attempt.finish_s,
                outcome="error" if failing else "ok",
            )
        if failing:
            self.stats.exec_errors += 1
            self._push(attempt.finish_s, "attempt-failed", attempt)
        else:
            self._push(attempt.finish_s, "complete", attempt)

    def _release(self, replica: _ReplicaState, attempt: _Attempt, now: float) -> None:
        """Free the replica from its current attempt at instant ``now``."""
        replica.busy = False
        replica.current = None
        replica.idle_since = now
        replica.busy_s += now - attempt.start_s
        self.stats.replica_busy_s[replica.index] = replica.busy_s

    def _cancel(self, attempt: _Attempt, now: float) -> None:
        """First-completion-wins / fault cancellation of one attempt.

        A running loser is cut short and its remaining busy span
        reclaimed; a queued one is dropped lazily (the deque entry
        stays and is skipped on pop).  Callers maintain
        ``pending.live`` themselves.
        """
        if attempt.cancelled:
            return
        attempt.cancelled = True
        if self._tracer is not None:
            self._tracer.cancel_attempt(attempt.tid, now)
        replica = self._replicas[attempt.replica]
        if attempt.running:
            if replica.current is attempt:
                self.stats.cancelled_busy_s += max(attempt.finish_s - now, 0.0)
                self._release(replica, attempt, now)
                if not replica.crashed and replica.queue:
                    self._start_next(replica, now)
        else:
            replica.queued_live -= 1

    # -- event handlers ----------------------------------------------------

    def _on_complete(self, now: float, attempt: _Attempt, on_complete) -> None:
        if attempt.cancelled:
            return
        pending = attempt.pending
        replica = self._replicas[attempt.replica]
        self._release(replica, attempt, now)
        pending.live.remove(attempt)
        pending.done = True
        del self._live[pending.seq]
        # First completion wins: every other in-flight copy is cancelled
        # and, if running, its remaining busy span reclaimed.  Losses in
        # a race a speculative copy is part of are retired through the
        # speculation meter below, not the hedge one.
        for other in list(pending.live):
            self._cancel(other, now)
            if not other.is_spec and not attempt.is_spec:
                self.stats.hedge_cancels += 1
        pending.live.clear()
        # Every speculative launch retires exactly once, win or lose:
        # arrivals + speculations == completed + shed + failed +
        # cancelled_speculative stays an identity.
        self.stats.cancelled_speculative += pending.speculated
        if self._tracer is not None:
            self._tracer.complete(pending.seq, now, attempt.tid)
        latency_s = now - pending.arrival_s
        queue_s = attempt.start_s - pending.arrival_s
        self.stats.completed += 1
        self.stats.replica_completed[replica.index] += 1
        self.stats.latency.record(latency_s)
        self.stats.queue_wait.record(queue_s)
        self.stats.service.record(attempt.service_s)
        if attempt.is_hedge:
            self.stats.hedge_wins += 1
        if attempt.is_spec:
            self.stats.spec_wins += 1
        violated = self.stats.slo.record_completion(pending.request.tenant, latency_s)
        if on_complete is not None:
            on_complete(
                CompletedRequest(
                    request=pending.request,
                    replica_index=replica.index,
                    arrival_s=pending.arrival_s,
                    start_s=attempt.start_s,
                    finish_s=now,
                    queue_s=queue_s,
                    service_s=attempt.service_s,
                    violated=violated,
                    attempts=pending.attempts,
                    hedged=pending.hedged,
                    speculated=pending.speculated,
                )
            )
        if not replica.crashed:
            if replica.queue:
                self._start_next(replica, now)
            if self.config.work_steal and not replica.busy:
                self._try_steal(replica, now)

    def _on_attempt_failed(self, now: float, attempt: _Attempt) -> None:
        if attempt.cancelled:
            return
        pending = attempt.pending
        replica = self._replicas[attempt.replica]
        if self._tracer is not None:
            self._tracer.fail_attempt(attempt.tid, now)
        self._release(replica, attempt, now)
        pending.live.remove(attempt)
        if not replica.crashed:
            if replica.queue:
                self._start_next(replica, now)
            if self.config.work_steal and not replica.busy:
                self._try_steal(replica, now)
        if pending.done or pending.live:
            # A sibling copy is still racing; let it decide the outcome.
            return
        if pending.retries < self.config.max_retries and self._retry_tokens >= 1.0:
            self._retry_tokens -= 1.0
            pending.retries += 1
            self.stats.retries += 1
            delay = self.config.retry_backoff_s * 2.0 ** (pending.retries - 1)
            self._retry_limbo += 1
            if self._tracer is not None:
                self._tracer.event(
                    now,
                    "retry",
                    trace_id=pending.seq,
                    retry=pending.retries,
                    delay_s=delay,
                )
            self._push(now + delay, "retry", pending)
        else:
            self._fail(pending, now, reason="retries-exhausted")

    def _on_retry(self, now: float, pending: _Pending) -> None:
        self._retry_limbo -= 1
        if pending.done:
            return
        self._enqueue(pending, self._fallback_replica(), is_hedge=False)

    def _on_hedge(self, now: float, pending: _Pending) -> None:
        if pending.done or pending.hedged or not pending.live:
            # Resolved, already hedged, or waiting out a retry backoff
            # (the retry path owns it) — nothing to duplicate.
            return
        replica = self._healthy_replica(
            exclude={a.replica for a in pending.live}
        )
        if replica is None:
            return
        pending.hedged = True
        self.stats.hedges += 1
        if self._tracer is not None:
            self._tracer.event(
                now, "hedge", trace_id=pending.seq, replica=replica.index
            )
        self._enqueue(pending, replica, is_hedge=True)

    def _on_speculate(self, now: float, pending: _Pending) -> None:
        if pending.done or pending.speculated or not pending.live:
            # Resolved, already speculating, or in retry backoff limbo.
            return
        exclude = {a.replica for a in pending.live}
        replica = None
        escape = getattr(self.backend, "speculative_index", None)
        if escape is not None:
            # Cluster-aware escape: a pool not already running a copy,
            # so a pool-local straggler window cannot slow both copies.
            index = escape(pending.request, exclude)
            if index is not None and not self._replicas[index].crashed:
                replica = self._replicas[index]
        if replica is None:
            replica = self._healthy_replica(exclude=exclude)
        if replica is None:
            return
        pending.speculated += 1
        self.stats.speculations += 1
        if self._tracer is not None:
            self._tracer.event(
                now, "speculate", trace_id=pending.seq, replica=replica.index
            )
        self._enqueue(pending, replica, is_hedge=False, is_spec=True)

    def _try_steal(self, thief: _ReplicaState, now: float) -> None:
        """Pull the tail-most queued attempt of the most backlogged victim.

        The backend names the eligible victims (cross-pool on a
        cluster); without the hook any other replica qualifies.  The
        steal takes from the *tail* — the work that would have waited
        longest — and lazily-cancelled entries encountered there are
        simply discarded (their live accounting was settled at cancel
        time).
        """
        victims = getattr(self.backend, "steal_candidates", None)
        if victims is not None:
            candidates = [self._replicas[i] for i in victims(thief.index)]
        else:
            candidates = [r for r in self._replicas if r.index != thief.index]
        candidates = [r for r in candidates if r.queued_live > 0]
        if not candidates:
            return
        victim = max(candidates, key=lambda r: (r.queued_live, -r.index))
        while victim.queue:
            attempt = victim.queue.pop()
            if attempt.cancelled:
                continue
            victim.queued_live -= 1
            attempt.replica = thief.index
            self.stats.steals += 1
            if self._tracer is not None:
                self._tracer.steal(attempt.tid, now, thief.index)
            self._begin(thief, attempt, now)
            return

    def _on_timeout(self, now: float, pending: _Pending) -> None:
        if pending.done:
            return
        self.stats.timeouts += 1
        self._fail(pending, now, reason="timeout")

    def _on_crash(self, now: float, payload: tuple[int, float]) -> None:
        index, recover_at = payload
        replica = self._replicas[index]
        replica.crashed = True
        replica.recover_at = recover_at
        self.stats.crashes += 1
        if self._tracer is not None:
            self._tracer.event(
                now, "crash", replica=index, recover_at_s=recover_at
            )
        current = replica.current
        if current is not None:
            # The in-flight attempt dies with the replica.
            pending = current.pending
            self._cancel(current, now)
            pending.live.remove(current)
            if not pending.done and not pending.live:
                if self.config.failover:
                    self.stats.failovers += 1
                    fallback = self._fallback_replica(exclude={index})
                    if self._tracer is not None:
                        self._tracer.event(
                            now,
                            "failover",
                            trace_id=pending.seq,
                            replica=fallback.index,
                        )
                    self._enqueue(
                        pending,
                        fallback,
                        is_hedge=current.is_hedge,
                        is_spec=current.is_spec,
                    )
                else:
                    self._fail(pending, now, reason="crashed")
        if self.config.failover and replica.queued_live:
            # Redistribute the stranded queue; without failover it
            # simply waits out the downtime (and its timeouts).
            stranded = [
                a
                for a in replica.queue
                if not a.cancelled and not a.pending.done
            ]
            for attempt in stranded:
                self._cancel(attempt, now)
                attempt.pending.live.remove(attempt)
                self.stats.requeued += 1
                fallback = self._fallback_replica(exclude={index})
                if self._tracer is not None:
                    self._tracer.event(
                        now,
                        "requeue",
                        trace_id=attempt.pending.seq,
                        replica=fallback.index,
                    )
                self._enqueue(
                    attempt.pending,
                    fallback,
                    is_hedge=attempt.is_hedge,
                    is_spec=attempt.is_spec,
                )

    def _on_recover(self, now: float, index: int) -> None:
        replica = self._replicas[index]
        replica.crashed = False
        replica.recover_at = math.inf
        self.stats.recoveries += 1
        if self._tracer is not None:
            self._tracer.event(now, "recover", replica=index)
        if not replica.busy and replica.queue:
            self._start_next(replica, now)

    def _fail(self, pending: _Pending, now: float, reason: str = "failed") -> None:
        """Resolve one request as lost; conservation counts it as failed."""
        pending.done = True
        for attempt in list(pending.live):
            self._cancel(attempt, now)
        pending.live.clear()
        # Speculative launches of a lost request retire here (the other
        # side of the extended conservation identity).
        self.stats.cancelled_speculative += pending.speculated
        del self._live[pending.seq]
        self.stats.failed += 1
        self.stats.slo.record_failed(pending.request.tenant)
        if self._tracer is not None:
            self._tracer.fail(pending.seq, now, reason)

    # -- placement fallbacks -----------------------------------------------

    def _healthy_replica(self, exclude: set[int] = frozenset()) -> _ReplicaState | None:
        """Least-loaded non-crashed replica, or ``None`` if all are down."""
        candidates = [
            r
            for r in self._replicas
            if not r.crashed and r.index not in exclude
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (r.queued_live + (1 if r.busy else 0), r.index),
        )

    def _fallback_replica(self, exclude: set[int] = frozenset()) -> _ReplicaState:
        """A healthy replica, or the soonest-recovering one if none is up."""
        replica = self._healthy_replica(exclude)
        if replica is not None:
            return replica
        pool = [r for r in self._replicas if r.index not in exclude] or self._replicas
        return min(pool, key=lambda r: (r.recover_at, r.index))

    # -- simulated-time energy accounting ----------------------------------

    def _record_idle(self, replica: _ReplicaState, span_s: float) -> None:
        """Price one inter-request idle span into the replica's runner."""
        runner = self.backend.services[replica.index].system.runner
        runner.stats.record_idle(span_s, replica.idle_w)
        self.stats.idle_energy_j += span_s * replica.idle_w
        if not math.isfinite(self.stats.idle_energy_j):  # pragma: no cover
            raise AssertionError("idle energy overflowed")

    def _meter_trailing_idle(self) -> None:
        """Close every replica's idle span at the final clock.

        After the drain each replica has been idle since its last
        completion (crashed downtime included); accounting that tail
        makes busy + idle equal the loop span per replica, so
        utilization and average power over the *simulated wall clock*
        come out of the session stats.
        """
        for replica in self._replicas:
            if self._clock > replica.idle_since:
                self._record_idle(replica, self._clock - replica.idle_since)
                replica.idle_since = self._clock


def timed(
    requests: Iterable[ServingRequest], times: Iterable[float]
) -> Iterator[tuple[float, ServingRequest]]:
    """Zip arrival timestamps onto a request stream."""
    return zip(times, requests)
