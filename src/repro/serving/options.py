"""One serving API: ``serve_trace(backend, trace, options)``.

The serving surface grew an entrypoint per capability — ``submit`` for
one request, ``submit_many`` for batched prediction, ``submit_graph``
for DAGs, ``FleetRouter.serve`` for fleets, ``EventLoop.run`` for
open-loop arrivals — each with its own knob set.  This module folds
them behind two names:

* :class:`ServeOptions` — every serve-time decision in one frozen
  dataclass: the arrival process, SLO targets and shedding, fault
  injection, retries/hedging/failover, cluster-scope speculation and
  work-stealing, the queue discipline, and the objective/power-cap
  *assertions* (those two are build-time service knobs; naming them
  here makes the facade verify the backend was built the way the
  caller believes).
* :func:`serve_trace` — one call that routes any trace through any
  backend: a :class:`~repro.serving.PartitioningService`, a
  :class:`~repro.fleet.FleetRouter`, or a
  :class:`~repro.cluster.ClusterRouter`.

``arrival="sequential"`` is the closed-loop replay (each request
submitted the instant the previous finishes — the legacy synchronous
path, responses returned in order).  The open-loop processes
(``uniform`` / ``poisson``) run the simulated-time
:class:`~repro.serving.EventLoop`; responses are streamed to
``on_complete`` and the result carries the loop's bounded-memory
stats instead of a response list.

The pre-existing entrypoints still exist as thin shims over this
facade and their outputs are golden-pinned bit-identical — old callers
see nothing.  The shims are for outside callers only: the facade's own
sequential path, the event loop and the routers call the per-request
cores (``PartitioningService._submit`` / ``_submit_graph``,
``FleetRouter.serve_on``, ``ClusterRouter.serve_on``) directly, so one
``serve_trace`` call enters the facade once, however long the trace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..faults import FaultSchedule
from ..telemetry import TELEMETRY_MODES, Telemetry
from .eventloop import CompletedRequest, EventLoop, EventLoopConfig, EventLoopStats
from .slo import SLOConfig
from .trace import GraphServingRequest, ServingRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.router import ClusterRouter
    from ..fleet.router import FleetRouter
    from ..workloads.spec import DriftEvent
    from .service import PartitioningService

__all__ = ["ServeOptions", "ServeResult", "serve_trace"]


@dataclass(frozen=True)
class ServeOptions:
    """Every serve-time knob of :func:`serve_trace`, in one place.

    Attributes:
        arrival: ``"sequential"`` for the closed-loop replay, or an
            open-loop process (``"uniform"`` / ``"poisson"``) for the
            event-driven path.
        rate_rps: mean open-loop arrival rate; ignored by sequential.
        seed: seed of the arrival-process draws.
        batch_predict: on the sequential service path, answer cold keys
            with one vectorized model pass (the ``submit_many``
            behaviour) instead of per-request inference.
        slo: latency targets, tenant priorities, shedding exemptions.
        shed_policy: one of :data:`~repro.serving.slo.SHED_POLICIES`.
        faults: seeded fault schedule for the event path, or ``None``.
        timeout_factor / max_retries / retry_backoff_s / retry_budget /
            hedge_at / hedge_min_completions / failover: the event
            loop's fault-handling knobs, verbatim
            (:class:`~repro.serving.EventLoopConfig`).
        speculate_at / speculate_min_completions / work_steal /
            queue_discipline: the cluster-scope straggler and fairness
            knobs, verbatim.
        objective: when not ``None``, assert the backend's services
            were built under this training/serving objective — the
            facade cannot change a trained objective at serve time, but
            it can refuse to quietly serve under the wrong one.
        power_cap_w: same assertion for the per-launch power cap.
        telemetry: ``"off"`` (default), ``"metrics"`` (a shared
            :class:`~repro.telemetry.MetricsRegistry` every layer
            publishes into, returned on the result), or ``"trace"``
            (metrics plus request-scoped spans and the JSONL event
            log; event path only).
    """

    arrival: str = "sequential"
    rate_rps: float = 200.0
    seed: int = 0
    batch_predict: bool = True
    slo: SLOConfig = field(default_factory=SLOConfig)
    shed_policy: str = "none"
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
    objective: object | None = None
    power_cap_w: float | None = None
    telemetry: str = "off"

    def __post_init__(self) -> None:
        from ..workloads.spec import ARRIVAL_PROCESSES

        if self.arrival not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.arrival!r}; "
                f"choose from {ARRIVAL_PROCESSES}"
            )
        if not self.rate_rps > 0:
            raise ValueError("rate_rps must be positive")
        if self.telemetry not in TELEMETRY_MODES:
            raise ValueError(
                f"unknown telemetry mode {self.telemetry!r}; "
                f"choose from {TELEMETRY_MODES}"
            )
        # Everything event-side is validated once, eagerly, by building
        # the loop config — a sequential run with bad event knobs fails
        # just as loudly as an event run would.
        self.event_config()

    def event_config(self) -> EventLoopConfig:
        """The :class:`EventLoopConfig` these options denote."""
        return EventLoopConfig(
            shed_policy=self.shed_policy,
            slo=self.slo,
            faults=self.faults,
            timeout_factor=self.timeout_factor,
            max_retries=self.max_retries,
            retry_backoff_s=self.retry_backoff_s,
            retry_budget=self.retry_budget,
            hedge_at=self.hedge_at,
            hedge_min_completions=self.hedge_min_completions,
            failover=self.failover,
            speculate_at=self.speculate_at,
            speculate_min_completions=self.speculate_min_completions,
            work_steal=self.work_steal,
            queue_discipline=self.queue_discipline,
        )


@dataclass(frozen=True)
class ServeResult:
    """What one :func:`serve_trace` call produced.

    ``responses`` is populated on the sequential path (one response per
    request, in arrival order) and empty on the event path, where
    per-request results stream through ``on_complete`` and ``stats``
    carries the bounded-memory aggregate instead.  ``telemetry`` is the
    run's :class:`~repro.telemetry.Telemetry` context when the options
    asked for one (``"metrics"`` / ``"trace"``), else ``None``.
    """

    backend_kind: str
    responses: tuple = ()
    stats: EventLoopStats | None = None
    telemetry: Telemetry | None = None


#: Marks an exhausted trace when peeking its first item.
_EMPTY = object()


def _backend_kind(backend) -> str:
    from ..cluster.router import ClusterRouter
    from ..fleet.router import FleetRouter
    from .service import PartitioningService

    if isinstance(backend, PartitioningService):
        return "service"
    if isinstance(backend, FleetRouter):
        return "fleet"
    if isinstance(backend, ClusterRouter):
        return "cluster"
    raise TypeError(
        f"serve_trace backends are PartitioningService, FleetRouter or "
        f"ClusterRouter; got {type(backend).__name__}"
    )


def _service_configs(backend, kind: str):
    if kind == "service":
        return [backend.config]
    if kind == "fleet":
        return [r.service.config for r in backend.replicas]
    return [r.service.config for pool in backend.pools for r in pool.replicas]


def _check_build_knobs(backend, kind: str, options: ServeOptions) -> None:
    """Objective/power-cap are baked in at build time; verify, don't mutate."""
    from ..energy.objectives import coerce_objective

    if options.objective is None and options.power_cap_w is None:
        return
    want = (
        coerce_objective(options.objective)
        if options.objective is not None
        else None
    )
    for config in _service_configs(backend, kind):
        if want is not None and config.objective is not want:
            raise ValueError(
                f"options.objective={want.value!r} but the backend was built "
                f"with objective={config.objective.value!r}; rebuild the "
                "service/fleet/cluster under the desired objective"
            )
        if (
            options.power_cap_w is not None
            and config.power_cap_w != options.power_cap_w
        ):
            raise ValueError(
                f"options.power_cap_w={options.power_cap_w!r} but the backend "
                f"was built with power_cap_w={config.power_cap_w!r}"
            )


def _sequential(backend, kind: str, requests: list, options: ServeOptions) -> tuple:
    if kind == "service":
        if options.batch_predict and not any(
            isinstance(r, GraphServingRequest) for r in requests
        ):
            return tuple(backend._submit_many(requests))
        return tuple(
            backend._submit_graph(r)
            if isinstance(r, GraphServingRequest)
            else backend._submit(r, None)
            for r in requests
        )
    if kind == "fleet":
        # Graph requests spread deterministically, exactly as the
        # event-loop fleet backend does; kernels go through the policy.
        responses = []
        for r in requests:
            if isinstance(r, GraphServingRequest):
                index = r.request_id % len(backend.replicas)
                responses.append(backend.replicas[index].service._submit_graph(r))
            else:
                responses.append(backend.submit(r))
        return tuple(responses)
    return tuple(backend.submit(r) for r in requests)


def serve_trace(
    backend,
    trace: "Iterable",
    options: ServeOptions = ServeOptions(),
    *,
    on_complete: Callable[[CompletedRequest], None] | None = None,
    drift_handler: "Callable[[DriftEvent], None] | None" = None,
) -> ServeResult:
    """Serve one trace on one backend under one set of options.

    ``trace`` is a sequence of requests (kernel or graph), or — on the
    event path only — an already-timed stream of ``(arrival_s,
    payload)`` items (e.g. :meth:`Workload.timed_items`), in which case
    the options' arrival process is ignored in favour of the stream's
    own timestamps.  A timed stream is consumed lazily, so a generator
    of any length is served in bounded memory.

    On a cluster backend the router's per-tenant isolation meters are
    fed automatically; a caller's ``on_complete`` chains after them.
    """
    kind = _backend_kind(backend)
    _check_build_knobs(backend, kind, options)
    telemetry = Telemetry.from_mode(options.telemetry)
    # Peek one item: a timed stream goes to the loop unlisted.  A plain
    # request trace is listed, since the arrival draws need its length.
    items = iter(trace)
    first = next(items, _EMPTY)
    pretimed = isinstance(first, tuple)
    if not pretimed:
        items = [] if first is _EMPTY else [first, *items]
    if options.arrival == "sequential" and not pretimed:
        if on_complete is not None or drift_handler is not None:
            raise ValueError(
                "on_complete/drift_handler are event-path hooks; "
                "sequential serving returns responses directly"
            )
        if telemetry is not None and telemetry.tracing:
            raise ValueError(
                "telemetry='trace' needs the simulated clock of the event "
                "path; sequential serving supports 'off' and 'metrics'"
            )
        responses = _sequential(backend, kind, items, options)
        if telemetry is not None:
            telemetry.collect(backend)
        return ServeResult(
            backend_kind=kind,
            responses=responses,
            telemetry=telemetry,
        )
    if pretimed:
        stream = itertools.chain((first,), items)
    else:
        from ..workloads.arrivals import arrival_times
        from ..workloads.spec import WorkloadSpec

        times = arrival_times(
            WorkloadSpec(
                num_requests=len(items),
                seed=options.seed,
                arrival=options.arrival,
                rate_rps=options.rate_rps,
            ),
            len(items),
        )
        stream = zip(times, items)
    observer = on_complete
    if kind == "cluster":
        cluster_observe = backend.observe_completion
        if on_complete is None:
            observer = cluster_observe
        else:
            user_observe = on_complete

            def observer(completed: CompletedRequest) -> None:
                cluster_observe(completed)
                user_observe(completed)

    config = options.event_config()
    if telemetry is not None:
        config = replace(config, telemetry=telemetry)
    loop = {
        "service": EventLoop.for_service,
        "fleet": EventLoop.for_fleet,
        "cluster": EventLoop.for_cluster,
    }[kind](backend, config)
    stats = loop.run(stream, on_complete=observer, drift_handler=drift_handler)
    if telemetry is not None:
        telemetry.collect(backend, stats=stats)
    return ServeResult(backend_kind=kind, stats=stats, telemetry=telemetry)
