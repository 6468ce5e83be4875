"""The fleet router: one request stream, many machines.

The paper trains one model per machine and predicts per (program,
size); a production deployment owns a *fleet* of heterogeneous
machines and must decide, per request, which machine serves it —
HeSP's joint scheduling-partitioning question lifted one level up,
and HeMT's dispatch tier made explicit.  The router owns N replicas
(each one machine with its own :class:`TrainedSystem` and
:class:`PartitioningService`) and places every request via a pluggable
policy:

* ``least-loaded`` — the replica whose multiplexed timeline frees up
  first (:attr:`BatchScheduler.makespan_s`), the classic list-scheduling
  greedy.
* ``affinity`` — a stable hash of (program, size): every key always
  lands on the same replica, maximizing that replica's prediction-cache
  and adaptation locality at the price of load balance.
* ``predicted`` — ask each replica's model what partitioning it would
  run and a noise-free cost-model estimate of how long that would take
  on that machine, then place the request where it is predicted to
  *finish* first (device availability + predicted duration).  This is
  the makespan-aware policy: a fast machine that is busy loses to a
  slower idle one.
* ``energy`` — the same peek, but place the request where serving it
  is predicted to cost the fewest *joules* (idle power over the
  launch included), ties broken by predicted finish time.  This is
  the fleet-level energy router: heterogeneous replicas differ in
  watts as much as in speed, and the greenest machine for a small
  launch is rarely the one with the most GPUs.

The router also owns replica *health*: a per-replica EWMA of the
measured/predicted makespan ratio across everything it serves.  A
replica whose smoothed ratio stays degraded — its hardware drifted and
its service could not repair the gap — is **drained** (taken out of
placement for a cooldown) and **re-warmed**: its model and database
roll back to the registry snapshot when one exists, otherwise the
model refits on the full observation history, and every cached
decision restarts cold.

Routing is deterministic given the seed: the same trace over the same
fleet reproduces the same placements, adaptations and stats.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..benchsuite.registry import get_benchmark
from ..core.features import combined_features
from ..core.pipeline import train_system
from ..core.trainer import TrainingConfig
from ..energy.objectives import MODEL_OBJECTIVES, Objective
from ..engine import SweepEngine
from ..ocl.platform import Platform
from ..partitioning import Partitioning
from ..runtime.measurement import Runner
from ..runtime.scheduler import ExecutionRequest
from ..serving.service import PartitioningService, ServedResponse, ServiceConfig
from ..serving.trace import ServingRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..workloads.spec import DriftEvent
    from .registry import ModelRegistry

__all__ = [
    "ROUTING_POLICIES",
    "HealthConfig",
    "FleetReplica",
    "FleetResponse",
    "ReplicaHealthView",
    "ReplicaStats",
    "FleetStats",
    "FleetRouter",
]

#: The pluggable placement policies.
ROUTING_POLICIES = ("least-loaded", "affinity", "predicted", "energy")


@dataclass(frozen=True)
class HealthConfig:
    """Knobs of the router's per-replica degradation tracking.

    Attributes:
        enabled: track health and drain/re-warm degraded replicas.
        alpha: EWMA smoothing of the replica's measured/estimate ratio.
        threshold: sustained relative degradation before a drain (0.5 =
            smoothed ratio above 1.5).  Deliberately slacker than the
            service-level drift threshold: the replica gets to repair
            itself key by key first, and only a gap its own adaptation
            could not close costs it a drain.
        min_observations: served responses before a replica may drain.
        cooldown: placements the drained replica sits out before
            rejoining the rotation (and before it may drain again).
        cooldown_tick_s: simulated seconds per cooldown step when the
            event loop feeds the router time (:meth:`FleetRouter.tick`).
            Placements alone are a bad clock — on a quiet fleet a
            drained replica would sit out forever — so cooldown also
            decays one step per tick interval.  0 disables time decay.
    """

    enabled: bool = True
    alpha: float = 0.3
    threshold: float = 0.5
    min_observations: int = 8
    cooldown: int = 16
    cooldown_tick_s: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")
        if self.min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if self.cooldown_tick_s < 0:
            raise ValueError("cooldown_tick_s must be non-negative")


@dataclass
class _ReplicaHealth:
    """Router-side health state of one replica."""

    ewma: float = 1.0
    observations: int = 0
    draining: int = 0
    #: Smoothed serving rate (requests per simulated second).  The
    #: batch scheduler reports an ``inf`` sentinel when everything a
    #: replica served took zero simulated time; those samples are
    #: excluded here exactly like non-finite costs are excluded from
    #: the degradation EWMA — one poisoned sample would otherwise make
    #: the smoothed rate ``inf``/``nan`` forever.
    rate_ewma: float = 0.0
    rate_observations: int = 0


@dataclass(frozen=True)
class ReplicaHealthView:
    """Public snapshot of one replica's health bookkeeping.

    This is the documented way to read the router's drain/re-warm
    state — consumers above the router (the cluster tier, benchmarks,
    tests) must not reach into the private ``_health`` counters.  The
    view is a frozen copy: mutating router state goes through
    :meth:`FleetRouter.tick` / :meth:`FleetRouter.rewarm_replica`.

    Attributes:
        index: the replica the snapshot describes.
        ewma: smoothed measured/predicted cost ratio (1.0 = on spec).
        observations: served responses folded into ``ewma`` since the
            last drain.
        draining_steps: placements/ticks the replica still sits out;
            0 means it is in rotation.
        rate_ewma: smoothed serving rate (requests per simulated
            second), always finite.
        rate_observations: finite rate samples folded into the EWMA.
    """

    index: int
    ewma: float
    observations: int
    draining_steps: int
    rate_ewma: float
    rate_observations: int

    @property
    def draining(self) -> bool:
        return self.draining_steps > 0


@dataclass
class FleetReplica:
    """One machine of the fleet: a service plus routing counters."""

    index: int
    service: PartitioningService
    routed: int = 0
    rewarms: int = 0

    @property
    def platform(self) -> Platform:
        return self.service.system.platform

    @property
    def name(self) -> str:
        return self.platform.name

    @property
    def scheduler(self):
        return self.service.scheduler


@dataclass(frozen=True)
class FleetResponse:
    """A served request plus where the router placed it."""

    replica_index: int
    replica_name: str
    response: ServedResponse


@dataclass(frozen=True)
class ReplicaStats:
    """One replica's slice of the fleet telemetry."""

    name: str
    routed: int
    requests: int
    adaptations: int
    refits: int
    cache_hit_rate: float
    makespan_s: float
    throughput_rps: float
    utilization: tuple[float, ...]
    drift_flags: int = 0
    rewarms: int = 0
    health: float = 1.0
    draining: bool = False
    energy_j: float = 0.0
    avg_power_w: float = 0.0
    #: Router-side smoothed serving rate; always finite (the scheduler's
    #: zero-span ``inf`` sentinel never enters the EWMA).
    rate_ewma: float = 0.0


@dataclass(frozen=True)
class FleetStats:
    """Cross-fleet telemetry of one routing session.

    Replicas run concurrently, so the fleet makespan is the *maximum*
    over the replicas' multiplexed timelines and fleet throughput is
    total requests over that span.  Per-replica schedulers report an
    ``inf`` throughput sentinel when everything they served took zero
    simulated time; the *aggregate* never propagates it — replicas in
    that state are counted in :attr:`zero_span_replicas` and the fleet
    throughput stays finite (0.0 when no simulated time elapsed at
    all), so downstream arithmetic (speedup ratios, JSON baselines)
    cannot be poisoned by a leaked ``inf``.
    """

    replicas: tuple[ReplicaStats, ...]
    requests: int
    makespan_s: float
    throughput_rps: float
    adaptations: int
    refits: int
    drift_flags: int = 0
    rewarms: int = 0
    zero_span_replicas: int = 0
    energy_j: float = 0.0
    avg_power_w: float = 0.0

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)


class FleetRouter:
    """Routes a shared request trace across N partitioning services."""

    def __init__(
        self,
        services: Sequence[PartitioningService],
        policy: str = "least-loaded",
        registry: "ModelRegistry | None" = None,
        health: HealthConfig = HealthConfig(),
    ):
        if not services:
            raise ValueError("a fleet needs at least one replica")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; choose from {ROUTING_POLICIES}"
            )
        names = [s.system.platform.name for s in services]
        if len(set(names)) != len(names):
            raise ValueError(
                f"replica machine names must be unique, got {names}: cache keys, "
                "database records and registry entries all key on the name"
            )
        self.policy = policy
        self.registry = registry
        self.health = health
        self.replicas = tuple(
            FleetReplica(index=i, service=s) for i, s in enumerate(services)
        )
        self._health = [_ReplicaHealth() for _ in self.replicas]
        # The predicted policy estimates durations on a private noise-free
        # runner per replica, so probing machines never pollutes the
        # serving runners' telemetry or noise streams.
        self._estimators: list[SweepEngine] | None = None
        # Request plumbing shared across replicas: the problem instance
        # and feature dict depend only on (program, size), not machine —
        # peeking N replicas must not build N copies of the arrays.
        self._exec_requests: dict[tuple[str, int], ExecutionRequest] = {}
        self._features: dict[tuple[str, int], dict[str, float]] = {}
        # Peeked predictions, invalidated whenever the replica adapts or
        # refits (either can change what it would answer).
        self._peeked: list[dict[tuple[str, int], Partitioning]] = [
            {} for _ in self.replicas
        ]
        self._peek_generations: list[tuple[int, int]] = [
            (-1, -1) for _ in self.replicas
        ]
        # Simulated-time cooldown decay (see tick()): last clock value
        # seen and elapsed time not yet converted into cooldown steps.
        self._sim_clock_s = 0.0
        self._tick_carry_s = 0.0

    @classmethod
    def build(
        cls,
        platforms: Sequence[Platform],
        benchmarks=None,
        model_kind: str = "knn",
        training: TrainingConfig = TrainingConfig(repetitions=1),
        serving: ServiceConfig = ServiceConfig(),
        policy: str = "least-loaded",
        registry: "ModelRegistry | None" = None,
        health: HealthConfig = HealthConfig(),
    ) -> "FleetRouter":
        """Train one system per platform and wrap them in a router.

        Each replica's model trains under the serving config's
        objective, so an energy-objective fleet predicts energy-optimal
        partitionings end to end.  (``energy-capped-makespan`` is a
        serve-time constraint — its models train on makespan and the
        cap is enforced per request by each service.)
        """
        objective = (
            serving.objective
            if serving.objective in MODEL_OBJECTIVES
            else Objective.MAKESPAN
        )
        services = [
            PartitioningService(
                train_system(
                    p,
                    benchmarks,
                    model_kind=model_kind,
                    config=training,
                    objective=objective,
                ),
                serving,
            )
            for p in platforms
        ]
        return cls(services, policy=policy, registry=registry, health=health)

    # -- placement policies ------------------------------------------------

    def _candidates(self) -> tuple[int, ...]:
        """Replica indices currently in rotation.

        Draining replicas are excluded; when *every* replica is
        draining the traffic must still land somewhere, so the full
        fleet becomes eligible again.
        """
        up = tuple(
            i for i in range(len(self.replicas)) if self._health[i].draining == 0
        )
        return up or tuple(range(len(self.replicas)))

    def _affinity_index(self, request: ServingRequest) -> int:
        """Stable key → replica hash (process-independent, unlike hash())."""
        digest = hashlib.sha256(
            f"{request.program}:{request.size}".encode()
        ).digest()
        base = int.from_bytes(digest[:8], "big")
        candidates = self._candidates()
        # Linear probe from the home slot: while a replica drains its
        # keys spill to the next one, and return home afterwards.
        for offset in range(len(self.replicas)):
            index = (base + offset) % len(self.replicas)
            if index in candidates:
                return index
        return base % len(self.replicas)  # pragma: no cover - candidates never empty

    def _least_loaded_index(self) -> int:
        return min(
            self._candidates(),
            key=lambda i: (self.replicas[i].scheduler.makespan_s, i),
        )

    def _plumbing(
        self, request: ServingRequest
    ) -> tuple[ExecutionRequest, dict[str, float]]:
        """Per-key execution request + feature dict, shared fleet-wide."""
        key = (request.program, request.size)
        if key not in self._exec_requests:
            bench = get_benchmark(request.program)
            # Seed matches what replica 0's service will instantiate, so
            # the estimator prices exactly the arrays that get served.
            instance = bench.make_instance(
                request.size, seed=self.replicas[0].service.config.instance_seed
            )
            self._exec_requests[key] = bench.request(instance)
            self._features[key] = combined_features(bench.compiled(instance), instance)
        return self._exec_requests[key], self._features[key]

    def _peek(
        self,
        replica: FleetReplica,
        request: ServingRequest,
        features: dict[str, float],
    ) -> Partitioning:
        """Memoized peek_prediction, re-peeked after the replica changes.

        An adaptation pins a validated winner and a refit swaps the
        model; either changes what the replica would answer, so the
        memo is keyed to the (refits, adaptations) generation and
        dropped wholesale when it moves.
        """
        i = replica.index
        stats = replica.service.stats
        generation = (
            stats.refits,
            stats.adaptations,
            stats.drift_flags,
            stats.rewarms,
        )
        if self._peek_generations[i] != generation:
            self._peeked[i].clear()
            self._peek_generations[i] = generation
        memo = self._peeked[i]
        key = (request.program, request.size)
        hit = memo.get(key)
        if hit is None:
            hit = replica.service.peek_prediction(request, features=features)
            memo[key] = hit
        return hit

    def _ensure_estimators(self) -> list[SweepEngine]:
        if self._estimators is None:
            self._estimators = [
                SweepEngine(Runner(r.platform)) for r in self.replicas
            ]
        return self._estimators

    def _predicted_index(self, request: ServingRequest) -> int:
        self._ensure_estimators()
        exec_request, features = self._plumbing(request)
        candidates = self._candidates()
        best_index, best_finish = candidates[0], float("inf")
        for index in candidates:
            replica = self.replicas[index]
            partitioning = self._peek(replica, request, features)
            duration = self._estimators[replica.index].time_of(
                exec_request, partitioning
            )
            free = replica.scheduler.device_free_s
            start = max(free[d] for d in partitioning.active_devices)
            finish = start + duration
            if finish < best_finish:
                best_index, best_finish = replica.index, finish
        return best_index

    def _energy_index(self, request: ServingRequest) -> int:
        """The replica predicted to serve this request for the fewest joules.

        Same peek-every-model mechanics as the ``predicted`` policy,
        but the score is the estimated *energy* of running the
        replica's predicted partitioning on that machine (idle power
        over the launch included, so a many-GPU machine pays its whole
        board for a small launch).  Ties — identical machines answering
        identically — break by predicted finish time so the energy
        policy still spreads load across twins.
        """
        self._ensure_estimators()
        exec_request, features = self._plumbing(request)
        candidates = self._candidates()
        best_index = candidates[0]
        best_score = (float("inf"), float("inf"))
        for index in candidates:
            replica = self.replicas[index]
            partitioning = self._peek(replica, request, features)
            run = self._estimators[replica.index].measure(exec_request, partitioning)
            free = replica.scheduler.device_free_s
            start = max(free[d] for d in partitioning.active_devices)
            score = (run.energy_j, start + run.median_s)
            if score < best_score:
                best_index, best_score = replica.index, score
        return best_index

    def _route_index(self, request: ServingRequest) -> int:
        if self.policy == "affinity":
            return self._affinity_index(request)
        if self.policy == "predicted":
            return self._predicted_index(request)
        if self.policy == "energy":
            return self._energy_index(request)
        return self._least_loaded_index()

    # -- replica health ----------------------------------------------------

    def _observe_health(self, replica: FleetReplica, response: ServedResponse) -> None:
        """Fold one served response into the replica's health EWMA.

        Deliberately *one-sided*, unlike the service's two-sided
        per-key :class:`~repro.serving.drift.DriftDetector`: a key
        whose device sped up deserves a re-search (the optimum moved),
        but a replica that got *faster* than predicted must never be
        drained — drains are for machines underdelivering on their
        promises, and the per-key detector already refreshes the fast
        replica's decisions in place.
        """
        state = self._health[replica.index]
        rate = replica.scheduler.throughput_rps()
        if math.isfinite(rate):
            # First finite sample seeds the EWMA; the scheduler's
            # zero-span ``inf`` sentinel is skipped entirely (see
            # _ReplicaHealth.rate_ewma).
            if state.rate_observations == 0:
                state.rate_ewma = rate
            else:
                state.rate_ewma = (
                    self.health.alpha * rate
                    + (1.0 - self.health.alpha) * state.rate_ewma
                )
            state.rate_observations += 1
        estimate = response.estimate_s
        if estimate is None or estimate <= 0:
            return
        if not math.isfinite(estimate):
            return
        # Compare in the service's objective units: ``cost`` is the
        # measured scalar the estimate was produced in (seconds only
        # under the makespan objective — an energy-objective replica
        # must be judged in joules, not joules-vs-seconds).
        ratio = response.cost / estimate
        if not math.isfinite(ratio):
            # Cap-infeasible measurements cost inf; inf/NaN would
            # poison the health EWMA permanently.
            return
        state.ewma = (
            self.health.alpha * ratio + (1.0 - self.health.alpha) * state.ewma
        )
        state.observations += 1
        if (
            state.draining == 0
            and state.observations >= self.health.min_observations
            and state.ewma > 1.0 + self.health.threshold
        ):
            self._drain(replica)

    def _drain(self, replica: FleetReplica) -> None:
        """Take a degraded replica out of rotation and re-warm it."""
        state = self._health[replica.index]
        state.draining = self.health.cooldown
        state.ewma = 1.0
        state.observations = 0
        self.rewarm_replica(replica.index)

    def rewarm_replica(self, index: int) -> None:
        """Re-warm one replica: registry rollback or in-place refit.

        With a registered snapshot the replica's model *and* database
        roll back to the last known-good state (online observations
        made on the pre-drift hardware are discarded wholesale);
        without one the model refits on everything observed so far.
        Either way the replica's serving state restarts cold — see
        :meth:`PartitioningService.rewarm`.
        """
        replica = self.replicas[index]
        if self.registry is not None and self.registry.has(replica.name):
            predictor, database = self.registry.load_snapshot(replica.platform)
            replica.service.rewarm(predictor=predictor, database=database)
        else:
            replica.service.rewarm()
        replica.rewarms += 1

    def apply_drift(self, event: "DriftEvent") -> tuple[str, ...]:
        """Apply one platform drift event; returns the machines hit.

        Matches replicas by machine name (``event.machine is None``
        drifts the whole fleet) and rescales both the serving runner
        and the predicted policy's private estimator runner, so
        placement prices the post-drift hardware the requests will
        actually run on.  Estimators are created on the spot when the
        predicted policy has not routed yet — a drift event before the
        first placement must not be lost on them.
        """
        estimators = (
            self._ensure_estimators()
            if self.policy in ("predicted", "energy")
            else None
        )
        hit = []
        for replica in self.replicas:
            if event.machine is not None and replica.name != event.machine:
                continue
            replica.service.system.runner.apply_drift(
                event.scale, device_index=event.device_index
            )
            if estimators is not None:
                estimators[replica.index].runner.apply_drift(
                    event.scale, device_index=event.device_index
                )
            hit.append(replica.name)
        if not hit:
            raise ValueError(
                f"drift event names unknown machine {event.machine!r}; "
                f"fleet has {[r.name for r in self.replicas]}"
            )
        return tuple(hit)

    # -- serving -----------------------------------------------------------

    def place(self, request: ServingRequest) -> int:
        """Pick (and commit to) a replica for one request.

        This is the routing half of :meth:`submit`, split out so the
        event loop can place at *arrival* time and serve at queue-head
        time — placement must see the fleet as it is when the request
        shows up, not when a queue finally drains.  Calling ``place``
        commits the routing side effects (drain countdown, routed
        counter); follow it with :meth:`serve_on`.
        """
        if self.health.enabled:
            # Each routed request moves every draining replica one step
            # closer to rejoining; tick() adds a simulated-time clock on
            # top so a quiet fleet cannot strand a drained replica.
            for state in self._health:
                if state.draining > 0:
                    state.draining -= 1
        index = self._route_index(request)
        self.replicas[index].routed += 1
        return index

    def tick(self, now_s: float) -> None:
        """Advance the router's simulated clock to ``now_s``.

        Drain cooldowns decay one step per ``cooldown_tick_s`` of
        elapsed simulated time, *in addition to* the per-placement
        decrement in :meth:`place`.  Before this, cooldown counted
        placements only, so on a quiet fleet a drained replica could
        sit out forever waiting for traffic that never came.  The event
        loop calls this whenever its clock moves; fractional intervals
        carry over, so many small ticks decay exactly like one big one.
        """
        if now_s <= self._sim_clock_s:
            return
        elapsed = now_s - self._sim_clock_s
        self._sim_clock_s = now_s
        if not self.health.enabled or self.health.cooldown_tick_s <= 0:
            return
        self._tick_carry_s += elapsed
        steps = int(self._tick_carry_s / self.health.cooldown_tick_s)
        if steps <= 0:
            return
        self._tick_carry_s -= steps * self.health.cooldown_tick_s
        for state in self._health:
            if state.draining > 0:
                state.draining = max(0, state.draining - steps)

    def serve_on(self, index: int, request: ServingRequest) -> FleetResponse:
        """Serve one already-placed request on the chosen replica."""
        replica = self.replicas[index]
        response = replica.service._submit(request, None)
        if self.health.enabled:
            self._observe_health(replica, response)
        return FleetResponse(
            replica_index=index, replica_name=replica.name, response=response
        )

    def submit(self, request: ServingRequest) -> FleetResponse:
        """Place and serve one request; returns the placement + response."""
        return self.serve_on(self.place(request), request)

    def serve(self, trace: Sequence[ServingRequest]) -> list[FleetResponse]:
        """Route a whole trace; placement is sequential by design (the
        least-loaded and predicted policies depend on prior placements)."""
        return [self.submit(r) for r in trace]

    # -- telemetry ---------------------------------------------------------

    def replica_health(self, index: int) -> ReplicaHealthView:
        """A frozen snapshot of one replica's health bookkeeping.

        The supported read path for everything the router tracks per
        replica — drain countdown, degradation EWMA, smoothed serving
        rate — so layers above (the cluster router, benchmarks, tests)
        never couple to the private counters.
        """
        state = self._health[index]
        return ReplicaHealthView(
            index=index,
            ewma=state.ewma,
            observations=state.observations,
            draining_steps=state.draining,
            rate_ewma=state.rate_ewma,
            rate_observations=state.rate_observations,
        )

    def stats(self) -> FleetStats:
        """Per-replica utilization and cross-fleet throughput, right now."""
        per = []
        for r in self.replicas:
            sched = r.scheduler
            stats = r.service.stats
            health = self._health[r.index]
            per.append(
                ReplicaStats(
                    name=r.name,
                    routed=r.routed,
                    requests=stats.requests,
                    adaptations=stats.adaptations,
                    refits=stats.refits,
                    cache_hit_rate=r.service.cache.stats.hit_rate,
                    makespan_s=sched.makespan_s,
                    throughput_rps=sched.throughput_rps(),
                    utilization=sched.utilization(),
                    drift_flags=stats.drift_flags,
                    rewarms=r.rewarms,
                    health=health.ewma,
                    draining=health.draining > 0,
                    rate_ewma=health.rate_ewma,
                    energy_j=stats.energy_j,
                    # Average draw over the replica's own multiplexed
                    # span; zero-span replicas report 0 W, not inf.
                    avg_power_w=(
                        stats.energy_j / sched.makespan_s
                        if sched.makespan_s > 0
                        else 0.0
                    ),
                )
            )
        requests = sum(p.routed for p in per)
        makespan = max((p.makespan_s for p in per), default=0.0)
        # Regression guard: the per-replica scheduler reports an ``inf``
        # sentinel for served-in-zero-time; summing/aggregating that
        # into the fleet number poisons speedup ratios and JSON
        # baselines downstream.  The aggregate stays finite and the
        # sentinel cases are surfaced as a count instead.
        zero_span = sum(1 for p in per if math.isinf(p.throughput_rps))
        throughput = requests / makespan if makespan > 0 else 0.0
        energy = sum(p.energy_j for p in per)
        return FleetStats(
            replicas=tuple(per),
            requests=requests,
            makespan_s=makespan,
            throughput_rps=throughput,
            adaptations=sum(p.adaptations for p in per),
            refits=sum(p.refits for p in per),
            drift_flags=sum(p.drift_flags for p in per),
            rewarms=sum(p.rewarms for p in per),
            zero_span_replicas=zero_span,
            energy_j=energy,
            # Fleet draw averaged over the concurrent span (replicas
            # run side by side, so joules sum but seconds do not).
            avg_power_w=energy / makespan if makespan > 0 else 0.0,
        )

    def publish_metrics(self, registry, prefix: str = "fleet") -> None:
        """Publish fleet aggregates and per-replica slices as gauges.

        ``fleet.*`` carries the cross-fleet numbers;
        ``fleet.replica.<name>.*`` the per-replica routing/health view;
        each member service publishes its own counters under
        ``fleet.replica.<name>.service.*``.
        """
        stats = self.stats()
        registry.gauge(f"{prefix}.requests").set(stats.requests)
        registry.gauge(f"{prefix}.makespan_s").set(stats.makespan_s)
        registry.gauge(f"{prefix}.throughput_rps").set(stats.throughput_rps)
        registry.gauge(f"{prefix}.adaptations").set(stats.adaptations)
        registry.gauge(f"{prefix}.refits").set(stats.refits)
        registry.gauge(f"{prefix}.drift_flags").set(stats.drift_flags)
        registry.gauge(f"{prefix}.rewarms").set(stats.rewarms)
        registry.gauge(f"{prefix}.zero_span_replicas").set(
            stats.zero_span_replicas
        )
        registry.gauge(f"{prefix}.energy_j").set(stats.energy_j)
        registry.gauge(f"{prefix}.avg_power_w").set(stats.avg_power_w)
        for snap, replica in zip(stats.replicas, self.replicas):
            base = f"{prefix}.replica.{snap.name}"
            registry.gauge(f"{base}.routed").set(snap.routed)
            registry.gauge(f"{base}.cache_hit_rate").set(snap.cache_hit_rate)
            registry.gauge(f"{base}.health").set(snap.health)
            registry.gauge(f"{base}.draining").set(int(snap.draining))
            registry.gauge(f"{base}.rate_ewma").set(snap.rate_ewma)
            replica.service.publish_metrics(registry, prefix=f"{base}.service")
