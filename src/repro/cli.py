"""Command-line interface: ``python -m repro <command>``.

Commands:
    list                      — the 23-program suite
    machines                  — the simulated platforms
    kernel  <program>         — emitted single- and multi-device OpenCL C
    run     <program>         — sweep the strategies for one launch
    train   <machine>         — training campaign → JSON database
    report  <db.json> [...]   — full experiment report from databases
    energy-sweep <program>    — makespan-vs-energy sweep: per-objective
                                winners and the Pareto front per size
    graph-sweep               — co-search scheduling × partitioning for
                                one task-graph chain vs the greedy
                                partition-each-task baseline
    graph-serve               — serve a Zipf stream of task graphs
                                (the ``pipeline`` workload family)
                                through the graph-level plan cache
    replay                    — serve a synthetic trace (stationary /
                                phase-shift / flash-crowd / diurnal
                                workloads, optional platform drift)
    serve                     — serve "program size" requests from a
                                file or stdin
    trace-export              — serve a synthetic trace with tracing on
                                and export the span/event JSONL
    metrics-report            — serve a synthetic trace and print the
                                unified metrics registry
    fleet-train               — train + persist one model per fleet
                                machine into a model registry
    fleet-serve               — route one trace across a fleet of
                                machines (least-loaded / affinity /
                                predicted / energy placement, drain +
                                re-warm on sustained degradation)
    cluster-train             — train + persist one model per machine
                                across every pool of a cluster
    cluster-serve             — route a multi-tenant trace across
                                machine pools behind a priced
                                interconnect (home-pool tenancy,
                                speculative re-execution, work
                                stealing, weighted-fair queueing)

Shared flag groups (the workload generator, the event-driven serving
path, the objective knobs, ...) are defined once as argparse parent
parsers and attached to every command that supports them, so
``--arrival`` or ``--slo-ms`` mean the same thing everywhere.

The serving commands optimize makespan by default; ``--objective
energy|edp`` retargets the model, the regression checks and the local
search, and ``--power-cap WATTS`` serves under an average-power budget
(see docs/ENERGY.md).

By default the serving commands replay their trace closed-loop (each
request submitted the instant the previous one finishes).  ``--arrival
uniform|poisson`` switches to the event-driven path: requests arrive on
their own simulated clock at ``--arrival-rate``, queue per replica, and
the summary gains end-to-end latency percentiles; ``--slo-ms`` sets a
latency target with violation tracking and ``--shed-policy
deadline|priority`` enables admission control (see docs/SERVING.md).

Every trace-serving command runs through one driver,
:func:`_serve_workload`, over :func:`repro.serving.serve_trace`: a
command validates its inputs, trains its backend (a service, a fleet or
a cluster), generates its trace and names its summary printer; the
driver serves the trace in either arrival mode, applies drift and
reports.  Only ``serve`` without ``--arrival`` keeps its own loop, since
it answers stdin line by line.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager, nullcontext
from functools import partial
from pathlib import Path

from .benchsuite import all_benchmarks, get_benchmark
from .core import (
    PERSISTABLE_MODEL_KINDS,
    TrainingConfig,
    TrainingDatabase,
    generate_training_data,
    train_system,
)
from .machines import ALL_MACHINES, machine_by_name
from .partitioning import Partitioning
from .runtime import Runner, cpu_only, even_split, gpu_only, oracle_search
from .util.tables import format_table

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        (b.name, b.suite.value, len(b.problem_sizes()), b.description)
        for b in all_benchmarks()
    ]
    print(format_table(["program", "suite", "#sizes", "description"], rows))
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    for m in ALL_MACHINES:
        print(f"{m.name}: {m.description}")
        for spec in m.device_specs:
            kind = spec.kind.value.upper()
            print(
                f"  [{kind}] {spec.name}: peak {spec.peak_gflops:.0f} GFLOP/s, "
                f"{spec.mem_bandwidth_gbs:.0f} GB/s"
                + (
                    f", PCIe {spec.pcie_bandwidth_gbs:.1f} GB/s"
                    if spec.pcie_bandwidth_gbs
                    else ", host-resident"
                )
            )
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.program)
    compiled = bench.compiled()
    print("// ---- single-device ----")
    print(compiled.program.source)
    print("\n// ---- multi-device ----")
    print(compiled.program.md_source)
    print("\n" + compiled.program.host_plan)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    bench = get_benchmark(args.program)
    platform = machine_by_name(args.machine)
    size = args.size if args.size is not None else bench.problem_sizes()[-1]
    instance = bench.make_instance(size, seed=args.seed)
    request = bench.request(instance)
    runner = Runner(platform)
    strategies = [
        ("cpu-only", cpu_only(platform)),
        ("gpu-only", gpu_only(platform)),
        ("even", even_split(platform)),
    ]
    if args.partitioning:
        strategies.append(("custom", Partitioning.from_label(args.partitioning)))
    rows = []
    for label, p in strategies:
        rows.append((label, p.label, runner.time_of(request, p) * 1e3))
    best, t_best = oracle_search(lambda p: runner.time_of(request, p))
    rows.append(("oracle", best.label, t_best * 1e3))
    print(
        format_table(
            ["strategy", "partitioning", "time (ms)"],
            rows,
            title=f"{bench.name} @ size {size} on {platform.name}",
        )
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    platform = machine_by_name(args.machine)
    config = TrainingConfig(
        repetitions=args.repetitions,
        noise_sigma=args.noise,
        seed=args.seed,
        max_sizes=args.max_sizes,
    )
    db = generate_training_data(
        platform,
        all_benchmarks(),
        config,
        progress=print if args.verbose else None,
    )
    out = Path(args.output or f"training_{platform.name}.json")
    db.save(out)
    print(f"wrote {len(db)} records to {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import full_report

    merged = TrainingDatabase()
    for path in args.databases:
        for record in TrainingDatabase.load(path):
            merged.add(record)
    print(full_report(merged, model_kind=args.model))
    return 0


@contextmanager
def _exit_on_error():
    """Turn a library ``ValueError`` into a clean ``SystemExit(message)``."""
    try:
        yield
    except ValueError as error:
        raise SystemExit(str(error)) from error


def _training_objective(args: argparse.Namespace):
    """The objective the predictor trains on for a serving command.

    ``energy-capped-makespan`` is a serve-time constraint (the cap is
    enforced per request), so its models train on plain makespan.
    """
    from .energy import MODEL_OBJECTIVES, Objective, coerce_objective

    objective = coerce_objective(args.objective)
    return objective if objective in MODEL_OBJECTIVES else Objective.MAKESPAN


def _train_benchmarks(args: argparse.Namespace):
    """The (all, training-subset) benchmark split every serving command uses."""
    if args.max_sizes is not None and args.max_sizes < 1:
        raise SystemExit("--max-sizes must be >= 1")
    benchmarks = all_benchmarks()
    train_benchmarks = benchmarks
    if args.train_programs is not None:
        if not 1 <= args.train_programs <= len(benchmarks):
            raise SystemExit(f"--train-programs must be in [1, {len(benchmarks)}]")
        train_benchmarks = benchmarks[: args.train_programs]
    return benchmarks, train_benchmarks


def _training_config(args: argparse.Namespace) -> TrainingConfig:
    """The one-repetition campaign every serving and registry command runs."""
    return TrainingConfig(
        repetitions=1,
        noise_sigma=args.noise,
        seed=args.seed,
        max_sizes=args.max_sizes,
    )


def _service_config(args: argparse.Namespace):
    """The :class:`ServiceConfig` behind the shared service flag group."""
    from .serving import ServiceConfig

    with _exit_on_error():
        return ServiceConfig(
            cache_capacity=args.cache_capacity,
            regression_threshold=args.threshold,
            instance_seed=args.seed,
            memoize=not args.no_memoize,
            objective=args.objective,
            power_cap_w=args.power_cap,
        )


def _train(args: argparse.Namespace, platform, train_benchmarks):
    """Train one machine's system for a serving command."""
    return train_system(
        platform,
        train_benchmarks,
        model_kind=args.model,
        config=_training_config(args),
        objective=_training_objective(args),
    )


def _service(system, config):
    """Wrap a trained system; a config the platform cannot honour (a
    power cap below its idle floor) exits with the message."""
    from .serving import PartitioningService

    with _exit_on_error():
        return PartitioningService(system, config)


def _build_service(args: argparse.Namespace, train_benchmarks):
    """Train a system on ``--machine`` and wrap it in a PartitioningService."""
    config = _service_config(args)  # fail on a bad knob before training
    platform = machine_by_name(args.machine)
    return _service(_train(args, platform, train_benchmarks), config)


def _parse_drift_events(values: list[str]):
    """``AT:SCALE[:MACHINE[:DEVICE]]`` strings → DriftEvents."""
    from .workloads import DriftEvent

    events = []
    for value in values:
        parts = value.split(":")
        if not 2 <= len(parts) <= 4:
            raise SystemExit(
                f"--drift {value!r}: want AT:SCALE[:MACHINE[:DEVICE]], "
                "e.g. 100:0.5:mc2:1"
            )
        try:
            events.append(
                DriftEvent(
                    at_request=int(parts[0]),
                    scale=float(parts[1]),
                    machine=parts[2] if len(parts) > 2 and parts[2] else None,
                    device_index=int(parts[3]) if len(parts) > 3 else None,
                )
            )
        except ValueError as error:
            raise SystemExit(f"--drift {value!r}: {error}") from error
    return tuple(events)


def _parse_fault_specs(values: list[str]):
    """``KIND:AT:DURATION[:MAGNITUDE[:REPLICA]]`` strings → FaultSpecs."""
    from .faults import FAULT_KINDS, FaultSpec

    specs = []
    for value in values:
        parts = value.split(":")
        if not 3 <= len(parts) <= 5:
            raise SystemExit(
                f"--faults {value!r}: want KIND:AT:DURATION[:MAGNITUDE[:REPLICA]], "
                "e.g. crash:0.5:0.2::0 or straggler:0.1:0.4:6"
            )
        if parts[0] not in FAULT_KINDS:
            raise SystemExit(
                f"--faults {value!r}: unknown kind {parts[0]!r}; "
                f"choose from {FAULT_KINDS}"
            )
        try:
            specs.append(
                FaultSpec(
                    kind=parts[0],
                    at_s=float(parts[1]),
                    duration_s=float(parts[2]),
                    magnitude=(
                        float(parts[3]) if len(parts) > 3 and parts[3] else 1.0
                    ),
                    replica=int(parts[4]) if len(parts) > 4 and parts[4] else None,
                )
            )
        except ValueError as error:
            raise SystemExit(f"--faults {value!r}: {error}") from error
    return tuple(specs)


def _workload_from_args(args: argparse.Namespace, benchmarks, graphs: bool = False):
    """The key universe and the generated trace a serving command replays.

    Built before any training, so a bad generator flag fails at once.
    ``graphs`` selects the task-graph ``pipeline`` family of graph-serve,
    which mounts no generator flags of its own.
    """
    from .serving import key_universe
    from .workloads import WorkloadSpec, make_workload

    if graphs:
        shape = {"family": "pipeline"}
    elif args.workload == "pipeline":
        raise SystemExit(
            "the pipeline family emits task-graph requests; "
            "serve it with the graph-serve command"
        )
    else:
        shape = {
            "family": args.workload,
            "phases": args.phases,
            "burst_every": args.burst_every,
            "burst_length": args.burst_length,
            "burst_share": args.burst_share,
            "period": args.period,
            "skew_min": args.skew_min,
            "skew_max": args.skew_max,
            "drift_events": _parse_drift_events(args.drift),
        }
    with _exit_on_error():
        keys = key_universe(benchmarks, max_sizes=args.max_sizes)
        spec = WorkloadSpec(
            num_requests=args.requests,
            skew=args.skew,
            seed=args.seed,
            arrival=args.arrival or "sequential",
            rate_rps=args.arrival_rate,
            **shape,
        )
        return keys, make_workload(spec, keys)


def _parse_tenant_priorities(values: list[str]):
    """``TENANT:PRIO`` strings → the SLOConfig pair-tuple form."""
    pairs = []
    for value in values:
        tenant, sep, prio = value.partition(":")
        if not sep or not tenant or not prio.lstrip("-").isdigit():
            raise SystemExit(
                f"--tenant-priority {value!r}: want TENANT:PRIO, e.g. premium:2"
            )
        pairs.append((tenant, int(prio)))
    return tuple(pairs)


def _serve_options_from_args(args: argparse.Namespace):
    """The :class:`ServeOptions` behind the shared serving flag groups.

    Every serving command funnels through here, before it trains
    anything, so ``--slo-ms`` or ``--hedge-at`` mean exactly the same
    thing on one machine, a fleet or a cluster, and a bad value fails
    at once.  Cluster-only flags are read defensively: commands that
    don't mount the tenancy parent simply keep the defaults.
    """
    from .faults import FaultSchedule
    from .serving import ServeOptions, SLOConfig

    if args.faults and not args.arrival:
        raise SystemExit(
            "--faults needs the event-driven path; pick an --arrival process"
        )
    target_s = args.slo_ms / 1e3 if args.slo_ms is not None else None
    specs = _parse_fault_specs(args.faults)
    faults = None
    if specs:
        seed = args.fault_seed if args.fault_seed is not None else args.seed
        faults = FaultSchedule(specs=specs, seed=seed)
    priorities = _parse_tenant_priorities(getattr(args, "tenant_priority", []))
    with _exit_on_error():
        return ServeOptions(
            arrival=args.arrival or "sequential",
            telemetry=_telemetry_mode(args),
            rate_rps=args.arrival_rate,
            seed=args.seed,
            batch_predict=not getattr(args, "no_batch", False),
            slo=SLOConfig(target_s=target_s, tenant_priorities=priorities),
            shed_policy=args.shed_policy,
            faults=faults,
            timeout_factor=args.timeout_factor,
            max_retries=args.max_retries,
            retry_backoff_s=args.retry_backoff_ms / 1e3,
            retry_budget=args.retry_budget,
            hedge_at=args.hedge_at,
            failover=not args.no_failover,
            speculate_at=getattr(args, "speculate_at", None),
            work_steal=getattr(args, "work_steal", False),
            queue_discipline=getattr(args, "queue_discipline", "fifo"),
        )


def _telemetry_mode(args: argparse.Namespace) -> str:
    """The effective ``--telemetry`` mode (``--trace-out`` implies trace)."""
    mode = getattr(args, "telemetry", "off")
    if getattr(args, "trace_out", None) and mode != "trace":
        mode = "trace"
    if mode == "trace" and not getattr(args, "arrival", None):
        raise SystemExit(
            "--telemetry trace / --trace-out need the simulated clock of "
            "the event-driven path; pick an --arrival process"
        )
    return mode


def _finish_telemetry(args, telemetry, backend=None, stats=None) -> None:
    """Collect, report and export whatever telemetry the run produced.

    Collection is idempotent (published series are gauges), so commands
    that already collected through :func:`serve_trace` can funnel their
    result's context through here unchanged.
    """
    if telemetry is None:
        return
    telemetry.collect(backend, stats=stats)
    if telemetry.tracing:
        analyzer = telemetry.analyzer()
        slowest = analyzer.slowest(0.1)
        if slowest:
            print(
                analyzer.table(
                    slowest,
                    title=f"Critical path, slowest decile "
                    f"({len(slowest)} requests)",
                )
            )
        if getattr(args, "trace_out", None):
            telemetry.tracer.export(args.trace_out)
            print(
                f"trace: {len(telemetry.tracer.spans)} spans over "
                f"{len(analyzer.trace_ids())} requests -> {args.trace_out}"
            )
    else:
        print(
            f"metrics: {len(telemetry.registry)} series collected "
            "(metrics-report prints a full registry)"
        )


def _print_metrics_report(registry, as_json: bool = False) -> None:
    """The whole registry, one series per row (or raw JSON)."""
    import json

    snapshot = registry.snapshot()
    if as_json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
        return
    rows = []
    for name, value in snapshot.items():
        if isinstance(value, dict):
            rows.append(
                (
                    name,
                    f"n={value['count']} mean={value['mean_s'] * 1e3:.3f}ms "
                    f"p50={value['p50_s'] * 1e3:.3f}ms "
                    f"p99={value['p99_s'] * 1e3:.3f}ms",
                )
            )
        elif isinstance(value, float):
            rows.append((name, f"{value:.6g}"))
        else:
            rows.append((name, f"{value}"))
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=f"Metrics registry ({len(rows)} series)",
        )
    )


def _objective_quantity(service, value: float) -> str:
    """Format an objective-cost delta with its objective's unit."""
    from .energy import Objective

    objective = service.config.objective
    if objective is Objective.ENERGY:
        return f"{value:.3f} J"
    if objective is Objective.EDP:
        return f"{value:.6f} J*s"
    return f"{value * 1e3:.3f} ms"


def _engine_rows(service) -> list:
    """The sweep-engine row of the single-service summaries (if memoizing)."""
    if service.engine is None:
        return []
    es = service.engine.stats
    return [
        (
            "sweep engine",
            f"{es.compositions} compositions, "
            f"{es.tape_hit_rate * 100.0:.1f}% tape hits",
        )
    ]


def _print_service_summary(service, serialized: float, wall_s: float) -> None:
    """``serialized`` is the summed execute seconds of the served requests
    (streamed as a float so the event path never holds a response list)."""
    stats = service.stats
    cache = service.cache.stats
    sched = service.scheduler
    runner_stats = service.system.runner.stats
    multiplexed = sched.makespan_s
    served_executions = stats.requests * service.config.repetitions
    probes = runner_stats.executions - served_executions
    rows = [
        ("objective", service.config.objective.value),
        ("requests", f"{stats.requests}"),
        (
            "executions",
            f"{runner_stats.executions} ({probes} adaptation probes)",
        ),
        (
            "cache hit rate",
            f"{cache.hit_rate * 100.0:.1f}% "
            f"({cache.hits} hits / {cache.misses} misses / "
            f"{cache.evictions} evictions)",
        ),
        (
            "adaptations",
            f"{stats.adaptations} "
            f"(cold validations {stats.cold_validations}, "
            f"regressions {stats.regressions})",
        ),
        ("refits", f"{stats.refits}"),
        (
            "drift",
            f"{stats.drift_flags} flags, {stats.drift_escalations} escalations",
        ),
        ("adaptation gain", _objective_quantity(service, stats.improvement_s)),
        ("simulated serial", f"{serialized * 1e3:.3f} ms"),
        ("simulated multiplexed", f"{multiplexed * 1e3:.3f} ms"),
        (
            "batching speedup",
            f"{serialized / multiplexed:.2f}x" if multiplexed > 0 else "n/a",
        ),
        ("throughput (simulated)", f"{sched.throughput_rps():.1f} req/s"),
        (
            "throughput (wall)",
            f"{stats.requests / wall_s:.1f} req/s" if wall_s > 0 else "n/a",
        ),
        (
            "device utilization",
            " ".join(f"{u * 100.0:.0f}%" for u in sched.utilization()),
        ),
        ("served energy", f"{stats.energy_j:.3f} J"),
        (
            # Joules over the *serial* served seconds: each run's energy
            # charges platform idle over its own makespan, so dividing
            # by the compressed multiplexed span would overstate the
            # draw (and could contradict the cap row below).
            "avg power (served)",
            f"{stats.energy_j / serialized:.1f} W" if serialized > 0 else "n/a",
        ),
    ]
    if service.config.power_cap_w is not None:
        rows.append(
            (
                "power cap",
                f"{service.config.power_cap_w:g} W "
                f"({stats.power_capped} capped, "
                f"{stats.power_cap_violations} violations)",
            )
        )
    rows.extend(_engine_rows(service))
    print(format_table(["metric", "value"], rows, title="Serving summary"))


def _print_latency_summary(loop_stats) -> None:
    """The event-driven path's report: tail latency, queueing, SLOs."""
    lat = loop_stats.latency
    queue = loop_stats.queue_wait
    rows = [
        ("arrivals", f"{loop_stats.arrivals}"),
        (
            "completed",
            f"{loop_stats.completed} "
            f"({loop_stats.shed} shed, {loop_stats.shed_rate * 100.0:.1f}%; "
            f"{loop_stats.failed} failed)",
        ),
        ("availability", f"{loop_stats.availability * 100.0:.2f}%"),
        ("simulated span", f"{loop_stats.clock_s * 1e3:.3f} ms"),
        ("throughput (event)", f"{loop_stats.throughput_rps:.1f} req/s"),
        (
            "latency p50/p95/p99",
            " / ".join(f"{v * 1e3:.3f} ms" for v in lat.quantiles().values()),
        ),
        ("latency mean", f"{lat.mean_s * 1e3:.3f} ms"),
        (
            "queue wait p50/p95/p99",
            " / ".join(f"{v * 1e3:.3f} ms" for v in queue.quantiles().values()),
        ),
        (
            "SLO violations",
            f"{loop_stats.slo.violations} "
            f"({loop_stats.violation_rate * 100.0:.1f}% of completed)",
        ),
        ("loop idle energy", f"{loop_stats.idle_energy_j:.3f} J"),
    ]
    faulted = (
        loop_stats.crashes
        or loop_stats.timeouts
        or loop_stats.retries
        or loop_stats.hedges
        or loop_stats.exec_errors
        or loop_stats.predict_errors
        or loop_stats.failovers
        or loop_stats.requeued
    )
    if faulted:
        rows.extend(
            [
                (
                    "crashes",
                    f"{loop_stats.crashes} ({loop_stats.recoveries} recovered)",
                ),
                (
                    "failover",
                    f"{loop_stats.failovers} diverted, "
                    f"{loop_stats.requeued} requeued",
                ),
                ("timeouts", f"{loop_stats.timeouts}"),
                ("retries", f"{loop_stats.retries}"),
                (
                    "hedges",
                    f"{loop_stats.hedges} ({loop_stats.hedge_wins} wins, "
                    f"{loop_stats.hedge_cancels} cancelled)",
                ),
                (
                    "transient errors",
                    f"{loop_stats.exec_errors} exec, "
                    f"{loop_stats.predict_errors} predict",
                ),
                (
                    "reclaimed busy",
                    f"{loop_stats.cancelled_busy_s * 1e3:.3f} ms",
                ),
            ]
        )
    tenants = loop_stats.slo.snapshot()
    if len(tenants) > 1:
        for tenant, t in tenants.items():
            rows.append(
                (
                    f"tenant {tenant}",
                    f"{t['completed']} done, {t['shed']} shed, "
                    f"{t['violation_rate'] * 100.0:.1f}% violated",
                )
            )
    print(format_table(["metric", "value"], rows, title="Latency summary"))


def _drift_handler(args: argparse.Namespace, backend, trace_length: int):
    """The drift hook of every trace-serving command.

    Applies one workload :class:`DriftEvent` and logs it with the index
    of the request it fires before (events past the end of the trace
    report its length).  A single service skips an event aimed at
    another machine; a fleet or cluster names the replicas it hit.
    """
    from .serving import PartitioningService

    def on_drift(event) -> None:
        where = (
            f"device {event.device_index}"
            if event.device_index is not None
            else "all devices"
        )
        with _exit_on_error():
            if not isinstance(backend, PartitioningService):
                where = f"{', '.join(backend.apply_drift(event))} ({where})"
            elif event.machine not in (None, args.machine):
                print(f"!! drift event targets {event.machine!r}, not {args.machine}")
                return
            else:
                backend.system.runner.apply_drift(
                    event.scale, device_index=event.device_index
                )
        before = min(event.at_request, trace_length)
        print(f"-- drift: {where} x{event.scale:g} before request {before}")

    return on_drift


def _print_event_banner(options) -> None:
    """One line naming the event path's arrival process and knobs."""
    knobs = [
        f"shed policy {options.shed_policy}",
        f"queue {options.queue_discipline}",
    ]
    if options.faults is not None:
        knobs.append(f"{len(options.faults.specs)} fault windows")
    if options.hedge_at:
        knobs.append(f"hedge at p{options.hedge_at * 100:g}")
    if options.speculate_at:
        knobs.append(f"speculate at p{options.speculate_at * 100:g}")
    if options.work_steal:
        knobs.append("work-steal")
    print(
        f"event-driven: {options.arrival} arrivals at {options.rate_rps:g} "
        f"req/s ({', '.join(knobs)})"
    )


def _serve_workload(
    args: argparse.Namespace,
    backend,
    workload,
    options,
    summary=None,
    *,
    banner: bool = True,
    report: bool = True,
):
    """The one serving path behind every trace-serving command.

    With ``--arrival`` the whole timed trace goes through one
    :func:`serve_trace` call and the event loop fires the drift events.
    Without it, each segment's drift events are applied and its batch
    is served closed-loop, one :func:`serve_trace` call per segment.
    ``summary(serialized_s, wall_s)`` prints the command's own table,
    where ``serialized_s`` sums a single service's executions in trace
    order.  Unless ``report`` is off, the event path's latency table and
    the telemetry report follow.  Returns the (last) :class:`ServeResult`.
    """
    from .serving import serve_trace

    on_drift = _drift_handler(args, backend, len(workload))
    event_path = options.arrival != "sequential"
    if event_path and banner:
        _print_event_banner(options)
    t0 = time.perf_counter()
    if event_path:
        result = serve_trace(
            backend, workload.timed_items(), options, drift_handler=on_drift
        )
        serialized = result.stats.execute_time_s
    else:
        serialized = 0.0
        # An empty trace still makes one (empty) call, for its telemetry.
        for events, batch in list(workload.segments()) or [((), ())]:
            for event in events:
                on_drift(event)
            result = serve_trace(backend, batch, options)
            if result.backend_kind == "service":
                for response in result.responses:
                    serialized += response.measured_s
    wall_s = time.perf_counter() - t0
    if summary is not None:
        summary(serialized, wall_s)
    if report:
        if result.stats is not None:
            _print_latency_summary(result.stats)
        _finish_telemetry(
            args, result.telemetry, backend=backend, stats=result.stats
        )
    return result


def _print_trained(args: argparse.Namespace, benchmarks, train_benchmarks, service):
    print(
        f"trained on {len(train_benchmarks)}/{len(benchmarks)} programs "
        f"({len(service.system.database)} records, model {args.model}) "
        f"on {args.machine}"
    )


def _cmd_replay(args: argparse.Namespace) -> int:
    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    keys, workload = _workload_from_args(args, benchmarks)
    service = _build_service(args, train_benchmarks)
    _print_trained(args, benchmarks, train_benchmarks, service)
    print(
        f"replaying {len(workload)} requests over {len(keys)} keys "
        f"({args.workload} workload, skew {args.skew}, seed {args.seed}, "
        f"{len(workload.drift_events)} drift events)"
    )
    _serve_workload(
        args, service, workload, options, partial(_print_service_summary, service)
    )
    return 0


def _read_requests(stream, known):
    """``<program> <size>`` lines → ServingRequests, skipping comments and
    reporting malformed lines as they stream in."""
    from .serving import ServingRequest

    count = 0
    for line in stream:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if (
            len(parts) != 2
            or parts[0] not in known
            or not parts[1].isdigit()
            or int(parts[1]) < 1
        ):
            print(f"!! malformed request {line!r} (want '<program> <size>')")
            continue
        yield ServingRequest(request_id=count, program=parts[0], size=int(parts[1]))
        count += 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .telemetry import Telemetry
    from .workloads import Workload, WorkloadSpec

    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    service = _build_service(args, train_benchmarks)
    known = {b.name for b in benchmarks}
    print(f"serving on {args.machine}; requests are '<program> <size>' lines")
    with Path(args.trace).open() if args.trace else nullcontext(sys.stdin) as stream:
        if not args.arrival:
            served, serialized, t0 = 0, 0.0, time.perf_counter()
            for request in _read_requests(stream, known):
                r = service.submit(request)
                flags = ("hit" if r.cache_hit else "miss") + (
                    "+adapted" if r.adapted else ""
                )
                print(
                    f"{r.request.program}@{r.request.size}: "
                    f"{r.partitioning.label} {r.measured_s * 1e3:.3f} ms [{flags}]"
                )
                served += 1
                serialized += r.measured_s
            if served:
                _print_service_summary(service, serialized, time.perf_counter() - t0)
            telemetry = Telemetry.from_mode(options.telemetry)
            _finish_telemetry(args, telemetry, backend=service)
            return 0
        # Event mode queues the whole trace on a simulated arrival clock,
        # so it is served once the input is exhausted.
        requests = tuple(_read_requests(stream, known))
    if requests:
        spec = WorkloadSpec(
            num_requests=len(requests),
            seed=args.seed,
            arrival=args.arrival,
            rate_rps=args.arrival_rate,
        )
        workload = Workload(spec=spec, requests=requests, drift_events=())
        summary = partial(_print_service_summary, service)
        _serve_workload(args, service, workload, options, summary)
    return 0


def _train_registry(args: argparse.Namespace, pools, title: str, pooled: bool) -> int:
    """fleet-train / cluster-train: train and persist one model per machine."""
    from .fleet import ModelRegistry

    if args.model not in PERSISTABLE_MODEL_KINDS:
        # Catch this before spending minutes on the first machine's
        # training campaign only to fail in save_model.
        raise SystemExit(
            f"--model {args.model!r} cannot be persisted; "
            f"choose from {', '.join(PERSISTABLE_MODEL_KINDS)}"
        )
    _benchmarks, train_benchmarks = _train_benchmarks(args)
    registry = ModelRegistry(args.registry)
    config = _training_config(args)
    rows = []
    for pool, platforms in enumerate(pools):
        for platform in platforms:
            system = train_system(
                platform, train_benchmarks, model_kind=args.model, config=config
            )
            path = registry.save(system)
            row = (platform.name, len(system.database), args.model, str(path))
            rows.append((pool, *row) if pooled else row)
    headers = ["machine", "records", "model", "path"]
    print(format_table(["pool", *headers] if pooled else headers, rows, title=title))
    return 0


def _cmd_fleet_train(args: argparse.Namespace) -> int:
    from .machines import fleet_platforms

    with _exit_on_error():
        platforms = fleet_platforms(args.machines)
    title = f"Fleet training ({args.machines} machines)"
    return _train_registry(args, [platforms], title, pooled=False)


def _cmd_cluster_train(args: argparse.Namespace) -> int:
    from .machines import cluster_platforms

    with _exit_on_error():
        pools = cluster_platforms(args.pools, args.machines_per_pool)
    title = (
        f"Cluster training ({args.pools} pools x "
        f"{args.machines_per_pool} machines)"
    )
    return _train_registry(args, pools, title, pooled=True)


def _cmd_fleet_serve(args: argparse.Namespace) -> int:
    from .fleet import FleetRouter, ModelRegistry
    from .machines import fleet_platforms

    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    keys, workload = _workload_from_args(args, benchmarks)
    with _exit_on_error():
        platforms = fleet_platforms(args.machines)
    config = _service_config(args)
    registry = ModelRegistry(args.registry) if args.registry else None
    services, sources = [], []
    for platform in platforms:
        if registry is not None and registry.has(platform.name):
            system = registry.load(platform, noise_sigma=args.noise, seed=args.seed)
            source = "registry"
        elif registry is not None and args.warm_start and registry.machines():
            donor = registry.most_similar(platform)
            system = registry.warm_start(
                platform,
                model_kind=args.model,
                noise_sigma=args.noise,
                seed=args.seed,
                donor=donor,
            )
            source = f"warm({donor})"
        else:
            system = _train(args, platform, train_benchmarks)
            source = "trained"
        services.append(_service(system, config))
        sources.append(source)
    router = FleetRouter(services, policy=args.policy, registry=registry)
    print(
        f"fleet of {len(platforms)} machines (policy {args.policy}); "
        f"routing {len(workload)} requests over {len(keys)} keys "
        f"({args.workload} workload, skew {args.skew}, seed {args.seed}, "
        f"{len(workload.drift_events)} drift events)"
    )
    _serve_workload(
        args,
        router,
        workload,
        options,
        lambda _serialized, wall_s: _print_fleet_summary(router, sources, wall_s),
    )
    return 0


def _print_fleet_summary(router, sources, wall_s: float) -> None:
    stats = router.stats()
    rows = [
        (
            r.name,
            source,
            f"{r.routed}",
            f"{r.cache_hit_rate * 100.0:.0f}%",
            f"{r.adaptations}",
            f"{r.refits}",
            f"{r.drift_flags}",
            f"{r.rewarms}" + (" (draining)" if r.draining else ""),
            f"{r.health:.2f}",
            f"{r.makespan_s * 1e3:.3f}",
            f"{r.energy_j:.3f}",
            f"{r.avg_power_w:.0f}",
            " ".join(f"{u * 100.0:.0f}%" for u in r.utilization),
        )
        for r, source in zip(stats.replicas, sources)
    ]
    print(
        format_table(
            [
                "replica",
                "model source",
                "routed",
                "cache hit",
                "adapt",
                "refits",
                "drift",
                "rewarms",
                "health",
                "makespan (ms)",
                "energy (J)",
                "power (W)",
                "device util",
            ],
            rows,
            title="Fleet summary",
        )
    )
    totals = [
        ("requests", f"{stats.requests}"),
        ("fleet makespan (simulated)", f"{stats.makespan_s * 1e3:.3f} ms"),
        (
            "fleet throughput (simulated)",
            f"{stats.throughput_rps:.1f} req/s"
            + (
                f" ({stats.zero_span_replicas} zero-span replicas)"
                if stats.zero_span_replicas
                else ""
            ),
        ),
        (
            "throughput (wall)",
            f"{stats.requests / wall_s:.1f} req/s" if wall_s > 0 else "n/a",
        ),
        ("adaptations", f"{stats.adaptations}"),
        ("refits", f"{stats.refits}"),
        ("drift flags", f"{stats.drift_flags}"),
        ("replica rewarms", f"{stats.rewarms}"),
        ("fleet energy", f"{stats.energy_j:.3f} J"),
        ("fleet avg power", f"{stats.avg_power_w:.1f} W"),
    ]
    print(format_table(["metric", "value"], totals, title="Fleet totals"))


def _cmd_cluster_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .cluster import ClusterRouter, NetworkSpec, with_tenants

    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    keys, workload = _workload_from_args(args, benchmarks)
    if args.tenants:
        tenants = tuple(t.strip() for t in args.tenants.split(",") if t.strip())
        if not tenants:
            raise SystemExit("--tenants: want a comma-separated tenant list")
        workload = replace(
            workload, requests=with_tenants(workload.requests, tenants)
        )
    with _exit_on_error():
        cluster = ClusterRouter.build(
            pools=args.pools,
            machines_per_pool=args.machines_per_pool,
            benchmarks=train_benchmarks,
            model_kind=args.model,
            training=_training_config(args),
            serving=_service_config(args),
            policy=args.policy,
            network=NetworkSpec(
                bandwidth_gbs=args.net_bandwidth,
                latency_s=args.net_latency_us * 1e-6,
                link_watts=args.net_watts,
            ),
            slo=options.slo,
        )
    num_tenants = len({r.tenant for r in workload.requests})
    print(
        f"cluster of {args.pools}x{args.machines_per_pool} machines "
        f"(policy {args.policy}, net {args.net_bandwidth:g} GB/s + "
        f"{args.net_latency_us:g} us); routing {len(workload)} requests "
        f"from {num_tenants} tenant{'s' if num_tenants != 1 else ''} over "
        f"{len(keys)} keys ({args.workload} workload, skew {args.skew}, "
        f"seed {args.seed})"
    )
    _serve_workload(
        args,
        cluster,
        workload,
        options,
        lambda _serialized, wall_s: _print_cluster_summary(cluster, wall_s),
    )
    return 0


def _print_cluster_summary(cluster, wall_s: float) -> None:
    """Pool table, network toll and per-tenant isolation report."""
    stats = cluster.stats()
    rows = [
        (
            f"pool {p}",
            " ".join(r.name for r in cluster.pools[p].replicas),
            f"{ps.requests}",
            f"{ps.makespan_s * 1e3:.3f}",
            f"{ps.energy_j:.3f}",
            f"{ps.rewarms}",
        )
        for p, ps in enumerate(stats.pools)
    ]
    print(
        format_table(
            ["pool", "machines", "requests", "makespan (ms)", "energy (J)", "rewarms"],
            rows,
            title="Cluster pools",
        )
    )
    cross = (
        f"{stats.cross_pool} ({stats.cross_pool / stats.served * 100.0:.1f}%)"
        if stats.served
        else "0"
    )
    totals = [
        ("served", f"{stats.served}"),
        ("cross-pool", cross),
        ("network time", f"{stats.network_s * 1e3:.3f} ms"),
        ("network energy", f"{stats.network_j:.3f} J"),
        ("fairness gap", f"{stats.fairness_gap:.3f}"),
        (
            "throughput (wall)",
            f"{stats.served / wall_s:.1f} req/s" if wall_s > 0 else "n/a",
        ),
    ]
    print(format_table(["metric", "value"], totals, title="Cluster totals"))
    if stats.tenants:
        trows = [
            (
                t.tenant,
                f"{t.completed}",
                f"{t.share * 100.0:.1f}%",
                f"{t.fair_share * 100.0:.1f}%",
                f"{t.weight:g}",
                f"{t.p50_s * 1e3:.3f}",
                f"{t.p99_s * 1e3:.3f}",
            )
            for t in stats.tenants
        ]
        print(
            format_table(
                [
                    "tenant",
                    "done",
                    "share",
                    "fair share",
                    "weight",
                    "p50 (ms)",
                    "p99 (ms)",
                ],
                trows,
                title="Tenant isolation",
            )
        )


# -- shared flag groups ------------------------------------------------------
#
# Each group is defined exactly once, as an argparse *parent* parser
# (add_help=False); build_parser() mounts the groups a command supports
# via parents=[...].  Adding a flag here adds it to every command that
# mounts the group.


def _model_flags(
    p: argparse.ArgumentParser, model_default: str, noise_default: float
) -> None:
    """The model/training flags every serving command carries."""
    p.add_argument("--model", default=model_default, help="prediction model kind")
    p.add_argument(
        "--train-programs",
        type=int,
        default=16,
        help="train on the first N suite programs (the rest arrive cold)",
    )
    p.add_argument(
        "--max-sizes",
        type=int,
        default=3,
        help="cap each program's size ladder (training and trace)",
    )
    p.add_argument("--noise", type=float, default=noise_default)
    p.add_argument("--seed", type=int, default=0)


def _fleet_parent() -> argparse.ArgumentParser:
    """Flags shared by fleet-train and fleet-serve."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--machines",
        type=int,
        default=4,
        help="fleet size (machines generated by repro.machines.fleet_platforms)",
    )
    _model_flags(p, model_default="knn", noise_default=0.0)
    return p


def _cluster_parent() -> argparse.ArgumentParser:
    """Topology + model flags shared by cluster-train and cluster-serve."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--pools",
        type=int,
        default=2,
        help="machine pools (each pool is a full fleet router)",
    )
    p.add_argument(
        "--machines-per-pool",
        type=int,
        default=2,
        help="machines per pool (repro.machines.cluster_platforms)",
    )
    _model_flags(p, model_default="knn", noise_default=0.0)
    return p


def _network_parent() -> argparse.ArgumentParser:
    """The interconnect cost model pricing cross-pool handoffs."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--net-bandwidth",
        type=float,
        default=10.0,
        metavar="GB/S",
        help="interconnect bandwidth charged per cross-pool handoff",
    )
    p.add_argument(
        "--net-latency-us",
        type=float,
        default=50.0,
        metavar="US",
        help="fixed interconnect latency per cross-pool transfer",
    )
    p.add_argument(
        "--net-watts",
        type=float,
        default=8.0,
        metavar="W",
        help="link power while a handoff is in flight (joules metering)",
    )
    return p


def _tenancy_parent() -> argparse.ArgumentParser:
    """Multi-tenant and straggler-handling flags (cluster-serve)."""
    from .serving import QUEUE_DISCIPLINES

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--tenants",
        default=None,
        metavar="A,B,...",
        help="tenant names assigned round-robin over the trace",
    )
    p.add_argument(
        "--tenant-priority",
        action="append",
        default=[],
        metavar="TENANT:PRIO",
        help="one tenant's priority (repeatable; fair-share weight is "
        "1 + priority)",
    )
    p.add_argument(
        "--queue-discipline",
        default="fifo",
        choices=QUEUE_DISCIPLINES,
        help="per-replica queue order on the event-driven path",
    )
    p.add_argument(
        "--speculate-at",
        type=float,
        default=None,
        metavar="Q",
        help="speculatively re-execute in another pool once a request "
        "outlives the Q latency quantile (first completion wins)",
    )
    p.add_argument(
        "--work-steal",
        action="store_true",
        help="idle replicas steal queued work from other pools",
    )
    return p


def _workload_parent() -> argparse.ArgumentParser:
    """Flags of the trace generator (replay, fleet-serve, cluster-serve)."""
    from .workloads import WORKLOAD_FAMILIES

    p = argparse.ArgumentParser(add_help=False)

    p.add_argument(
        "--workload",
        default="stationary",
        choices=WORKLOAD_FAMILIES,
        help="trace family (see docs/WORKLOADS.md)",
    )
    p.add_argument(
        "--phases",
        type=int,
        default=3,
        help="hot-set rotations (phase-shift family)",
    )
    p.add_argument(
        "--burst-every",
        type=int,
        default=50,
        help="requests between flash-crowd bursts",
    )
    p.add_argument(
        "--burst-length", type=int, default=12, help="requests per burst"
    )
    p.add_argument(
        "--burst-share",
        type=float,
        default=0.8,
        help="traffic share the burst key takes during a burst",
    )
    p.add_argument(
        "--period", type=int, default=100, help="requests per diurnal cycle"
    )
    p.add_argument(
        "--skew-min", type=float, default=0.3, help="diurnal trough skew"
    )
    p.add_argument(
        "--skew-max", type=float, default=2.2, help="diurnal peak skew"
    )
    p.add_argument(
        "--drift",
        action="append",
        default=[],
        metavar="AT:SCALE[:MACHINE[:DEVICE]]",
        help="platform drift event, e.g. 100:0.5:mc2:1 (repeatable)",
    )
    return p


def _trace_parent() -> argparse.ArgumentParser:
    """Trace length and popularity skew (every trace-serving command)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--skew", type=float, default=1.5)
    return p


def _service_parent() -> argparse.ArgumentParser:
    """The PartitioningService build knobs every serve command shares."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--cache-capacity", type=int, default=512)
    p.add_argument(
        "--threshold",
        type=float,
        default=0.3,
        help="relative regression slack before adaptation triggers",
    )
    p.add_argument(
        "--no-memoize",
        action="store_true",
        help="measure without the memoizing sweep engine (A/B baseline)",
    )
    return p


def _serving_parent() -> argparse.ArgumentParser:
    """Flags of the single-machine serving commands (serve/replay/...)."""
    p = argparse.ArgumentParser(
        add_help=False, parents=[_service_parent(), _objective_parent()]
    )
    p.add_argument(
        "--machine", default="mc2", choices=[m.name for m in ALL_MACHINES]
    )
    _model_flags(p, model_default="mlp", noise_default=0.05)
    return p


def _event_parent() -> argparse.ArgumentParser:
    """Flags of the event-driven serving path (docs/SERVING.md)."""
    from .serving import SHED_POLICIES
    from .telemetry import TELEMETRY_MODES

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--arrival",
        default=None,
        choices=("uniform", "poisson"),
        help="arrival process: open-loop event-driven serving "
        "(default: closed-loop replay, no timestamps)",
    )
    p.add_argument(
        "--arrival-rate",
        type=float,
        default=200.0,
        metavar="RPS",
        help="mean arrival rate in requests per simulated second",
    )
    p.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        metavar="MS",
        help="end-to-end latency target; violations are tracked per tenant",
    )
    p.add_argument(
        "--shed-policy",
        default="none",
        choices=SHED_POLICIES,
        help="admission control under --slo-ms (deadline-aware shedding)",
    )
    p.add_argument(
        "--faults",
        action="append",
        default=[],
        metavar="KIND:AT:DUR[:MAG[:REPLICA]]",
        help="inject one fault window (repeatable): kind crash|straggler|"
        "error|predict-error, start and duration in simulated seconds, "
        "magnitude a slowdown factor or error probability, replica index "
        "or empty for all (docs/FAULTS.md)",
    )
    p.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="seed of the fault schedule's error draws (default: --seed)",
    )
    p.add_argument(
        "--timeout-factor",
        type=float,
        default=None,
        metavar="X",
        help="fail a request once its age exceeds X times its SLO target",
    )
    p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="extra service attempts after transient failures",
    )
    p.add_argument(
        "--retry-backoff-ms",
        type=float,
        default=1.0,
        metavar="MS",
        help="base retry backoff, doubling per retry",
    )
    p.add_argument(
        "--retry-budget",
        type=float,
        default=0.2,
        metavar="X",
        help="retry tokens earned per admitted request (caps retry traffic)",
    )
    p.add_argument(
        "--hedge-at",
        type=float,
        default=None,
        metavar="Q",
        help="fire a hedged duplicate once a request outlives the Q latency "
        "quantile of completions so far (e.g. 0.95)",
    )
    p.add_argument(
        "--no-failover",
        action="store_true",
        help="do not route around crashed replicas (availability baseline)",
    )
    p.add_argument(
        "--telemetry",
        default="off",
        choices=TELEMETRY_MODES,
        help="metrics: publish every layer into one registry; trace: also "
        "record per-request spans and the JSONL event log "
        "(docs/OBSERVABILITY.md)",
    )
    p.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the span/event JSONL trace here (implies --telemetry "
        "trace; event-driven path only)",
    )
    return p


def _objective_parent() -> argparse.ArgumentParser:
    """Flags of the energy-aware serving commands."""
    from .energy import Objective

    p = argparse.ArgumentParser(add_help=False)
    p.add_argument(
        "--objective",
        default=Objective.MAKESPAN.value,
        choices=[o.value for o in Objective],
        help="what the model and the adaptation loop optimize",
    )
    p.add_argument(
        "--power-cap",
        type=float,
        default=None,
        metavar="WATTS",
        help="average-power budget per served launch (docs/ENERGY.md)",
    )
    return p


def _cmd_energy_sweep(args: argparse.Namespace) -> int:
    from .energy import Objective, best_label, pareto_front
    from .engine import SweepEngine
    from .partitioning import partition_space

    bench = get_benchmark(args.program)
    platforms = (
        [machine_by_name(args.machine)] if args.machine else list(ALL_MACHINES)
    )
    sizes = bench.problem_sizes()
    if args.size is not None:
        sizes = [args.size]
    elif args.max_sizes is not None:
        sizes = sizes[: args.max_sizes]
    for platform in platforms:
        engine = SweepEngine(Runner(platform))
        space = partition_space(platform.num_devices, args.step)
        rows = []
        for size in sizes:
            instance = bench.make_instance(size, seed=args.seed)
            timings, energies = engine.sweep_with_energy(
                bench.request(instance), space
            )
            engine.reset()
            t_best = best_label(timings, energies, Objective.MAKESPAN)
            e_best = best_label(timings, energies, Objective.ENERGY)
            edp_best = best_label(timings, energies, Objective.EDP)
            front = pareto_front(timings, energies)
            rows.append(
                (
                    size,
                    f"{t_best} ({timings[t_best] * 1e3:.3f} ms)",
                    f"{e_best} ({energies[e_best]:.3f} J)",
                    edp_best,
                    f"{1.0 - energies[e_best] / energies[t_best]:.1%}",
                    f"{timings[e_best] / timings[t_best]:.2f}x",
                    len(front),
                )
            )
        print(
            format_table(
                [
                    "size",
                    Objective.MAKESPAN.value + "-best",
                    Objective.ENERGY.value + "-best",
                    "edp-best",
                    "energy saved",
                    "slowdown",
                    "pareto",
                ],
                rows,
                title=(
                    f"{bench.name} on {platform.name} "
                    f"({args.step}% grid, energy vs makespan)"
                ),
            )
        )
    return 0


def _parse_stages(value: str) -> list[tuple[str, int]]:
    """``prog@size,prog@size,...`` → pipeline stage list."""
    known = {b.name for b in all_benchmarks()}
    stages: list[tuple[str, int]] = []
    for part in value.split(","):
        part = part.strip()
        prog, sep, size = part.partition("@")
        if not sep or prog not in known or not size.isdigit() or int(size) < 1:
            raise SystemExit(
                f"--stages: bad stage {part!r} "
                "(want '<program>@<size>', e.g. stencil2d@256)"
            )
        stages.append((prog, int(size)))
    if len(stages) < 2:
        raise SystemExit("--stages: a pipeline needs at least 2 stages")
    return stages


def _cmd_graph_sweep(args: argparse.Namespace) -> int:
    from .energy import EnergyMeter
    from .engine import SweepEngine
    from .graphs import GraphPlanner, greedy_plan, pipeline_chain

    platform = machine_by_name(args.machine)
    stages = _parse_stages(args.stages)
    graph = pipeline_chain(stages, scale_bytes=args.scale_bytes)
    runner = Runner(platform, noise_sigma=args.noise, seed=args.seed)
    engine = SweepEngine(runner)
    requests = engine.graph_requests(graph, instance_seed=args.seed)
    idle_w = EnergyMeter(runner.devices).platform_idle_w()
    planner = GraphPlanner(
        engine.measure, runner.devices, idle_w, step_percent=args.step
    )
    greedy, _ = greedy_plan(graph, requests, engine.measure, planner.space)
    greedy_run = engine.measure_graph(graph, greedy, instance_seed=args.seed)
    plan, run = planner.search(graph, requests)
    greedy_labels = greedy.labels()
    labels = plan.labels()
    rows = [
        (
            name,
            f"{graph.node(name).program}@{graph.node(name).size}",
            greedy_labels[name],
            labels[name],
            f"{sched.start_s * 1e3:.3f}",
            f"{sched.finish_s * 1e3:.3f}",
            "*" if name in run.critical_path else "",
        )
        for name, sched in ((s.node, s) for s in run.schedule)
    ]
    print(
        format_table(
            [
                "task",
                "stage",
                "greedy",
                "co-search",
                "start (ms)",
                "finish (ms)",
                "crit",
            ],
            rows,
            title=f"{graph.name} on {platform.name} ({args.step}% grid)",
        )
    )
    stats = planner.stats
    speedup = greedy_run.median_s / run.median_s if run.median_s > 0 else 1.0
    summary = [
        ("greedy makespan", f"{greedy_run.median_s * 1e3:.3f} ms"),
        ("co-searched makespan", f"{run.median_s * 1e3:.3f} ms"),
        ("speedup over greedy", f"{speedup:.2f}x"),
        ("transfer time", f"{run.transfer_s * 1e3:.3f} ms"),
        ("graph energy", f"{run.energy_j:.3f} J"),
        ("critical path", " > ".join(run.critical_path)),
        (
            "search effort",
            f"{stats.evaluated} compositions, {stats.pruned} pruned, "
            f"{stats.passes} passes, {stats.improvements} improvements",
        ),
    ]
    print(format_table(["metric", "value"], summary, title="Co-search summary"))
    return 0


def _cmd_trace_export(args: argparse.Namespace) -> int:
    """Serve a synthetic workload with tracing on; write the JSONL spans."""
    if not args.trace_out:
        raise SystemExit("trace-export needs --trace-out PATH")
    args.telemetry = "trace"
    if not args.arrival:
        args.arrival = "poisson"
    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    keys, workload = _workload_from_args(args, benchmarks)
    service = _build_service(args, train_benchmarks)
    print(
        f"tracing {len(workload)} requests over {len(keys)} keys "
        f"({args.workload} workload, {args.arrival} arrivals at "
        f"{args.arrival_rate:g} req/s, seed {args.seed})"
    )
    _serve_workload(args, service, workload, options, banner=False)
    return 0


def _cmd_metrics_report(args: argparse.Namespace) -> int:
    """Serve a synthetic workload; print the unified metrics registry."""
    if _telemetry_mode(args) == "off":
        args.telemetry = "metrics"
    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    keys, workload = _workload_from_args(args, benchmarks)
    service = _build_service(args, train_benchmarks)
    print(
        f"serving {len(workload)} requests over {len(keys)} keys "
        f"({args.workload} workload, seed {args.seed}) "
        f"with telemetry={options.telemetry}"
    )
    result = _serve_workload(
        args, service, workload, options, banner=False, report=False
    )
    _print_metrics_report(result.telemetry.registry, as_json=args.json)
    if result.telemetry.tracing and args.trace_out:
        result.telemetry.tracer.export(args.trace_out)
        print(f"trace -> {args.trace_out}")
    return 0


def _print_graph_summary(
    service, pipelines: int, serialized: float, wall_s: float
) -> None:
    stats = service.stats
    cache = service.cache.stats
    rows = [
        ("objective", service.config.objective.value),
        ("graph requests", f"{stats.graph_requests}"),
        ("distinct pipelines", f"{pipelines}"),
        (
            "plan cache hit rate",
            f"{cache.hit_rate * 100.0:.1f}% "
            f"({cache.hits} hits / {cache.misses} misses)",
        ),
        ("co-searches", f"{stats.graph_cosearches}"),
        (
            "adaptations",
            f"{stats.adaptations} (cold validations {stats.cold_validations}, "
            f"regressions {stats.regressions})",
        ),
        ("adaptation gain", _objective_quantity(service, stats.improvement_s)),
        (
            "drift",
            f"{stats.drift_flags} flags, {stats.drift_escalations} escalations",
        ),
        ("simulated serial", f"{serialized * 1e3:.3f} ms"),
        (
            "throughput (wall)",
            f"{stats.graph_requests / wall_s:.1f} req/s" if wall_s > 0 else "n/a",
        ),
        ("served energy", f"{stats.energy_j:.3f} J"),
    ]
    rows.extend(_engine_rows(service))
    print(format_table(["metric", "value"], rows, title="Graph serving summary"))


def _cmd_graph_serve(args: argparse.Namespace) -> int:
    options = _serve_options_from_args(args)
    benchmarks, train_benchmarks = _train_benchmarks(args)
    _keys, workload = _workload_from_args(args, benchmarks, graphs=True)
    service = _build_service(args, train_benchmarks)
    pipelines = len({r.graph.signature_label for r in workload.requests})
    _print_trained(args, benchmarks, train_benchmarks, service)
    print(
        f"serving {len(workload)} task-graph requests over {pipelines} "
        f"distinct pipelines (skew {args.skew}, seed {args.seed})"
    )
    summary = partial(_print_graph_summary, service, pipelines)
    _serve_workload(args, service, workload, options, summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Problem-size-sensitive task partitioning (PPoPP'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(fn=_cmd_list)
    sub.add_parser("machines", help="describe the simulated platforms").set_defaults(
        fn=_cmd_machines
    )

    p_kernel = sub.add_parser("kernel", help="print emitted OpenCL C for a program")
    p_kernel.add_argument("program")
    p_kernel.set_defaults(fn=_cmd_kernel)

    p_run = sub.add_parser("run", help="time one launch under several strategies")
    p_run.add_argument("program")
    p_run.add_argument(
        "--machine", default="mc2", choices=[m.name for m in ALL_MACHINES]
    )
    p_run.add_argument("--size", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--partitioning", default=None, help='extra candidate, e.g. "40/30/30"'
    )
    p_run.set_defaults(fn=_cmd_run)

    p_train = sub.add_parser("train", help="run the training campaign on a machine")
    p_train.add_argument("machine", choices=[m.name for m in ALL_MACHINES])
    p_train.add_argument("--output", default=None)
    p_train.add_argument("--repetitions", type=int, default=1)
    p_train.add_argument("--noise", type=float, default=0.0)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--max-sizes", type=int, default=None)
    p_train.add_argument("--verbose", action="store_true")
    p_train.set_defaults(fn=_cmd_train)

    p_report = sub.add_parser("report", help="full experiment report from databases")
    p_report.add_argument("databases", nargs="+")
    p_report.add_argument("--model", default="mlp")
    p_report.set_defaults(fn=_cmd_report)

    p_esweep = sub.add_parser(
        "energy-sweep",
        help="makespan-vs-energy sweep: per-objective winners + Pareto front",
    )
    p_esweep.add_argument("program")
    p_esweep.add_argument(
        "--machine",
        default=None,
        choices=[m.name for m in ALL_MACHINES],
        help="one platform (default: all)",
    )
    p_esweep.add_argument("--size", type=int, default=None)
    p_esweep.add_argument(
        "--max-sizes", type=int, default=None, help="cap the size ladder"
    )
    p_esweep.add_argument("--step", type=int, default=10)
    p_esweep.add_argument("--seed", type=int, default=0)
    p_esweep.set_defaults(fn=_cmd_energy_sweep)

    p_gsweep = sub.add_parser(
        "graph-sweep",
        help="co-search scheduling x partitioning for one task-graph chain",
    )
    p_gsweep.add_argument(
        "--stages",
        default="stencil2d@256,reduction@65536,mat_mul@160",
        metavar="P@S,P@S,...",
        help="pipeline stages as '<program>@<size>' (comma-separated)",
    )
    p_gsweep.add_argument(
        "--machine", default="mc2", choices=[m.name for m in ALL_MACHINES]
    )
    p_gsweep.add_argument(
        "--scale-bytes",
        type=float,
        default=32.0,
        help="multiplier on the producer-output handoff bytes per edge",
    )
    p_gsweep.add_argument("--step", type=int, default=10)
    p_gsweep.add_argument("--noise", type=float, default=0.0)
    p_gsweep.add_argument("--seed", type=int, default=0)
    p_gsweep.set_defaults(fn=_cmd_graph_sweep)

    serving = _serving_parent()
    workload = _workload_parent()
    event = _event_parent()
    objective = _objective_parent()
    trace = _trace_parent()
    service = _service_parent()

    p_gserve = sub.add_parser(
        "graph-serve",
        help="serve a Zipf stream of task graphs (pipeline workload family)",
        parents=[trace, serving, event],
    )
    p_gserve.set_defaults(fn=_cmd_graph_serve, requests=50)

    p_replay = sub.add_parser(
        "replay",
        help="serve a synthetic request trace (online adaptation)",
        parents=[trace, serving, workload, event],
    )
    p_replay.add_argument(
        "--no-batch",
        action="store_true",
        help="serve sequentially instead of batching model inference",
    )
    p_replay.set_defaults(fn=_cmd_replay)

    p_serve = sub.add_parser(
        "serve",
        help="serve '<program> <size>' requests from a file or stdin",
        parents=[serving, event],
    )
    p_serve.add_argument(
        "--trace", default=None, help="request file (default: read stdin)"
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_texport = sub.add_parser(
        "trace-export",
        help="serve a synthetic trace with tracing on and export the "
        "span/event JSONL (docs/OBSERVABILITY.md)",
        parents=[trace, serving, workload, event],
    )
    p_texport.set_defaults(fn=_cmd_trace_export)

    p_mreport = sub.add_parser(
        "metrics-report",
        help="serve a synthetic trace and print the unified metrics registry",
        parents=[trace, serving, workload, event],
    )
    p_mreport.add_argument(
        "--json", action="store_true", help="raw JSON instead of a table"
    )
    p_mreport.set_defaults(fn=_cmd_metrics_report)

    fleet = _fleet_parent()

    p_ftrain = sub.add_parser(
        "fleet-train",
        help="train + persist one model per fleet machine",
        parents=[fleet],
    )
    p_ftrain.add_argument("--registry", required=True, help="model registry directory")
    p_ftrain.set_defaults(fn=_cmd_fleet_train)

    from .fleet import ROUTING_POLICIES

    p_fserve = sub.add_parser(
        "fleet-serve",
        help="route one request trace across a fleet of machines",
        parents=[fleet, trace, service, workload, event, objective],
    )
    p_fserve.add_argument(
        "--policy", default="least-loaded", choices=ROUTING_POLICIES
    )
    p_fserve.add_argument(
        "--registry", default=None, help="load machines registered here"
    )
    p_fserve.add_argument(
        "--warm-start",
        action="store_true",
        help="seed unregistered machines from the most similar registered one",
    )
    p_fserve.set_defaults(fn=_cmd_fleet_serve)

    cluster = _cluster_parent()

    p_ctrain = sub.add_parser(
        "cluster-train",
        help="train + persist one model per machine across every pool",
        parents=[cluster],
    )
    p_ctrain.add_argument("--registry", required=True, help="model registry directory")
    p_ctrain.set_defaults(fn=_cmd_cluster_train)

    p_cserve = sub.add_parser(
        "cluster-serve",
        help="route a multi-tenant trace across machine pools behind a "
        "priced interconnect",
        parents=[
            cluster,
            trace,
            service,
            _network_parent(),
            _tenancy_parent(),
            workload,
            event,
            objective,
        ],
    )
    p_cserve.add_argument(
        "--policy", default="least-loaded", choices=ROUTING_POLICIES
    )
    p_cserve.set_defaults(fn=_cmd_cluster_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
