#!/usr/bin/env python
"""Telemetry overhead on the event-driven serving path.

The observability layer's acceptance gate.  One stationary open-loop
trace (poisson arrivals calibrated to ~70% utilization) is replayed
through the event loop three times — ``telemetry="off"``,
``"metrics"``, and ``"trace"`` — with identical seeds, so every mode
simulates the exact same run and only the instrumentation differs.

Each of ``--repeats`` rounds plays the three modes' loops in lock
step: every loop serves ``SEGMENT`` arrivals, then hands the turn to
the next, so segment *k* of every mode covers the same arrivals and
the same simulated work, milliseconds apart on the host.  A mode's
overhead is the median, over every segment of every round, of its
segment wall clock divided by the ``off`` loop's.  A slow spell of the
host then hits both sides of nearly every pair and cancels in the
ratio; whole-run timings, best-of or paired, could not resolve a 10%
bound on a shared host.  The script fails when:

* the metrics-mode wall overhead over ``off`` exceeds the bound (the
  registry-backed stats must stay a thin view): < 3% on the full run,
  < 10% on the CI-sized ``--quick`` run where wall noise dominates;
* trace mode costs more than ``TRACE_BOUND``x the off-mode wall —
  span trees are allowed to be expensive, not unbounded;
* any mode perturbs the simulation: the latency-histogram bucket
  counts must be bit-identical across all three modes;
* two trace-mode runs do not export byte-identical JSONL, or any
  completed trace's critical-path spans fail to tile its latency
  (``CriticalPathAnalyzer.check``).

With ``--check-against`` the per-mode latency quantiles are compared
to a committed baseline (simulated time is hardware-independent) and
the run fails on a >``--max-regression`` increase; wall-clock numbers
are reported but never compared across machines.

Usage:
    PYTHONPATH=src python benchmarks/bench_telemetry.py [--quick]
        [--output BENCH_telemetry.json]
        [--check-against benchmarks/BENCH_telemetry_baseline.json]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.benchsuite import all_benchmarks
from repro.core import TrainingConfig, train_system
from repro.machines import MC2
from repro.serving import (
    EventLoop,
    EventLoopConfig,
    PartitioningService,
    ServiceConfig,
    SLOConfig,
    key_universe,
)
from repro.telemetry import TELEMETRY_MODES, Telemetry
from repro.workloads import WorkloadSpec, make_workload, stream_timed_items

#: Target utilization of the poisson arrival process (see bench_latency).
UTILIZATION = 0.7

#: Trace mode may cost at most this many times the off-mode wall.
TRACE_BOUND = 5.0

#: Arrivals each loop serves before passing the turn (about 60 ms of
#: host time per segment in off mode on a 2-core shared host).
SEGMENT = 1000


def _train(train_programs: int, seed: int):
    return train_system(
        MC2,
        all_benchmarks()[:train_programs],
        model_kind="knn",
        config=TrainingConfig(repetitions=1, max_sizes=2, seed=seed),
    )


def calibrate_rate(keys, train_programs: int, seed: int) -> float:
    """Measured mean service time → arrival rate at ``UTILIZATION``."""
    service = PartitioningService(
        _train(train_programs, seed), ServiceConfig(instance_seed=seed)
    )
    trace = make_workload(
        WorkloadSpec(family="stationary", num_requests=100, skew=1.3, seed=seed),
        keys,
    ).requests
    responses = service.serve(list(trace))
    mean_s = sum(r.measured_s for r in responses) / len(responses)
    return UTILIZATION / mean_s


def play_in_lock_step(runs: dict, segment: int) -> dict:
    """Run several event loops in turn, ``segment`` arrivals at a time.

    ``runs`` maps a name to ``(loop, arrival stream)``; the turn passes
    in the mapping's order.  Each loop runs on its own thread, but only
    the thread holding the turn is ever runnable, so the loops never
    overlap.  Returns each name's ``(stats, segment wall seconds)``;
    the last segment includes the loop's final drain.
    """
    names = list(runs)
    turns = {name: threading.Semaphore(0) for name in names}
    segments: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, object] = {}
    done: set[str] = set()

    def pass_turn(name: str) -> None:
        i = names.index(name)
        for step in range(1, len(names) + 1):
            following = names[(i + step) % len(names)]
            if following not in done:
                turns[following].release()
                return

    def play(name: str) -> None:
        loop, stream = runs[name]
        turns[name].acquire()
        start = time.perf_counter()

        def gated():
            nonlocal start
            for i, item in enumerate(stream):
                if i and i % segment == 0:
                    segments[name].append(time.perf_counter() - start)
                    pass_turn(name)
                    turns[name].acquire()
                    start = time.perf_counter()
                yield item

        try:
            results[name] = loop.run(gated())
            segments[name].append(time.perf_counter() - start)
        except BaseException as exc:  # re-raised on the main thread below
            results[name] = exc
        finally:
            done.add(name)
            pass_turn(name)

    threads = [threading.Thread(target=play, args=(name,)) for name in names]
    for thread in threads:
        thread.start()
    turns[names[0]].release()
    for thread in threads:
        thread.join()
    for result in results.values():
        if isinstance(result, BaseException):
            raise result
    return {name: (results[name], segments[name]) for name in names}


def run_round(
    order,
    keys,
    num_requests: int,
    rate_rps: float,
    slo_s: float,
    train_programs: int,
    seed: int,
):
    """One freshly-trained service and loop per mode, played in lock step.

    Training is repeated per run (not hoisted) because serving mutates
    the trained system in place — a shared instance would make later
    modes replay a *different* simulation and break the fingerprint
    gate.  Only the loops themselves are timed, so the retrain does not
    pollute the wall-clock comparison.

    Returns ``{mode: (doc, telemetry, segment seconds)}`` — the
    telemetry context is kept so trace-mode repeats can be compared for
    byte-identical exports.
    """
    spec = WorkloadSpec(
        family="stationary",
        num_requests=num_requests,
        skew=1.3,
        seed=seed,
        arrival="poisson",
        rate_rps=rate_rps,
    )
    services, telemetries, runs = {}, {}, {}
    for mode in order:
        services[mode] = PartitioningService(
            _train(train_programs, seed), ServiceConfig(instance_seed=seed)
        )
        telemetries[mode] = Telemetry.from_mode(mode)
        config = EventLoopConfig(
            slo=SLOConfig(target_s=slo_s), telemetry=telemetries[mode]
        )
        loop = EventLoop.for_service(services[mode], config)
        runs[mode] = (loop, stream_timed_items(spec, keys))
    # Flush the training garbage so collector pauses triggered by its
    # allocations do not land inside the timed loops.
    gc.collect()
    played = play_in_lock_step(runs, SEGMENT)
    out = {}
    for mode, (stats, segments) in played.items():
        telemetry = telemetries[mode]
        if telemetry is not None:
            telemetry.collect(services[mode], stats=stats)
        wall_s = sum(segments)
        doc = {
            "mode": mode,
            "arrivals": stats.arrivals,
            "completed": stats.completed,
            "shed": stats.shed,
            "latency": stats.latency.to_dict(),
            "wall_s": wall_s,
            "wall_rps": num_requests / wall_s if wall_s > 0 else 0.0,
            # The simulation must be byte-for-byte unaffected by the mode.
            "fingerprint": {
                "latency_counts": list(stats.latency.counts),
                "latency_zeros": stats.latency.zeros,
            },
        }
        out[mode] = (doc, telemetry, segments)
    return out


def check_against(doc: dict, baseline_path: Path, max_regression: float) -> list[str]:
    """Failures when a mode's latency quantile regressed vs the baseline."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for mode, result in doc["modes"].items():
        ref = baseline["modes"].get(mode)
        if ref is None:
            continue
        for q in ("p50_s", "p95_s", "p99_s"):
            measured = result["latency"][q]
            reference = ref["latency"][q]
            if measured > reference * max_regression:
                failures.append(
                    f"{mode} latency {q}: {measured * 1e3:.3f} ms > baseline "
                    f"{reference * 1e3:.3f} ms x {max_regression:g}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--requests",
        type=int,
        default=None,
        help="trace length (default: 200,000; quick: 20,000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="lock-step rounds; overheads are medians of per-segment ratios",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_telemetry.json")
    parser.add_argument(
        "--check-against",
        default=None,
        help="baseline JSON; exit non-zero on >--max-regression latency increase",
    )
    parser.add_argument("--max-regression", type=float, default=1.5)
    args = parser.parse_args(argv)

    num_requests = args.requests or (20_000 if args.quick else 200_000)
    train_programs = 4 if args.quick else 8
    metrics_bound = 0.10 if args.quick else 0.03
    keys = key_universe(all_benchmarks(), max_sizes=2)

    rate_rps = calibrate_rate(keys, train_programs, args.seed)
    slo_s = 4.0 * UTILIZATION / rate_rps
    print(f"calibrated arrival rate: {rate_rps:.1f} req/s ({UTILIZATION:.0%} load)")

    # The turn order flips every round (off, metrics, trace, then
    # trace, metrics, off) so no mode always serves a segment first.
    modes: dict[str, dict] = {}
    ratios: dict[str, list[float]] = {mode: [] for mode in TELEMETRY_MODES}
    exports: list[list[str]] = []
    analyzer = None
    for round_index in range(max(1, args.repeats)):
        order = TELEMETRY_MODES if round_index % 2 == 0 else TELEMETRY_MODES[::-1]
        played = run_round(
            order, keys, num_requests, rate_rps, slo_s, train_programs, args.seed
        )
        off_segments = played["off"][2]
        for mode, (doc, telemetry, segments) in played.items():
            ratios[mode].extend(s / o for s, o in zip(segments, off_segments))
            best = modes.get(mode)
            if best is None or doc["wall_s"] < best["wall_s"]:
                modes[mode] = doc
            if telemetry is not None and telemetry.tracing:
                exports.append(telemetry.tracer.export_lines())
                analyzer = telemetry.analyzer()
    for mode, best in modes.items():
        print(
            f"{mode:>7}: wall {best['wall_s']:.3f} s "
            f"({best['wall_rps']:.0f} req/s), "
            f"p99 {best['latency']['p99_s'] * 1e3:.3f} ms"
        )

    failures = []
    for mode, result in modes.items():
        if result["arrivals"] != result["completed"] + result["shed"]:
            failures.append(f"{mode}: request conservation broken: {result}")
        if result["fingerprint"] != modes["off"]["fingerprint"]:
            failures.append(f"{mode}: telemetry perturbed the simulation")

    metrics_overhead = statistics.median(ratios["metrics"]) - 1.0
    trace_ratio = statistics.median(ratios["trace"])
    print(
        f"metrics overhead over off: {metrics_overhead:+.1%} "
        f"(median of {len(ratios['metrics'])} segment ratios)"
    )
    print(f"trace wall over off:       {trace_ratio:.2f}x")
    if metrics_overhead > metrics_bound:
        failures.append(
            f"metrics-mode overhead {metrics_overhead:.1%} exceeds "
            f"{metrics_bound:.0%} bound"
        )
    if trace_ratio > TRACE_BOUND:
        failures.append(
            f"trace mode costs {trace_ratio:.2f}x off-mode wall "
            f"(bound {TRACE_BOUND:g}x)"
        )

    # Replay gate: every trace-mode repeat must export byte-identical
    # JSONL — same seeds, same simulated clock, same lines.
    byte_identical = all(lines == exports[0] for lines in exports[1:])
    if not byte_identical:
        failures.append("trace-mode repeats did not export byte-identical JSONL")
    trace_digest = hashlib.sha256(
        "\n".join(exports[0]).encode() + b"\n"
    ).hexdigest()
    print(
        f"trace export: {len(exports[0])} lines over {len(exports)} runs, "
        f"byte-identical={byte_identical}, sha256={trace_digest[:12]}…"
    )

    # Attribution gate: critical-path spans tile every completed latency.
    for tid in analyzer.completed_ids():
        try:
            analyzer.check(tid)
        except AssertionError as exc:  # pragma: no cover - gate
            failures.append(f"trace {tid}: critical path does not tile: {exc}")
            break
    print(f"critical-path tiling checked for {len(analyzer.completed_ids())} traces")

    doc = {
        "benchmark": "telemetry-overhead",
        "quick": args.quick,
        "seed": args.seed,
        "num_requests": num_requests,
        "train_programs": train_programs,
        "repeats": args.repeats,
        "rate_rps": rate_rps,
        "slo_s": slo_s,
        "utilization": UTILIZATION,
        "metrics_overhead": metrics_overhead,
        "metrics_bound": metrics_bound,
        "trace_ratio": trace_ratio,
        "segment": SEGMENT,
        "segment_ratios": ratios,
        "trace_lines": len(exports[0]),
        "trace_digest": trace_digest,
        "byte_identical": byte_identical,
        "modes": modes,
    }
    Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {args.output}")
    if args.check_against:
        baseline_failures = check_against(
            doc, Path(args.check_against), args.max_regression
        )
        if not baseline_failures:
            print(f"perf check ok against {args.check_against}")
        failures.extend(baseline_failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
