"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root):

    python3 perfbench/run.py --workload service-zipf --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed: it sets the workload up three times, runs its measured phase
repeatedly until ``--seconds`` have passed (at least three times), with
the untimed work spread between the repeats, and checks every run's
outputs.  Host metrics are medians over the repeats, each scaled to the
host's nominal speed by a reference loop timed around it.
``--trace 1`` alternates untraced and traced runs of set-up plus
measured phase, reports the per-layer metrics of the last traced run
and the tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run counts
as one attempted operation; a run whose outputs fail a check counts as
failed, and the benchmark reports ``correct: false``.  See
``perfbench/README.md`` for the workloads, metrics and span format.
"""

from __future__ import annotations

import argparse
import copy
import gc
import heapq
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

#: (name, unit) of every end-to-end metric, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("eval_s", "s"),
    ("host_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("slo_met_share", "ratio"),
    ("completed_share", "ratio"),
    ("sim_capacity_rps", "1/s"),
    ("sim_mean_service_ms", "ms"),
    ("speedup_vs_cpu", "x"),
    ("speedup_vs_gpu", "x"),
    ("oracle_efficiency", "ratio"),
)

#: (name, unit) of every per-layer metric, as BENCHMARK.json lists them.
PER_LAYER = (
    ("serving.facade.calls_per_request", "calls/request"),
    ("serving.facade.self_s", "s"),
    ("serving.eventloop.self_s", "s"),
    ("serving.service.self_s", "s"),
    ("engine.measure.calls", "count"),
    ("engine.measure.self_s", "s"),
    ("engine.tape_hit_rate", "ratio"),
    ("engine.sweep.self_s", "s"),
    ("core.database.merge.calls", "count"),
    ("core.database.merge.self_s", "s"),
    ("serving.cache.hit_ratio", "ratio"),
    ("core.predictor.predict.calls", "count"),
    ("core.predictor.predict.self_s", "s"),
    ("core.predictor.refit.self_s", "s"),
    ("serving.adapt.searches", "count"),
    ("serving.adapt.refits", "count"),
    ("serving.drift.flags", "count"),
    ("fleet.place.self_s", "s"),
    ("cluster.place.self_s", "s"),
    ("cluster.speculate.self_s", "s"),
    ("cluster.steal.self_s", "s"),
    ("fleet.busy_imbalance", "ratio"),
    ("serving.queue.wait_p99_ms", "ms"),
    ("cluster.cross_pool_share", "ratio"),
    ("cluster.spec_win_ratio", "ratio"),
    ("faults.retries", "count"),
    ("faults.timeouts", "count"),
    ("ml.fit.calls", "count"),
    ("ml.fit.self_s", "s"),
    ("compiler.features.self_s", "s"),
    ("runtime.run.self_s", "s"),
    ("core.trainer.self_s", "s"),
    ("workloads.self_s", "s"),
    ("unattributed.self_s", "s"),
    ("trace.overhead", "ratio"),
)

#: Per-layer metric → (summary section, layer or span name, field).
_SPAN_METRICS = {
    "serving.facade.self_s": ("layers", "serving.facade", "self_s"),
    "serving.eventloop.self_s": ("layers", "serving.eventloop", "self_s"),
    "serving.service.self_s": ("layers", "serving.service", "self_s"),
    "engine.measure.calls": ("names", "engine.measure", "calls"),
    "engine.measure.self_s": ("names", "engine.measure", "self_s"),
    "engine.sweep.self_s": ("names", "engine.sweep", "self_s"),
    "core.database.merge.calls": ("names", "core.database.merge", "calls"),
    "core.database.merge.self_s": ("names", "core.database.merge", "self_s"),
    "core.predictor.predict.calls": ("names", "core.predictor.predict", "calls"),
    "core.predictor.predict.self_s": ("names", "core.predictor.predict", "self_s"),
    "core.predictor.refit.self_s": ("names", "core.predictor.refit", "self_s"),
    "serving.adapt.searches": ("names", "serving.adapt", "calls"),
    "fleet.place.self_s": ("names", "fleet.place", "self_s"),
    "cluster.place.self_s": ("names", "cluster.place", "self_s"),
    "cluster.speculate.self_s": ("names", "cluster.speculate", "self_s"),
    "cluster.steal.self_s": ("names", "cluster.steal", "self_s"),
    "ml.fit.calls": ("names", "ml.fit", "calls"),
    "ml.fit.self_s": ("names", "ml.fit", "self_s"),
    "compiler.features.self_s": ("layers", "compiler", "self_s"),
    "runtime.run.self_s": ("layers", "runtime", "self_s"),
    "core.trainer.self_s": ("layers", "core.trainer", "self_s"),
    "workloads.self_s": ("layers", "workloads", "self_s"),
}

#: Host seconds the reference loop takes at the host's nominal speed: its
#: typical time on the shared 2-core machine the benchmark was tuned on.
REFERENCE_S = 0.008
#: Reference loops timed before, and again after, each timed phase.
REFERENCE_SAMPLES = 8
#: Exponent of the host scale: how far a phase's host time follows the
#: reference loop's.  Over ten-seed sets of each workload, 0.7-0.8 gave
#: the smallest run-to-run spread.  At 1 the scale over-corrects: the
#: slow state slows the loop more than the program, part of whose time
#: goes to NumPy and the allocator.  At 0 the host's state stays in.
HOST_SENSITIVITY = 0.7
#: Untraced / traced pairs the overhead is the median ratio of.
TRACE_PAIRS = 2
#: Safety cap on timed repeats, whatever ``--seconds`` says.
MAX_REPEATS = 40


class Checks:
    """Counts checked runs and collects what any check found wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None

    def run(self, result, label: str) -> None:
        """One executed run: conservation and its own problems."""
        self.attempted += 1
        if result.problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in result.problems)

    def repeat(self, result, label: str) -> None:
        """A run that must repeat the reference fingerprint bit for bit."""
        self.run(result, label)
        if self.reference is None:
            self.reference = result.fingerprint
            return
        problems = fingerprint_problems(self.reference, result.fingerprint)
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def fingerprint_problems(reference: dict, fingerprint: dict) -> list[str]:
    """Keys whose simulated outputs differ from the reference run's."""
    keys = sorted(set(reference) | set(fingerprint))
    return [
        f"fingerprint differs from the first run in {key!r}"
        for key in keys
        if reference.get(key) != fingerprint.get(key)
    ]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Tally:
    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0


def _reference_loop() -> float:
    """Fixed interpreter work of the program's kind: tuples, dicts, objects, a heap."""
    heap: list[tuple[int, int]] = []
    table: dict[tuple[int, int], _Tally] = {}
    total = 0.0
    for i in range(6000):
        key = (i % 97, i % 13)
        tally = table.get(key)
        if tally is None:
            tally = table[key] = _Tally()
        tally.count += 1
        tally.total += i * 0.5
        heapq.heappush(heap, (i * 7919 % 10007, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
    return total


def reference_s() -> list[float]:
    """Host seconds of :data:`REFERENCE_SAMPLES` reference loops, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REFERENCE_SAMPLES):
            started = time.perf_counter()
            _reference_loop()
            samples.append(time.perf_counter() - started)
        return samples
    finally:
        if enabled:
            gc.enable()


def scaled_phase(phase):
    """Run ``phase`` between reference timings: (its value, host scale).

    The shared host switches between a fast and a slow state for seconds
    to minutes at a time, and a phase's host time follows it.  The host
    scale, :data:`REFERENCE_S` over the median reference time around
    the phase, to the power :data:`HOST_SENSITIVITY`, brings the phase's
    host seconds to the nominal speed.
    """
    before = reference_s()
    gc.collect()  # every phase starts the collector from the same state
    value = phase()
    after = reference_s()
    speed = REFERENCE_S / statistics.median(before + after)
    return value, speed**HOST_SENSITIVITY


def measure(workload, seconds: float, checks: Checks) -> tuple[dict, dict]:
    """The untraced end-to-end run; returns (metrics, sample counts).

    Timed repeats of the measured phase alternate with the untimed work
    (the later set-ups, the capacity search, the quality models), so
    that the repeats, and the set-ups, sample the shared host's speed
    across the whole run rather than one stretch of it.  Every timed
    phase is scaled to the host's nominal speed (:func:`scaled_phase`).
    """
    import tracer
    from workloads import ServingWorkload

    serving = isinstance(workload, ServingWorkload)
    started_all = time.perf_counter()
    workload.prepare()
    setups = []

    def timed_setup():
        started = time.perf_counter()
        backend = workload.setup()
        return backend, time.perf_counter() - started

    def set_up():
        (backend, host_s), scale = scaled_phase(timed_setup)
        setups.append(host_s * scale)
        return backend

    backend = set_up()
    # Repeats after the first serve a copy of the untouched backend:
    # the fingerprint check proves the copy serves like the original.
    pristine = copy.deepcopy(backend) if serving else backend
    capacity = None

    def search_capacity():
        nonlocal capacity
        capacity = workload.capacity(
            pristine, runs[0], lambda r: checks.run(r, f"{workload.name} ladder")
        )

    if serving:
        workload.calibrate(pristine)
        chores = [set_up, search_capacity, set_up]
    else:
        models = workload.quality_models(backend)
        chores = [set_up, models[0], set_up, *models[1:]]
    tracer.assert_clean()
    runs = []
    while True:
        result, scale = scaled_phase(lambda: workload.run(backend))
        result.host_scale = scale
        checks.repeat(result, f"{workload.name} run {len(runs) + 1}")
        if runs:
            runs[-1].backend = None  # keep one served backend alive at a time
        runs.append(result)
        if len(runs) == 1 and serving:
            print(workload.regime(result), file=sys.stderr)
        if chores:
            chores.pop(0)()
        else:
            elapsed = time.perf_counter() - started_all
            enough = len(runs) >= workload.scale.min_repeats and elapsed >= seconds
            if enough or len(runs) >= MAX_REPEATS:
                break
        if serving:
            backend = copy.deepcopy(pristine)
    tracer.assert_clean()
    print(
        f"host seconds per repeat: {[round(r.host_s, 4) for r in runs]}, "
        f"host scales: {[round(r.host_scale, 3) for r in runs]}; "
        f"scaled set-ups: {[round(s, 4) for s in setups]}",
        file=sys.stderr,
    )
    if serving:
        metrics = workload.end_to_end(runs, capacity)
    else:
        metrics = workload.end_to_end(runs)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples = {name: 1 for name, _unit in END_TO_END}
    samples.update(setup_s=len(setups), eval_s=len(runs), host_rps=len(runs))
    if serving:
        stats = runs[0].stats
        for name in ("sim_p50_ms", "sim_p99_ms", "sim_mean_service_ms"):
            samples[name] = stats.completed
        samples.update(slo_met_share=stats.arrivals, completed_share=stats.arrivals)
    return metrics, samples


def traced(workload, checks: Checks, out_dir: Path, seed: int) -> dict:
    """Untraced/traced pairs; per-layer metrics of the last traced run."""
    import tracer
    from workloads import ServingWorkload

    workload.prepare()
    if isinstance(workload, ServingWorkload):
        workload.calibrate(workload.setup())
    ratios = []
    for pair in range(TRACE_PAIRS):
        tracer.assert_clean()
        started = time.perf_counter()
        result = workload.run(workload.setup())
        untraced_s = time.perf_counter() - started
        checks.repeat(result, f"{workload.name} untraced {pair + 1}")
        recorder = tracer.Recorder()
        installation = tracer.install(recorder)
        try:
            recorder.start_wall()
            result = workload.run(workload.setup(), recorder)
            recorder.stop_wall()
        finally:
            tracer.uninstall(installation)
        ratios.append(recorder.wall_ns / 1e9 / untraced_s)
        checks.repeat(result, f"{workload.name} traced {pair + 1}")
    tiling = tiling_problems(recorder)
    if tiling:
        checks.failed += 1
        checks.problems.extend(tiling)
    summary = recorder.summary()
    metrics = per_layer_metrics(workload, recorder, summary, result)
    metrics["trace.overhead"] = statistics.median(ratios) - 1.0
    path = out_dir / f"spans-{workload.name}-{seed}.jsonl"
    header = {"workload": workload.name, "seed": seed, "metrics": metrics}
    recorder.write(path, header)
    print(f"spans: {path} ({len(recorder.spans)} spans)", file=sys.stderr)
    for layer, entry in summary["layers"].items():
        calls, self_s = entry["calls"], entry["self_s"]
        print(f"  {layer:18s} calls {calls:>9d}  self {self_s:9.4f} s", file=sys.stderr)
    unattributed_s = summary["unattributed_s"]
    print(f"  {'unattributed':34s}  self {unattributed_s:9.4f} s", file=sys.stderr)
    return metrics


def tiling_problems(recorder) -> list[str]:
    """Self times plus unattributed must equal the traced wall time."""
    total = sum(recorder.self_ns()) + recorder.unattributed_ns()
    if total == recorder.wall_ns:
        return []
    return [f"span self times tile {total} ns, traced wall is {recorder.wall_ns} ns"]


def per_layer_metrics(workload, recorder, summary: dict, result) -> dict:
    metrics = {}
    for name, (section, key, field) in _SPAN_METRICS.items():
        entry = summary[section].get(key)
        metrics[name] = entry[field] if entry else 0
    counts = workload.layer_counts(result)
    requests = counts.pop("requests", 0)
    # Re-entries: serve_trace calls made from inside another span (the
    # benchmark's own call is a root span).
    reentries = sum(
        1
        for s in recorder.spans
        if s.name == "serving.facade.serve_trace" and s.parent >= 0
    )
    per_request = reentries / requests if requests else 0.0
    metrics["serving.facade.calls_per_request"] = per_request
    metrics["unattributed.self_s"] = summary["unattributed_s"]
    for name, _unit in PER_LAYER:
        metrics.setdefault(name, counts.get(name, 0))
    return metrics


def report(metrics: dict, spec, checks: Checks, samples: dict | None = None) -> dict:
    for name, unit in spec:
        count = f"  (n={samples[name]})" if samples else ""
        print(f"{name:34s} {float(metrics[name]):>16.6g} {unit}{count}")
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in spec
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes, not the benchmark"
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro package under {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One thread per workload: NumPy's BLAS would otherwise start a worker
    # on the second core, and the timings would follow both cores' load.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, TINY if args.tiny else FULL)
    checks = Checks()
    if args.trace:
        metrics = traced(workload, checks, OUT_DIR, args.seed)
        doc = report(metrics, PER_LAYER, checks)
    else:
        metrics, samples = measure(workload, args.seconds, checks)
        doc = report(metrics, END_TO_END, checks, samples)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
