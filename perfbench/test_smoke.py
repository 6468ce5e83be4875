"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every workload runs and reports every named metric with
its unit, that the output checks fire on a corrupted result, that the
spans' self times plus ``unattributed`` tile the traced wall time, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, *flags: str, cwd: Path = ROOT):
    """One benchmark invocation on seed 1 with no time budget."""
    args = ["--workload", workload, "--seed", "1", "--seconds", "0", *flags]
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stderr
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def _declared(section: str) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert _declared("end_to_end") == list(run.END_TO_END)
    assert _declared("per_layer") == list(run.PER_LAYER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_reported(name):
    doc = _result(_bench(name, "--trace", "0", "--tiny"))
    reported = [(k, v["unit"]) for k, v in doc["metrics"].items()]
    assert reported == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_every_per_layer_metric_is_reported():
    doc = _result(_bench("cluster-churn", "--trace", "1", "--tiny"))
    reported = [(k, v["unit"]) for k, v in doc["metrics"].items()]
    assert reported == list(run.PER_LAYER)
    busy = ("cluster.place", "engine.measure", "serving.eventloop", "workloads")
    for name in (f"{layer}.self_s" for layer in busy):
        assert doc["metrics"][name]["value"] > 0, name


def test_fingerprint_check_fires_on_a_corrupted_result():
    workload = workloads.ServiceZipf(3, workloads.TINY)
    workload.prepare()
    workload.calibrate(workload.setup())
    checks = run.Checks()
    first = workload.run(workload.setup())
    checks.repeat(first, "first")
    again = workload.run(workload.setup())
    checks.repeat(again, "repeat")
    assert checks.failed == 0, checks.problems

    corrupted = dict(again.fingerprint)
    counts = list(corrupted["latency_counts"])
    counts[counts.index(max(counts))] -= 1
    corrupted["latency_counts"] = counts
    checks.repeat(workloads.RunResult(host_s=1.0, fingerprint=corrupted), "corrupt")
    assert checks.failed == 1
    assert "latency_counts" in checks.problems[-1]


def test_conservation_check_fires():
    stats = SimpleNamespace(
        arrivals=10,
        speculations=2,
        completed=9,
        shed=1,
        failed=0,
        cancelled_speculative=1,
    )
    assert workloads.conservation_problems(stats)
    stats.cancelled_speculative = 2
    assert not workloads.conservation_problems(stats)


def test_spans_tile_the_traced_wall_time():
    workload = workloads.ClusterChurn(2, workloads.TINY)
    workload.prepare()
    workload.calibrate(workload.setup())
    recorder = tracer.Recorder()
    installation = tracer.install(recorder)
    try:
        assert tracer.installed()
        recorder.start_wall()
        workload.run(workload.setup(), recorder)
        recorder.stop_wall()
    finally:
        tracer.uninstall(installation)
    assert not tracer.installed()
    assert recorder.spans
    assert sum(recorder.self_ns()) + recorder.unattributed_ns() == recorder.wall_ns
    assert min(recorder.self_ns()) >= 0
    summary = recorder.summary()
    layer_total = sum(entry["self_s"] for entry in summary["layers"].values())
    assert layer_total + summary["unattributed_s"] == pytest.approx(summary["wall_s"])
    assert not run.tiling_problems(recorder)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    proc = _bench("service-zipf", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
