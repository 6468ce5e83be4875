"""Golden stdout snapshots of the serving CLI commands.

Each case runs one serving command on a tiny trained system and
compares its stdout with a committed snapshot under
``tests/data/cli_golden/``.  The snapshots pin every simulated number
the commands print, so a refactor of the command plumbing must keep
them byte for byte.

Host wall-clock time is the only nondeterministic input.  The CLI's
clock is frozen while a case runs, so every ``throughput (wall)`` row
reads ``n/a`` and no table width depends on host speed; the rows
starting ``throughput (wall)`` and the ``event-driven:`` banner are
masked as well, because they describe the run rather than its result.
The ``-- drift:`` lines are compared as they are, request index
included.
"""

from __future__ import annotations

import contextlib
import io
import types
from pathlib import Path
from unittest import mock

import pytest

import repro.cli as cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden"

TINY = [
    "--train-programs", "2", "--max-sizes", "1", "--model", "knn",
    "--requests", "20",
]

#: The ``serve`` cases' request file: 20 lines over six programs.
SERVE_LINES = (
    "vec_add 4096", "mat_mul 64", "vec_add 4096", "saxpy 4096",
    "vec_add 4096", "black_scholes 1024", "mat_mul 64", "vec_add 4096",
    "stencil2d 64", "saxpy 4096", "vec_add 4096", "mat_mul 64",
    "reduction 8192", "vec_add 4096", "saxpy 4096", "mat_mul 64",
    "vec_add 4096", "black_scholes 1024", "vec_add 4096", "stencil2d 64",
)

#: name -> argv.  ``{trace}`` and ``{out}`` are filled per run.
CASES: dict[str, list[str]] = {
    "replay_drift": ["replay", *TINY, "--drift", "5:0.5:mc2:1"],
    "replay_no_batch": ["replay", *TINY, "--no-batch"],
    "replay_poisson_drift": [
        "replay", *TINY, "--arrival", "poisson",
        "--drift", "5:0.5", "--drift", "40:0.5",
    ],
    "serve_file": ["serve", *TINY[:6], "--trace", "{trace}"],
    "serve_file_poisson": [
        "serve", *TINY[:6], "--trace", "{trace}", "--arrival", "poisson",
    ],
    "fleet_drift": [
        "fleet-serve", "--machines", "2", *TINY, "--drift", "5:0.5",
    ],
    "fleet_uniform": [
        "fleet-serve", "--machines", "2", *TINY, "--arrival", "uniform",
        "--drift", "5:0.5",
    ],
    "cluster_tenants": [
        "cluster-serve", "--pools", "2", "--machines-per-pool", "1", *TINY,
        "--tenants", "a,b",
    ],
    "cluster_tenants_poisson": [
        "cluster-serve", "--pools", "2", "--machines-per-pool", "1", *TINY,
        "--tenants", "a,b", "--arrival", "poisson",
    ],
    "graph_serve": ["graph-serve", *TINY],
    "graph_serve_poisson": ["graph-serve", *TINY, "--arrival", "poisson"],
    "trace_export": ["trace-export", *TINY, "--trace-out", "{out}"],
    "metrics_report": ["metrics-report", *TINY],
    "metrics_report_poisson_json": [
        "metrics-report", *TINY, "--arrival", "poisson", "--json",
    ],
}

MASKED_PREFIXES = ("throughput (wall)", "event-driven:")


def _mask(line: str) -> str:
    for prefix in MASKED_PREFIXES:
        if line.startswith(prefix):
            return f"{prefix} <masked>"
    return line


def render(case: str, workdir: Path) -> tuple[str, str | None]:
    """Run one case in ``workdir``; return (masked stdout, trace JSONL)."""
    trace = workdir / "requests.txt"
    trace.write_text("\n".join(SERVE_LINES) + "\n")
    out = workdir / "spans.jsonl"
    argv = [a.format(trace=trace, out=out) for a in CASES[case]]
    buffer = io.StringIO()
    frozen = types.SimpleNamespace(perf_counter=lambda: 0.0)
    with mock.patch.object(cli, "time", frozen), contextlib.redirect_stdout(
        buffer
    ):
        assert cli.main(argv) == 0
    text = buffer.getvalue().replace(str(out), "<trace-out>")
    masked = "".join(f"{_mask(line)}\n" for line in text.splitlines())
    return masked, out.read_text() if out.exists() else None


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_stdout_matches_snapshot(case, tmp_path):
    text, jsonl = render(case, tmp_path)
    assert text == (GOLDEN / f"{case}.txt").read_text()
    jsonl_path = GOLDEN / f"{case}.jsonl"
    if jsonl_path.exists():
        assert jsonl == jsonl_path.read_text()
    else:
        assert jsonl is None
