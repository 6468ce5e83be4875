"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestListAndMachines:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "vec_add" in out and "mvt" in out
        assert out.count("\n") >= 24

    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "mc1" in out and "mc2" in out
        assert "host-resident" in out
        assert "PCIe" in out


class TestKernel:
    def test_kernel_emission(self, capsys):
        assert main(["kernel", "saxpy"]) == 0
        out = capsys.readouterr().out
        assert "__kernel void saxpy" in out
        assert "__chunk_offset" in out
        assert "clEnqueueNDRangeKernel" in out

    def test_unknown_program(self):
        with pytest.raises(KeyError):
            main(["kernel", "nope"])


class TestRun:
    def test_run_default_machine(self, capsys):
        assert main(["run", "vec_add", "--size", "65536"]) == 0
        out = capsys.readouterr().out
        assert "cpu-only" in out and "gpu-only" in out and "oracle" in out

    def test_run_with_custom_partitioning(self, capsys):
        assert main(
            ["run", "triad", "--machine", "mc1", "--size", "16384",
             "--partitioning", "40/30/30"]
        ) == 0
        out = capsys.readouterr().out
        assert "40/30/30" in out


class TestServing:
    def test_replay_reports_summary(self, capsys):
        assert main(
            ["replay", "--machine", "mc2", "--requests", "25",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Serving summary" in out
        assert "cache hit rate" in out
        assert "refits" in out
        assert "throughput (simulated)" in out

    def test_serve_from_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "trace.txt"
        trace.write_text(
            "# comment line\n"
            "vec_add 4096\n"
            "vec_add 4096\n"
            "not_a_program 7\n"
            "vec_add 0\n"
        )
        assert main(
            ["serve", "--trace", str(trace), "--machine", "mc2",
             "--train-programs", "3", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("vec_add@4096") == 2
        assert "[miss" in out and "[hit" in out
        assert out.count("malformed request") == 2  # unknown program, size 0
        assert "Serving summary" in out

    def test_replay_rejects_bad_train_programs(self):
        with pytest.raises(SystemExit):
            main(["replay", "--requests", "1", "--train-programs", "0"])

    def test_replay_with_energy_objective_reports_energy(self, capsys):
        assert main(
            ["replay", "--machine", "mc2", "--requests", "20",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--objective", "energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "objective" in out and "energy" in out
        assert "served energy" in out
        assert "avg power (served)" in out

    def test_replay_with_power_cap_reports_cap_row(self, capsys):
        assert main(
            ["replay", "--machine", "mc2", "--requests", "15",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--power-cap", "160"]
        ) == 0
        out = capsys.readouterr().out
        assert "power cap" in out
        assert "violations" in out

    def test_replay_rejects_cap_below_idle_floor(self):
        with pytest.raises(SystemExit, match="idle floor"):
            main(
                ["replay", "--machine", "mc2", "--requests", "5",
                 "--train-programs", "2", "--max-sizes", "1", "--model", "knn",
                 "--power-cap", "1"]
            )

    def test_objective_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["replay", "--requests", "1", "--objective", "speed"])

    def test_replay_rejects_pipeline_workload(self):
        with pytest.raises(SystemExit, match="graph-serve"):
            main(
                ["replay", "--requests", "5", "--train-programs", "2",
                 "--max-sizes", "1", "--model", "knn",
                 "--workload", "pipeline"]
            )


class TestGraphCommands:
    def test_graph_sweep_reports_cosearch_summary(self, capsys):
        assert main(["graph-sweep", "--step", "20", "--scale-bytes", "64"]) == 0
        out = capsys.readouterr().out
        assert "Co-search summary" in out
        assert "greedy makespan" in out
        assert "speedup over greedy" in out
        assert "critical path" in out
        # Every stage appears in the per-task schedule table.
        for stage in ("stencil2d@256", "reduction@65536", "mat_mul@160"):
            assert stage in out

    def test_graph_sweep_rejects_malformed_stages(self):
        with pytest.raises(SystemExit, match="--stages"):
            main(["graph-sweep", "--stages", "mat_mul@big,vec_add@4096"])
        with pytest.raises(SystemExit, match="at least 2"):
            main(["graph-sweep", "--stages", "mat_mul@160"])

    def test_graph_serve_reports_summary(self, capsys):
        assert main(
            ["graph-serve", "--machine", "mc2", "--requests", "6",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Graph serving summary" in out
        assert "graph requests" in out
        assert "distinct pipelines" in out
        assert "plan cache hit rate" in out
        assert "co-searches" in out

    def test_graph_serve_event_driven_prints_latency(self, capsys):
        assert main(
            ["graph-serve", "--machine", "mc2", "--requests", "5",
             "--train-programs", "4", "--max-sizes", "1", "--model", "knn",
             "--arrival", "poisson", "--arrival-rate", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "Graph serving summary" in out
        assert "Latency" in out


class TestEnergySweep:
    def test_energy_sweep_reports_pareto(self, capsys):
        assert main(
            ["energy-sweep", "black_scholes", "--machine", "mc2",
             "--max-sizes", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "black_scholes on mc2" in out
        assert "makespan-best" in out
        assert "energy-best" in out
        assert "pareto" in out

    def test_energy_sweep_covers_both_machines_by_default(self, capsys):
        assert main(["energy-sweep", "vec_add", "--size", "4096"]) == 0
        out = capsys.readouterr().out
        assert "vec_add on mc1" in out
        assert "vec_add on mc2" in out


class TestFleet:
    def test_fleet_serve_reports_summary(self, capsys):
        assert main(
            ["fleet-serve", "--machines", "2", "--requests", "15",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fleet summary" in out
        assert "Fleet totals" in out
        assert "mc1-r0" in out and "mc2-r1" in out
        assert "fleet throughput (simulated)" in out
        assert "device util" in out

    def test_fleet_serve_policy_choices(self):
        with pytest.raises(SystemExit):
            main(["fleet-serve", "--policy", "round-robin"])

    def test_fleet_serve_energy_policy_reports_power(self, capsys):
        assert main(
            ["fleet-serve", "--machines", "2", "--requests", "12",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn",
             "--policy", "energy", "--objective", "energy"]
        ) == 0
        out = capsys.readouterr().out
        assert "policy energy" in out
        assert "energy (J)" in out and "power (W)" in out
        assert "fleet energy" in out and "fleet avg power" in out

    def test_fleet_train_rejects_unpersistable_model_up_front(self, tmp_path):
        # Must fail before any training campaign runs, not in save_model.
        with pytest.raises(SystemExit, match="persist"):
            main(["fleet-train", "--registry", str(tmp_path / "r"),
                  "--model", "forest", "--machines", "1"])
        assert not (tmp_path / "r").exists()

    def test_fleet_train_then_serve_from_registry(self, tmp_path, capsys):
        registry = tmp_path / "registry"
        assert main(
            ["fleet-train", "--registry", str(registry), "--machines", "2",
             "--train-programs", "2", "--max-sizes", "1", "--model", "knn"]
        ) == 0
        out = capsys.readouterr().out
        assert "Fleet training" in out
        assert (registry / "mc1-r0" / "model.json").is_file()
        assert (registry / "mc1-r0" / "database.json").is_file()
        assert (registry / "mc2-r1" / "meta.json").is_file()

        # A third, unregistered machine warm-starts from the registry.
        assert main(
            ["fleet-serve", "--registry", str(registry), "--machines", "3",
             "--warm-start", "--requests", "10", "--train-programs", "2",
             "--max-sizes", "1", "--model", "knn", "--policy", "predicted"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("registry") >= 2  # two replicas loaded
        assert "warm(" in out  # the third was warm-started


class TestTelemetryCommands:
    TINY = ["--train-programs", "2", "--max-sizes", "1", "--model", "knn"]

    def test_serve_trace_out_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "requests.txt"
        trace.write_text("vec_add 4096\nmat_mul 64\nvec_add 4096\n")
        out_path = tmp_path / "spans.jsonl"
        assert main(
            ["serve", "--trace", str(trace), *self.TINY,
             "--arrival", "poisson", "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        assert "trace:" in out
        lines = out_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header" and header["completed"] == 3
        assert all(json.loads(line) for line in lines[1:])

    def test_fleet_serve_trace_out(self, tmp_path, capsys):
        out_path = tmp_path / "fleet.jsonl"
        assert main(
            ["fleet-serve", "--machines", "2", "--requests", "12",
             *self.TINY, "--arrival", "poisson",
             "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        header = json.loads(out_path.read_text().splitlines()[0])
        assert header["completed"] + header["failed"] <= 12
        assert header["spans"] > 0

    def test_cluster_serve_trace_out(self, tmp_path, capsys):
        out_path = tmp_path / "cluster.jsonl"
        assert main(
            ["cluster-serve", "--pools", "2", "--machines-per-pool", "1",
             "--requests", "12", *self.TINY, "--arrival", "poisson",
             "--tenants", "gold,silver", "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "Critical path" in out
        records = [
            json.loads(line)
            for line in out_path.read_text().splitlines()
        ]
        assert records[0]["type"] == "header"
        kinds = {r["kind"] for r in records if r["type"] == "span"}
        assert "request" in kinds and "execute" in kinds

    def test_trace_out_requires_event_path(self):
        with pytest.raises(SystemExit, match="event-driven"):
            main(["replay", "--requests", "5", *self.TINY,
                  "--trace-out", "/tmp/nope.jsonl"])

    def test_replay_telemetry_metrics_reports_series_count(self, capsys):
        assert main(
            ["replay", "--requests", "10", *self.TINY,
             "--arrival", "poisson", "--telemetry", "metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "series collected" in out

    def test_trace_export_command(self, tmp_path, capsys):
        out_path = tmp_path / "export.jsonl"
        assert main(
            ["trace-export", "--requests", "15", *self.TINY,
             "--trace-out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "tracing 15 requests" in out
        assert "Critical path" in out
        assert out_path.is_file()

    def test_trace_export_requires_out(self):
        with pytest.raises(SystemExit, match="--trace-out"):
            main(["trace-export", "--requests", "5", *self.TINY])

    def test_metrics_report_command(self, capsys):
        assert main(
            ["metrics-report", "--requests", "10", *self.TINY]
        ) == 0
        out = capsys.readouterr().out
        assert "Metrics registry" in out
        assert "service.requests" in out
        assert "service.cache.hit_rate" in out

    def test_metrics_report_json(self, capsys):
        assert main(
            ["metrics-report", "--requests", "8", *self.TINY,
             "--arrival", "poisson", "--json"]
        ) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["loop.completed"] + payload["loop.failed"] == 8
        assert payload["service.requests"] >= 1
        assert payload["loop.latency"]["count"] == payload["loop.completed"]

    def test_telemetry_mode_choices_validated(self):
        with pytest.raises(SystemExit):
            main(["replay", "--requests", "1", "--telemetry", "loud"])


class TestTrainAndReport:
    def test_train_then_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        # Training on the full suite is slow; patch the suite down.
        import repro.cli as cli
        from repro.benchsuite import get_benchmark

        small = tuple(get_benchmark(n) for n in ("vec_add", "mat_mul", "hotspot"))
        monkeypatch.setattr(cli, "all_benchmarks", lambda: small)

        out_path = tmp_path / "db.json"
        assert main(
            ["train", "mc2", "--output", str(out_path), "--max-sizes", "2"]
        ) == 0
        txt = capsys.readouterr().out
        assert "wrote 6 records" in txt
        doc = json.loads(out_path.read_text())
        assert len(doc["records"]) == 6

        assert main(["report", str(out_path), "--model", "knn"]) == 0
        report = capsys.readouterr().out
        assert "REPRODUCTION REPORT" in report
        assert "Figure 1 [mc2]" in report
        assert "Size sensitivity" in report


class TestOneServingPath:
    TINY = ["--train-programs", "2", "--max-sizes", "1", "--model", "knn"]

    def test_graph_serve_rejects_faults_without_arrival(self):
        with pytest.raises(SystemExit, match="event-driven"):
            main(["graph-serve", "--requests", "5", *self.TINY,
                  "--faults", "crash:0.1:0.1"])

    def test_metrics_report_applies_sequential_drift(self, capsys):
        drift = ["--requests", "20", *self.TINY, "--drift", "3:0.2"]
        assert main(["replay", *drift]) == 0
        replay = capsys.readouterr().out
        assert "-- drift: all devices x0.2 before request 3" in replay
        flags = int(re.search(r"^drift\s+(\d+) flags", replay, re.M).group(1))
        assert main(["metrics-report", *drift, "--json"]) == 0
        out = capsys.readouterr().out
        assert "-- drift: all devices x0.2 before request 3" in out
        payload = json.loads(out[out.index("{"):])
        assert flags >= 1
        assert payload["service.drift_flags"] == flags

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["replay", "--max-sizes", "0"], "--max-sizes",
                         id="replay-max-sizes-0"),
            pytest.param(["replay", "--skew", "-1"], "skew",
                         id="replay-negative-skew"),
            pytest.param(["replay", "--requests", "-3"], "num_requests",
                         id="replay-negative-requests"),
            pytest.param(["replay", "--arrival", "poisson",
                          "--arrival-rate", "0"], "rate_rps",
                         id="replay-zero-arrival-rate"),
            pytest.param(["fleet-serve", "--machines", "0"],
                         "count must be >= 1", id="fleet-serve-no-machines"),
            pytest.param(["fleet-train", "--machines", "0",
                          "--registry", "unused"],
                         "count must be >= 1", id="fleet-train-no-machines"),
        ],
    )
    def test_bad_inputs_fail_before_training(self, monkeypatch, argv, message):
        import repro.cli as cli

        def no_training(*_args, **_kwargs):
            pytest.fail("trained a system before rejecting a bad input")

        monkeypatch.setattr(cli, "train_system", no_training)
        with pytest.raises(SystemExit, match=message):
            main([*argv, "--train-programs", "2", "--model", "knn"])
