"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestJoinCommand:
    def test_default_join(self, capsys):
        assert main(["join", "--cardinality", "100"]) == 0
        out = capsys.readouterr().out
        assert "result pairs" in out
        assert "false_hits" in out

    def test_named_algorithm(self, capsys):
        assert main(["join", "--cardinality", "80", "--algorithm", "smj"]) == 0
        assert "smj:" in capsys.readouterr().out

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["join", "--algorithm", "nope", "--cardinality", "10"])

    @pytest.mark.parametrize(
        "workload", ["uniform", "mixture", "points", "clustered"]
    )
    def test_every_synthetic_workload(self, workload, capsys):
        assert (
            main(["join", "--workload", workload, "--cardinality", "60"])
            == 0
        )
        assert "result pairs" in capsys.readouterr().out

    def test_dataset_workload(self, capsys):
        assert (
            main(
                [
                    "join",
                    "--workload",
                    "incumbent",
                    "--cardinality",
                    "120",
                ]
            )
            == 0
        )
        assert "result pairs" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ("join", "compare"))
    def test_workers_flag_is_serve_only(self, command, capsys):
        # --workers sizes the pre-fork service pool; join and compare
        # run one in-process probe and reject it.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--cardinality", "50", "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_deterministic_by_seed(self, capsys):
        main(["join", "--cardinality", "90", "--seed", "3"])
        first = capsys.readouterr().out
        main(["join", "--cardinality", "90", "--seed", "3"])
        second = capsys.readouterr().out
        # Counter lines must match exactly (runtime line differs).
        assert first.splitlines()[1:] == second.splitlines()[1:]


class TestCompareCommand:
    def test_compare_runs_and_agrees(self, capsys):
        assert (
            main(
                [
                    "compare",
                    "--cardinality",
                    "120",
                    "--algorithms",
                    "oip,smj,nlj",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "WARNING" not in out
        for name in ("oip", "smj", "nlj"):
            assert name in out

    def test_unknown_algorithm_in_list(self):
        with pytest.raises(SystemExit):
            main(["compare", "--algorithms", "oip,bogus"])


class TestDeriveKCommand:
    def test_example_8(self, capsys):
        assert (
            main(
                [
                    "derive-k",
                    "--outer",
                    "10000000",
                    "--inner",
                    "100000000",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "converged: True" in out
        # The Example 8 fixed point (within implementation rounding).
        assert "k = 16," in out


class TestDatasetsCommand:
    def test_prints_all_standins(self, capsys):
        assert main(["datasets", "--cardinality", "300"]) == 0
        out = capsys.readouterr().out
        for name in ("incumbent", "feed", "webkit"):
            assert name in out


class TestSaveIndexCommand:
    def test_pinned_k_below_one_exits_nonzero(self, tmp_path):
        path = tmp_path / "x.oip"
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["save-index", "--cardinality", "60", "--out", str(path)]
                + ["--k", "0"]
            )
        # A string exit code exits 1 and is printed to stderr.
        assert excinfo.value.code == "k must be >= 1 when pinned, got 0"
        assert not path.exists()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["join", "--cardinality", "5"])
        assert args.cardinality == 5


class TestLifecycleFlags:
    """The governor's CLI surface: budgets, checkpoint/resume, and the
    SIGINT-to-cooperative-cancellation round trip."""

    JOIN = ["join", "--workload", "mixture", "--cardinality", "600"]

    def test_budget_exceeded_exits_75_with_partial_counters(self, capsys):
        code = main(self.JOIN + ["--max-comparisons", "2000"])
        assert code == 75
        out = capsys.readouterr().out
        assert "budget exceeded (comparisons)" in out
        assert "partial counters:" in out
        assert "cpu_comparisons" in out

    def test_exhausted_budget_fails_fast(self, capsys):
        assert main(self.JOIN + ["--max-comparisons", "0"]) == 75
        assert "exhausted at launch" in capsys.readouterr().out

    def test_generous_deadline_completes(self, capsys):
        assert main(self.JOIN + ["--deadline-ms", "60000"]) == 0
        assert "result pairs" in capsys.readouterr().out

    def test_negative_budget_rejected(self):
        with pytest.raises(SystemExit):
            main(self.JOIN + ["--max-comparisons", "-5"])

    def test_deadline_overrun_in_the_last_partition_exits_75(
        self, monkeypatch, capsys
    ):
        """The default join has one outer partition; a deadline it
        overruns there is reported after that partition's work, not
        returned as a success."""
        import time

        import repro.core.join as join_module

        real = join_module.kernel_function

        def slow_kernel_function(kernel):
            kernel_fn = real(kernel)

            def slow(outer, inner):
                time.sleep(0.3)
                return kernel_fn(outer, inner)

            return slow

        monkeypatch.setattr(join_module, "kernel_function", slow_kernel_function)
        assert main(self.JOIN + ["--deadline-ms", "150"]) == 75
        out = capsys.readouterr().out
        assert "budget exceeded (deadline)" in out
        assert "after" in out and "1 outer partition(s)" in out

    def test_lifecycle_flags_are_oip_only(self):
        with pytest.raises(SystemExit, match="oip"):
            main(self.JOIN + ["--algorithm", "smj", "--deadline-ms", "100"])
        with pytest.raises(SystemExit, match="oip"):
            main(self.JOIN + ["--algorithm", "grace", "--checkpoint", "x"])

    def test_budget_abort_checkpoint_then_resume(self, tmp_path, capsys):
        path = str(tmp_path / "ck.json")
        code = main(
            self.JOIN
            + [
                "--max-comparisons",
                "2000",
                "--checkpoint",
                path,
                "--checkpoint-every",
                "1",
            ]
        )
        assert code == 75
        assert f"checkpoint written to: {path}" in capsys.readouterr().out
        # Resuming without the budget finishes the join and reports the
        # same totals an uninterrupted run would.
        assert main(self.JOIN) == 0
        full = capsys.readouterr().out
        assert main(self.JOIN + ["--resume-from", path]) == 0
        resumed = capsys.readouterr().out
        assert "resumed_from_partition" in resumed
        # Identical pair count and counter totals vs the full run.
        assert full.splitlines()[0].split(" in ")[0] == (
            resumed.splitlines()[0].split(" in ")[0]
        )
        assert [
            line for line in full.splitlines() if "cpu_comparisons" in line
        ] == [
            line
            for line in resumed.splitlines()
            if "cpu_comparisons" in line
        ]

class TestObservabilityFlags:
    """--trace / --metrics-out / --report / --json and the report-diff
    mode of the compare subcommand."""

    JOIN = ["join", "--workload", "mixture", "--cardinality", "150"]

    def test_report_written_and_valid(self, tmp_path, capsys):
        from repro.obs.report import load_report

        path = str(tmp_path / "run.json")
        assert main(self.JOIN + ["--report", path]) == 0
        report = load_report(path)  # validates against the schema
        assert report["algorithm"] == "oip"
        assert report["completed"] is True
        # The text summary is unchanged by the report flag.
        assert "result pairs" in capsys.readouterr().out

    def test_trace_written_as_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert main(self.JOIN + ["--trace", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        roots = [r for r in records if r["kind"] == "span"]
        assert roots and roots[-1]["name"] == "join"
        phases = {child["name"] for child in roots[-1]["children"]}
        assert {"derive_k", "oipcreate", "probe"} <= phases

    def test_metrics_out_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert main(self.JOIN + ["--metrics-out", str(path)]) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["join.counters.result_tuples"] > 0
        assert "oip.partition_blocks" in snapshot["histograms"]

    def test_metrics_out_prometheus(self, tmp_path):
        path = tmp_path / "metrics.prom"
        assert (
            main(
                self.JOIN
                + [
                    "--metrics-out",
                    str(path),
                    "--metrics-format",
                    "prometheus",
                ]
            )
            == 0
        )
        text = path.read_text()
        assert "# TYPE join_counters_block_reads counter" in text
        assert 'oip_partition_blocks_bucket{le="+Inf"}' in text

    def test_json_mode_matches_report_file(self, tmp_path, capsys):
        path = str(tmp_path / "run.json")
        assert main(self.JOIN + ["--json", "--report", path]) == 0
        out = capsys.readouterr().out
        with open(path, "r", encoding="utf-8") as handle:
            assert out == handle.read()
        report = json.loads(out)
        assert report["counters"]["result_tuples"] == report["result"]["pairs"]

    def test_compare_reports_mode(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        other = str(tmp_path / "other.json")
        assert main(self.JOIN + ["--kernel", "numpy", "--report", base]) == 0
        assert main(self.JOIN + ["--kernel", "sweep", "--report", other]) == 0
        capsys.readouterr()
        assert main(["compare", base, other]) == 0
        out = capsys.readouterr().out
        assert "compare: oip (base) vs oip (other)" in out
        assert "phase times:" in out
        # Runs on different kernels at one k count identically (the
        # fast kernels derive the same k).
        assert "counters deltas:\n  (identical)" in out

    def test_compare_reports_json(self, tmp_path, capsys):
        base = str(tmp_path / "base.json")
        assert main(self.JOIN + ["--report", base]) == 0
        capsys.readouterr()
        assert main(["compare", base, base, "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["counters"] == []
        assert parsed["regressions"] == 0

    def test_compare_rejects_one_report(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly two"):
            main(["compare", str(tmp_path / "only.json")])

    def test_compare_json_requires_reports(self):
        with pytest.raises(SystemExit, match="report-diff"):
            main(["compare", "--json", "--cardinality", "40"])

    def test_obs_flags_off_output_identical(self, capsys):
        """The observability flags change nothing when absent — counter
        lines match a pre-observability-style bare run exactly."""
        main(self.JOIN + ["--seed", "5"])
        bare = capsys.readouterr().out
        main(self.JOIN + ["--seed", "5"])
        again = capsys.readouterr().out
        assert bare.splitlines()[1:] == again.splitlines()[1:]


class TestLifecycleSlow:
    @pytest.mark.slow
    def test_sigint_round_trip(self, tmp_path):
        """A real SIGINT mid-join lands a checkpoint and exit 130; a
        follow-up --resume-from completes with exit 0.  The naive
        kernel keeps Equation 1's k, so the join has many outer
        partitions (stop points and checkpoint writes) and runs long
        enough for the signal to land mid-join."""
        import os
        import signal
        import subprocess
        import sys
        import time

        path = str(tmp_path / "sigint-ck.json")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "join",
            "--workload",
            "mixture",
            "--cardinality",
            "4000",
            "--algorithm",
            "oip",
            "--kernel",
            "naive",
            "--checkpoint",
            path,
            "--checkpoint-every",
            "1",
        ]
        env = dict(os.environ)
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, text=True
        )
        time.sleep(1.2)
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 130, out
        assert f"checkpoint written to: {path}" in out
        assert "--resume-from" in out
        resumed = subprocess.run(
            argv[:-4] + ["--resume-from", path],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        assert resumed.returncode == 0, resumed.stdout
        assert "result pairs" in resumed.stdout


class TestTelemetryCommands:
    def test_serve_parser_accepts_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--index", "x.oip", "--tracing",
                "--query-log", "q.ndjson", "--slow-query-ms", "25",
                "--log-sample-rate", "0.5", "--metrics-port", "0",
            ]
        )
        assert args.tracing is True
        assert args.query_log == "q.ndjson"
        assert args.slow_query_ms == 25.0
        assert args.log_sample_rate == 0.5
        assert args.metrics_port == 0

    def test_stats_parser_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats"])
        args = build_parser().parse_args(
            ["stats", "--port", "1234", "--json"]
        )
        assert args.port == 1234 and args.json is True

    def test_calibrate_round_trip(self, tmp_path, capsys):
        report = str(tmp_path / "run.json")
        assert (
            main(
                [
                    "join", "--workload", "mixture", "--cardinality", "80",
                    "--report", report,
                ]
            )
            == 0
        )
        capsys.readouterr()
        out = str(tmp_path / "cal.json")
        assert main(["calibrate", report, "--out", out]) == 0
        document = json.loads(open(out).read())
        assert document["kind"] == "cost_calibration"
        assert document["samples"] == 1

    def test_calibrate_missing_report_exits_2(self, tmp_path, capsys):
        assert main(["calibrate", str(tmp_path / "nope.json")]) == 2
