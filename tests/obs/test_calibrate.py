"""Cost-constant calibration: exact recovery on clean corpora,
degenerate-corpus fallbacks, persistence, and the CLI."""

import json

import pytest

from repro.obs.calibrate import (
    Calibration,
    CalibrationError,
    Observation,
    calibrate_reports,
    excess_over_fastest,
    fit_observations,
    load_calibration,
    main as calibrate_main,
    observation_from_report,
    save_calibration,
)
from repro.storage.metrics import CostWeights


def _obs(rows):
    return [Observation(cpu=c, io=i, elapsed_ms=t) for c, i, t in rows]


class TestFit:
    def test_exact_recovery_of_planted_constants(self):
        cpu_ms, io_ms = 0.002, 0.5
        rows = [
            (1000.0, 10.0, 1000.0 * cpu_ms + 10.0 * io_ms),
            (5000.0, 80.0, 5000.0 * cpu_ms + 80.0 * io_ms),
            (20000.0, 300.0, 20000.0 * cpu_ms + 300.0 * io_ms),
            (400.0, 900.0, 400.0 * cpu_ms + 900.0 * io_ms),
        ]
        cal = fit_observations(_obs(rows))
        assert cal.cpu_ms == pytest.approx(cpu_ms)
        assert cal.io_ms == pytest.approx(io_ms)
        assert cal.r_squared == pytest.approx(1.0)
        assert cal.residual_rms_ms == pytest.approx(0.0, abs=1e-9)
        assert cal.samples == 4

    def test_predict_ms_is_equation_two(self):
        cal = Calibration(
            cpu_ms=0.5, io_ms=10.0, r_squared=1.0, samples=1,
            residual_rms_ms=0.0,
        )
        assert cal.predict_ms(100.0, 3.0) == pytest.approx(80.0)

    def test_collinear_corpus_falls_back_to_one_predictor(self):
        # io is always exactly cpu / 10: the 2x2 system is singular.
        rows = [(c, c / 10.0, c * 0.01) for c in (100.0, 500.0, 2000.0)]
        cal = fit_observations(_obs(rows))
        assert cal.io_ms == 0.0
        assert cal.cpu_ms > 0.0
        # All cost attributed to the surviving predictor, residual-free.
        assert cal.predict_ms(1000.0, 100.0) == pytest.approx(10.0)

    def test_io_only_corpus(self):
        rows = [(0.0, 10.0, 5.0), (0.0, 40.0, 20.0)]
        cal = fit_observations(_obs(rows))
        assert cal.cpu_ms == 0.0
        assert cal.io_ms == pytest.approx(0.5)

    def test_negative_constant_clamped_and_refit(self):
        # Strongly anti-correlated noise drives one constant negative in
        # the unconstrained solution; the fit must stay physical.
        rows = [
            (1000.0, 100.0, 10.0),
            (2000.0, 90.0, 20.0),
            (4000.0, 10.0, 40.0),
        ]
        cal = fit_observations(_obs(rows))
        assert cal.cpu_ms >= 0.0 and cal.io_ms >= 0.0

    def test_exact_recovery_with_partition_accesses(self):
        cpu_ms, io_ms, access_ms = 0.002, 0.5, 3.0
        rows = [
            (1000.0, 10.0, 4.0),
            (5000.0, 80.0, 1.0),
            (20000.0, 300.0, 90.0),
            (400.0, 900.0, 30.0),
            (7000.0, 20.0, 250.0),
        ]
        cal = fit_observations(
            [
                Observation(
                    cpu=c,
                    io=i,
                    accesses=a,
                    elapsed_ms=c * cpu_ms + i * io_ms + a * access_ms,
                )
                for c, i, a in rows
            ]
        )
        assert cal.cpu_ms == pytest.approx(cpu_ms)
        assert cal.io_ms == pytest.approx(io_ms)
        assert cal.access_ms == pytest.approx(access_ms)
        weights = cal.to_weights()
        assert (weights.cpu, weights.io, weights.access) == pytest.approx(
            (cpu_ms, io_ms, access_ms)
        )
        assert cal.predict_ms(100.0, 2.0, 3.0) == pytest.approx(
            100.0 * cpu_ms + 2.0 * io_ms + 3.0 * access_ms
        )

    def test_exact_recovery_with_visits(self):
        io_ms, access_ms, visit_ms = 0.5, 3.0, 0.01
        rows = [
            (10.0, 4.0, 1200.0),
            (80.0, 1.0, 300.0),
            (300.0, 90.0, 9000.0),
            (900.0, 30.0, 100.0),
            (20.0, 250.0, 4000.0),
        ]
        cal = fit_observations(
            [
                Observation(
                    cpu=0.0,
                    io=i,
                    accesses=a,
                    visits=v,
                    elapsed_ms=i * io_ms + a * access_ms + v * visit_ms,
                )
                for i, a, v in rows
            ]
        )
        assert cal.cpu_ms == 0.0
        assert (cal.io_ms, cal.access_ms, cal.visit_ms) == pytest.approx(
            (io_ms, access_ms, visit_ms)
        )
        assert cal.to_weights().visit == pytest.approx(visit_ms)
        assert cal.predict_ms(0.0, 1.0, 1.0, 100.0) == pytest.approx(
            io_ms + access_ms + 100.0 * visit_ms
        )

    def test_excess_over_fastest_cancels_a_fixed_cost(self):
        # Five configurations of one join that each pay 7 ms beyond
        # their priced work: absolute times cannot be fitted through
        # the origin exactly, their excesses can.
        io_ms, access_ms = 0.5, 3.0
        rows = [(10.0, 1.0), (30.0, 4.0), (90.0, 20.0), (40.0, 2.0), (200.0, 60.0)]
        observations = [
            Observation(
                cpu=0.0,
                io=i,
                accesses=a,
                elapsed_ms=7.0 + i * io_ms + a * access_ms,
            )
            for i, a in rows
        ]
        excess = excess_over_fastest(observations)
        assert excess[0] == Observation(cpu=0.0, io=0.0, elapsed_ms=0.0)
        assert min(o.elapsed_ms for o in excess) == 0.0
        cal = fit_observations(excess)
        assert (cal.io_ms, cal.access_ms) == pytest.approx((io_ms, access_ms))
        assert fit_observations(observations).r_squared < cal.r_squared

    def test_accesses_collinear_with_io_fall_back(self):
        # Every access reads exactly one block: accesses carry no
        # signal apart from io, so one of the two is dropped.
        rows = [(c, c / 10.0, c / 10.0, c * 0.01) for c in (100.0, 500.0, 2000.0)]
        cal = fit_observations(
            [
                Observation(cpu=c, io=i, accesses=a, elapsed_ms=t)
                for c, i, a, t in rows
            ]
        )
        assert min(cal.io_ms, cal.access_ms) == 0.0
        assert cal.predict_ms(1000.0, 100.0, 100.0) == pytest.approx(10.0)

    def test_negative_access_constant_clamped_and_refit(self):
        rows = [
            (1000.0, 100.0, 50.0, 10.0),
            (2000.0, 90.0, 10.0, 20.0),
            (4000.0, 10.0, 90.0, 40.0),
            (3000.0, 40.0, 5.0, 31.0),
        ]
        cal = fit_observations(
            [
                Observation(cpu=c, io=i, accesses=a, elapsed_ms=t)
                for c, i, a, t in rows
            ]
        )
        assert min(cal.cpu_ms, cal.io_ms, cal.access_ms) >= 0.0

    def test_empty_and_all_zero_corpora_raise(self):
        with pytest.raises(CalibrationError, match="no usable"):
            fit_observations([])
        with pytest.raises(CalibrationError, match="no usable"):
            fit_observations(_obs([(0.0, 0.0, 5.0)]))

    def test_to_weights(self):
        cal = Calibration(
            cpu_ms=0.01, io_ms=0.2, r_squared=1.0, samples=2,
            residual_rms_ms=0.0,
        )
        assert cal.to_weights() == CostWeights(cpu=0.01, io=0.2)
        dead = Calibration(
            cpu_ms=0.0, io_ms=0.0, r_squared=0.0, samples=2,
            residual_rms_ms=0.0,
        )
        with pytest.raises(CalibrationError, match="no cost signal"):
            dead.to_weights()


class TestReports:
    def test_observation_from_report(self):
        report = {
            "elapsed_ms": 12.5,
            "counters": {
                "cpu_comparisons": 100,
                "block_reads": 7,
                "block_writes": 3,
            },
        }
        obs = observation_from_report(report, "r.json")
        assert obs == Observation(
            cpu=100.0, io=10.0, elapsed_ms=12.5, source="r.json"
        )
        report["counters"]["partition_accesses"] = 4
        assert observation_from_report(report).accesses == 4.0
        # A fast kernel's report counts the visits it executed and no
        # comparison; a naive one counts both.
        report["config"] = {"details": {"kernel": "sweep", "inner_visits": 9}}
        fast = observation_from_report(report)
        assert (fast.cpu, fast.visits) == (0.0, 9.0)
        report["config"]["details"]["kernel"] = "naive"
        naive = observation_from_report(report)
        assert (naive.cpu, naive.visits) == (100.0, 9.0)

    def test_malformed_reports_raise(self):
        with pytest.raises(CalibrationError, match="no counters"):
            observation_from_report({"elapsed_ms": 1.0})
        with pytest.raises(CalibrationError, match="no elapsed_ms"):
            observation_from_report({"counters": {}})


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "cal.json")
        cal = fit_observations(
            _obs([(100.0, 5.0, 3.0), (400.0, 50.0, 30.0)])
        )
        save_calibration(path, cal)
        assert load_calibration(path) == cal
        document = json.loads(open(path).read())
        assert document["kind"] == "cost_calibration"

    def test_version_one_file_loads_without_access(self, tmp_path):
        path = str(tmp_path / "v1.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "kind": "cost_calibration",
                    "version": 1,
                    "cpu_ms": 0.01,
                    "io_ms": 0.2,
                    "r_squared": 0.9,
                    "samples": 3,
                    "residual_rms_ms": 0.1,
                },
                handle,
            )
        loaded = load_calibration(path)
        assert loaded.access_ms == loaded.visit_ms == 0.0
        assert loaded.to_weights() == CostWeights(cpu=0.01, io=0.2)

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "not_cal.json")
        with open(path, "w") as handle:
            json.dump({"kind": "run_report"}, handle)
        with pytest.raises(CalibrationError, match="not a calibration"):
            load_calibration(path)


class TestCli:
    def _write_report(self, path, cardinality, seed, cpu_ms, io_ms):
        """Run a real join, then plant a noise-free elapsed_ms so the
        fit must recover (cpu_ms, io_ms) exactly from schema-valid
        report files.  The naive kernel executes every comparison it
        charges, so its reports count them."""
        from repro.core.interval import Interval
        from repro.core.join import OIPJoin
        from repro.obs.report import write_report
        from repro.workloads import long_lived_mixture

        outer = long_lived_mixture(
            cardinality, 0.3, Interval(1, 5_000), seed=seed, name="outer"
        )
        inner = long_lived_mixture(
            cardinality, 0.3, Interval(1, 5_000), seed=seed + 1, name="inner"
        )
        result = OIPJoin(kernel="naive", collect_report=True).join(
            outer, inner
        )
        report = dict(result.report)
        counters = report["counters"]
        io = counters["block_reads"] + counters["block_writes"]
        report["elapsed_ms"] = (
            counters["cpu_comparisons"] * cpu_ms + io * io_ms
        )
        write_report(report, path)

    def test_cli_fits_and_writes(self, tmp_path, capsys):
        cpu_ms, io_ms = 0.001, 0.1
        reports = []
        for index, cardinality in enumerate((60, 150, 400)):
            path = str(tmp_path / f"r{index}.json")
            self._write_report(path, cardinality, 10 + index, cpu_ms, io_ms)
            reports.append(path)
        out = str(tmp_path / "cal.json")
        assert calibrate_main(reports + ["--out", out, "--json"]) == 0
        loaded = load_calibration(out)
        assert loaded.cpu_ms == pytest.approx(cpu_ms)
        assert loaded.io_ms == pytest.approx(io_ms)
        assert loaded.samples == 3
        printed = json.loads(
            capsys.readouterr().out.split("wrote")[0]
        )
        assert printed["kind"] == "cost_calibration"

    def test_cli_failure_exit_code(self, tmp_path, capsys):
        assert calibrate_main([str(tmp_path / "missing.json")]) == 2
        assert "calibration failed" in capsys.readouterr().err

    def test_calibrate_reports_validates(self, tmp_path):
        bogus = str(tmp_path / "bogus.json")
        with open(bogus, "w") as handle:
            json.dump({"kind": "something_else"}, handle)
        with pytest.raises(ValueError):
            calibrate_reports([bogus])
