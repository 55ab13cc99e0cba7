import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import agemon.cli
import agemon.experiments
import agemon.sim
from agemon import ParameterError, SimParams, failure_prior, monte_carlo_cross_check
from agemon.analytics import error_rate
from agemon.cli import run_subcommand
from agemon.report import OUTPUTS
from conftest import DEFAULTS, read_csv
from reference import MAX_RESAMPLES, quadrature_error_rate

FAST = ["--periods", "300"]
NOTE = "note: --resamples {} is unused; the half-widths now come from the regenerative ratio estimator\n"
# the commands that simulate, all through experiments.measure; each case id
# names the module whose `simulate` the command once called, so ids stay stable
SIMULATING = pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--periods", "300"], id="argv0-agemon.cli"),
    pytest.param(["sweep-threshold", "--periods", "300"], id="argv1-agemon.experiments"),
    pytest.param(["sweep-rho", "--periods", "300"], id="argv2-agemon.experiments"),
    pytest.param(["validate", "--periods", "10000"], id="argv3-agemon.oracle"),
])


def run(capsys, *argv):
    status = run_subcommand(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


PARAM_FLAGS = {"--help", "--lambda", "--mu", "--nu", "--recovery", "--periods", "--seed",
               "--enforce-assumption3"}
SWEEP_FLAGS = {"--out", "--svg", "--resamples", "--grid", "--analytic-only"}
COMMAND_FLAGS = {
    "analytic": {"--json"},
    "simulate": {"--out", "--resamples"},
    "sweep-rho": SWEEP_FLAGS,
    "sweep-expected-t": SWEEP_FLAGS,
    "sweep-threshold": SWEEP_FLAGS,
    "tradeoff": SWEEP_FLAGS,
    "validate": {"--out", "--resamples"},
}


class TestParser:
    # the parser defines the flags of the named subcommand only
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_help_lists_the_subcommands_own_flags(self, capsys, command):
        status, out, _ = run(capsys, command, "--help")
        assert status == 0
        assert set(re.findall(r"--[a-z0-9-]+", out)) == PARAM_FLAGS | COMMAND_FLAGS[command]

    def test_top_level_help_lists_every_subcommand(self, capsys):
        status, out, _ = run(capsys, "--help")
        assert status == 0
        listed = re.search(r"\{([a-z,-]+)\}", out).group(1).split(",")
        assert listed == list(agemon.cli._COMMAND_HELP)
        assert set(listed) == set(COMMAND_FLAGS)
        text = " ".join(out.split())  # argparse wraps long help lines
        assert all(help_text in text for help_text in agemon.cli._COMMAND_HELP.values())


    # a command line that names a subcommand builds that subparser alone;
    # any other lists every subcommand
    @pytest.mark.parametrize("argv,parsers", [
        (["analytic", "--json"], 2), (["sweep-threshold", "--help"], 2), (["frobnicate"], 8), ([], 8),
    ])
    def test_builds_the_named_subparser_alone(self, capsys, monkeypatch, argv, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        run(capsys, *argv)
        assert len(built) == parsers
        assert parsers == 2 or len(built) == 1 + len(agemon.cli._COMMAND_HELP)

    def test_usage_line_names_every_subcommand(self, capsys):
        # a top-level error after a named subcommand prints the same usage
        # as the full listing does
        status, _, err = run(capsys, "analytic", "surplus")
        _, _, listed = run(capsys, "frobnicate")
        assert status == 2 and "unrecognized arguments: surplus" in err
        assert err.partition("agemon: error:")[0] == listed.partition("agemon: error:")[0]


ANALYTIC_KEYS = ["lam", "mu", "nu", "r", "tau", "degenerate", "error_rate", "aoi_mm1", "mean_aoi", "prior_s1"]


class TestAnalytic:
    def test_default_values(self, capsys):
        status, out, _ = run(capsys, "analytic")
        assert status == 0
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert list(values) == ANALYTIC_KEYS
        assert float(values["tau"]) == pytest.approx(9.16, abs=0.005)
        assert float(values["mean_aoi"]) == pytest.approx(4.5045, abs=1e-3)
        assert float(values["error_rate"]) == pytest.approx(0.04163, abs=1e-4)

    def test_json_output(self, capsys):
        status, out, _ = run(capsys, "analytic", "--json", "--nu", "0.01")
        assert status == 0
        data = json.loads(out)
        assert list(data) == ANALYTIC_KEYS
        assert data["nu"] == 0.01
        assert data["aoi_mm1"] == 3.5

    def test_degenerate_configuration(self, capsys):
        status, out, _ = run(capsys, "analytic", "--json", "--recovery", "5")
        data = json.loads(out)
        assert data["degenerate"] is True
        assert data["error_rate"] == pytest.approx(data["prior_s1"])

    def test_zero_recovery(self, capsys):
        # no outage: the rule is degenerate and never wrong
        status, out, _ = run(capsys, "analytic", "--json", "--recovery", "0")
        assert status == 0
        data = json.loads(out)
        assert data["degenerate"] is True
        assert data["error_rate"] == 0.0 and data["prior_s1"] == 0.0


class TestErrors:
    def test_bad_flag_usage_error(self, capsys):
        status, _, err = run(capsys, "analytic", "--bogus")
        assert status == 2
        assert "usage" in err.lower()

    def test_unknown_command(self, capsys):
        status, _, err = run(capsys, "frobnicate")
        assert status == 2
        assert "invalid choice: 'frobnicate'" in err
        assert all(f"'{command}'" in err for command in COMMAND_FLAGS)

    def test_domain_violation_named(self, capsys):
        status, _, err = run(capsys, "analytic", "--lambda", "-3")
        assert status == 1
        assert "error:" in err and "lam" in err

    def test_unstable_rho_named(self, capsys, monkeypatch):
        def no_simulation(params, taus):
            raise AssertionError("simulated before rho was checked")

        monkeypatch.setattr(agemon.experiments, "simulate_table", no_simulation)
        status, _, err = run(capsys, "simulate", "--lambda", "2.0", *FAST)
        assert status == 1
        assert "rho" in err

    # 0 once raised a ZeroDivisionError, -1 a misleading rho message
    @pytest.mark.parametrize("mu", ["0", "-1"])
    def test_non_positive_service_rate_named(self, capsys, mu):
        status, out, err = run(capsys, "analytic", "--mu", mu)
        assert status == 1 and out == ""
        assert "error: mu must be > 0" in err

    # analytic builds SimParams like every other command, so it checks the
    # run flags it does not use; both exited 0 when it did not
    @pytest.mark.parametrize("argv,name", [(["--periods", "0"], "periods"), (["--seed", "-1"], "master_seed")])
    def test_analytic_checks_the_run_flags(self, capsys, argv, name):
        status, out, err = run(capsys, "analytic", *argv)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {name} must be")

    # the closed forms describe unconditioned runs, so a command that
    # prints them alone refuses a conditioned one; both once exited 0
    @pytest.mark.parametrize("argv", [
        ["analytic"], ["sweep-threshold", "--analytic-only"], ["sweep-rho", "--analytic-only"],
    ])
    def test_closed_forms_alone_refuse_conditioning(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        extra = [] if argv == ["analytic"] else ["--out", str(out)]
        status, stdout, err = run(capsys, *argv, "--enforce-assumption3", *extra)
        assert status == 1 and stdout == "" and not out.exists()
        assert err.startswith("error: require_delivery needs a simulation: the closed forms describe "
                              "unconditioned runs")

    def test_non_finite_recovery_rejected(self, capsys):
        status, out, err = run(capsys, "analytic", "--recovery", "inf", "--json")
        assert status == 1 and out == ""
        assert "r must be finite" in err

    @pytest.mark.parametrize("argv,message", [
        (["sweep-threshold", "--grid", "1:inf:1"], "stop must be finite"),
        (["sweep-threshold", "--grid", "20:nan:20"], "stop must be finite"),
        (["simulate", *FAST, "--resamples", "-5"], "resamples must be >= 0"),
        (["sweep-threshold", "--grid", "0:1e300:1e-300", "--analytic-only"], "more than the 1000000 allowed"),
        (["sweep-threshold", "--grid", "a:b:c"], "grid must be numeric, got 'a:b:c'"),
    ])
    def test_bad_sweep_input_fails_with_named_field(self, capsys, argv, message):
        status, _, err = run(capsys, *argv)
        assert status == 1
        assert message in err

    def test_threshold_sweep_at_zero_recovery_fails_before_simulating(self, capsys, monkeypatch):
        # the outage's gap-age distribution divides by r
        def no_simulation(params, taus):
            raise AssertionError("simulated before the analytic column was checked")

        monkeypatch.setattr(agemon.experiments, "simulate_table", no_simulation)
        status, _, err = run(capsys, "sweep-threshold", *FAST, "--recovery", "0")
        assert status == 1
        assert "error:" in err and "r must be > 0" in err

    def test_validate_at_zero_recovery_fails_before_simulating(self, capsys, monkeypatch):
        # the closed-form error rate is 0 at r = 0 and divides err_rel_dev
        def no_simulation(params, taus):
            raise AssertionError("simulated before the recovery was checked")

        monkeypatch.setattr(agemon.experiments, "simulate_table", no_simulation)
        status, _, err = run(capsys, "validate", "--periods", "10000", "--recovery", "0")
        assert status == 1
        assert "error:" in err and "r > 0" in err

    @SIMULATING
    def test_negative_resamples_fails_before_simulating(self, capsys, monkeypatch, argv):
        def no_simulation(params, taus):
            raise AssertionError("simulated before the resample count was checked")

        monkeypatch.setattr(agemon.experiments, "simulate_table", no_simulation)
        status, _, err = run(capsys, *argv, "--resamples", "-5")
        assert status == 1
        assert "error: resamples must be >= 0, got -5" in err

    @SIMULATING
    def test_oversized_resamples_are_unused(self, capsys, monkeypatch, argv):
        # 10^12 resamples once simulated first, then failed allocating
        # 14.6 TiB; the count is unused now, so nothing is allocated for it
        def reached(params, taus):
            raise ParameterError("reached the simulation")

        monkeypatch.setattr(agemon.experiments, "simulate_table", reached)
        status, _, err = run(capsys, *argv, "--resamples", "1000000000000")
        assert status == 1
        assert err == NOTE.format(1000000000000) + "error: reached the simulation\n"

    # the cap of the bootstrap that --resamples once sized
    @SIMULATING
    def test_resamples_at_the_cap_reach_the_simulation(self, capsys, monkeypatch, argv):
        def reached(params, taus):
            raise ParameterError("reached the simulation")

        monkeypatch.setattr(agemon.experiments, "simulate_table", reached)
        status, _, err = run(capsys, *argv, "--resamples", str(MAX_RESAMPLES))
        assert status == 1
        assert "error: reached the simulation" in err

    @pytest.mark.parametrize("lam", ["0.5", "2.0"])
    def test_run_without_deliveries(self, capsys, lam):
        # failures within ~0.01 s leave no time to deliver anything
        status, _, err = run(capsys, "simulate", "--lambda", lam, "--nu", "100", "--periods", "1")
        assert status == 1
        assert "error:" in err and ("deliveries" in err or "rho" in err)

    def test_one_point_sweep_refuses_a_chart_before_simulating(self, capsys, monkeypatch, tmp_path):
        # it once simulated its only point and wrote its CSV, then failed
        def no_simulation(params, taus):
            raise AssertionError("simulated before the chart was checked")

        monkeypatch.setattr(agemon.experiments, "simulate_table", no_simulation)
        out_csv = tmp_path / "x.csv"
        status, out, err = run(capsys, "sweep-rho", *FAST, "--grid", "0.5:0.5000001:0.1", "--out", str(out_csv),
                               "--svg", str(tmp_path / "x.svg"))
        assert status == 1 and out == "" and not out_csv.exists()
        assert err == "error: an SVG chart needs at least 2 rows\n"

    # a run whose numbers leave float64 printed inf or nan and exited 0
    # (at 1e76 every number still fits: TestMeasure). Tier-1 turns a
    # RuntimeWarning on the way into an error
    @pytest.mark.parametrize("recovery, left", [
        ("1e78", "aoi_ci"),
        ("1e155", "aoi_empirical, aoi_ci"),
        ("1e306", "the run's end time, the sum of its 200 clocks and recoveries,"),
    ])
    def test_run_out_of_float_range(self, capsys, recovery, left):
        status, out, err = run(capsys, "simulate", "--periods", "200", "--recovery", recovery)
        assert status == 1 and out == ""
        assert err.startswith(f"error: {left} left the float64 range")

    # stable queues: simulate rejects rho >= 1 before it runs. The first
    # run expects 8e8 packets, within the cap, but this seed's clock expects
    # lam * T ~ 2.7e9 updates of its one period
    @pytest.mark.parametrize("argv, cap", [
        (["--lambda", "1", "--mu", "2", "--nu", "1.25e-9", "--recovery", "1", "--periods", "1", "--seed", "2"],
         "a period expects 2.7e+09 updates, lam * T, over the cap MAX_EXPECTED_PACKETS = 1000000000"),
        (["--lambda", "1e9", "--mu", "2e9", "--nu", "1e-9", "--periods", "1"], "MAX_EXPECTED_PACKETS"),
    ])
    def test_simulation_limit_names_the_cap(self, capsys, argv, cap):
        status, _, err = run(capsys, "simulate", *argv)
        assert status == 1
        assert err.startswith("error:") and cap in err

    def test_unwritable_output(self, capsys, tmp_path):
        status, _, err = run(capsys, "simulate", *FAST, "--out", str(tmp_path / "no" / "x.csv"))
        assert status == 1
        assert "x.csv" in err

    def test_unwritable_report(self, capsys, monkeypatch, tmp_path):
        # the closed-form row stands in for the cross-check: nothing is simulated
        monkeypatch.setattr(agemon.cli, "monte_carlo_cross_check",
                            lambda params, **_: agemon.experiments.measure(params, with_sim=False)[0])
        path = tmp_path / "no" / "x.json"
        status, out, err = run(capsys, "validate", "--out", str(path))
        assert status == 1 and json.loads(out)["lam"] == 0.5
        assert err.startswith(f"error: could not write report {path}: ")


class TestSimulate:
    def test_prints_summary_and_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        status, out, _ = run(capsys, "simulate", *FAST, "--out", str(out_csv))
        assert status == 0
        assert "aoi_time_average" in out
        assert "error_rate" in out
        rows = read_csv(out_csv)
        assert len(rows) == 1
        assert rows[0]["seed"] == 20260810
        assert rows[0]["aoi_empirical"] is not None
        assert rows[0]["aoi_analytic"] is not None

    def test_csv_row_equals_stdout(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        status, out, _ = run(capsys, "simulate", *FAST, "--seed", "5", "--out", str(out_csv))
        assert status == 0
        *lines, wrote = out.splitlines()
        assert wrote == f"wrote {out_csv}"
        printed = dict(line.split(" = ") for line in lines)
        assert list(printed) == list(OUTPUTS["simulate"].values())
        header, values = out_csv.read_text(encoding="utf-8").splitlines()[1:]
        cells = dict(zip(header.split(","), values.split(",")))
        same = {"aoi_empirical": "aoi_time_average", "err_empirical": "error_rate",
                "err_detection": "detection_error_rate", "err_detection_ci": "detection_error_ci_halfwidth",
                "aoi_ci": "aoi_ci_halfwidth", "err_ci": "error_ci_halfwidth",
                "fp_rate": "fp_rate", "fn_rate": "fn_rate", "seed": "seed"}
        assert {column: cells[column] for column in same} == {column: printed[key] for column, key in same.items()}
        assert cells["seed"] == "5"

    def test_zero_recovery_writes_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "run.csv"
        status, out, _ = run(capsys, "simulate", *FAST, "--recovery", "0", "--out", str(out_csv))
        assert status == 0
        assert "error_rate = 0.0" in out
        [row] = read_csv(out_csv)
        assert row["err_empirical"] == 0.0 and row["err_analytic"] == 0.0
        assert row["aoi_analytic"] is not None

    def test_one_measured_period_fails_with_a_count(self, capsys):
        # Two periods at nu = 0.5: at seed 1 the first one delivers nothing,
        # so only one period has measured time, and its residual sd of
        # exactly 0 would read as certainty. Warnings are errors here, so a
        # 0/0 division would fail.
        argv = ["simulate", "--periods", "2", "--nu", "0.5", "--recovery", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status, out, err = run(capsys, *argv, "--seed", "1")
        assert status == 1 and out == ""
        assert err == ("error: 1 of 2 periods have measured time (from the first delivery on); "
                       "a half-width needs at least 2\n")
        # at seed 2 both periods have measured time: finite half-widths
        status, out, _ = run(capsys, *argv, "--seed", "2")
        assert status == 0
        printed = dict(line.split(" = ") for line in out.splitlines())
        assert printed["aoi_ci_halfwidth"] == "0.6187590613842889"
        assert printed["error_ci_halfwidth"] == "0.30196925759148346"
        assert printed["detection_error_ci_halfwidth"] == "0.30196925759148346"

    def test_seed_flag_changes_result(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", *FAST, "--seed", "1", "--out", str(a))
        run(capsys, "simulate", *FAST, "--seed", "2", "--out", str(b))
        assert read_csv(a)[0]["aoi_empirical"] != read_csv(b)[0]["aoi_empirical"]

    # printed times and averages scale by c, rates and the rest are equal
    SCALED_OUTPUTS = {"aoi_time_average", "aoi_ci_halfwidth", "avg_r1", "avg_r2", "avg_r3", "time_r1",
                      "time_r2", "time_r3", "reacquisition_fp_time", "measured_time"}
    SCALED_COLUMNS = {"aoi_analytic", "aoi_empirical", "aoi_ci"}

    @pytest.mark.parametrize("c", [2.0, 2.0**-3])
    def test_time_scale(self, capsys, tmp_path, c):
        # the defaults, and lam, mu and nu divided by c with the recovery
        # times c: every time and age comes out times c and every rate,
        # half-width of a rate, swept rho and seed the same, bit for bit
        base = DEFAULTS
        scaled = dict(lam=base["lam"] / c, mu=base["mu"] / c, nu=base["nu"] / c, r=base["r"] * c)
        runs = []
        for name, rates in (("base", base), ("scaled", scaled)):
            out_csv = tmp_path / f"{name}.csv"
            status, out, _ = run(capsys, "simulate", "--periods", "2000", "--lambda", repr(rates["lam"]),
                                 "--mu", repr(rates["mu"]), "--nu", repr(rates["nu"]),
                                 "--recovery", repr(rates["r"]), "--out", str(out_csv))
            assert status == 0
            printed = dict(line.split(" = ") for line in out.splitlines()[:-1])
            [row] = read_csv(out_csv)
            runs.append((printed, row))
        (printed, row), (printed_c, row_c) = runs
        assert set(printed) == set(OUTPUTS["simulate"].values()) and set(printed_c) == set(printed)
        assert self.SCALED_OUTPUTS < set(printed)
        for key, value in printed.items():
            if key in self.SCALED_OUTPUTS:
                assert float(printed_c[key]).hex() == (c * float(value)).hex(), key
            else:
                assert printed_c[key] == value, key
        assert self.SCALED_COLUMNS < set(row)

        def bits(value):
            return value.hex() if isinstance(value, float) else value

        for column, value in row.items():
            expected = c * value if column in self.SCALED_COLUMNS else value
            assert bits(row_c[column]) == bits(expected), column

    def test_rerun_reproduces_empirical_columns(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(capsys, "simulate", *FAST, "--seed", "9", "--out", str(a))
        run(capsys, "simulate", *FAST, "--seed", "9", "--out", str(b))
        assert read_csv(a) == read_csv(b)


class TestSweeps:
    def test_threshold_sweep_files(self, capsys, tmp_path):
        out_csv = tmp_path / "thr.csv"
        out_svg = tmp_path / "thr.svg"
        status, out, _ = run(
            capsys, "sweep-threshold", *FAST, "--grid", "4:14:2",
            "--out", str(out_csv), "--svg", str(out_svg),
        )
        assert status == 0
        rows = read_csv(out_csv)
        assert len(rows) == 6
        assert [r["swept_value"] for r in rows] == [4.0, 6.0, 8.0, 10.0, 12.0, 14.0]
        assert all(r["swept_var"] == "threshold" for r in rows)
        # one shared simulation: the age column is constant across thresholds
        assert len({r["aoi_empirical"] for r in rows}) == 1
        # the same-scope rate, below the full-span one by the reacquisition false positives
        assert all(0 < r["err_detection"] < r["err_empirical"] for r in rows)
        svg = out_svg.read_text(encoding="utf-8")
        assert re.findall(r'<text x="[^"]*" y="[^"]*">(\w+)</text>', svg) == ["err_analytic", "err_detection"]

    def test_threshold_sweep_analytic_matches_one_point_quadrature(self, capsys, tmp_path):
        # two points above the default r = 20 share the grid's outage integrals
        out_csv = tmp_path / "thr.csv"
        status, _, _ = run(capsys, "sweep-threshold", "--analytic-only", "--grid", "15:25:2.5",
                           "--out", str(out_csv))
        assert status == 0
        rows = read_csv(out_csv)
        assert [r["swept_value"] for r in rows] == [15.0, 17.5, 20.0, 22.5, 25.0]
        for r in rows:
            one_point = quadrature_error_rate(DEFAULTS["lam"], DEFAULTS["nu"], DEFAULTS["r"], r["swept_value"])
            assert r["err_analytic"] == pytest.approx(one_point, rel=1e-12, abs=0.0)

    def test_threshold_sweep_past_an_overflowing_outage_tail(self, capsys, tmp_path):
        # (lam + nu) * r = 1000.2: past r the outage density overflows exp,
        # and thresholds above r once failed with "error: (lam + nu) * r =
        # 1000.2 overflows exp"; the closed form's tail stays finite
        lam, nu, r = 50.0, 0.01, 20.0
        argv = ["sweep-threshold", "--analytic-only", "--lambda", "50", "--mu", "100", "--nu", "0.01",
                "--recovery", "20", "--out", str(tmp_path / "thr.csv")]
        status, _, err = run(capsys, *argv, "--grid", "5:30:5")
        assert status == 0 and err == ""
        rows = read_csv(tmp_path / "thr.csv")
        assert [row["swept_value"] for row in rows] == [5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        assert [row["err_analytic"] for row in rows] == error_rate(lam, nu, r, [row["swept_value"] for row in rows])
        assert all(0.0 < row["err_analytic"] < 1.0 for row in rows)
        # above r, exp(-a (tau - r)) <= e^-250: the closed form is the failed-time prior
        assert [row["err_analytic"] for row in rows if row["swept_value"] > r] == [failure_prior(nu, r)] * 2

    def test_rho_sweep_analytic_only(self, capsys, tmp_path):
        out_csv = tmp_path / "rho.csv"
        status, _, _ = run(capsys, "sweep-rho", "--analytic-only",
                           "--grid", "0.2:0.8:0.2", "--out", str(out_csv))
        assert status == 0
        rows = read_csv(out_csv)
        assert len(rows) == 4
        assert all(r["aoi_empirical"] is None and r["err_empirical"] is None for r in rows)
        assert all(r["err_detection"] is None for r in rows)
        assert all(r["aoi_analytic"] is not None for r in rows)

    def test_tradeoff_default_name_in_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AGEMON_OUT_DIR", str(tmp_path))
        status, out, _ = run(capsys, "tradeoff", "--analytic-only", "--grid", "0.3:0.7:0.2")
        assert status == 0
        assert (tmp_path / "tradeoff.csv").exists()

    def test_expected_t_sweep(self, capsys, tmp_path):
        out_csv = tmp_path / "et.csv"
        status, _, _ = run(capsys, "sweep-expected-t", "--analytic-only",
                           "--grid", "50:200:50", "--out", str(out_csv))
        assert status == 0
        rows = read_csv(out_csv)
        assert [r["swept_value"] for r in rows] == [50.0, 100.0, 150.0, 200.0]
        # longer working spans -> lower mean age
        aois = [r["aoi_analytic"] for r in rows]
        assert aois == sorted(aois, reverse=True)

    @pytest.mark.parametrize("command,grid,x_col,legend", [
        ("sweep-rho", "0.2:0.8:0.2", "swept_value", ["aoi_analytic", "err_analytic"]),
        ("sweep-expected-t", "50:200:50", "swept_value", ["aoi_analytic"]),
        ("sweep-threshold", "4:14:2", "swept_value", ["err_analytic"]),
        ("tradeoff", "0.3:0.7:0.2", "aoi_analytic", ["err_analytic"]),
    ])
    def test_analytic_only_svg_series(self, capsys, tmp_path, command, grid, x_col, legend):
        out_svg = tmp_path / "chart.svg"
        status, _, _ = run(capsys, command, "--analytic-only", "--grid", grid,
                           "--out", str(tmp_path / "chart.csv"), "--svg", str(out_svg))
        assert status == 0
        svg = out_svg.read_text(encoding="utf-8")
        # legend entries are the only text elements without an anchor
        assert re.findall(r'<text x="[^"]*" y="[^"]*">(\w+)</text>', svg) == legend
        assert f'text-anchor="middle">{x_col}</text>' in svg

    def test_rho_sweep_svg_plots_the_same_scope_error(self, capsys, tmp_path):
        out_svg = tmp_path / "rho.svg"
        status, _, _ = run(capsys, "sweep-rho", *FAST, "--grid", "0.3:0.5:0.2",
                           "--out", str(tmp_path / "rho.csv"), "--svg", str(out_svg))
        assert status == 0
        svg = out_svg.read_text(encoding="utf-8")
        legend = re.findall(r'<text x="[^"]*" y="[^"]*">(\w+)</text>', svg)
        assert legend == ["aoi_analytic", "aoi_empirical", "err_analytic", "err_detection"]

    @pytest.mark.parametrize("command,grid", [("sweep-rho", "0.3:0.5:0.2"),
                                              ("sweep-expected-t", "100:200:100")])
    def test_zero_recovery_sweeps(self, capsys, tmp_path, command, grid):
        out_csv = tmp_path / "zero.csv"
        status, _, _ = run(capsys, command, *FAST, "--recovery", "0", "--grid", grid,
                           "--out", str(out_csv))
        assert status == 0
        rows = read_csv(out_csv)
        assert len(rows) == 2
        assert all(r["err_analytic"] == 0.0 and r["err_empirical"] == 0.0 for r in rows)

    def test_bad_grid_spec(self, capsys):
        status, _, err = run(capsys, "sweep-rho", "--grid", "nope")
        assert status == 1 and "grid" in err


class TestValidate:
    @pytest.mark.parametrize("command", ["simulate", "sweep-rho", "validate"])
    def test_resamples_flag_has_help(self, capsys, command):
        status, out, _ = run(capsys, command, "--help")
        assert status == 0
        assert re.search(r"--resamples RESAMPLES\s+deprecated and unused: the 95% half-widths\s+come\s+from"
                         r"\s+the\s+ratio\s+estimator\n", out)

    def test_writes_json_report(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status, stdout, _ = run(capsys, "validate", "--periods", "10000", "--out", str(out))
        assert status == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert list(data) == [
            "lam", "mu", "nu", "r", "periods", "seed", "require_delivery", "tau", "degenerate",
            "aoi_empirical", "aoi_analytic", "aoi_rel_dev", "aoi_ci_halfwidth",
            "err_empirical", "err_empirical_full", "err_analytic", "err_rel_dev",
            "err_ci_halfwidth", "fp_rate", "fn_rate",
        ]
        assert data["periods"] == 10000
        assert data["require_delivery"] is False
        assert abs(data["aoi_rel_dev"]) < 0.10
        printed = json.loads(stdout.split("wrote")[0])
        assert printed == data
        # the error half-width has the scope of the rate err_rel_dev compares
        row = monte_carlo_cross_check(SimParams(**DEFAULTS, periods=10_000, master_seed=agemon.cli.DEFAULT_SEED))
        assert data["err_ci_halfwidth"] == row["err_detection_ci"] != row["err_ci"]

    def test_conditioned_run_says_so(self, capsys, tmp_path):
        # compared with the unconditioned closed forms, so the report flags it
        out = tmp_path / "report.json"
        status, stdout, _ = run(capsys, "validate", "--periods", "10000", "--enforce-assumption3", "--out", str(out))
        assert status == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert data["require_delivery"] is True
        assert json.loads(stdout.split("wrote")[0]) == data


class TestResamplesFlag:
    # --resamples is deprecated: every count, 0 included, is unused and says
    # so once, and a negative one is an error (TestErrors)
    @pytest.mark.parametrize("argv", [
        ["simulate", "--periods", "300"],
        ["sweep-threshold", "--periods", "300", "--grid", "4:8:2"],
        ["validate", "--periods", "10000"],
    ], ids=["simulate", "sweep-threshold", "validate"])
    def test_every_count_is_unused_and_moves_no_byte(self, capsys, tmp_path, argv):
        argv = [*argv, "--out", str(tmp_path / "out")]
        status, plain, err = run(capsys, *argv)
        assert status == 0 and err == ""
        written = (tmp_path / "out").read_bytes()
        for count in (7, 0):
            (tmp_path / "out").unlink()
            status, out, err = run(capsys, *argv, "--resamples", str(count))
            assert status == 0 and out == plain and (tmp_path / "out").read_bytes() == written
            assert err == NOTE.format(count)


class TestBytePins:
    # sha256 of whole outputs at the pinned seed, so a change to how runs
    # are queued or summed is shown to keep every byte: simulate at the
    # dense regime (rho = 0.9, E[T] = 2000, ~1800 packets per period, few
    # long ragged periods) and a threshold sweep's CSV at the defaults
    # (~100 packets per period, many periods queued side by side). Every
    # hash with a half-width, and the analytic-only CSV, whose header and
    # empty cells gained err_detection_ci, was recorded again when the
    # regenerative ratio half-widths replaced the bootstrap; the rho
    # sweep's SVG kept its bytes. Both threshold sweeps' CSVs were recorded
    # again when analytics.error_rate replaced the quadrature off the
    # optimal threshold: only err_analytic moved, by at most 2.2e-16 relative.
    # Every hash was recorded again under stream contract 4 (Poisson counts
    # at uniform times); the analytic-only CSV moved only in its comment line.
    # Under contract 5 (conditioned periods drawn from their exact law) every
    # CSV was recorded again: each unconditioned one moved only in its
    # comment line's contract=5
    def test_dense_simulate_stdout(self, capsys):
        status, out, _ = run(capsys, "simulate", "--lambda", "0.9", "--nu", "0.0005",
                             "--periods", "200", "--seed", "20260810")
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2eca5c05c691a69de8b2c53f6002009f5cf4997a1cce7f26fd8d424783fec4f6")

    def test_threshold_sweep_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "thr.csv"
        status, _, _ = run(capsys, "sweep-threshold", *FAST, "--grid", "4:14:2",
                           "--seed", "20260810", "--out", str(out_csv))
        assert status == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "25fa673569b4d101ade7c67a9bcdc974cd74cfba56920997927f0976a2c07c2a")

    # every other way a run becomes rows: the cross-check report, a sweep
    # with one simulation per point and its chart, and a threshold grid's
    # closed forms alone (spanning r, so both branches of error_rate)
    def test_validate_json(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        status, _, _ = run(capsys, "validate", "--periods", "10000", "--seed", "20260810", "--out", str(out))
        assert status == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "aeef2c00da6b31c5bc985f901aa842d9e07094a9d6b4ad774b73f4ca33d3ac6a")

    def test_rho_sweep_csv_and_svg(self, capsys, tmp_path):
        out_csv, out_svg = tmp_path / "rho.csv", tmp_path / "rho.svg"
        status, _, _ = run(capsys, "sweep-rho", *FAST, "--grid", "0.2:0.8:0.2", "--seed", "20260810",
                           "--out", str(out_csv), "--svg", str(out_svg))
        assert status == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "9237f1a86b4fbb8f2563d4204b8001342c567ca6ad63518977f99ee8a9ca0050")
        assert hashlib.sha256(out_svg.read_bytes()).hexdigest() == (
            "a6105a758999483c1f0d4442a909eb2e19ea3e4bcfbe8931294297f286ab98f4")

    def test_analytic_only_threshold_sweep_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "thr.csv"
        status, _, _ = run(capsys, "sweep-threshold", "--analytic-only", "--grid", "1:30:1",
                           "--seed", "20260810", "--out", str(out_csv))
        assert status == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "38042bdf7d17f97d392cc0483e0692f2193e3fe26845e350fc4c729dac5650fa")

    # a conditioned run (require_delivery, recorded in the CSV comment)
    # whose optimal rule is degenerate (tau ~ 9.16 >= r = 5); the CSV path
    # in stdout's "wrote" line is hashed as <out>
    def test_conditioned_simulate_stdout_and_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "cond.csv"
        status, out, _ = run(capsys, "simulate", "--enforce-assumption3", "--recovery", "5", "--periods", "2000",
                             "--seed", "20260810", "--out", str(out_csv))
        assert status == 0
        assert hashlib.sha256(out.replace(str(out_csv), "<out>").encode()).hexdigest() == (
            "e37aa38e71eaeaab5e59f1eb63a477bd268a19331ba9951606764e32b46ec860")
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == (
            "1bc4f46171083a05313699b33ad309d7402b801e4cfa528b0370b7519d025c66")

    # the closed-form report as text and JSON: at the defaults, where the
    # optimal rule is degenerate (tau ~ 9.16 >= r = 5) and without outages
    @pytest.mark.parametrize("argv,digest", [
        ([], "d33ca065176f68dde571c1bf107c9e06f8c13222649d672191c8cb36de8c6236"),
        (["--json"], "0437806270e9cf828848bf8d79e309cbdec14333f06181b4d9fb27e5066a41a5"),
        (["--recovery", "5"], "6cc26f4ad0dc46ec9ce68439960d7212f4d7189f21d062129d074584de975e8f"),
        (["--recovery", "5", "--json"], "b988c147752dfb4c09e869d05aafc04452d0f491e05b93ab6d66ccdb2abd3e78"),
        (["--recovery", "0"], "1739a3c7583ad69219faa4e5d0ff6a8f4445ab9bb1e5ff75f06aeb859cc8bde4"),
        (["--recovery", "0", "--json"], "830d9b54353c641d53ae58cbca07b7b2f03e5d2a4d70612901c7042a4ca58c50"),
    ])
    def test_analytic_stdout(self, capsys, argv, digest):
        status, out, _ = run(capsys, "analytic", *argv)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def modules_after_importing_the_cli(package: str, argv: tuple[str, ...] = ()) -> str:
    """The modules of `package` that `import agemon.cli` loads in a fresh
    interpreter, then by running the command `argv` if one is given, as the
    last line it prints."""
    src = str(pathlib.Path(agemon.cli.__file__).parents[1])
    run = f"assert agemon.cli.run_subcommand({list(argv)!r}) == 0; " if argv else ""
    code = f"import sys, agemon.cli; {run}print(sorted(m for m in sys.modules if m.partition('.')[0] == {package!r}))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


def test_importing_the_cli_leaves_scipy_unimported():
    # scipy.integrate costs more to import than agemon and numpy together;
    # only a quadrature imports it
    assert modules_after_importing_the_cli("scipy") == "[]"


def test_sweep_and_simulate_run_with_scipy_refused(tmp_path):
    # a meta-path finder refuses every scipy module, so any import of one
    # fails; the package needs only numpy
    code = (
        "import sys\n"
        "class RefuseScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is refused')\n"
        "sys.meta_path.insert(0, RefuseScipy())\n"
        "from agemon.cli import run_subcommand\n"
        f"print(run_subcommand(['sweep-threshold', '--analytic-only', '--out', {str(tmp_path / 'thr.csv')!r}]),\n"
        "      run_subcommand(['simulate', '--periods', '300']))\n"
    )
    src = str(pathlib.Path(agemon.cli.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stderr == ""
    assert done.stdout.splitlines()[-1] == "0 0"
    assert len(read_csv(tmp_path / "thr.csv")) == 20


def test_importing_the_cli_leaves_statistics_unimported():
    # statistics (with fractions and decimal) once gave the half-widths'
    # normal quantile; summary._Z is that quantile as a constant, so neither
    # the import nor a run, which always forms half-widths, loads it
    assert modules_after_importing_the_cli("statistics", ("simulate", "--periods", "300")) == "[]"
