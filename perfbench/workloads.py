"""The benchmark's workloads: the CLI arguments of one operation and the
check of its outputs.

One operation is one ``agemon`` CLI invocation. Its inputs are the
workload's fixed parameters plus a program seed that the benchmark derives
from its own ``--seed``. The checks are scoped to what each output claims:
exact identities where they exist (to float rounding), a band of bootstrap
half-widths where a Monte Carlo estimate is compared with its closed form.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

# paper defaults: lambda, mu, nu, recovery
PAPER = (0.5, 1.0, 0.005, 20.0)
# rho = 0.9 and E[T] = 2000: ~1800 packets per period
DENSE = (0.9, 1.0, 0.0005, 20.0)
# optimal threshold at the paper defaults, log(lam/nu + 2) / (lam + nu)
PAPER_OPTIMAL_TAU = 9.158

# identities such as fp_rate + fn_rate == error_rate hold exactly in real
# arithmetic; the program divides each term separately, so allow rounding
EXACT_RTOL = 1e-12
ERROR_BAND_HALF_WIDTHS = 3.0
# The mean-age closed form assumes the queue is in steady state throughout a
# period, but every period restarts with an empty queue, so simulated ages
# sit below it: by about 1.7 half-widths at the defaults with 10^4 periods
# and 2.3 in the dense workload with 1500 periods, spread about 0.5-0.8
# (fewer periods widen the half-width, so the gap is fewer half-widths at
# the sizes below). The wider band keeps that known premise gap from
# failing operations while still catching a broken age integral.
AOI_BAND_HALF_WIDTHS = 6.0
ORACLE_ATOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate", "sweep" (threshold sweep with simulation) or "scan" (analytic only)
    params: tuple[float, float, float, float]
    periods: int = 0
    resamples: int = 0
    grid: tuple[float, float, float] | None = None

    @property
    def csv_name(self) -> str:
        return f"{self.name}.csv"

    def argv(self, seed: int) -> list[str]:
        lam, mu, nu, r = self.params
        flags = ["--lambda", repr(lam), "--mu", repr(mu), "--nu", repr(nu),
                 "--recovery", repr(r), "--seed", str(seed)]
        if self.kind == "simulate":
            return ["simulate", *flags, "--periods", str(self.periods),
                    "--resamples", str(self.resamples)]
        start, stop, step = self.grid
        argv = ["sweep-threshold", *flags, "--grid", f"{start!r}:{stop!r}:{step!r}",
                "--out", self.csv_name, "--svg", f"{self.name}.svg"]
        if self.kind == "scan":
            return argv + ["--analytic-only"]
        return argv + ["--periods", str(self.periods), "--resamples", str(self.resamples)]

    def grid_values(self) -> list[float]:
        start, stop, step = self.grid
        return [start + step * k for k in range(int(round((stop - start) / step)) + 1)]


# Each operation takes well under a second of CPU so that a run holds
# 20-45 of them and most run inside one speed phase of the host (run.py).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate-default", "simulate", PAPER, periods=3_000, resamples=1000),
        Workload("simulate-dense", "simulate", DENSE, periods=500, resamples=1000),
        Workload("threshold-sweep", "sweep", PAPER, periods=750, resamples=200,
                 grid=(1.0, 20.0, 1.0)),
        # 9.15 is on the grid, 0.008 from the optimum, where err_analytic
        # is within 1e-7 of the closed form
        Workload("oracle-scan", "scan", PAPER, grid=(0.15, 39.9, 0.25)),
    )
}


@dataclass(frozen=True)
class Expected:
    """Closed forms at a workload's parameters, evaluated once before timing."""

    aoi: float
    error_rate: float

    @classmethod
    def for_workload(cls, workload: Workload) -> "Expected":
        from agemon.analytics import error_rate_closed_form, mean_aoi_closed_form

        lam, mu, nu, r = workload.params
        return cls(mean_aoi_closed_form(lam, mu, nu, r), error_rate_closed_form(lam, nu, r))


class CheckFailed(Exception):
    pass


def _exact(lhs: float, rhs: float, what: str) -> None:
    if not math.isclose(lhs, rhs, rel_tol=EXACT_RTOL, abs_tol=0.0):
        raise CheckFailed(f"{what}: {lhs!r} != {rhs!r}")


def _band(value: float, closed_form: float, halfwidth: float, widths: float, what: str) -> None:
    if not (halfwidth > 0 and abs(value - closed_form) <= widths * halfwidth):
        raise CheckFailed(
            f"{what}: {value!r} is not within {widths} x {halfwidth!r} of {closed_form!r}"
        )


def _number(text: str | None, what: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise CheckFailed(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{what}: {value!r} is not finite")
    return value


def _check_simulate(workload: Workload, expected: Expected, seed: int, stdout: str, out_dir: Path) -> bytes:
    values = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise CheckFailed(f"unexpected output line {line!r}")
        values[key] = value
    num = {key: _number(text, key) for key, text in values.items()
           if key not in ("periods", "seed", "unstable_queue")}
    if int(values["periods"]) != workload.periods or int(values["seed"]) != seed:
        raise CheckFailed(f"run reports periods={values['periods']} seed={values['seed']}")
    if values["unstable_queue"] != "False":
        raise CheckFailed("stable configuration reported as unstable")
    _exact(num["fp_rate"] + num["fn_rate"], num["error_rate"], "fp_rate + fn_rate == error_rate")
    _exact(num["time_r1"] + num["time_r2"] + num["time_r3"], num["measured_time"],
           "time_r1 + time_r2 + time_r3 == measured_time")
    _band(num["aoi_time_average"], expected.aoi, num["aoi_ci_halfwidth"], AOI_BAND_HALF_WIDTHS,
          "aoi_time_average vs mean_aoi_closed_form")
    _band(num["detection_error_rate"], expected.error_rate, num["error_ci_halfwidth"],
          ERROR_BAND_HALF_WIDTHS, "detection_error_rate vs error_rate_closed_form")
    return stdout.encode()


def _read_rows(workload: Workload, out_dir: Path) -> tuple[bytes, list[dict]]:
    data = (out_dir / workload.csv_name).read_bytes()
    lines = data.decode().splitlines()
    if not lines or not lines[0].startswith("#"):
        raise CheckFailed("CSV does not start with its parameter comment")
    rows = list(csv.DictReader(lines[1:]))
    grid = workload.grid_values()
    if len(rows) != len(grid):
        raise CheckFailed(f"{len(rows)} rows for a grid of {len(grid)}")
    for row, x in zip(rows, grid):
        _exact(_number(row.get("swept_value"), "swept_value"), x, "swept_value == grid value")
    svg = (out_dir / f"{workload.name}.svg").read_bytes()
    if b"<svg" not in svg[:200] or not svg.rstrip().endswith(b"</svg>"):
        raise CheckFailed("SVG output is not a complete SVG document")
    return data, rows


def _check_sweep(workload: Workload, expected: Expected, seed: int, stdout: str, out_dir: Path) -> bytes:
    data, rows = _read_rows(workload, out_dir)
    # err_empirical is the full-span error rate, a different scope from
    # err_analytic, so the two are deliberately not compared here
    for row in rows:
        fp = _number(row["fp_rate"], "fp_rate")
        fn = _number(row["fn_rate"], "fn_rate")
        _exact(fp + fn, _number(row["err_empirical"], "err_empirical"),
               f"fp_rate + fn_rate == err_empirical at threshold {row['swept_value']}")
        if row["seed"] != str(seed):
            raise CheckFailed(f"seed column {row['seed']!r} != {seed}")
    if len({row["aoi_empirical"] for row in rows}) != 1:
        raise CheckFailed("aoi_empirical differs between rows of one shared simulation")
    first = rows[0]
    _band(_number(first["aoi_empirical"], "aoi_empirical"), expected.aoi,
          _number(first["aoi_ci"], "aoi_ci"), AOI_BAND_HALF_WIDTHS, "aoi_empirical vs mean_aoi_closed_form")
    return data


def _check_scan(workload: Workload, expected: Expected, seed: int, stdout: str, out_dir: Path) -> bytes:
    data, rows = _read_rows(workload, out_dir)
    for row in rows:
        if row["aoi_empirical"] or row["err_empirical"]:
            raise CheckFailed("analytic-only scan wrote empirical columns")
        _exact(_number(row["aoi_analytic"], "aoi_analytic"), expected.aoi,
               "aoi_analytic == mean_aoi_closed_form")
    xs = [float(row["swept_value"]) for row in rows]
    errs = [_number(row["err_analytic"], "err_analytic") for row in rows]
    lam, _, nu, _ = workload.params
    tau = math.log(lam / nu + 2.0) / (lam + nu)
    nearest = min(range(len(xs)), key=lambda i: abs(xs[i] - tau))
    if not abs(errs[nearest] - expected.error_rate) <= ORACLE_ATOL:
        raise CheckFailed(
            f"err_analytic at threshold {xs[nearest]} is {errs[nearest]!r}, "
            f"closed form {expected.error_rate!r}"
        )
    best = xs[min(range(len(errs)), key=errs.__getitem__)]
    step = workload.grid[2]
    if not abs(best - PAPER_OPTIMAL_TAU) <= step:
        raise CheckFailed(f"argmin threshold {best} is not within {step} of {PAPER_OPTIMAL_TAU}")
    return data


_CHECKS = {"simulate": _check_simulate, "sweep": _check_sweep, "scan": _check_scan}


def check_outputs(workload: Workload, expected: Expected, seed: int, stdout: str, out_dir: Path) -> str:
    """SHA-256 of the operation's numeric outputs; raises CheckFailed when
    an output is missing or wrong."""
    try:
        data = _CHECKS[workload.kind](workload, expected, seed, stdout, out_dir)
    except KeyError as exc:
        raise CheckFailed(f"missing output {exc}") from None
    except OSError as exc:
        raise CheckFailed(f"unreadable output: {exc}") from None
    return hashlib.sha256(data).hexdigest()
