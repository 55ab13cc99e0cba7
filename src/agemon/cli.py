"""Command-line front end.

Subcommands: analytic, simulate, sweep-rho, sweep-expected-t,
sweep-threshold, tradeoff, validate. Defaults follow the standard
configuration lambda=0.5, mu=1, nu=0.005, recovery=20, periods=100000.
Relative output paths resolve against $AGEMON_OUT_DIR when it is set.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import EmptyTimelineError, ParameterError, SimulationLimitError
from .experiments import SweepSpec, measure, monte_carlo_cross_check, run_sweep
from .report import CHARTS, json_text, project, render_svg, text_lines, write_csv
from .sim import SimParams

DEFAULT_SEED = 20260810

_SWEEP_DEFAULTS = {
    "sweep-rho": ("rho", "0.05:0.95:0.05"),
    "sweep-expected-t": ("expected_T", "20:200:20"),
    "sweep-threshold": ("threshold", "1:20:1"),
    "tradeoff": ("rho", "0.05:0.95:0.05"),
}


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=0.5,
                        help="update generation rate (default 0.5)")
    parser.add_argument("--mu", type=float, default=1.0,
                        help="queue service rate (default 1.0)")
    parser.add_argument("--nu", type=float, default=0.005,
                        help="failure rate (default 0.005)")
    parser.add_argument("--recovery", type=float, default=20.0,
                        help="deterministic recovery duration in seconds (default 20)")
    parser.add_argument("--periods", type=int, default=100_000,
                        help="number of periods to simulate (default 100000)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"master seed (default {DEFAULT_SEED})")
    parser.add_argument("--enforce-assumption3", dest="require_delivery", action="store_true",
                        help="draw each period conditioned on its first update being "
                             "delivered before the failure (conditioned runs)")


def _add_output_flags(parser: argparse.ArgumentParser, svg: bool = True, out: str = "CSV") -> None:
    parser.add_argument("--out", help=f"{out} output path")
    if svg:
        parser.add_argument("--svg", help="SVG chart output path")
    parser.add_argument("--resamples", type=int,
                        help="deprecated and unused: the 95%% half-widths come from the ratio "
                             "estimator")


_COMMAND_HELP = {
    "analytic": "print the closed-form report",
    "simulate": "simulate one configuration and print its metrics",
    "sweep-rho": "sweep the service utilization (analytic + empirical age and error)",
    "sweep-expected-t": "sweep the mean working time E[T] = 1/nu",
    "sweep-threshold": "sweep the detector threshold on one shared simulation",
    "tradeoff": "age/error pairs over the utilization grid",
    "validate": "closed-form and Monte Carlo cross-check report",
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The agemon parser. When `command` names a subcommand, it builds that
    subparser alone, with its flags; otherwise it lists every subcommand,
    without flags, for the top-level help and the invalid-choice error."""
    parser = argparse.ArgumentParser(
        prog="agemon",
        description="Freshness and failure-detection metrics for an update stream "
                    "from an intermittently failing sensor behind an M/M/1 queue.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _COMMAND_HELP else list(_COMMAND_HELP)
    if names == [command]:  # the usage line still names every subcommand
        sub.metavar = "{" + ",".join(_COMMAND_HELP) + "}"
    for name in names:
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        if name != command:
            continue
        _add_param_flags(p)
        if name == "analytic":
            p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        elif name == "simulate":
            _add_output_flags(p, svg=False)
        elif name == "validate":
            _add_output_flags(p, svg=False, out="JSON")
        else:
            default_grid = _SWEEP_DEFAULTS[name][1]
            _add_output_flags(p)
            p.add_argument("--grid", default=default_grid,
                           help=f"sweep grid as start:stop:step (default {default_grid})")
            p.add_argument("--analytic-only", action="store_true",
                           help="skip simulation, emit analytic columns only")
    return parser


def _parse_grid(text: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError as exc:
        raise ParameterError(f"grid must be numeric, got {text!r}") from exc
    return start, stop, step


def _resolve(path_text: str) -> Path:
    path = Path(path_text)
    base = os.environ.get("AGEMON_OUT_DIR")
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _params(args: argparse.Namespace) -> SimParams:
    return SimParams(
        lam=args.lam,
        mu=args.mu,
        nu=args.nu,
        r=args.recovery,
        periods=args.periods,
        master_seed=args.seed,
        require_delivery=args.require_delivery,
    )


def _check_resamples(args: argparse.Namespace) -> None:
    """--resamples is unused: a count says so once on stderr, and a
    negative one is an error."""
    if args.resamples is None:
        return
    if args.resamples < 0:
        raise ParameterError(f"resamples must be >= 0, got {args.resamples}")
    print(f"note: --resamples {args.resamples} is unused; the half-widths now come from the "
          f"regenerative ratio estimator", file=sys.stderr)


def _cmd_analytic(args: argparse.Namespace) -> int:
    [row] = measure(_params(args), with_sim=False)
    record = project(row, "analytic")
    print(json_text(record) if args.json else text_lines(record))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _params(args)
    _check_resamples(args)
    [row] = measure(params, swept_var="rho", swept_value=params.rho)
    print(text_lines(project(row, "simulate")))
    if args.out:
        path = write_csv([row], _resolve(args.out), params)
        print(f"wrote {path}")
    return 0


def _cmd_sweep(args: argparse.Namespace, command: str) -> int:
    variable, _ = _SWEEP_DEFAULTS[command]
    start, stop, step = _parse_grid(args.grid)
    spec = SweepSpec(variable=variable, start=start, stop=stop, step=step, fixed=_params(args))
    _check_resamples(args)
    if args.svg and spec.grid().size < 2:  # one row per point; render_svg checks only after the run
        raise ParameterError("an SVG chart needs at least 2 rows")
    rows = run_sweep(spec, with_sim=not args.analytic_only)
    out = _resolve(args.out) if args.out else _resolve(f"{command}.csv")
    path = write_csv(rows, out, spec.fixed)
    print(f"wrote {path}")
    if args.svg:
        chart = f"{command} --analytic-only" if args.analytic_only else command
        x_col, y_cols = CHARTS.get(chart, CHARTS[command])
        svg_path = render_svg(rows, x_col, y_cols, _resolve(args.svg), title=command)
        print(f"wrote {svg_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    params = _params(args)
    _check_resamples(args)
    text = json_text(project(monte_carlo_cross_check(params), "validate"))
    print(text)
    if args.out:
        path = _resolve(args.out)
        try:
            path.write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            raise OSError(f"could not write report {path}: {exc}") from exc
        print(f"wrote {path}")
    return 0


def run_subcommand(argv: list[str]) -> int:
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "analytic":
            return _cmd_analytic(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_sweep(args, args.command)
    except (ParameterError, EmptyTimelineError, SimulationLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_subcommand(sys.argv[1:]))


if __name__ == "__main__":
    main()
