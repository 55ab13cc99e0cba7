"""The output schema and its emitters.

Every command reports one run's values (or, for `analytic`, the closed
forms) as a row: a dict keyed by the canonical column names of COLUMNS,
built by `run_row`. Each output is a projection of that row (OUTPUTS): an
ordered selection of columns under the keys it publishes. README's
"Outputs" table gives each column's meaning and its key in every output.

The CSV is one comment line recording the fixed configuration, the header,
then one row per grid point with full-precision decimal numbers (empty
cells for missing values). The SVG renderer is deliberately minimal and
byte-deterministic for identical input.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .sim import STREAM_CONTRACT, SimParams

COLUMNS = (
    "swept_var", "swept_value", "lam", "mu", "nu", "r", "periods", "seed", "require_delivery",
    "unstable_queue", "measured_time", "tau", "degenerate",
    "aoi_analytic", "aoi_mm1", "aoi_empirical", "aoi_ci", "aoi_rel_dev",
    "avg_r1", "avg_r2", "avg_r3", "time_r1", "time_r2", "time_r3",
    "err_analytic", "prior_s1", "err_empirical", "err_detection", "err_detection_ci", "err_ci", "err_rel_dev",
    "fp_rate", "fn_rate", "reacquisition_fp_time",
)


def _projection(columns: str, **keys: str) -> dict[str, str]:
    """The columns (space-separated, in output order), each mapped to the
    key it is published under: its own name unless `keys` gives another."""
    return {name: keys.get(name, name) for name in columns.split()}


OUTPUTS = {
    "simulate": _projection(
        "aoi_empirical aoi_ci avg_r1 avg_r2 avg_r3 time_r1 time_r2 time_r3 err_empirical err_detection"
        " err_detection_ci err_ci fp_rate fn_rate reacquisition_fp_time measured_time periods seed"
        " unstable_queue",
        aoi_empirical="aoi_time_average", aoi_ci="aoi_ci_halfwidth", err_empirical="error_rate",
        err_detection="detection_error_rate", err_detection_ci="detection_error_ci_halfwidth",
        err_ci="error_ci_halfwidth",
    ),
    "csv": _projection(
        "swept_var swept_value aoi_analytic aoi_empirical aoi_ci err_analytic err_empirical err_detection"
        " err_detection_ci err_ci fp_rate fn_rate seed"
    ),
    "validate": _projection(
        "lam mu nu r periods seed require_delivery tau degenerate aoi_empirical aoi_analytic aoi_rel_dev aoi_ci"
        " err_detection err_empirical err_analytic err_rel_dev err_detection_ci fp_rate fn_rate",
        aoi_ci="aoi_ci_halfwidth", err_detection="err_empirical", err_empirical="err_empirical_full",
        err_detection_ci="err_ci_halfwidth",
    ),
    "analytic": _projection(
        "lam mu nu r tau degenerate err_analytic aoi_mm1 aoi_analytic prior_s1",
        err_analytic="error_rate", aoi_analytic="mean_aoi",
    ),
}

# Each sweep's chart, (x column, y columns). A series with fewer than two
# points is left out, so without a simulation only the analytic ones show.
CHARTS = {
    "sweep-rho": ("swept_value", ("aoi_analytic", "aoi_empirical", "err_analytic", "err_detection")),
    "sweep-expected-t": ("swept_value", ("aoi_analytic", "aoi_empirical")),
    "sweep-threshold": ("swept_value", ("err_analytic", "err_detection")),
    "tradeoff": ("aoi_empirical", ("err_empirical",)),
    "tradeoff --analytic-only": ("aoi_analytic", ("err_analytic",)),
}

_EMPTY_ROW = dict.fromkeys(COLUMNS)


def run_row(params: SimParams, **columns) -> dict:
    """One run's row: the params' columns, then `columns`: a `summarize`
    dict's empirical columns, the closed forms, the rule, the swept point.
    Every other column is None."""
    row = {**_EMPTY_ROW, "lam": params.lam, "mu": params.mu, "nu": params.nu, "r": params.r,
           "require_delivery": params.require_delivery, **columns}
    if len(row) > len(_EMPTY_ROW):
        raise ParameterError(f"unknown columns {sorted(row.keys() - _EMPTY_ROW.keys())}")
    return row


def project(row: dict, output: str) -> dict:
    """The row's values under `output`'s keys, in its order."""
    return {key: row[name] for name, key in OUTPUTS[output].items()}


def text_lines(record: dict) -> str:
    """`key = value` lines; a missing value reads nan."""
    return "\n".join(f"{key} = {math.nan if value is None else value}" for key, value in record.items())


def json_text(record: dict) -> str:
    """`record` as JSON text with non-finite floats written as null, so that
    strict parsers accept it (json.dumps would write NaN or Infinity)."""
    clean = {
        key: None if isinstance(value, float) and not math.isfinite(value) else value
        for key, value in record.items()
    }
    return json.dumps(clean, indent=2, allow_nan=False)


def _cells(values) -> list[str]:
    """A column's CSV cells: empty for None, true/false for a boolean, and
    otherwise str of the Python scalar (a float's shortest round-tripping
    decimal); numpy 2 would repr its scalars as np.float64(...)."""
    return [
        "" if v is None else "true" if v is True or v is np.True_ else "false" if v is False or v is np.False_
        else str(v.item() if isinstance(v, np.generic) else v)
        for v in values
    ]


def _params_comment(params: SimParams) -> str:
    lam, mu, nu, r, delivery = _cells((params.lam, params.mu, params.nu, params.r, params.require_delivery))
    return (
        f"# lambda={lam} mu={mu} nu={nu} recovery={r} periods={params.periods}"
        f" seed={params.master_seed} require_delivery={delivery} contract={STREAM_CONTRACT}"
    )


def write_csv(rows: Sequence[dict], path, params: SimParams) -> Path:
    """Write the CSV projection of rows (grid order) to `path`, after a
    comment line recording `params`, the run's fixed configuration; returns
    the path written. Cells are formatted a column at a time."""
    if not rows:
        raise ParameterError("refusing to write an empty CSV")
    projection = OUTPUTS["csv"]
    cells = [_cells([row[name] for row in rows]) for name in projection]
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            fh.write(_params_comment(params) + "\n")
            writer = csv.writer(fh)
            writer.writerow(projection.values())
            writer.writerows(zip(*cells))
    except OSError as exc:
        raise OSError(f"could not write CSV {path}: {exc}") from exc
    return path


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_WIDTH, _HEIGHT = 820, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 36, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_svg(rows: Sequence[dict], x_column: str, y_columns: Sequence[str], path, title: str = "") -> Path:
    """Line chart of the rows' y_columns against x_column; deterministic bytes."""
    if len(rows) < 2:
        raise ParameterError("an SVG chart needs at least 2 rows")
    for name in (x_column, *y_columns):
        if name not in COLUMNS:
            raise ParameterError(f"unknown column {name!r}")
    series = []
    for name in y_columns:
        pts = [(r[x_column], r[name]) for r in rows if r[x_column] is not None and r[name] is not None]
        if len(pts) >= 2:
            series.append((name, pts))
    if not series:
        raise ParameterError("no series has 2 or more plottable points")
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    # a constant axis spans [v, v + max(1, |v|)]: a fixed 1 would round away
    # once |v| >= 2**53 and leave a zero span to divide by
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, abs(x_lo))
    if y_hi == y_lo:
        y_hi = y_lo + max(1.0, abs(y_lo))
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        out.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>')
    axis_y = _MARGIN_T + plot_h
    out.append(
        f'<path d="M {_MARGIN_L} {_MARGIN_T} V {axis_y} H {_MARGIN_L + plot_w}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for v in _ticks(x_lo, x_hi):
        x = sx(v)
        out.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        out.append(f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle">{v:.6g}</text>')
    for v in _ticks(y_lo, y_hi):
        y = sy(v)
        out.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="black"/>')
        out.append(f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end">{v:.6g}</text>')
    out.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 14}" text-anchor="middle">{x_column}</text>'
    )
    for i, (name, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
        out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 18 * i
        lx = _MARGIN_L + plot_w + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}">{name}</text>')
    out.append("</svg>")
    path = Path(path)
    try:
        path.write_text("\n".join(out) + "\n", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"could not write SVG {path}: {exc}") from exc
    return path
