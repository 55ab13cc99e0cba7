"""CSV and SVG emitters for sweep results.

The CSV schema is fixed: comment lines starting with '#' record the fixed
configuration, then the pinned header, then one row per grid point with
full-precision decimal numbers (empty cells for missing fields). The SVG
renderer is deliberately minimal and byte-deterministic for identical
input.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError
from .experiments import ResultRow
from .sim import STREAM_CONTRACT, SimParams

CSV_COLUMNS = (
    "swept_var",
    "swept_value",
    "aoi_analytic",
    "aoi_empirical",
    "aoi_ci",
    "err_analytic",
    "err_empirical",
    "err_ci",
    "fp_rate",
    "fn_rate",
    "seed",
)


def _format(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()  # numpy 2 reprs its scalars as np.float64(...)
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)  # shortest round-tripping decimal
    return str(value)


def _params_comment(params: SimParams) -> str:
    return (
        f"# lambda={_format(params.lam)} mu={_format(params.mu)} nu={_format(params.nu)}"
        f" recovery={_format(params.r)} periods={params.periods}"
        f" seed={params.master_seed} require_delivery={_format(params.require_delivery)}"
        f" contract={STREAM_CONTRACT}"
    )


def write_csv(rows: Sequence[ResultRow], path, params: Optional[SimParams] = None) -> Path:
    """Write rows (grid order) to `path`; returns the path written."""
    if not rows:
        raise ParameterError("refusing to write an empty CSV")
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8", newline="") as fh:
            if params is not None:
                fh.write(_params_comment(params) + "\n")
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_format(getattr(row, name)) for name in CSV_COLUMNS])
    except OSError as exc:
        raise OSError(f"could not write CSV {path}: {exc}") from exc
    return path


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_WIDTH, _HEIGHT = 820, 500
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 36, 56


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_svg(rows: Sequence[ResultRow], x_column: str, y_columns: Sequence[str], path, title: str = "") -> Path:
    """Line chart of y_columns against x_column; deterministic bytes."""
    if len(rows) < 2:
        raise ParameterError("an SVG chart needs at least 2 rows")
    valid = {f.name for f in fields(ResultRow)}
    for name in (x_column, *y_columns):
        if name not in valid:
            raise ParameterError(f"unknown column {name!r}")
    series = []
    for name in y_columns:
        pts = [
            (getattr(r, x_column), getattr(r, name))
            for r in rows
            if getattr(r, x_column) is not None and getattr(r, name) is not None
        ]
        if len(pts) >= 2:
            series.append((name, pts))
    if not series:
        raise ParameterError("no series has 2 or more plottable points")
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
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
