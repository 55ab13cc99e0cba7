import pathlib

import numpy as np
import pytest

from agemon import ParameterError, SimParams, render_svg, write_csv
from agemon.report import CHARTS, COLUMNS, OUTPUTS, _cells, run_row
from conftest import CSV_COLUMNS, CSV_HEADER, DEFAULTS, read_csv


PARAMS = SimParams(**DEFAULTS, periods=10, master_seed=42)


def row(swept_var, swept_value, **values):
    """A row with the CSV's columns, None where not given."""
    return dict.fromkeys(CSV_COLUMNS) | dict(swept_var=swept_var, swept_value=swept_value, **values)


def sample_rows():
    return [
        row("rho", 0.25, aoi_analytic=5.631333, aoi_empirical=5.62011,
            aoi_ci=0.0123, err_analytic=0.0611, err_empirical=0.0615, err_detection=0.0581,
            err_ci=0.0007, fp_rate=0.02, fn_rate=0.0415, seed=42),
        row("rho", 0.5, aoi_analytic=4.504545454545454, aoi_empirical=4.4809,
            aoi_ci=0.009, err_analytic=0.041628918211379574, err_empirical=0.046, err_detection=0.0419,
            err_ci=0.0005, fp_rate=0.012, fn_rate=0.034, seed=42),
        row("rho", 0.75, aoi_analytic=4.3, aoi_empirical=4.29,
            aoi_ci=0.01, err_analytic=0.031, err_empirical=0.032, err_detection=0.0297,
            err_ci=0.0004, fp_rate=0.009, fn_rate=0.023, seed=42),
    ]


class TestCsv:
    def test_header_is_pinned(self, tmp_path):
        assert CSV_HEADER == ("swept_var,swept_value,aoi_analytic,aoi_empirical,"
                              "aoi_ci,err_analytic,err_empirical,err_detection,err_detection_ci,err_ci,fp_rate,fn_rate,seed")
        path = write_csv(sample_rows(), tmp_path / "out.csv", PARAMS)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[1] == CSV_HEADER

    def test_round_trip(self, tmp_path):
        rows = sample_rows()
        path = write_csv(rows, tmp_path / "out.csv", PARAMS)
        assert read_csv(path) == rows

    def test_params_comment_recorded(self, tmp_path):
        path = write_csv(sample_rows(), tmp_path / "out.csv", PARAMS)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("#")
        for token in ("lambda=0.5", "mu=1.0", "nu=0.005", "recovery=20.0", "periods=10", "seed=42",
                      "contract=4"):
            assert token in first

    def test_numpy_scalars_written_as_python_scalars(self, tmp_path):
        rows = sample_rows()
        numpy_rows = [
            {name: np.float64(value) if isinstance(value, float) else value for name, value in row.items()}
            | {"seed": np.int64(row["seed"])}
            for row in rows
        ]
        python_csv = write_csv(rows, tmp_path / "python.csv", PARAMS)
        numpy_csv = write_csv(numpy_rows, tmp_path / "numpy.csv", PARAMS)
        assert read_csv(numpy_csv) == rows
        assert numpy_csv.read_bytes() == python_csv.read_bytes()
        assert _cells([np.bool_(True), np.bool_(False)]) == ["true", "false"]

    def test_skipped_bootstrap_empty_and_nan_halfwidth_written(self):
        # None (no half-width) is an empty cell; a NaN reads nan
        assert _cells([None, float("nan"), 0.5]) == ["", "nan", "0.5"]

    def test_analytic_only_row_leaves_empirical_empty(self, tmp_path):
        analytic = row("rho", 0.5, aoi_analytic=4.5045, err_analytic=0.0416)
        path = write_csv([analytic], tmp_path / "out.csv", PARAMS)
        data_line = path.read_text(encoding="utf-8").splitlines()[2]
        assert data_line == "rho,0.5,4.5045,,,0.0416,,,,,,,"
        assert read_csv(path) == [analytic]

    def test_full_precision_survives(self, tmp_path):
        value = 0.1234567890123456789
        written = row("threshold", value, err_analytic=1.0 / 3.0)
        path = write_csv([written], tmp_path / "x.csv", PARAMS)
        back = read_csv(path)[0]
        assert back["swept_value"] == written["swept_value"]
        assert back["err_analytic"] == written["err_analytic"]

    def test_row_count_matches(self, tmp_path):
        path = write_csv(sample_rows(), tmp_path / "out.csv", PARAMS)
        assert len(read_csv(path)) == 3

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_csv([], tmp_path / "out.csv", PARAMS)

    def test_io_error_names_path(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError) as info:
            write_csv(sample_rows(), target, PARAMS)
        assert str(target) in str(info.value)


class TestSvg:
    def test_deterministic_bytes(self, tmp_path):
        a = render_svg(sample_rows(), "swept_value", ["aoi_analytic", "aoi_empirical"], tmp_path / "a.svg")
        b = render_svg(sample_rows(), "swept_value", ["aoi_analytic", "aoi_empirical"], tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()

    def test_one_polyline_per_series_and_labels(self, tmp_path):
        path = render_svg(sample_rows(), "swept_value", ["err_analytic", "err_empirical"],
                          tmp_path / "c.svg", title="errors")
        text = path.read_text(encoding="utf-8")
        assert text.count("<polyline") == 2
        assert "err_analytic" in text and "err_empirical" in text
        assert "swept_value" in text  # x-axis label
        assert text.startswith("<svg ")

    def test_two_rows_minimum(self, tmp_path):
        with pytest.raises(ParameterError):
            render_svg(sample_rows()[:1], "swept_value", ["aoi_analytic"], tmp_path / "d.svg")

    def test_two_rows_single_segment(self, tmp_path):
        path = render_svg(sample_rows()[:2], "swept_value", ["aoi_analytic"], tmp_path / "e.svg")
        text = path.read_text(encoding="utf-8")
        assert text.count("<polyline") == 1
        points = text.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2

    def test_unknown_column(self, tmp_path):
        with pytest.raises(ParameterError):
            render_svg(sample_rows(), "swept_value", ["nope"], tmp_path / "f.svg")

    def test_none_points_skipped(self, tmp_path):
        rows = sample_rows()
        rows[1]["aoi_empirical"] = None
        path = render_svg(rows, "swept_value", ["aoi_empirical"], tmp_path / "g.svg")
        points = path.read_text(encoding="utf-8").split('points="')[1].split('"')[0]
        assert len(points.split()) == 2


class TestSchema:
    def test_outputs_and_charts_take_schema_columns(self):
        for projection in OUTPUTS.values():
            assert set(projection) <= set(COLUMNS)
            assert len(set(projection.values())) == len(projection)
        # and every column is published
        assert set(COLUMNS) == {name for projection in OUTPUTS.values() for name in projection}
        for x_column, y_columns in CHARTS.values():
            assert {x_column, *y_columns} <= set(OUTPUTS["csv"])

    def test_readme_table_states_the_schema(self):
        text = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"\n```\n{CSV_HEADER}\n```\n" in text
        lines = text.splitlines()
        start = lines.index("| column | meaning | `simulate` | CSV | `validate` | `analytic` |")
        table = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            table.append([cell.strip().strip("`") for cell in line.strip("|").split("|")])
        assert [cells[0] for cells in table] == list(COLUMNS)
        for i, output in enumerate(["simulate", "csv", "validate", "analytic"], start=2):
            assert {cells[0]: cells[i] for cells in table if cells[i]} == OUTPUTS[output], output
        assert len(OUTPUTS) == 4

    def test_run_row_rejects_unknown_column(self):
        with pytest.raises(ParameterError, match="err_anlytic"):
            run_row(SimParams(**DEFAULTS, periods=10, master_seed=1), err_anlytic=0.04)
