import dataclasses

import numpy as np
import pytest

from agemon import ParameterError, ResultRow, SimParams, render_svg, write_csv
from agemon.report import _format
from conftest import CSV_HEADER, DEFAULTS, read_csv


def sample_rows():
    return [
        ResultRow("rho", 0.25, aoi_analytic=5.631333, aoi_empirical=5.62011,
                  aoi_ci=0.0123, err_analytic=0.0611, err_empirical=0.0615,
                  err_ci=0.0007, fp_rate=0.02, fn_rate=0.0415, seed=42),
        ResultRow("rho", 0.5, aoi_analytic=4.504545454545454, aoi_empirical=4.4809,
                  aoi_ci=0.009, err_analytic=0.041628918211379574, err_empirical=0.046,
                  err_ci=0.0005, fp_rate=0.012, fn_rate=0.034, seed=42),
        ResultRow("rho", 0.75, aoi_analytic=4.3, aoi_empirical=4.29,
                  aoi_ci=0.01, err_analytic=0.031, err_empirical=0.032,
                  err_ci=0.0004, fp_rate=0.009, fn_rate=0.023, seed=42),
    ]


class TestCsv:
    def test_header_is_pinned(self, tmp_path):
        assert CSV_HEADER == ("swept_var,swept_value,aoi_analytic,aoi_empirical,"
                              "aoi_ci,err_analytic,err_empirical,err_ci,fp_rate,fn_rate,seed")
        path = write_csv(sample_rows(), tmp_path / "out.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER

    def test_round_trip(self, tmp_path):
        rows = sample_rows()
        path = write_csv(rows, tmp_path / "out.csv", SimParams(**DEFAULTS, periods=10, master_seed=42))
        assert read_csv(path) == rows

    def test_params_comment_recorded(self, tmp_path):
        params = SimParams(**DEFAULTS, periods=10, master_seed=42)
        path = write_csv(sample_rows(), tmp_path / "out.csv", params)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first.startswith("#")
        for token in ("lambda=0.5", "mu=1.0", "nu=0.005", "recovery=20.0", "periods=10", "seed=42",
                      "contract=3"):
            assert token in first

    def test_numpy_scalars_written_as_python_scalars(self, tmp_path):
        rows = sample_rows()
        numpy_rows = [
            dataclasses.replace(
                row,
                **{f.name: np.float64(getattr(row, f.name)) for f in dataclasses.fields(row)
                   if isinstance(getattr(row, f.name), float)},
                seed=np.int64(row.seed),
            )
            for row in rows
        ]
        python_csv = write_csv(rows, tmp_path / "python.csv")
        numpy_csv = write_csv(numpy_rows, tmp_path / "numpy.csv")
        assert read_csv(numpy_csv) == rows
        assert numpy_csv.read_bytes() == python_csv.read_bytes()
        assert [_format(v) for v in (np.bool_(True), np.bool_(False))] == ["true", "false"]

    def test_analytic_only_row_leaves_empirical_empty(self, tmp_path):
        row = ResultRow("rho", 0.5, aoi_analytic=4.5045, err_analytic=0.0416)
        path = write_csv([row], tmp_path / "out.csv")
        data_line = path.read_text(encoding="utf-8").splitlines()[1]
        assert data_line == "rho,0.5,4.5045,,,0.0416,,,,,"
        assert read_csv(path) == [row]

    def test_full_precision_survives(self, tmp_path):
        value = 0.1234567890123456789
        row = ResultRow("threshold", value, err_analytic=1.0 / 3.0)
        path = write_csv([row], tmp_path / "x.csv")
        back = read_csv(path)[0]
        assert back.swept_value == row.swept_value
        assert back.err_analytic == row.err_analytic

    def test_row_count_matches(self, tmp_path):
        path = write_csv(sample_rows(), tmp_path / "out.csv")
        assert len(read_csv(path)) == 3

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            write_csv([], tmp_path / "out.csv")

    def test_io_error_names_path(self, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError) as info:
            write_csv(sample_rows(), target)
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
        rows[1].aoi_empirical = None
        path = render_svg(rows, "swept_value", ["aoi_empirical"], tmp_path / "g.svg")
        points = path.read_text(encoding="utf-8").split('points="')[1].split('"')[0]
        assert len(points.split()) == 2
