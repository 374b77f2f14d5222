"""Tests for the ASCII plot renderer."""

import pytest

from repro.analysis.plot import render_plot
from repro.analysis.series import Series


def make_series(label="s", points=((1, 1), (2, 4), (4, 16))):
    s = Series(label, x_name="n", y_name="v")
    for x, y in points:
        s.add(x, y)
    return s


class TestRenderPlot:
    def test_marks_appear(self):
        text = render_plot([make_series()])
        assert "o" in text
        assert "o s" in text  # legend

    def test_empty(self):
        assert render_plot([]) == "(no data)"

    def test_axis_labels(self):
        text = render_plot([make_series(points=((10, 5), (100, 50)))])
        assert "10" in text
        assert "100" in text
        assert "50" in text

    def test_multiple_series_distinct_marks(self):
        a = make_series("alpha")
        b = make_series("beta", points=((1, 2), (2, 8)))
        text = render_plot([a, b])
        assert "o alpha" in text
        assert "x beta" in text

    def test_dimensions(self):
        text = render_plot([make_series()], width=30, height=8)
        rows = [l for l in text.splitlines() if "|" in l]
        assert len(rows) == 8
        interior = rows[0].split("|")[1]
        assert len(interior) == 30

    def test_log_axes_marked_in_legend(self):
        text = render_plot([make_series()], log_x=True, log_y=True)
        assert "log x" in text and "log y" in text

    def test_constant_series_does_not_crash(self):
        text = render_plot([make_series(points=((1, 5), (2, 5)))])
        assert "o" in text

    def test_log_handles_small_values(self):
        s = make_series(points=((1, 1e-15), (10, 1.0)))
        text = render_plot([s], log_y=True)
        assert "|" in text
