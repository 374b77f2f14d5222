"""Tests for the analysis/reporting helpers and the Origin baseline."""

import pytest

from repro.analysis.series import Series, merge_render
from repro.analysis.speedup import efficiency, speedup_curve
from repro.analysis.stream_report import STREAM_HEADERS, stream_summary_row
from repro.analysis.tables import format_table
from repro.baselines.origin3800 import (
    ORIGIN_3800_400,
    origin_bandwidth,
    origin_series,
)
from repro.errors import WorkloadError
from repro.workloads.stream import StreamParams, run_stream


class TestSeries:
    def test_add_and_rows(self):
        s = Series("test")
        s.add(1, 2.0)
        s.add(2, 4.0)
        assert list(zip(s.x, s.y)) == [(1, 2.0), (2, 4.0)]
        assert len(s) == 2

    def test_render_contains_points(self):
        s = Series("curve", x_name="n", y_name="gb")
        s.add(10, 1.5)
        text = s.render()
        assert "curve" in text
        assert "10" in text and "1.5" in text

    def test_merge_render_aligns_columns(self):
        a = Series("a")
        b = Series("b")
        for x in (1, 2):
            a.add(x, x)
            b.add(x, 10 * x)
        text = merge_render([a, b])
        lines = text.splitlines()
        assert len(lines) == 3
        assert "a" in lines[0] and "b" in lines[0]

    def test_merge_render_empty(self):
        assert merge_render([]) == ""


class TestSpeedup:
    def test_normalizes_to_serial(self):
        curve = speedup_curve("k", [1, 2, 4], [100, 50, 30])
        assert curve.y == [1.0, 2.0, pytest.approx(100 / 30)]

    def test_requires_serial_first(self):
        with pytest.raises(WorkloadError):
            speedup_curve("k", [2, 4], [50, 25])

    def test_mismatched_lengths(self):
        with pytest.raises(WorkloadError):
            speedup_curve("k", [1, 2], [100])

    def test_efficiency(self):
        curve = speedup_curve("k", [1, 4], [100, 50])
        assert efficiency(curve) == [1.0, 0.5]


class TestTables:
    def test_format_basic(self):
        text = format_table(["a", "bb"], [[1, 2.34567], ["x", "y"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.346" in text

    def test_alignment(self):
        text = format_table(["col"], [[123456]])
        header, rule, row = text.splitlines()
        assert len(header) == len(rule) == len(row)


class TestStreamReport:
    def test_row_matches_headers(self):
        result = run_stream(StreamParams(kernel="copy", n_elements=256,
                                         n_threads=2))
        row = stream_summary_row(result)
        assert len(row) == len(STREAM_HEADERS)
        assert row[0] == "copy"
        assert row[-1] == "yes"


class TestOriginBaseline:
    def test_four_kernels(self):
        assert set(ORIGIN_3800_400) == {"copy", "scale", "add", "triad"}

    def test_scaling_monotone(self):
        series = origin_series("triad")
        assert series.y == sorted(series.y)

    def test_128_processor_aggregate_near_paper(self):
        """The paper calls the 128-CPU Origin 'similar' to one ~40 GB/s
        Cyclops chip."""
        total = origin_bandwidth("triad", 128)
        assert 30.0 < total < 60.0

    def test_per_cpu_shape(self):
        """Sub-GB/s per processor, as the published table shows."""
        assert origin_bandwidth("copy", 1) < 1.0
