"""Bench: regenerate Figure 4 (STREAM out-of-the-box, both panels)."""

import pytest

from repro.experiments import get_experiment

run_fig4 = get_experiment("fig4")


@pytest.mark.figure("fig4")
def test_fig4_stream_out_of_box(benchmark):
    report = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    print()
    print(report.render())
    by_label = {s.label: s for s in report.series}

    # Panel (a): the single-thread curve transitions from in-cache to
    # out-of-cache as N grows — small-N bandwidth beats large-N.
    for kernel in ("copy", "scale", "add", "triad"):
        single = by_label[f"1T-{kernel}"]
        assert single.y[0] > single.y[-1], f"no cache transition in {kernel}"
        # Single-thread bandwidth lands in the paper's 200-700 MB/s band.
        assert 100 < single.y[-1] < 800

    # Panel (b): per-thread bandwidth under contention is below the
    # single-thread run (the paper's key observation).
    for kernel in ("copy", "scale", "add", "triad"):
        single = by_label[f"1T-{kernel}"]
        multi = by_label[f"126T-{kernel}"]
        assert max(multi.y) < max(single.y)

    # Aggregate multithreaded bandwidth is on the order of 100x the
    # single thread's (paper: 112x-120x).
    for key, ratio in report.measurements.items():
        kernel = key.split("_")[-1]
        assert ratio > 50, f"aggregate gain too small for {kernel}"
