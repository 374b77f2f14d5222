"""Bench: regenerate Figure 6 (Cyclops best config vs SGI Origin 3800)."""

import pytest

from repro.experiments import get_experiment

run_fig6 = get_experiment("fig6")


@pytest.mark.figure("fig6")
def test_fig6_origin_compare(benchmark):
    report = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    print()
    print(report.render())
    cyclops = {s.label: s for s in report.series if s.label.startswith("cy")}
    origin = {s.label: s for s in report.series if s.label.startswith("or")}

    # Cyclops bandwidth grows with the thread count.
    for series in cyclops.values():
        assert series.y[-1] > series.y[0] * 4

    # The headline: one Cyclops chip at 126 threads sustains bandwidth
    # "similar to" the 128-processor Origin — same order, within ~2x.
    for kernel in ("copy", "triad"):
        ours = cyclops[f"cyclops-{kernel}"].y[-1]
        theirs = origin[f"origin3800-{kernel}"].y[-1]
        assert ours > 25.0
        assert 0.5 < ours / theirs < 2.5
