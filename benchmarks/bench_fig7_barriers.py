"""Bench: regenerate Figure 7 (hardware vs software barriers in FFT)."""

import pytest

from repro.experiments import get_experiment

run_fig7 = get_experiment("fig7")


@pytest.mark.figure("fig7")
def test_fig7_barriers(benchmark):
    report = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    print()
    print(report.render())
    m = report.measurements

    # Paper shape: the hardware barrier's advantage grows with the
    # thread count, and at 256 points / 16 threads the total cycle count
    # improves on the order of 10% (ours lands in the 2-20% band).
    small = [m[k] for k in m if k.startswith("256-point")]
    assert small == sorted(small, reverse=True)  # monotone improvement
    assert -20.0 < m["256-point_p16_total_delta_pct"] < -2.0

    # The large FFT improves less per barrier (more compute between
    # barriers), staying a few percent at its largest thread count.
    large_keys = [k for k in m if not k.startswith("256-point")]
    largest = m[sorted(large_keys, key=lambda k: int(k.split("_p")[1].split("_")[0]))[-1]]
    assert -15.0 < largest < 0.0
