"""Bench: regenerate Figure 3 (Splash-2 parallel speedups)."""

import pytest

from repro.experiments import get_experiment

run_fig3 = get_experiment("fig3")


@pytest.mark.figure("fig3")
def test_fig3_splash_speedups(benchmark):
    report = benchmark.pedantic(run_fig3, rounds=1, iterations=1)
    print()
    print(report.render())
    by_label = {s.label: s for s in report.series}
    assert set(by_label) == {"Barnes", "FFT", "FMM", "LU", "Ocean", "Radix"}
    for label, series in by_label.items():
        # Speedup is 1 at one thread and grows with the thread count.
        assert series.y[0] == pytest.approx(1.0)
        assert series.y[-1] > 4.0, f"{label} failed to scale"
        # Monotone except moderate wobbles — Radix genuinely dips at
        # full occupancy (its O(radix x p) rank phase), as in Splash-2.
        for a, b in zip(series.y, series.y[2:]):
            assert b > a * 0.75, f"{label} speedup collapsed"
    # The paper's qualitative ordering: the all-to-all-bound Radix scales
    # worst of the dense kernels at full occupancy.
    assert by_label["Ocean"].y[-1] > by_label["Radix"].y[-1]
