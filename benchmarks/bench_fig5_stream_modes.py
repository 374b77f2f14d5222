"""Bench: regenerate Figure 5 (STREAM partitioning / local caches /
unrolling, all four panels)."""

import pytest

from repro.experiments import get_experiment

run_fig5 = get_experiment("fig5")


@pytest.mark.figure("fig5")
def test_fig5_stream_modes(benchmark):
    report = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
    print()
    print(report.render())
    m = report.measurements

    # Paper shape: blocked beats cyclic...
    assert m["best_blocked_gb_s"] > m["best_cyclic_gb_s"]
    # ...local caches beat the shared-unit configuration...
    assert m["best_local_gb_s"] > m["best_blocked_gb_s"]
    # ...and unrolling+local exceeds 80 GB/s for small vectors while the
    # blocked plateau sits near the ~42 GB/s memory bandwidth.
    assert m["best_unrolled_local_gb_s"] > 80.0
    assert 25.0 < m["best_blocked_gb_s"] < 50.0
