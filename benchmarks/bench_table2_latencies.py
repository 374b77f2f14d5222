"""Bench: regenerate Table 2 (instruction latencies via microbenchmarks)."""

import pytest

from repro.experiments import get_experiment

run_table2 = get_experiment("table2")


@pytest.mark.figure("table2")
def test_table2_latencies(benchmark):
    report = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    print()
    print(report.render())
    # Every measured latency must match the paper's table exactly.
    assert report.measurements["mismatches"] == 0
    assert report.measurements["rows_checked"] >= 10
