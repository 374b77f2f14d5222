"""Bench: regenerate Table 1 (interest-group encoding and placement)."""

import pytest

from repro.experiments import get_experiment

run_table1 = get_experiment("table1")


@pytest.mark.figure("table1")
def test_table1_interest_groups(benchmark):
    report = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    print()
    print(report.render())
    # Shape checks: the scrambling function spreads uniformly and the
    # OWN group hits locally after the first touch.
    assert report.measurements["all_group_imbalance"] < 1.4
    assert "local_hit, 6 extra cycles" in report.tables[1]
