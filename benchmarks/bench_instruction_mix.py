"""Bench: the instruction-mix extension experiment."""

import pytest

from repro.experiments import get_experiment

run_mix = get_experiment("mix")


@pytest.mark.figure("extension")
def test_instruction_mix(benchmark):
    report = benchmark.pedantic(run_mix, kwargs={"quick": True},
                                rounds=1, iterations=1)
    print()
    print(report.render())
    assert report.measurements["n_workloads"] >= 6
    table = report.tables[0]
    # STREAM's mix is memory-heavy; the raytracer's is FP-heavy — the
    # two poles of the sharing trade-off.
    assert "STREAM" in table and "Raytrace" in table