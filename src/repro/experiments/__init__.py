"""Experiment drivers: one per table/figure of the paper's evaluation.

Every driver produces an :class:`~repro.experiments.registry.ExperimentReport`
holding the series/tables that correspond to the paper's artifact, plus a
``paper`` note stating what the original reports so the two can be
compared side by side (EXPERIMENTS.md is generated from these).

Run them all from the command line::

    python -m repro.experiments list
    python -m repro.experiments run fig7 --quick
    python -m repro.experiments run all
"""

from repro.experiments.registry import (
    ExperimentReport,
    REGISTRY,
    get_experiment,
    register,
)

# Importing the driver modules populates the registry.
from repro.experiments import (  # noqa: E402,F401
    bandwidth,
    contention,
    instruction_mix,
    fig3_splash_speedups,
    fig4_stream_oob,
    fig5_stream_modes,
    fig6_origin_compare,
    fig7_barriers,
    sampling_validation,
    saturation,
    table1_interest_groups,
    table2_latencies,
)

__all__ = ["ExperimentReport", "REGISTRY", "get_experiment", "register"]
