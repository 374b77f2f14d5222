"""Sampled-simulation validation: estimates vs exact goldens.

Not a paper artifact — a methodology check for :mod:`repro.sampling`.
Each validation workload (STREAM triad and the constant-geometry FFT,
see :mod:`repro.sampling.validate`) runs twice on identical chips: once
exact, once sampled. The table reports the estimate, its 95% interval,
the measured cycle error against the exact golden, and whether
fast-forward left the architectural state byte-identical. The
wall-clock speedups are key measurements marked ``host_timed``, so the
table stays a pure function of the simulation. The CI
``sampling-smoke`` job and ``benchmarks/bench_sampling.py`` run the
same harness with the same tolerance.
"""

from __future__ import annotations

import os

from repro.experiments.registry import ExperimentReport, register
from repro.sampling import SAMPLE_ENV, SamplingConfig
from repro.sampling.validate import ERROR_TOLERANCE, validate_all


def _active_config() -> SamplingConfig:
    """The run's sampling knobs: ``CYCLOPS_SAMPLE`` or the defaults.

    The experiments runner's ``--sampled [SPEC]`` flag lands here via
    the environment; validation itself always samples (that is the
    point), so an empty/unset variable means default knobs, not off.
    """
    spec = os.environ.get(SAMPLE_ENV, "").strip()
    if spec:
        return SamplingConfig.from_spec(spec) or SamplingConfig()
    return SamplingConfig()


@register("sampling")
def run(quick: bool = False) -> ExperimentReport:
    """Differential validation of sampled simulation."""
    config = _active_config()
    report = ExperimentReport(
        experiment_id="sampling",
        title="Sampled simulation vs exact goldens (STREAM, FFT)",
        paper=("Methodology check, not a paper artifact: SMARTS-style "
               "sampled simulation must estimate the exact engine's "
               "cycle count within ±{:.0%} and leave memory "
               "byte-identical.".format(ERROR_TOLERANCE)),
    )
    report.notes.append(
        f"config: warmup={config.warmup_insns} "
        f"measure={config.measure_insns} period={config.period_insns} "
        f"horizon={config.resolved_horizon} "
        f"confidence={config.confidence:.0%}"
    )

    header = (f"{'workload':10s} {'exact':>10s} {'estimate':>10s} "
              f"{'95% CI':>19s} {'error':>8s} {'units':>5s} "
              f"{'state':>6s}")
    rows = [header, "-" * len(header)]
    worst_error = 0.0
    for result in validate_all(config, quick=quick):
        est = result.estimate
        rows.append(
            f"{result.workload:10s} {result.exact_cycles:10d} "
            f"{est.estimated_cycles:10d} "
            f"[{est.ci_low:8d},{est.ci_high:8d}] "
            f"{result.error * 100:+7.2f}% "
            f"{est.n_units:5d} {'ok' if result.state_matches else 'DIFF':>6s}"
        )
        prefix = result.workload
        report.measurements[f"{prefix}_error_pct"] = result.error * 100
        report.measurements[f"{prefix}_speedup"] = result.speedup
        report.host_timed.append(f"{prefix}_speedup")
        report.measurements[f"{prefix}_relative_ci_pct"] = \
            est.relative_ci * 100
        report.measurements[f"{prefix}_state_matches"] = \
            float(result.state_matches)
        worst_error = max(worst_error, abs(result.error))
        if not result.within():
            report.notes.append(
                f"TOLERANCE EXCEEDED: {result.workload} error "
                f"{result.error * 100:+.2f}% (gate ±{ERROR_TOLERANCE:.0%})"
            )
        if not result.state_matches:
            report.notes.append(
                f"STATE DIVERGED: {result.workload} sampled memory does "
                f"not match the exact run"
            )
    report.tables.append("\n".join(rows))
    report.measurements["worst_error_pct"] = worst_error * 100
    return report
