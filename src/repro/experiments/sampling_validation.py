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

Each validation workload is one :func:`point`, carrying the sampling
knobs in its payload; :func:`run` maps them through a
:class:`~repro.jobs.pool.JobRunner`.
"""

from __future__ import annotations

import os
from dataclasses import asdict

from repro.experiments.registry import ExperimentReport, register
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec
from repro.sampling import SAMPLE_ENV, SamplingConfig
from repro.sampling.validate import (
    ERROR_TOLERANCE,
    WORKLOADS,
    validate_workload,
)

#: Task reference for one validation workload.
POINT_TASK = "repro.experiments.sampling_validation:point"


def _active_config() -> SamplingConfig:
    """The run's sampling knobs: ``CYCLOPS_SAMPLE`` or the defaults.

    Set the variable to a spec like ``period=16384,measure=256`` (see
    docs/sampled-sim.md) to validate other knobs. Validation itself
    always samples (that is the point), so an empty/unset variable
    means default knobs, not off. The knobs travel to the workers in
    each point's payload, never through their environment.
    """
    spec = os.environ.get(SAMPLE_ENV, "").strip()
    if spec:
        return SamplingConfig.from_spec(spec) or SamplingConfig()
    return SamplingConfig()


def point(spec: JobSpec) -> dict:
    """Job task: one exact-vs-sampled validation run."""
    p = spec.payload
    result = validate_workload(p["workload"], SamplingConfig(**p["config"]),
                               quick=bool(p["quick"]))
    est = result.estimate
    return {
        "exact_cycles": int(result.exact_cycles),
        "estimated_cycles": int(est.estimated_cycles),
        "ci_low": int(est.ci_low),
        "ci_high": int(est.ci_high),
        "relative_ci": float(est.relative_ci),
        "n_units": int(est.n_units),
        "error": float(result.error),
        "speedup": float(result.speedup),
        "state_matches": bool(result.state_matches),
    }


@register("sampling")
def run(quick: bool = False,
        runner: JobRunner | None = None) -> ExperimentReport:
    """Differential validation of sampled simulation."""
    runner = runner if runner is not None else JobRunner()
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
    results = runner.map([JobSpec(task=POINT_TASK, payload={
        "workload": workload, "config": asdict(config), "quick": bool(quick),
    }) for workload in WORKLOADS])
    for workload, result in zip(WORKLOADS, results):
        error = result["error"]
        rows.append(
            f"{workload:10s} {result['exact_cycles']:10d} "
            f"{result['estimated_cycles']:10d} "
            f"[{result['ci_low']:8d},{result['ci_high']:8d}] "
            f"{error * 100:+7.2f}% "
            f"{result['n_units']:5d} "
            f"{'ok' if result['state_matches'] else 'DIFF':>6s}"
        )
        report.measurements[f"{workload}_error_pct"] = error * 100
        report.measurements[f"{workload}_speedup"] = result["speedup"]
        report.host_timed.append(f"{workload}_speedup")
        report.measurements[f"{workload}_relative_ci_pct"] = \
            result["relative_ci"] * 100
        report.measurements[f"{workload}_state_matches"] = \
            float(result["state_matches"])
        worst_error = max(worst_error, abs(error))
        if abs(error) > ERROR_TOLERANCE:
            report.notes.append(
                f"TOLERANCE EXCEEDED: {workload} error "
                f"{error * 100:+.2f}% (gate ±{ERROR_TOLERANCE:.0%})"
            )
        if not result["state_matches"]:
            report.notes.append(
                f"STATE DIVERGED: {workload} sampled memory does "
                f"not match the exact run"
            )
    report.tables.append("\n".join(rows))
    report.measurements["worst_error_pct"] = worst_error * 100
    return report
