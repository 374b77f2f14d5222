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

It validates the default knobs, :data:`CONFIG`. Each validation
workload is one :func:`point`; :func:`points` lists them and
:func:`assemble` tabulates the estimates.
"""

from __future__ import annotations

from repro.experiments.registry import ExperimentReport, register
from repro.jobs.spec import JobSpec
from repro.sampling import SamplingConfig
from repro.sampling.validate import (
    ERROR_TOLERANCE,
    WORKLOADS,
    validate_workload,
)

#: Task reference for one validation workload.
POINT_TASK = "repro.experiments.sampling_validation:point"

#: The sampling knobs under validation: the defaults.
CONFIG = SamplingConfig()


def point(spec: JobSpec) -> dict:
    """Job task: one exact-vs-sampled validation run."""
    p = spec.payload
    result = validate_workload(p["workload"], CONFIG, quick=bool(p["quick"]))
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


def points(quick: bool) -> list[JobSpec]:
    """One exact-vs-sampled point per validation workload."""
    return [JobSpec(task=POINT_TASK, payload={
        "workload": workload, "quick": bool(quick),
    }) for workload in WORKLOADS]


def assemble(quick: bool, results: list[dict]) -> ExperimentReport:
    """Differential validation of sampled simulation."""
    report = ExperimentReport(
        experiment_id="sampling",
        title="Sampled simulation vs exact goldens (STREAM, FFT)",
        paper=("Methodology check, not a paper artifact: SMARTS-style "
               "sampled simulation must estimate the exact engine's "
               "cycle count within ±{:.0%} and leave memory "
               "byte-identical.".format(ERROR_TOLERANCE)),
    )
    report.notes.append(
        f"config: warmup={CONFIG.warmup_insns} "
        f"measure={CONFIG.measure_insns} period={CONFIG.period_insns} "
        f"horizon={CONFIG.resolved_horizon} "
        f"confidence={CONFIG.confidence:.0%}"
    )

    header = (f"{'workload':10s} {'exact':>10s} {'estimate':>10s} "
              f"{'95% CI':>19s} {'error':>8s} {'units':>5s} "
              f"{'state':>6s}")
    rows = [header, "-" * len(header)]
    worst_error = 0.0
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


register("sampling", points, assemble)
