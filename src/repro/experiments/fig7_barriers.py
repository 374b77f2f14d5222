"""Figure 7: hardware vs software barriers in the Splash-2 FFT.

Two input sizes (the paper: 256-point, max 16 threads; 64K-point, max 64
threads — both capped by the points-per-processor >= sqrt(n) constraint
and the power-of-two processor requirement). For each thread count the
FFT runs once with the wired-OR hardware barrier and once with the
software combining tree; the report gives the relative change of total,
run, and stall cycles — negative bars are improvements.

Paper findings to reproduce: the hardware barrier *increases* run cycles
(spin reads execute at full speed) while cutting stalls substantially;
net total improvement grows with thread count, reaching ~10% for the
256-point FFT at 16 threads and ~5% for the 64K-point FFT at 64.

Every (points, threads, barrier) FFT is one :func:`point`;
:func:`points` lists them and :func:`assemble` reports each hardware
run relative to its software twin.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.spec import JobSpec
from repro.workloads.fft import FFTParams, run_fft

#: Task reference for one (points, threads, barrier) simulation point.
POINT_TASK = "repro.experiments.fig7_barriers:point"

#: The large input. The paper used 65,536 points; this is a quarter of
#: that, so a full sweep simulates in minutes. EXPERIMENTS.md (Figure 7)
#: records the 65,536-point panel once.
LARGE_POINTS = 16_384

BARRIERS = ("hw", "sw")


def point(spec: JobSpec) -> dict:
    """Job task: total, run and stall cycles of one FFT."""
    p = spec.payload
    result = run_fft(FFTParams(
        n_points=int(p["n_points"]), n_threads=int(p["n_threads"]),
        barrier=p["barrier"], verify=False,
    ))
    return {
        "total": int(result.total_cycles),
        "run": int(result.run_cycles),
        "stall": int(result.stall_cycles),
    }


def _delta(a: float, b: float) -> float:
    return 100.0 * (a - b) / b if b else 0.0


def _panels(quick: bool) -> tuple[tuple[str, int, list[int]], ...]:
    """``(label, FFT points, thread counts)`` of each panel."""
    if quick:
        small_counts, large_counts, large_points = [2, 4], [2, 4], 1024
    else:
        small_counts = [2, 4, 8, 16]
        large_counts = [2, 4, 8, 16, 32, 64]
        large_points = LARGE_POINTS
    return (
        ("256-point", 256, small_counts),
        (f"{large_points}-point", large_points, large_counts),
    )


def points(quick: bool) -> list[JobSpec]:
    """Per panel and thread count: the hw point, then its sw twin."""
    return [JobSpec(task=POINT_TASK, payload={
        "n_points": n_points, "n_threads": p, "barrier": barrier,
    }) for _, n_points, counts in _panels(quick) for p in counts
        for barrier in BARRIERS]


def assemble(quick: bool, values: list[dict]) -> ExperimentReport:
    """Both panels of Figure 7."""
    report = ExperimentReport(
        experiment_id="fig7",
        title="Hardware vs software barriers in SPLASH-2 FFT",
        paper=("Figure 7: relative Δ% (hw vs sw) of total/run/stall "
               "cycles. Run cycles increase under hw barriers (full-"
               "speed SPR spinning), stalls drop sharply; total "
               "improves ~10% at 256 points/16 threads and ~5% at "
               "64K points/64 threads."),
    )

    values = iter(values)
    for label, _, counts in _panels(quick):
        rows = []
        for p in counts:
            hw, sw = next(values), next(values)
            deltas = {key: _delta(hw[key], sw[key])
                      for key in ("total", "run", "stall")}
            rows.append([p, deltas["total"], deltas["run"], deltas["stall"]])
            report.measurements[f"{label}_p{p}_total_delta_pct"] = \
                deltas["total"]
        report.tables.append(format_table(
            ["threads", "total Δ%", "run Δ%", "stall Δ%"], rows,
            title=f"{label} FFT: hardware barrier relative to software",
        ))
    return report


register("fig7", points, assemble)
