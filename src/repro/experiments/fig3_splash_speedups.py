"""Figure 3: Splash-2 parallel speedups (Barnes, FFT, FMM, LU, Ocean, Radix).

The paper runs the suite at 1..128 threads and reports speedups
"comparable to those reported in [the Splash-2 paper]" — near-linear for
the compute-dense kernels and visibly sublinear for Radix (all-to-all
permutation) and FFT (transposes). Problem sizes here are scaled per
DESIGN.md section 4; the balanced allocation policy is used so partial
occupancies spread across quads (any reasonable scheduler does this; with
sequential packing, FPU sharing inside a quad dominates the low-thread
points instead of algorithm scalability).

Every ``(kernel, thread-count)`` pair is one independent simulation:
:func:`points` lists them, :func:`point` is the task that simulates
one, and :func:`assemble` turns their cycle counts into the curves.
"""

from __future__ import annotations

from repro.analysis.speedup import speedup_curve
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.spec import JobSpec
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.barnes import BarnesParams, run_barnes
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.fmm import FMMParams, run_fmm
from repro.workloads.lu import LUParams, run_lu
from repro.workloads.ocean import OceanParams, run_ocean
from repro.workloads.radix import RadixParams, run_radix

BALANCED = AllocationPolicy.BALANCED

#: Task reference for one (kernel, thread-count) simulation point.
POINT_TASK = "repro.experiments.fig3_splash_speedups:point"

_FULL_COUNTS = [1, 2, 4, 8, 16, 32, 64, 126]
_QUICK_COUNTS = [1, 2, 4]


def plan(quick: bool) -> list[tuple[str, list[int]]]:
    """``(kernel name, thread counts)`` per curve, in figure order."""
    if quick:
        return [(name, list(_QUICK_COUNTS)) for name in
                ("Barnes", "FFT", "LU", "Ocean", "Radix", "FMM")]
    return [
        ("Barnes", list(_FULL_COUNTS)),
        # FFT needs a power-of-two thread count and two hardware threads
        # are reserved, so 64 is its ceiling (the paper hits the same
        # wall in Figure 7b).
        ("FFT", [1, 2, 4, 8, 16, 32, 64]),
        ("FMM", list(_FULL_COUNTS)),
        ("LU", list(_FULL_COUNTS)),
        ("Ocean", list(_FULL_COUNTS)),
        ("Radix", list(_FULL_COUNTS)),
    ]


def simulate_point(kernel: str, n_threads: int, quick: bool) -> int:
    """Cycles for one kernel at one thread count (sizes per DESIGN.md)."""
    if kernel == "Barnes":
        return run_barnes(BarnesParams(
            n_bodies=64 if quick else 512, n_threads=n_threads,
            policy=BALANCED, verify=False)).cycles
    if kernel == "FFT":
        return run_fft(FFTParams(
            n_points=256 if quick else 16384, n_threads=n_threads,
            policy=BALANCED, verify=False)).total_cycles
    if kernel == "FMM":
        # Four levels: 256 finest cells, enough M2L work for every thread.
        return run_fmm(FMMParams(
            n_bodies=64 if quick else 512, levels=2 if quick else 4,
            n_threads=n_threads, policy=BALANCED, verify=False)).cycles
    if kernel == "LU":
        return run_lu(LUParams(
            n=32 if quick else 96, block=8, n_threads=n_threads,
            policy=BALANCED, verify=False)).cycles
    if kernel == "Ocean":
        # 254x254 grid: 252 interior rows — exactly two bands per thread
        # at 126, avoiding the 128-over-126 imbalance cliff.
        return run_ocean(OceanParams(
            grid=18 if quick else 254, iterations=2 if quick else 1,
            n_threads=n_threads, policy=BALANCED, verify=False)).cycles
    if kernel == "Radix":
        return run_radix(RadixParams(
            n_keys=1024 if quick else 16384, n_threads=n_threads,
            policy=BALANCED, verify=False)).cycles
    raise ValueError(f"unknown Splash-2 kernel {kernel!r}")


def point(spec: JobSpec) -> dict:
    """Job task: one simulation point, JSON-safe."""
    p = spec.payload
    cycles = simulate_point(p["kernel"], int(p["n_threads"]),
                            bool(p["quick"]))
    return {"cycles": int(cycles)}


def points(quick: bool) -> list[JobSpec]:
    """One point per (kernel, thread count), in :func:`plan` order."""
    return [
        JobSpec(task=POINT_TASK, payload={
            "kernel": name, "n_threads": p, "quick": bool(quick),
        })
        for name, counts in plan(quick) for p in counts
    ]


def assemble(quick: bool, values: list[dict]) -> ExperimentReport:
    """Speedup curves from the points' cycle counts."""
    report = ExperimentReport(
        experiment_id="fig3",
        title="SPLASH-2 parallel speedups",
        log_plot=True,
        paper=("Figure 3: log-log speedup curves 1..128 threads for "
               "Barnes, FFT, FMM, LU, Ocean, Radix; 'appropriate levels "
               "of scalability, comparable to those reported' in the "
               "Splash-2 paper — near-linear for most, lowest for the "
               "communication-bound kernels."),
    )
    values = iter(values)
    measurements = {}
    for name, counts in plan(quick):
        cycles = [next(values)["cycles"] for _ in counts]
        curve = speedup_curve(name, counts, cycles)
        report.series.append(curve)
        measurements[f"{name.lower()}_speedup_at_{counts[-1]}"] = curve.y[-1]
    report.measurements = measurements
    report.notes.append(
        "Problem sizes scaled down (DESIGN.md section 4); balanced "
        "thread allocation."
    )
    return report


register("fig3", points, assemble)
