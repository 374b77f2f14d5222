"""Instruction-mix measurement (extension).

"The degrees of sharing for floating-point and cache units were selected
based on instruction mixes observed in current systems [8]." (Section 2)

This driver measures the instruction mixes our workloads actually
present to the chip — the fractions of loads, stores, FP operations, and
everything else — and flags the ones whose FP fraction exceeds the 4:1
sharing budget (four threads per FPU assumes roughly a quarter of
instructions are floating point; above that a fully occupied quad
saturates its FMA pipe).

Registered as ``mix``; an extension, not a paper artifact.

Every workload case is one :func:`point` on a fresh paper chip;
:func:`run` maps them through a :class:`~repro.jobs.pool.JobRunner`.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.tables import format_table
from repro.core.chip import Chip
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.dgemm import DgemmParams, run_dgemm
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.md import MDParams, run_md
from repro.workloads.ocean import OceanParams, run_ocean
from repro.workloads.radix import RadixParams, run_radix
from repro.workloads.raytrace import RayTraceParams, run_raytrace
from repro.workloads.stream import StreamParams, run_stream

#: Task reference for one workload case.
POINT_TASK = "repro.experiments.instruction_mix:point"


def _mix_of(chip: Chip) -> dict[str, float]:
    instructions = sum(t.counters.instructions for t in chip.threads)
    loads = sum(t.counters.loads for t in chip.threads)
    stores = sum(t.counters.stores for t in chip.threads)
    # FP-issuing instructions, reconstructed from the FPU op counters
    # (an FMA issues once but produces two flops).
    fp_issues = sum(f.operations for f in chip.fpus)
    other = max(0, instructions - loads - stores - fp_issues)
    total = max(1, instructions)
    return {
        "instructions": instructions,
        "load_pct": 100 * loads / total,
        "store_pct": 100 * stores / total,
        "fp_pct": 100 * fp_issues / total,
        "other_pct": 100 * other / total,
    }


def _cases(quick: bool) -> dict[str, Callable[[Chip], object]]:
    """Workload case name -> a run of that workload on a given chip."""
    n_threads = 4 if quick else 16
    policy = AllocationPolicy.SEQUENTIAL
    scale = 1 if quick else 4
    return {
        "STREAM triad": lambda chip: run_stream(StreamParams(
            kernel="triad", n_elements=n_threads * 100 * scale,
            n_threads=n_threads, policy=policy), chip=chip),
        "FFT": lambda chip: run_fft(FFTParams(
            n_points=64 if quick else 256, n_threads=n_threads,
            policy=policy, verify=False), chip=chip),
        "Radix": lambda chip: run_radix(RadixParams(
            n_keys=512 * scale, n_threads=n_threads, policy=policy,
            verify=False), chip=chip),
        "Ocean": lambda chip: run_ocean(OceanParams(
            grid=18 if quick else 34, iterations=2, n_threads=n_threads,
            policy=policy, verify=False), chip=chip),
        "MD": lambda chip: run_md(MDParams(
            n_particles=64 * scale, n_threads=n_threads, policy=policy,
            verify=False), chip=chip),
        "Raytrace": lambda chip: run_raytrace(RayTraceParams(
            width=16 if quick else 32, height=12 if quick else 24,
            n_threads=n_threads, policy=policy, verify=False), chip=chip),
        "DGEMM": lambda chip: run_dgemm(DgemmParams(
            n=16 if quick else 32, block=8, n_threads=n_threads,
            policy=policy, verify=False), chip=chip),
    }


def point(spec: JobSpec) -> dict:
    """Job task: the instruction mix of one workload case."""
    p = spec.payload
    chip = Chip()
    _cases(bool(p["quick"]))[p["case"]](chip)
    return _mix_of(chip)


@register("mix")
def run(quick: bool = False,
        runner: JobRunner | None = None) -> ExperimentReport:
    """Measure the workloads' instruction mixes."""
    runner = runner if runner is not None else JobRunner()
    names = list(_cases(quick))
    mixes = runner.map([
        JobSpec(task=POINT_TASK, payload={"case": name, "quick": bool(quick)})
        for name in names
    ])

    rows = []
    fp_bound = []
    for name, mix in zip(names, mixes):
        rows.append([
            name, mix["instructions"], mix["load_pct"], mix["store_pct"],
            mix["fp_pct"], mix["other_pct"],
        ])
        if mix["fp_pct"] > 25.0:
            fp_bound.append(name)

    report = ExperimentReport(
        experiment_id="mix",
        title="Workload instruction mixes (extension)",
        paper=("Section 2: sharing degrees chosen from instruction "
               "mixes — ~4 threads per FPU assumes ~25% FP operations."),
        tables=[format_table(
            ["workload", "instructions", "load %", "store %", "fp %",
             "other %"],
            rows,
            title="Measured instruction mixes",
        )],
        measurements={"n_workloads": float(len(rows))},
    )
    if fp_bound:
        report.notes.append(
            "FP fraction above the 25% quad sharing budget (the FMA "
            f"pipe saturates at full occupancy): {', '.join(fp_bound)}"
        )
    return report
