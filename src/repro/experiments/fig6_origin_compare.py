"""Figure 6: best-tuned Cyclops vs the published SGI Origin 3800/400.

(a) Cyclops with unrolled loops, local caches, balanced allocation and
block partitioning at a fixed large vector (249,984 elements — forced
out-of-cache), sweeping the number of threads;

(b) the published SGI Origin 3800/400 STREAM results (5,000,000 elements
per processor) as the reference series.

The paper's headline: "a single Cyclops chip can achieve sustainable
memory bandwidth similar to that of a top-of-the-line commercial
machine" — both sides approach ~40-50 GB/s at full occupancy.

Every (kernel, thread count) pair of panel (a) is one :func:`point`;
:func:`run` maps them through a :class:`~repro.jobs.pool.JobRunner`.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.baselines.origin3800 import ORIGIN_3800_400
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.stream import STREAM_KERNELS, StreamParams, run_stream

#: Task reference for one (kernel, thread count) simulation point.
POINT_TASK = "repro.experiments.fig6_origin_compare:point"

THREAD_COUNTS = [1, 2, 4, 8, 16, 32, 48, 64, 96, 112, 126]
QUICK_COUNTS = [1, 4, 8]

#: The paper's fixed vector size (1,984 elements per thread at 126).
VECTOR_SIZE = 249_984


def point(spec: JobSpec) -> dict:
    """Job task: best-tuned STREAM GB/s at one thread count."""
    p = spec.payload
    result = run_stream(StreamParams(
        kernel=p["kernel"],
        n_elements=int(p["n_elements"]),
        n_threads=int(p["n_threads"]),
        partition="block",
        local_caches=True,
        unroll=4,
        policy=AllocationPolicy.BALANCED,
        warmup=False,
    ))
    return {"gb_s": float(result.bandwidth_gb_s)}


@register("fig6")
def run(quick: bool = False,
        runner: JobRunner | None = None) -> ExperimentReport:
    """Both panels of Figure 6."""
    runner = runner if runner is not None else JobRunner()
    counts = QUICK_COUNTS if quick else THREAD_COUNTS
    vector = 24_192 if quick else VECTOR_SIZE
    kernels = ("copy", "triad") if quick else STREAM_KERNELS

    report = ExperimentReport(
        experiment_id="fig6",
        title="Cyclops (best configuration) vs SGI Origin 3800/400",
        paper=("Figure 6: Cyclops GB/s grows with thread count to "
               "~40-50 GB/s at 126 threads on a 249,984-element vector; "
               "the 128-processor Origin's published results reach a "
               "similar aggregate — 'remarkable' for a single chip."),
    )

    specs = [JobSpec(task=POINT_TASK, payload={
        "kernel": kernel, "n_elements": vector, "n_threads": p,
    }) for kernel in kernels for p in counts]
    values = iter(runner.map(specs))

    best_at_full = {}
    for kernel in kernels:
        series = Series(f"cyclops-{kernel}", x_name="threads",
                        y_name="GB/s")
        for p in counts:
            series.add(p, next(values)["gb_s"])
        report.series.append(series)
        best_at_full[kernel] = series.y[-1]

    for kernel in kernels:
        report.series.append(ORIGIN_3800_400[kernel])

    report.measurements = {
        f"cyclops_{k}_gb_s_full": v for k, v in best_at_full.items()
    }
    report.notes.append(
        "Origin numbers are published reference data, not simulation "
        "(DESIGN.md section 4)."
    )
    return report
