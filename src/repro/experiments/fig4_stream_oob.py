"""Figure 4: STREAM out-of-the-box, single-threaded and 126 threads.

4(a): one thread runs stock STREAM over growing vector sizes; the curve
shows the in-cache to out-of-cache transition (Add/Triad transition at
smaller N — they touch three vectors, Copy/Scale two).

4(b): 126 independent copies, one per thread, per-thread bandwidth vs
per-thread vector length; the transition appears at 200-300 elements per
thread and per-thread bandwidth is far below the single-thread run
because threads contend for shared bandwidth.

Every (kernel, size, panel) pair is one independent simulation:
:func:`point` runs it, and :func:`run` maps the points through a
:class:`~repro.jobs.pool.JobRunner` before assembling both panels.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec
from repro.workloads.stream import STREAM_KERNELS, StreamParams, run_stream

#: Task reference for one (kernel, size, panel) simulation point.
POINT_TASK = "repro.experiments.fig4_stream_oob:point"

SINGLE_SIZES = [4096, 16384, 49152, 98304, 163840, 252000]
MULTI_SIZES = [112, 248, 400, 600, 800, 1000, 1400, 2000]

QUICK_SINGLE = [2048, 16384]
QUICK_MULTI = [112, 400]


def point(spec: JobSpec) -> dict:
    """Job task: one STREAM run; ``n_threads`` > 1 means independent copies."""
    p = spec.payload
    n_threads = int(p["n_threads"])
    result = run_stream(StreamParams(
        kernel=p["kernel"], n_elements=int(p["n_elements"]),
        n_threads=n_threads, independent=n_threads > 1,
    ))
    return {
        "mb_s_per_thread": float(result.mean_thread_bandwidth_mb_s),
        "bandwidth": float(result.bandwidth),
    }


@register("fig4")
def run(quick: bool = False,
        runner: JobRunner | None = None) -> ExperimentReport:
    """Both panels of Figure 4."""
    runner = runner if runner is not None else JobRunner()
    single_sizes = QUICK_SINGLE if quick else SINGLE_SIZES
    multi_sizes = QUICK_MULTI if quick else MULTI_SIZES
    n_threads = 8 if quick else 126

    report = ExperimentReport(
        experiment_id="fig4",
        title="STREAM out-of-the-box (single- and multi-threaded)",
        paper=("Figure 4: single-thread 220-420 MB/s with an in-/out-of-"
               "cache transition as N grows (earlier for Add/Triad); "
               "126 threads at 200-400 MB/s/thread with the transition "
               "at 200-300 elements/thread; aggregate multithreaded "
               "bandwidth 112-120x the single thread's."),
    )

    panels = ((1, single_sizes), (n_threads, multi_sizes))
    specs = [JobSpec(task=POINT_TASK, payload={
        "kernel": kernel, "n_elements": n, "n_threads": threads,
    }) for kernel in STREAM_KERNELS for threads, sizes in panels
        for n in sizes]
    values = iter(runner.map(specs))

    aggregate_ratio = {}
    for kernel in STREAM_KERNELS:
        single = Series(f"1T-{kernel}", x_name="elements",
                        y_name="MB/s per thread")
        for n in single_sizes:
            single.add(n, next(values)["mb_s_per_thread"])
        report.series.append(single)

        multi = Series(f"126T-{kernel}", x_name="elements/thread",
                       y_name="MB/s per thread")
        for n in multi_sizes:
            value = next(values)
            multi.add(n, value["mb_s_per_thread"])
        report.series.append(multi)
        # Aggregate gain over the single thread at the largest size.
        single_at_large = single.y[-1] or 1.0
        aggregate_ratio[kernel] = (value["bandwidth"] / 1e6) / single_at_large

    report.measurements = {
        f"aggregate_over_single_{k}": v for k, v in aggregate_ratio.items()
    }
    report.notes.append(
        "Paper: aggregate bandwidth of the multithreaded run is 112x "
        "(Add) to 120x (Triad) the single-threaded bandwidth."
    )
    return report
