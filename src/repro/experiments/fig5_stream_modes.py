"""Figure 5: multithreaded STREAM under the four tuning modes.

Four panels, all 126 threads, total GB/s vs elements/thread:

(a) blocked partitioning, caches as one shared 512 KB unit;
(b) cyclic partitioning (groups of eight threads per region);
(c) blocked + local caches via interest groups (line-aligned blocks);
(d) (c) plus 4-way manual unrolling.

Paper findings this must reproduce: blocked beats cyclic; local caches
add up to ~60% for small vectors and ~30% (Scale) at large ones; the
out-of-cache plateau sits at the embedded-DRAM bandwidth (~40 GB/s);
unrolling lifts small-vector (in-cache) bandwidth far above that —
beyond 80 GB/s — but cannot move the memory-bound plateau.

Every (mode, kernel, size) triple is one :func:`point`; :func:`run`
maps them through a :class:`~repro.jobs.pool.JobRunner` and assembles
the panels.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec
from repro.workloads.stream import STREAM_KERNELS, StreamParams, run_stream

#: Task reference for one (mode, kernel, size) simulation point.
POINT_TASK = "repro.experiments.fig5_stream_modes:point"

SIZES = [200, 400, 800, 1200, 2000]
QUICK_SIZES = [200, 1000]

MODES = {
    "blocked": dict(partition="block"),
    "cyclic": dict(partition="cyclic"),
    "local": dict(partition="block", local_caches=True),
    "unrolled-local": dict(partition="block", local_caches=True, unroll=4),
}


def point(spec: JobSpec) -> dict:
    """Job task: total GB/s of one STREAM kernel under one tuning mode."""
    p = spec.payload
    n_threads = int(p["n_threads"])
    result = run_stream(StreamParams(
        kernel=p["kernel"],
        n_elements=int(p["per_thread"]) * n_threads,
        n_threads=n_threads,
        **MODES[p["mode"]],
    ))
    return {"gb_s": float(result.bandwidth_gb_s)}


@register("fig5")
def run(quick: bool = False,
        runner: JobRunner | None = None) -> ExperimentReport:
    """All four panels of Figure 5."""
    runner = runner if runner is not None else JobRunner()
    sizes = QUICK_SIZES if quick else SIZES
    n_threads = 8 if quick else 126
    kernels = ("copy", "triad") if quick else STREAM_KERNELS

    report = ExperimentReport(
        experiment_id="fig5",
        title="Multithreaded STREAM: partitioning, local caches, unrolling",
        paper=("Figure 5: four panels of total GB/s vs elements/thread "
               "at 126 threads. Blocked > cyclic; +local caches up to "
               "+60% small / +30% large (Scale); unrolled+local exceeds "
               "80 GB/s in-cache while the out-of-cache plateau stays at "
               "the ~40 GB/s memory bandwidth."),
    )

    specs = [JobSpec(task=POINT_TASK, payload={
        "mode": mode, "kernel": kernel, "per_thread": per_thread,
        "n_threads": n_threads,
    }) for mode in MODES for kernel in kernels for per_thread in sizes]
    values = iter(runner.map(specs))

    peaks: dict[str, float] = {}
    for mode_name in MODES:
        for kernel in kernels:
            series = Series(f"{mode_name}-{kernel}",
                            x_name="elements/thread", y_name="GB/s")
            for per_thread in sizes:
                series.add(per_thread, next(values)["gb_s"])
            report.series.append(series)
            peaks[f"{mode_name}-{kernel}"] = max(series.y)
    report.measurements = {
        "best_unrolled_local_gb_s": max(
            v for k, v in peaks.items() if k.startswith("unrolled")),
        "best_blocked_gb_s": max(
            v for k, v in peaks.items() if k.startswith("blocked")),
        "best_cyclic_gb_s": max(
            v for k, v in peaks.items() if k.startswith("cyclic")),
        "best_local_gb_s": max(
            v for k, v in peaks.items()
            if k.startswith("local")),
    }
    return report
