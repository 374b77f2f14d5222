"""Throughput-saturation experiment family (``saturation``).

Modeled on the SPARC T3-4 characterization (van Tol, PAPERS.md): on a
heavily multithreaded machine, aggregate memory throughput climbs with
thread count until the memory system saturates, after which added
threads only dilute per-thread bandwidth. Here the workload is an
out-of-cache STREAM Triad on a :class:`~repro.explore.ChipSpec`-built
chip, swept over growing thread counts; the curve shows the ramp, the
knee, and the plateau pinned at the embedded-DRAM bank bandwidth.

Each thread count is an independent simulation: :func:`point` runs one,
carrying the chip spec in its payload so the jobs-pool result cache is
keyed on the chip *shape* — rerunning the family with one knob changed
re-simulates only the new shapes.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.analysis.tables import format_table
from repro.experiments.registry import ExperimentReport, register
from repro.explore.chipspec import ChipSpec
from repro.jobs.spec import JobSpec
from repro.workloads.stream import StreamParams, run_stream

#: Task reference for one thread-count point of the saturation curve.
POINT_TASK = "repro.experiments.saturation:point"


def point(spec: JobSpec) -> dict:
    """Job task: out-of-cache Triad at one thread count on one chip."""
    p = spec.payload
    chip_spec = ChipSpec.from_dict(p["spec"])
    chip = chip_spec.build()
    result = run_stream(StreamParams(
        kernel="triad",
        n_elements=int(p["elements"]),
        n_threads=int(p["threads"]),
        warmup=False,
    ), chip=chip)
    config = chip.config
    # Actual bank traffic over the timed window: unlike the counted
    # STREAM convention (which write-validate lets drift above the bank
    # peak on short windows), this utilization is bounded by 1.
    util = (result.memory_traffic_bytes * config.clock_hz
            / (result.cycles * config.peak_memory_bandwidth))
    return {
        "cycles": int(result.cycles),
        "gb_s": float(result.bandwidth_gb_s),
        "mb_s_per_thread": float(result.mean_thread_bandwidth_mb_s),
        "peak_gb_s": float(config.peak_memory_bandwidth / 1e9),
        "bank_utilization": float(util),
        "verified": bool(result.verified),
    }


def _sweep(quick: bool) -> tuple[ChipSpec, list[int], int]:
    """``(chip spec, thread counts, elements per thread)``."""
    # The quick chip keeps only two banks so the curve visibly
    # saturates even at smoke-test problem sizes.
    spec = ChipSpec.small(n_quads=8, n_banks=2) if quick \
        else ChipSpec.paper()
    usable = spec.n_threads - 2  # the kernel reserves two threads
    thread_counts = [t for t in (1, 2, 4, 8, 16, 32, 64, 96)
                     if t < usable] + [usable]
    if quick:
        thread_counts = [t for t in (1, 4, 8, 16) if t < usable] + [usable]
    # Out-of-cache per-thread slice: 3 vectors x 8 B x per_thread per
    # thread must dwarf the combined caches at every swept count.
    per_thread = 300 if quick else 1000
    return spec, thread_counts, per_thread


def points(quick: bool) -> list[JobSpec]:
    """One point per thread count."""
    spec, thread_counts, per_thread = _sweep(quick)
    return [JobSpec(task=POINT_TASK, payload={
        "spec": spec.to_dict(),
        "threads": threads,
        "elements": threads * per_thread,
    }) for threads in thread_counts]


def assemble(quick: bool, values: list[dict]) -> ExperimentReport:
    """Cycles and throughput vs thread count until the banks saturate."""
    spec, thread_counts, per_thread = _sweep(quick)
    report = ExperimentReport(
        experiment_id="saturation",
        title=f"Throughput saturation vs thread count ({spec.describe()})",
        paper=("Exploration family, not a paper artifact. Modeled on the "
               "SPARC T3-4 characterization (van Tol, arXiv:1106.2992): "
               "aggregate bandwidth saturates with thread count while "
               "per-thread bandwidth dilutes."),
    )

    agg = Series("triad GB/s", x_name="threads", y_name="GB/s")
    per = Series("MB/s per thread", x_name="threads", y_name="MB/s")
    rows = []
    peak = values[0]["peak_gb_s"]
    for threads, cell in zip(thread_counts, values):
        agg.add(threads, cell["gb_s"])
        per.add(threads, cell["mb_s_per_thread"])
        rows.append([
            threads, cell["cycles"], cell["gb_s"],
            100.0 * cell["bank_utilization"], cell["mb_s_per_thread"],
            "yes" if cell["verified"] else "NO",
        ])
    report.series.append(agg)
    report.tables.append(format_table(
        ["threads", "cycles", "GB/s", "bank util %", "MB/s/thread",
         "verified"],
        rows,
        title=(f"Out-of-cache Triad, {per_thread} elements/thread "
               f"(bank peak {peak:.4g} GB/s)"),
    ))

    best = max(cell["gb_s"] for cell in values)
    knee = next(t for t, cell in zip(thread_counts, values)
                if cell["gb_s"] >= 0.5 * best)
    report.measurements["saturated_gb_s"] = best
    report.measurements["saturated_bank_utilization"] = max(
        cell["bank_utilization"] for cell in values)
    report.measurements["half_saturation_threads"] = float(knee)
    report.measurements["per_thread_dilution"] = (
        values[0]["mb_s_per_thread"] / values[-1]["mb_s_per_thread"])
    report.notes.append(
        "Per-thread bandwidth divides as the banks saturate: the T3-4 "
        "signature. The plateau is the embedded-DRAM bandwidth, not the "
        "cache ports."
    )
    return report


register("saturation", points, assemble)
