"""Bandwidth-scaling experiment family (``bandwidth``).

Modeled on Hager, Zeiser & Wellein's data-access optimization study for
highly threaded multi-core CPUs with multiple memory controllers
(PAPERS.md, arXiv:0712.2302): sustained STREAM bandwidth scales with
the number of memory controllers only when thread/data placement keeps
accesses local and spread. Cyclops's analogue of a memory controller is
an embedded-DRAM bank, so this family sweeps the
:class:`~repro.explore.ChipSpec` bank knob against two placement
policies:

* ``scrambled`` — the default interest group: lines scatter over all
  caches, every access is (mostly) remote, the shared vectors are
  block-partitioned;
* ``local`` — the Figure-5c discipline: each thread's block pinned to
  its own quad's cache with line-aligned boundaries.

Each (banks, placement) grid cell is one :func:`point` job keyed on the
derived chip spec, so cached sweeps only re-simulate new shapes.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.series import Series
from repro.analysis.tables import format_table
from repro.experiments.registry import ExperimentReport, register
from repro.explore.chipspec import ChipSpec
from repro.jobs.spec import JobSpec
from repro.workloads.stream import StreamParams, run_stream

#: Task reference for one (banks, placement) cell.
POINT_TASK = "repro.experiments.bandwidth:point"

PLACEMENTS = ("scrambled", "local")


def point(spec: JobSpec) -> dict:
    """Job task: out-of-cache Triad under one placement on one chip."""
    p = spec.payload
    chip_spec = ChipSpec.from_dict(p["spec"])
    chip = chip_spec.build()
    result = run_stream(StreamParams(
        kernel="triad",
        n_elements=int(p["elements"]),
        n_threads=int(p["threads"]),
        local_caches=p["placement"] == "local",
        warmup=False,
    ), chip=chip)
    config = chip.config
    # Actual bank traffic over the timed window; the counted STREAM
    # convention can drift above the bank peak on short windows.
    util = (result.memory_traffic_bytes * config.clock_hz
            / (result.cycles * config.peak_memory_bandwidth))
    return {
        "gb_s": float(result.bandwidth_gb_s),
        "peak_gb_s": float(config.peak_memory_bandwidth / 1e9),
        "bank_utilization": float(util),
        "verified": bool(result.verified),
    }


def _sweep(quick: bool) -> tuple[ChipSpec, tuple[int, ...], int, int]:
    """``(base chip spec, bank counts, threads, elements per thread)``."""
    spec = ChipSpec.small(n_quads=8, n_banks=4) if quick \
        else ChipSpec.paper()
    bank_counts = (2, 4, 8) if quick else (2, 4, 8, 16, 32)
    # The working set must dwarf the combined caches, or counted
    # bandwidth rises above the bank peak on cache residency alone.
    per_thread = 600 if quick else 1000
    return spec, bank_counts, spec.n_threads - 2, per_thread


def points(quick: bool) -> list[JobSpec]:
    """One point per (placement, bank count), in that nesting."""
    spec, bank_counts, threads, per_thread = _sweep(quick)
    return [JobSpec(task=POINT_TASK, payload={
        "spec": replace(spec, n_banks=banks).to_dict(),
        "placement": placement,
        "threads": threads,
        "elements": threads * per_thread,
    }) for placement in PLACEMENTS for banks in bank_counts]


def assemble(quick: bool, values: list[dict]) -> ExperimentReport:
    """STREAM bandwidth vs bank count under two placement policies."""
    spec, bank_counts, threads, per_thread = _sweep(quick)
    report = ExperimentReport(
        experiment_id="bandwidth",
        title=(f"Bandwidth scaling vs bank count and placement "
               f"({spec.tus_per_quad}t x {spec.n_quads}q)"),
        paper=("Exploration family, not a paper artifact. Modeled on "
               "Hager et al.'s multi-memory-controller data-access "
               "study (arXiv:0712.2302): bandwidth scales with "
               "controllers only under good thread/data placement."),
    )

    cells = dict(zip(
        ((placement, banks) for placement in PLACEMENTS
         for banks in bank_counts), values))

    curves = {placement: Series(placement, x_name="banks", y_name="GB/s")
              for placement in PLACEMENTS}
    rows = []
    for banks in bank_counts:
        peak = cells["local", banks]["peak_gb_s"]
        for placement in PLACEMENTS:
            curves[placement].add(banks, cells[placement, banks]["gb_s"])
        rows.append([
            banks, peak,
            cells["scrambled", banks]["gb_s"],
            cells["local", banks]["gb_s"],
            100.0 * cells["local", banks]["bank_utilization"],
            "yes" if all(cells[pl, banks]["verified"]
                         for pl in PLACEMENTS) else "NO",
        ])
    report.series.extend(curves[placement] for placement in PLACEMENTS)
    report.tables.append(format_table(
        ["banks", "peak GB/s", "scrambled GB/s", "local GB/s",
         "local bank util %", "verified"],
        rows,
        title=(f"Out-of-cache Triad, {threads} threads, "
               f"{per_thread} elements/thread"),
    ))

    lo, hi = bank_counts[0], bank_counts[-1]
    for placement in PLACEMENTS:
        report.measurements[f"{placement}_scaling_x"] = (
            cells[placement, hi]["gb_s"] / cells[placement, lo]["gb_s"])
    report.measurements["local_over_scrambled_at_max_banks"] = (
        cells["local", hi]["gb_s"] / cells["scrambled", hi]["gb_s"])
    report.notes.append(
        "Bank count is the Cyclops analogue of memory-controller count: "
        "the placement-sensitive gap at high bank counts is Hager et "
        "al.'s central observation."
    )
    return report


register("bandwidth", points, assemble)
