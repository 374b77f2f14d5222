"""Cache-contention experiment family (``contention``).

Modeled on Desai's evaluation of two independent hardware threads
coupled through a shared cache (PAPERS.md, arXiv:2305.17773): two
threads sharing one cache run essentially unhindered while their
combined footprint fits, then degrade sharply once they start evicting
each other's lines. On Cyclops the shared resource is the quad's 16 KB
data cache, and thread allocation policy decides the coupling:

* ``shared`` — sequential allocation puts both threads in quad 0, so
  their OWN-quad (level-1 interest group) data competes for one cache;
* ``split`` — balanced allocation spreads them across two quads, giving
  each a private cache of the same size.

Each thread runs its own private STREAM Triad (``independent=True``)
pinned to its quad's cache, so the only interaction *is* the cache.
The sweep grows the per-thread footprint across the cache capacity;
slowdown (shared cycles / split cycles) and the hit-rate gap locate the
capacity wall. Points carry the :class:`~repro.explore.ChipSpec` in
their payloads for shape-keyed result caching.
"""

from __future__ import annotations

from repro.analysis.series import Series
from repro.analysis.tables import format_table
from repro.experiments.registry import ExperimentReport, register
from repro.explore.chipspec import ChipSpec
from repro.jobs.spec import JobSpec
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.stream import StreamParams, run_stream

#: Task reference for one (footprint, layout) cell.
POINT_TASK = "repro.experiments.contention:point"

LAYOUTS = ("shared", "split")

#: Bytes per element of the three Triad vectors.
VECTOR_BYTES = 3 * 8

#: The chip both layouts run on.
SPEC = ChipSpec.small(n_quads=4, n_banks=4)


def point(spec: JobSpec) -> dict:
    """Job task: two coupled (or split) threads at one footprint."""
    p = spec.payload
    chip_spec = ChipSpec.from_dict(p["spec"])
    chip = chip_spec.build()
    policy = AllocationPolicy.SEQUENTIAL if p["layout"] == "shared" \
        else AllocationPolicy.BALANCED
    result = run_stream(StreamParams(
        kernel="triad",
        n_elements=int(p["elements"]),
        n_threads=2,
        independent=True,
        local_caches=True,
        policy=policy,
        warmup=True,
    ), chip=chip)
    memory = chip.memory
    hits = sum(sum(memory.cache_hits(c.cache_id)) for c in memory.caches)
    accesses = hits + sum(c.misses + c.store_misses for c in memory.caches)
    return {
        "cycles": int(result.cycles),
        "hit_rate": hits / accesses if accesses else 0.0,
        "verified": bool(result.verified),
    }


def _footprints_kb(quick: bool) -> tuple[int, ...]:
    """Per-thread footprints crossing the shared cache's capacity."""
    cache_kb = SPEC.dcache_kb
    if quick:
        return cache_kb // 4, cache_kb, 2 * cache_kb
    return (cache_kb // 8, cache_kb // 4, cache_kb // 2, cache_kb,
            2 * cache_kb, 4 * cache_kb)


def points(quick: bool) -> list[JobSpec]:
    """Per footprint: the ``shared`` point, then the ``split`` one."""
    return [JobSpec(task=POINT_TASK, payload={
        "spec": SPEC.to_dict(),
        "layout": layout,
        "elements": max(1, kb * 1024 // VECTOR_BYTES),
    }) for kb in _footprints_kb(quick) for layout in LAYOUTS]


def assemble(quick: bool, values: list[dict]) -> ExperimentReport:
    """Two threads sharing one cache: hit rate and slowdown vs footprint."""
    cache_kb = SPEC.dcache_kb
    footprints_kb = _footprints_kb(quick)
    report = ExperimentReport(
        experiment_id="contention",
        title=(f"Two threads sharing one {cache_kb} KB cache "
               f"({SPEC.describe()})"),
        paper=("Exploration family, not a paper artifact. Modeled on "
               "Desai's two-threads-through-one-cache evaluation "
               "(arXiv:2305.17773): coupling is free until the combined "
               "footprint exceeds the shared cache."),
    )

    cells = dict(zip(
        ((kb, layout) for kb in footprints_kb for layout in LAYOUTS),
        values))

    slowdown = Series("shared/split slowdown", x_name="KB/thread",
                      y_name="slowdown")
    hit_shared = Series("shared hit rate", x_name="KB/thread", y_name="rate")
    hit_split = Series("split hit rate", x_name="KB/thread", y_name="rate")
    rows = []
    for kb in footprints_kb:
        shared, split = cells[kb, "shared"], cells[kb, "split"]
        ratio = shared["cycles"] / split["cycles"]
        slowdown.add(kb, ratio)
        hit_shared.add(kb, shared["hit_rate"])
        hit_split.add(kb, split["hit_rate"])
        rows.append([
            kb, shared["cycles"], split["cycles"], ratio,
            100.0 * shared["hit_rate"], 100.0 * split["hit_rate"],
            "yes" if shared["verified"] and split["verified"] else "NO",
        ])
    report.series.append(slowdown)
    report.tables.append(format_table(
        ["KB/thread", "shared cyc", "split cyc", "slowdown",
         "shared hit %", "split hit %", "verified"],
        rows,
        title=("Private Triad per thread, data pinned to the owning "
               "quad's cache"),
    ))
    report.series.append(hit_shared)
    report.series.append(hit_split)

    small = footprints_kb[0]
    report.measurements["slowdown_in_cache"] = (
        cells[small, "shared"]["cycles"] / cells[small, "split"]["cycles"])
    report.measurements["slowdown_worst"] = max(
        cells[kb, "shared"]["cycles"] / cells[kb, "split"]["cycles"]
        for kb in footprints_kb)
    # The hit-rate gap peaks at the capacity knee (footprint == cache):
    # below it both layouts fit, far above it both stream at the 7/8
    # line-locality floor regardless of capacity.
    report.measurements["hit_rate_gap_at_capacity"] = (
        cells[cache_kb, "split"]["hit_rate"]
        - cells[cache_kb, "shared"]["hit_rate"])
    report.notes.append(
        "Sequential allocation co-locates the two threads in quad 0 "
        "(one shared cache); balanced allocation gives each its own "
        "quad. The footprint axis crosses the cache capacity, which is "
        "where the Desai-style degradation sets in."
    )
    return report


register("contention", points, assemble)
