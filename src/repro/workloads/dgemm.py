"""Blocked DGEMM using the partitioned fast memory.

Linear algebra is one of the three application classes the paper's
conclusion names. This kernel also exercises a hardware feature no other
workload uses: "a data cache can also be partitioned with a granularity
of 2 KB (one set) so that a portion of it can be used as an addressable
fast memory, for streaming data or temporary work areas. ... This
feature can potentially result in higher performance for applications
that are coded to use this fast memory directly".

``C = A @ B`` over n x n doubles, tiled bs x bs. With
``use_scratchpad=True`` each thread stages the A and B tiles of its
current product into its quad's scratchpad (one timed copy per element)
and streams the inner products from there — every operand access a
local-hit-cost scratchpad read, immune to eviction. Without it, tiles
are re-read through the normal cache path. The benchmark compares both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.common import TimedSection


@dataclass(frozen=True)
class DgemmParams:
    """One DGEMM experiment point."""

    n: int = 32
    block: int = 8
    n_threads: int = 4
    use_scratchpad: bool = True
    policy: AllocationPolicy = AllocationPolicy.BALANCED
    verify: bool = True

    def __post_init__(self) -> None:
        if self.n % self.block:
            raise WorkloadError("matrix size must be a multiple of the block")
        tile_bytes = 8 * self.block * self.block
        if self.use_scratchpad and 2 * tile_bytes > 1024:
            raise WorkloadError(
                "two tiles per lane must fit its 1 KB scratchpad region"
            )

    @property
    def tiles(self) -> int:
        return self.n // self.block


@dataclass
class DgemmResult:
    """Measured outcome of one DGEMM run."""

    params: DgemmParams
    cycles: int
    flops: int
    verified: bool

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.cycles if self.cycles else 0.0


def _dgemm_thread(ctx, me: int, params: DgemmParams, bases, values,
                  section: TimedSection):
    base_a, base_b, base_c = bases
    n, bs = params.n, params.block
    tiles = params.tiles
    ig = IG_ALL
    use_sp = params.use_scratchpad
    sp_cache = ctx.quad_id
    tile_bytes = 8 * bs * bs
    # Quad-mates share the scratchpad: each lane gets its own 2-tile
    # region (4 lanes x 1 KB fills the 4 KB carve-out exactly).
    sp_base = ctx.tu.lane * 2 * tile_bytes

    def ea(base: int, i: int, j: int) -> int:
        return make_effective(base + 8 * (i * n + j), ig)

    my_tiles = [
        (ti, tj)
        for ti in range(tiles)
        for tj in range(tiles)
        if (ti * tiles + tj) % params.n_threads == me
    ]

    section.record_start(me, ctx.time)
    for ti, tj in my_tiles:
        acc = np.zeros((bs, bs))
        for tk in range(tiles):
            if use_sp:
                # Stage the two source tiles into the quad scratchpad.
                for x in range(bs):
                    for y in range(bs):
                        t, v = yield from ctx.load_f64(
                            ea(base_a, ti * bs + x, tk * bs + y))
                        yield from ctx.scratchpad_f64(
                            sp_cache, sp_base + 8 * (x * bs + y), True, value=v,
                            deps=(t,))
                        t, v = yield from ctx.load_f64(
                            ea(base_b, tk * bs + x, tj * bs + y))
                        yield from ctx.scratchpad_f64(
                            sp_cache, sp_base + tile_bytes + 8 * (x * bs + y), True,
                            value=v, deps=(t,))
            for x in range(bs):
                for y in range(bs):
                    deps = ()
                    for k in range(bs):
                        if use_sp:
                            ta, va = yield from ctx.scratchpad_f64(
                                sp_cache, sp_base + 8 * (x * bs + k), False)
                            tb, vb = yield from ctx.scratchpad_f64(
                                sp_cache, sp_base + tile_bytes + 8 * (k * bs + y),
                                False)
                        else:
                            ta, va = yield from ctx.load_f64(
                                ea(base_a, ti * bs + x, tk * bs + k))
                            tb, vb = yield from ctx.load_f64(
                                ea(base_b, tk * bs + k, tj * bs + y))
                        tf = yield from ctx.fp_fma(deps=(ta, tb) + deps)
                        deps = (tf,)
                        acc[x, y] += va * vb
                    ctx.charge_ops(2)
                ctx.branch()
        for x in range(bs):
            for y in range(bs):
                value = acc[x, y]
                values[ti * bs + x, tj * bs + y] = value
                yield from ctx.store_f64(
                    ea(base_c, ti * bs + x, tj * bs + y), value)
    section.record_finish(me, ctx.time)


def run_dgemm(params: DgemmParams, chip: Chip | None = None) -> DgemmResult:
    """Run one DGEMM experiment point."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")
    if params.use_scratchpad:
        for cache in chip.memory.caches:
            cache.set_scratchpad_bytes(4 * 1024)

    n = params.n
    base_a = kernel.heap.alloc_f64_array(n * n)
    base_b = kernel.heap.alloc_f64_array(n * n)
    base_c = kernel.heap.alloc_f64_array(n * n)
    rng = np.random.default_rng(seed=71)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    chip.memory.backing.f64_view(base_a, n * n)[:] = a.reshape(-1)
    chip.memory.backing.f64_view(base_b, n * n)[:] = b.reshape(-1)

    values = np.zeros((n, n))
    section = TimedSection.empty()
    for t in range(params.n_threads):
        kernel.spawn(_dgemm_thread, t, params, (base_a, base_b, base_c),
                     values, section, name=f"dgemm-{t}")
    kernel.run()

    verified = False
    if params.verify:
        expected = a @ b
        sim = chip.memory.backing.f64_view(base_c, n * n).reshape(n, n)
        verified = bool(np.allclose(values, expected)) \
            and bool(np.allclose(sim, expected))
    flops = 2 * n * n * n
    return DgemmResult(params=params, cycles=section.elapsed,
                       flops=flops, verified=verified)
