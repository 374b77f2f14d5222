"""Splash-2 Ocean (simplified): red-black Gauss-Seidel relaxation.

Ocean's computational core is a stencil relaxation over 2-D grids with
barriers between sweeps; we implement the red-black SOR kernel on one
grid, which exhibits the same pattern: each thread owns a contiguous band
of rows, every update reads the 4-neighbour stencil (boundary rows touch
the neighbouring thread's band — the nearest-neighbour communication),
and a barrier separates the red and black half-sweeps of every
iteration.

Grid sizes are scaled down from Splash-2's 258x258 default; the access
and synchronization pattern per iteration is identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.common import TimedSection, block_ranges


@dataclass(frozen=True)
class OceanParams:
    """One Ocean experiment point."""

    grid: int = 34  # includes the fixed boundary
    iterations: int = 4
    omega: float = 1.15
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    verify: bool = True

    def __post_init__(self) -> None:
        if self.grid < 4:
            raise WorkloadError("grid too small")
        if self.n_threads > self.grid - 2:
            raise WorkloadError("more threads than interior rows")


@dataclass
class OceanResult:
    """Measured outcome of one Ocean run."""

    params: OceanParams
    cycles: int
    verified: bool


def _ocean_thread(ctx, me: int, base: int, params: OceanParams, values,
                  rows: range, barrier, section):
    n = params.grid
    omega = params.omega
    ig = IG_ALL

    def ea(i: int, j: int) -> int:
        return make_effective(base + 8 * (i * n + j), ig)

    section.record_start(me, ctx.time)
    for _ in range(params.iterations):
        for colour in (0, 1):
            for i in rows:
                for j in range(1, n - 1):
                    if (i + j) % 2 != colour:
                        continue
                    tn, vn = yield from ctx.load_f64(ea(i - 1, j))
                    ts, vs = yield from ctx.load_f64(ea(i + 1, j))
                    tw, vw = yield from ctx.load_f64(ea(i, j - 1))
                    te, ve = yield from ctx.load_f64(ea(i, j + 1))
                    tc, vc = yield from ctx.load_f64(ea(i, j))
                    t1 = yield from ctx.fp_add(deps=(tn, ts))
                    t2 = yield from ctx.fp_add(deps=(tw, te, t1))
                    t3 = yield from ctx.fp_mul(deps=(t2,))
                    t4 = yield from ctx.fp_fma(deps=(t3, tc))
                    new = (1 - omega) * values[i, j] + omega * 0.25 * (
                        values[i - 1, j] + values[i + 1, j]
                        + values[i, j - 1] + values[i, j + 1]
                    )
                    values[i, j] = new
                    yield from ctx.store_f64(ea(i, j), new, deps=(t4,))
                    ctx.charge_ops(3)
                ctx.branch()
            yield from barrier.wait(ctx)
    section.record_finish(me, ctx.time)


def _reference_sweeps(initial: np.ndarray, params: OceanParams) -> np.ndarray:
    """The same red-black SOR sweeps, vectorized (the oracle)."""
    grid = initial.copy()
    omega = params.omega
    for _ in range(params.iterations):
        for colour in (0, 1):
            for i in range(1, params.grid - 1):
                for j in range(1, params.grid - 1):
                    if (i + j) % 2 != colour:
                        continue
                    grid[i, j] = (1 - omega) * grid[i, j] + omega * 0.25 * (
                        grid[i - 1, j] + grid[i + 1, j]
                        + grid[i, j - 1] + grid[i, j + 1]
                    )
    return grid


def run_ocean(params: OceanParams, chip: Chip | None = None) -> OceanResult:
    """Run one Ocean experiment point."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n = params.grid
    base = kernel.heap.alloc_f64_array(n * n)
    rng = np.random.default_rng(seed=29)
    initial = rng.standard_normal((n, n))
    values = initial.copy()
    chip.memory.backing.f64_view(base, n * n)[:] = values.reshape(-1)

    interior = block_ranges(n - 2, params.n_threads)
    row_bands = [range(r.start + 1, r.stop + 1) for r in interior]
    barrier = kernel.hardware_barrier(0, params.n_threads)
    section = TimedSection.empty()
    for t in range(params.n_threads):
        kernel.spawn(_ocean_thread, t, base, params, values, row_bands[t],
                     barrier, section, name=f"ocean-{t}")
    kernel.run()

    verified = False
    if params.verify:
        expected = _reference_sweeps(initial, params)
        sim = chip.memory.backing.f64_view(base, n * n).reshape(n, n)
        verified = bool(np.allclose(sim, expected, atol=1e-9)) \
            and bool(np.allclose(values, expected, atol=1e-9))
    return OceanResult(params=params, cycles=section.elapsed,
                       verified=verified)
