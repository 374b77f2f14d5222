"""Splash-2 FMM (simplified): 2-D Laplace fast multipole method (Figure 3).

The adaptive FMM of Splash-2 is reduced to the uniform-grid 2-D
Greengard-Rokhlin algorithm with ``p``-term complex expansions, keeping
the same phase/communication/synchronization structure:

1. **P2M** — bodies form the finest-level multipole expansions;
2. **M2M** — upward pass, barrier per level;
3. **M2L** — every cell translates the multipoles of its interaction
   list (the children of the parent's neighbours that are not its own
   neighbours) into its local expansion — the dominant, all-to-all
   phase;
4. **L2L** — downward pass, barrier per level;
5. **L2P + P2P** — evaluation of local expansions at the bodies plus
   direct near-field interactions with the 3x3 neighbourhood.

Potentials are exact functional values (complex arithmetic mirrors the
simulated loads/stores) verified against the direct O(n^2) sum to the
truncation accuracy of ``p`` terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.common import TimedSection, block_ranges


@dataclass
class FMMResult:
    """Measured outcome of one FMM run."""

    params: "FMMParams"
    cycles: int
    verified: bool


@dataclass(frozen=True)
class FMMParams:
    """One FMM experiment point."""

    n_bodies: int = 256
    levels: int = 3  # finest grid is 2**levels per side
    terms: int = 8
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    verify: bool = True

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise WorkloadError("need at least two levels")
        if self.terms < 2:
            raise WorkloadError("need at least two expansion terms")
        if self.n_bodies < self.n_threads:
            raise WorkloadError("need at least one body per thread")

    @property
    def finest(self) -> int:
        return 1 << self.levels


def _binom(n: int, k: int) -> float:
    return float(math.comb(n, k))


class _Grid:
    """Cell geometry for one level of the uniform hierarchy."""

    def __init__(self, level: int) -> None:
        self.level = level
        self.side = 1 << level
        self.width = 1.0 / self.side

    def center(self, ix: int, iy: int) -> complex:
        return complex((ix + 0.5) * self.width, (iy + 0.5) * self.width)

    def cell_of(self, z: complex) -> tuple[int, int]:
        ix = min(self.side - 1, max(0, int(z.real * self.side)))
        iy = min(self.side - 1, max(0, int(z.imag * self.side)))
        return ix, iy

    def neighbours(self, ix: int, iy: int) -> list[tuple[int, int]]:
        out = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < self.side and 0 <= jy < self.side:
                    out.append((jx, jy))
        return out

    def interaction_list(self, ix: int, iy: int) -> list[tuple[int, int]]:
        """Children of the parent's neighbours that are not neighbours."""
        parent = (ix // 2, iy // 2)
        coarse = _Grid(self.level - 1)
        near = set(self.neighbours(ix, iy))
        result = []
        for px, py in coarse.neighbours(*parent):
            for cx in (2 * px, 2 * px + 1):
                for cy in (2 * py, 2 * py + 1):
                    if cx < self.side and cy < self.side \
                            and (cx, cy) not in near:
                        result.append((cx, cy))
        return result


# ---------------------------------------------------------------------------
# Expansion mathematics (Greengard-Rokhlin lemmas, 2-D Laplace log kernel)
# ---------------------------------------------------------------------------
def p2m(bodies: list[tuple[complex, float]], center: complex,
        terms: int) -> np.ndarray:
    """Multipole expansion of point masses about *center*."""
    coeffs = np.zeros(terms + 1, dtype=complex)
    for z, mass in bodies:
        d = z - center
        coeffs[0] += mass
        power = d
        for k in range(1, terms + 1):
            coeffs[k] -= mass * power / k
            power *= d
    return coeffs


def m2m(child: np.ndarray, shift: complex, terms: int) -> np.ndarray:
    """Shift a multipole expansion by *shift* (child center - parent)."""
    out = np.zeros(terms + 1, dtype=complex)
    out[0] = child[0]
    for l in range(1, terms + 1):
        total = -child[0] * shift ** l / l
        for k in range(1, l + 1):
            total += child[k] * shift ** (l - k) * _binom(l - 1, k - 1)
        out[l] = total
    return out


def m2l(multipole: np.ndarray, d: complex, terms: int) -> np.ndarray:
    """Convert a multipole at distance *d* into a local expansion."""
    out = np.zeros(terms + 1, dtype=complex)
    total = multipole[0] * np.log(-d)
    sign = -1.0
    for k in range(1, terms + 1):
        total += multipole[k] * sign / d ** k
        sign = -sign
    out[0] = total
    for l in range(1, terms + 1):
        total = -multipole[0] / (l * d ** l)
        sign = -1.0
        for k in range(1, terms + 1):
            total += multipole[k] * sign / d ** k \
                * _binom(l + k - 1, k - 1) / d ** l
            sign = -sign
        out[l] = total
    return out


def l2l(parent: np.ndarray, shift: complex, terms: int) -> np.ndarray:
    """Re-center a local expansion by *shift* (child center - parent)."""
    out = np.zeros(terms + 1, dtype=complex)
    for l in range(terms + 1):
        total = 0j
        for k in range(l, terms + 1):
            total += parent[k] * _binom(k, l) * shift ** (k - l)
        out[l] = total
    return out


def l2p(local: np.ndarray, z: complex, center: complex) -> float:
    """Evaluate a local expansion at a point (real potential)."""
    d = z - center
    total = 0j
    power = 1.0 + 0j
    for coeff in local:
        total += coeff * power
        power *= d
    return total.real


def direct_potential(z: complex, bodies: list[tuple[complex, float]],
                     exclude: complex | None = None) -> float:
    """Direct log-kernel potential (the near-field and the oracle)."""
    total = 0.0
    for pos, mass in bodies:
        if exclude is not None and pos == exclude:
            continue
        r = abs(z - pos)
        if r > 0:
            total += mass * math.log(r)
    return total


# ---------------------------------------------------------------------------
# The simulated workload
# ---------------------------------------------------------------------------
def _charge_translation(ctx, terms: int, ea_src, ea_dst):
    """Timing of one expansion translation: load, O(p^2) FMAs, store."""
    for k in range(terms + 1):
        yield from ctx.load_f64(ea_src(k))
    yield from ctx.fp_stream((terms + 1) * (terms + 1) // 2, op="fma")
    yield from ctx.fp_stream((terms + 1), op="mul")
    for k in range(terms + 1):
        yield from ctx.store_f64(ea_dst(k), 0.0)
    ctx.charge_ops(4)


def _fmm_thread(ctx, me: int, params: FMMParams, state, barrier, section):
    grids: list[_Grid] = state["grids"]
    multipoles = state["multipoles"]
    locals_ = state["locals"]
    cell_bodies = state["cell_bodies"]
    bodies = state["bodies"]
    potentials = state["potentials"]
    terms = params.terms
    p = params.n_threads
    base = state["exp_base"]
    ig = IG_ALL

    def exp_ea(level: int, ix: int, iy: int, which: int, k: int) -> int:
        side = grids[level].side
        offset = state["level_offsets"][level] \
            + ((iy * side + ix) * 2 + which) * (terms + 1)
        return make_effective(base + 16 * offset + 8 * (k % 2), ig)

    def owned(cells: list[tuple[int, int]]) -> list[tuple[int, int]]:
        return [c for i, c in enumerate(cells) if i % p == me]

    section.record_start(me, ctx.time)
    finest = params.levels

    # Phase 1: P2M at the finest level.
    fine = grids[finest]
    all_fine = [(ix, iy) for iy in range(fine.side) for ix in range(fine.side)]
    for ix, iy in owned(all_fine):
        cell = cell_bodies[(ix, iy)]
        multipoles[finest][(ix, iy)] = p2m(cell, fine.center(ix, iy), terms)
        for z, mass in cell:
            yield from ctx.load_f64(make_effective(
                state["body_base"] + 16 * 0, ig))
            yield from ctx.fp_stream(2 * terms, op="fma")
        for k in range(terms + 1):
            yield from ctx.store_f64(exp_ea(finest, ix, iy, 0, k), 0.0)
        ctx.charge_ops(3)
    yield from barrier.wait(ctx)

    # Phase 2: M2M upward, barrier per level.
    for level in range(finest - 1, 0, -1):
        grid = grids[level]
        cells = [(ix, iy) for iy in range(grid.side) for ix in range(grid.side)]
        for ix, iy in owned(cells):
            total = np.zeros(terms + 1, dtype=complex)
            for cx in (2 * ix, 2 * ix + 1):
                for cy in (2 * iy, 2 * iy + 1):
                    child = multipoles[level + 1][(cx, cy)]
                    shift = grids[level + 1].center(cx, cy) \
                        - grid.center(ix, iy)
                    total += m2m(child, shift, terms)
                    yield from _charge_translation(
                        ctx, terms,
                        lambda k, l=level + 1, a=cx, b=cy:
                            exp_ea(l, a, b, 0, k),
                        lambda k, l=level, a=ix, b=iy:
                            exp_ea(l, a, b, 0, k),
                    )
            multipoles[level][(ix, iy)] = total
        yield from barrier.wait(ctx)

    # Phase 3: M2L at every level (interaction lists).
    for level in range(2, finest + 1):
        grid = grids[level]
        cells = [(ix, iy) for iy in range(grid.side) for ix in range(grid.side)]
        for ix, iy in owned(cells):
            acc = locals_[level].setdefault(
                (ix, iy), np.zeros(terms + 1, dtype=complex))
            for jx, jy in grid.interaction_list(ix, iy):
                d = grid.center(jx, jy) - grid.center(ix, iy)
                acc += m2l(multipoles[level][(jx, jy)], d, terms)
                yield from _charge_translation(
                    ctx, terms,
                    lambda k, a=jx, b=jy: exp_ea(level, a, b, 0, k),
                    lambda k, a=ix, b=iy: exp_ea(level, a, b, 1, k),
                )
        yield from barrier.wait(ctx)

    # Phase 4: L2L downward, barrier per level.
    for level in range(2, finest):
        grid = grids[level]
        child_grid = grids[level + 1]
        cells = [(ix, iy) for iy in range(child_grid.side)
                 for ix in range(child_grid.side)]
        for cx, cy in owned(cells):
            parent = locals_[level].get(
                (cx // 2, cy // 2), np.zeros(terms + 1, dtype=complex))
            shift = child_grid.center(cx, cy) - grid.center(cx // 2, cy // 2)
            acc = locals_[level + 1].setdefault(
                (cx, cy), np.zeros(terms + 1, dtype=complex))
            acc += l2l(parent, shift, terms)
            yield from _charge_translation(
                ctx, terms,
                lambda k, a=cx // 2, b=cy // 2: exp_ea(level, a, b, 1, k),
                lambda k, a=cx, b=cy: exp_ea(level + 1, a, b, 1, k),
            )
        yield from barrier.wait(ctx)

    # Phase 5: L2P + P2P for owned bodies.
    my_bodies = state["body_ranges"][me]
    for i in my_bodies:
        z, mass = bodies[i]
        ix, iy = fine.cell_of(z)
        local = locals_[finest].get(
            (ix, iy), np.zeros(terms + 1, dtype=complex))
        far = l2p(local, z, fine.center(ix, iy))
        for k in range(terms + 1):
            yield from ctx.load_f64(exp_ea(finest, ix, iy, 1, k))
        yield from ctx.fp_stream(2 * terms, op="fma")
        near = 0.0
        for jx, jy in fine.neighbours(ix, iy):
            for zj, mj in cell_bodies[(jx, jy)]:
                if zj == z:
                    continue
                near += mj * math.log(abs(z - zj))
                yield from ctx.load_f64(make_effective(
                    state["body_base"] + 16 * (i % state["n"]), ig))
                yield from ctx.fp_stream(5, op="fma")
        potentials[i] = far + near
        yield from ctx.store_f64(make_effective(
            state["body_base"] + 16 * (i % state["n"]) + 8, ig),
            potentials[i])
        ctx.charge_ops(4)
    section.record_finish(me, ctx.time)


def run_fmm(params: FMMParams, chip: Chip | None = None) -> FMMResult:
    """Run one FMM experiment point."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n = params.n_bodies
    rng = np.random.default_rng(seed=53)
    z = rng.uniform(0.02, 0.98, size=n) + 1j * rng.uniform(0.02, 0.98, size=n)
    masses = rng.uniform(0.5, 1.5, size=n)
    bodies = [(complex(z[i]), float(masses[i])) for i in range(n)]

    grids = [_Grid(level) for level in range(params.levels + 1)]
    fine = grids[params.levels]
    cell_bodies: dict[tuple[int, int], list] = {
        (ix, iy): [] for iy in range(fine.side) for ix in range(fine.side)
    }
    for body in bodies:
        cell_bodies[fine.cell_of(body[0])].append(body)

    # Expansion storage in simulated memory: 2 expansions (multipole,
    # local) of terms+1 complex coefficients per cell per level.
    level_offsets = []
    total_cells = 0
    for grid in grids:
        level_offsets.append(total_cells * 2 * (params.terms + 1))
        total_cells += grid.side * grid.side
    exp_base = kernel.heap.alloc_f64_array(
        2 * 2 * (params.terms + 1) * total_cells)
    body_base = kernel.heap.alloc_f64_array(2 * n)

    state = {
        "grids": grids,
        "multipoles": [dict() for _ in range(params.levels + 1)],
        "locals": [dict() for _ in range(params.levels + 1)],
        "cell_bodies": cell_bodies,
        "bodies": bodies,
        "potentials": np.zeros(n),
        "body_ranges": block_ranges(n, params.n_threads),
        "exp_base": exp_base,
        "body_base": body_base,
        "level_offsets": level_offsets,
        "n": n,
    }
    barrier = kernel.hardware_barrier(0, params.n_threads)
    section = TimedSection.empty()
    for t in range(params.n_threads):
        kernel.spawn(_fmm_thread, t, params, state, barrier, section,
                     name=f"fmm-{t}")
    kernel.run()

    verified = False
    if params.verify:
        expected = np.array([
            direct_potential(bodies[i][0], bodies, exclude=bodies[i][0])
            for i in range(n)
        ])
        scale = np.abs(expected).mean() or 1.0
        err = np.abs(state["potentials"] - expected).max() / scale
        verified = bool(err < 1e-3)

    return FMMResult(params=params, cycles=section.elapsed,
                     verified=verified)
