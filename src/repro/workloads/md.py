"""Molecular dynamics: Lennard-Jones with cell lists.

Molecular dynamics is the application that motivated Cyclops (the Blue
Gene protein-science program the paper cites as [2] and [4]). One time
step of a 2-D Lennard-Jones fluid:

1. particles are binned into cells of width >= the cutoff (host-side,
   as the neighbour structure changes slowly);
2. each thread computes forces for its particles over the 3x3
   neighbouring cells — position loads, cutoff test, and the
   pipelined-NR inner loop that the Cyclops MD codes used instead of
   the non-pipelined divide/sqrt unit;
3. velocity-Verlet integration of the owned particles.

Forces are computed functionally and verified against a direct
numpy evaluation with the same cutoff.
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
class MDParams:
    """One molecular-dynamics experiment point."""

    n_particles: int = 256
    box: float = 16.0
    cutoff: float = 2.5
    dt: float = 0.001
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.BALANCED
    verify: bool = True

    def __post_init__(self) -> None:
        if self.n_particles < self.n_threads:
            raise WorkloadError("need at least one particle per thread")
        if self.cutoff <= 0 or self.cutoff > self.box / 3:
            raise WorkloadError("cutoff must be positive and < box/3")


@dataclass
class MDResult:
    """Measured outcome of one MD step."""

    params: MDParams
    cycles: int
    verified: bool


def _lj_force(dx: float, dy: float, r2: float) -> tuple[float, float]:
    """Lennard-Jones force components for one pair (epsilon=sigma=1)."""
    inv2 = 1.0 / r2
    inv6 = inv2 * inv2 * inv2
    scale = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0)
    return scale * dx, scale * dy


def _build_cells(positions: np.ndarray, box: float, width: float):
    """Bin particles into square cells of at least the cutoff width."""
    side = max(1, int(box / width))
    cell_w = box / side
    cells: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(positions):
        key = (min(side - 1, int(x / cell_w)), min(side - 1, int(y / cell_w)))
        cells.setdefault(key, []).append(i)
    return cells, side


def _reference_forces(positions: np.ndarray, params: MDParams) -> np.ndarray:
    n = len(positions)
    forces = np.zeros((n, 2))
    cut2 = params.cutoff ** 2
    for i in range(n):
        delta = positions[i] - positions
        # Minimum image in the periodic box.
        delta -= params.box * np.round(delta / params.box)
        r2 = (delta ** 2).sum(axis=1)
        mask = (r2 < cut2) & (r2 > 0)
        for j in np.nonzero(mask)[0]:
            fx, fy = _lj_force(delta[j, 0], delta[j, 1], r2[j])
            forces[i] += (fx, fy)
    return forces


def _md_thread(ctx, me: int, params: MDParams, state, barrier,
               section: TimedSection):
    positions = state["positions"]
    cells = state["cells"]
    side = state["side"]
    forces = state["forces"]
    pos_base = state["pos_base"]
    force_base = state["force_base"]
    mine: range = state["ranges"][me]
    cut2 = params.cutoff ** 2
    box = params.box
    ig = IG_ALL

    def pos_ea(index: int, axis: int) -> int:
        return make_effective(pos_base + 16 * index + 8 * axis, ig)

    def force_ea(index: int, axis: int) -> int:
        return make_effective(force_base + 16 * index + 8 * axis, ig)

    section.record_start(me, ctx.time)
    cell_w = box / side
    for i in mine:
        x, y = positions[i]
        tx, _ = yield from ctx.load_f64(pos_ea(i, 0))
        ty, _ = yield from ctx.load_f64(pos_ea(i, 1))
        fx = fy = 0.0
        home = (min(side - 1, int(x / cell_w)), min(side - 1, int(y / cell_w)))
        for dx_cell in (-1, 0, 1):
            for dy_cell in (-1, 0, 1):
                key = ((home[0] + dx_cell) % side, (home[1] + dy_cell) % side)
                for j in cells.get(key, ()):
                    if j == i:
                        continue
                    tjx, _ = yield from ctx.load_f64(pos_ea(j, 0))
                    tjy, _ = yield from ctx.load_f64(pos_ea(j, 1))
                    # dx, dy, r^2 and the cutoff compare.
                    yield from ctx.fp_stream(3, op="fma",
                                             deps=(tx, ty, tjx, tjy))
                    ctx.branch()
                    dx = x - positions[j][0]
                    dy = y - positions[j][1]
                    dx -= box * round(dx / box)
                    dy -= box * round(dy / box)
                    r2 = dx * dx + dy * dy
                    if r2 >= cut2 or r2 == 0.0:
                        continue
                    # The LJ kernel: pipelined NR reciprocal + powers.
                    yield from ctx.fp_stream(8, op="fma")
                    pfx, pfy = _lj_force(dx, dy, r2)
                    fx += pfx
                    fy += pfy
        forces[i] = (fx, fy)
        yield from ctx.store_f64(force_ea(i, 0), fx)
        yield from ctx.store_f64(force_ea(i, 1), fy)
        ctx.charge_ops(4)
    yield from barrier.wait(ctx)
    # Velocity-Verlet update of the owned particles.
    for i in mine:
        tf, _ = yield from ctx.load_f64(force_ea(i, 0))
        yield from ctx.fp_stream(4, op="fma", deps=(tf,))
        new = positions[i] + params.dt * forces[i]
        new %= box
        state["new_positions"][i] = new
        yield from ctx.store_f64(pos_ea(i, 0), new[0])
        yield from ctx.store_f64(pos_ea(i, 1), new[1])
    section.record_finish(me, ctx.time)


def run_md(params: MDParams, chip: Chip | None = None) -> MDResult:
    """Run one MD time step."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n = params.n_particles
    rng = np.random.default_rng(seed=97)
    # Jittered lattice: keeps initial LJ forces finite.
    grid = int(np.ceil(np.sqrt(n)))
    spacing = params.box / grid
    points = [((i % grid + 0.5) * spacing, (i // grid + 0.5) * spacing)
              for i in range(n)]
    positions = np.array(points) + rng.uniform(-0.1, 0.1, size=(n, 2))
    positions %= params.box

    cells, side = _build_cells(positions, params.box, params.cutoff)
    pos_base = kernel.heap.alloc_f64_array(2 * n)
    force_base = kernel.heap.alloc_f64_array(2 * n)
    chip.memory.backing.f64_view(pos_base, 2 * n)[:] = positions.reshape(-1)

    state = {
        "positions": positions,
        "new_positions": np.zeros_like(positions),
        "forces": np.zeros((n, 2)),
        "cells": cells,
        "side": side,
        "pos_base": pos_base,
        "force_base": force_base,
        "ranges": block_ranges(n, params.n_threads),
    }
    barrier = kernel.hardware_barrier(0, params.n_threads)
    section = TimedSection.empty()
    for t in range(params.n_threads):
        kernel.spawn(_md_thread, t, params, state, barrier, section,
                     name=f"md-{t}")
    kernel.run()

    verified = False
    if params.verify:
        expected = _reference_forces(positions, params)
        verified = bool(np.allclose(state["forces"], expected, atol=1e-9))
    return MDResult(
        params=params,
        cycles=section.elapsed,
        verified=verified,
    )
