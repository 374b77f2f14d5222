"""Splash-2 Barnes (simplified): Barnes-Hut N-body (Figure 3).

A 2-D Barnes-Hut time step with the Splash-2 phase structure:

1. **tree build** — the quadtree over the bodies is constructed; each
   thread walks the insertion path of its own bodies (loads down the
   levels plus a lock at the touched leaf region), matching the shared
   lock-protected build of the original;
2. **centre-of-mass** — an upward pass over tree levels, barrier per
   level, cells partitioned over threads;
3. **force computation** — each thread traverses the tree for its bodies
   with the theta opening criterion: loads of the cell's (cm, mass,
   size) plus the multipole-acceptance and accumulation flops;
4. **update** — leapfrog integration of the owned bodies.

Functional values are exact: the simulated traversal computes real
accelerations which are verified against a host-side replica of the same
traversal, and sanity-checked against the direct O(n^2) sum.
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
from repro.runtime.locks import SpinLock
from repro.workloads.common import TimedSection


@dataclass(frozen=True)
class BarnesParams:
    """One Barnes experiment point."""

    n_bodies: int = 256
    theta: float = 0.6
    softening: float = 1e-3
    dt: float = 1e-3
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    verify: bool = True

    def __post_init__(self) -> None:
        if self.n_bodies < self.n_threads:
            raise WorkloadError("need at least one body per thread")
        if not 0 < self.theta < 2:
            raise WorkloadError("theta out of range")


@dataclass
class BarnesResult:
    """Measured outcome of one Barnes-Hut step."""

    params: BarnesParams
    cycles: int
    verified: bool


class _Cell:
    """One quadtree cell (host structure mirrored into simulated memory)."""

    __slots__ = ("index", "center", "size", "children", "bodies",
                 "cm", "mass", "depth")

    def __init__(self, index: int, center: complex, size: float,
                 depth: int) -> None:
        self.index = index
        self.center = center
        self.size = size
        self.depth = depth
        self.children: list["_Cell" | None] = [None] * 4
        self.bodies: list[int] = []
        self.cm = 0j
        self.mass = 0.0


class _Tree:
    """A quadtree with at most ``leaf_cap`` bodies per leaf.

    Built with :meth:`build` (construction needs the body positions at
    hand while leaves split).
    """

    leaf_cap: int
    cells: list[_Cell]
    root: _Cell
    paths: list[list[int]]

    def _new_cell(self, center: complex, size: float, depth: int) -> _Cell:
        cell = _Cell(len(self.cells), center, size, depth)
        self.cells.append(cell)
        return cell

    def _quadrant(self, cell: _Cell, z: complex) -> int:
        return (1 if z.real >= cell.center.real else 0) \
            + (2 if z.imag >= cell.center.imag else 0)

    def _child_center(self, cell: _Cell, q: int) -> complex:
        offset = cell.size / 4
        return cell.center + complex(
            offset if q & 1 else -offset, offset if q & 2 else -offset
        )

    def _insert(self, body: int, z: complex) -> list[int]:
        """Insert a body; returns the path of cell indices visited."""
        cell = self.root
        path = [cell.index]
        while True:
            if not any(cell.children) and len(cell.bodies) < self.leaf_cap:
                cell.bodies.append(body)
                return path
            if not any(cell.children):
                # Split the leaf: push existing bodies down.
                moved, cell.bodies = cell.bodies, []
                for other in moved:
                    self._push_down(cell, other, self._positions_tmp[other])
            q = self._quadrant(cell, z)
            if cell.children[q] is None:
                cell.children[q] = self._new_cell(
                    self._child_center(cell, q), cell.size / 2, cell.depth + 1
                )
            cell = cell.children[q]
            path.append(cell.index)

    def _push_down(self, cell: _Cell, body: int, z: complex) -> None:
        q = self._quadrant(cell, z)
        if cell.children[q] is None:
            cell.children[q] = self._new_cell(
                self._child_center(cell, q), cell.size / 2, cell.depth + 1
            )
        child = cell.children[q]
        if not any(child.children) and len(child.bodies) < self.leaf_cap:
            child.bodies.append(body)
        else:
            if not any(child.children):
                moved, child.bodies = child.bodies, []
                for other in moved:
                    self._push_down(child, other, self._positions_tmp[other])
            self._push_down(child, body, z)

    def _compute_cm(self, cell: _Cell, positions, masses) -> None:
        total, weighted = 0.0, 0j
        for child in cell.children:
            if child is not None:
                self._compute_cm(child, positions, masses)
                total += child.mass
                weighted += child.mass * child.cm
        for body in cell.bodies:
            total += masses[body]
            weighted += masses[body] * positions[body]
        cell.mass = total
        cell.cm = weighted / total if total else cell.center

    @classmethod
    def build(cls, positions: np.ndarray, masses: np.ndarray) -> "_Tree":
        # _insert needs positions while splitting leaves; stash them.
        tree = cls.__new__(cls)
        tree.leaf_cap = 4
        span = max(np.ptp(positions.real), np.ptp(positions.imag)) * 1.01 + 1e-9
        center = complex(np.mean(positions.real), np.mean(positions.imag))
        tree.cells = []
        tree._positions_tmp = positions
        tree.root = tree._new_cell(center, span, 0)
        tree.paths = []
        for i in range(len(positions)):
            tree.paths.append(tree._insert(i, positions[i]))
        tree._compute_cm(tree.root, positions, masses)
        return tree

    def levels(self) -> list[list[_Cell]]:
        """Cells grouped by depth, deepest first (for the upward pass)."""
        by_depth: dict[int, list[_Cell]] = {}
        for cell in self.cells:
            by_depth.setdefault(cell.depth, []).append(cell)
        return [by_depth[d] for d in sorted(by_depth, reverse=True)]


def _accel_traversal(tree: _Tree, body: int, z: complex, positions,
                     masses, theta: float, eps2: float,
                     visit=None) -> complex:
    """Barnes-Hut acceleration on one body (host replica of the sim path)."""
    acc = 0j
    stack = [tree.root]
    while stack:
        cell = stack.pop()
        if cell.mass == 0.0:
            continue
        d = cell.cm - z
        dist2 = d.real * d.real + d.imag * d.imag + eps2
        opened = cell.size * cell.size > theta * theta * dist2
        if visit is not None:
            visit(cell, opened)
        if not opened or (not any(cell.children) and not cell.bodies):
            acc += cell.mass * d / (dist2 * math.sqrt(dist2))
            continue
        if any(cell.children):
            for child in cell.children:
                if child is not None:
                    stack.append(child)
        for other in cell.bodies:
            if other == body:
                continue
            d = positions[other] - z
            dist2 = d.real * d.real + d.imag * d.imag + eps2
            acc += masses[other] * d / (dist2 * math.sqrt(dist2))
    return acc


def _barnes_thread(ctx, me: int, params: BarnesParams, state, barrier,
                   locks: list[SpinLock], section):
    tree: _Tree = state["tree"]
    bodies: range = state["ranges"][me]
    positions = state["positions"]
    masses = state["masses"]
    accels = state["accels"]
    cells_base = state["cells_base"]
    bodies_base = state["bodies_base"]
    ig = IG_ALL

    def cell_ea(index: int, field: int) -> int:
        return make_effective(cells_base + 8 * (index * 4 + field), ig)

    def body_ea(index: int, field: int) -> int:
        return make_effective(bodies_base + 8 * (index * 6 + field), ig)

    section.record_start(me, ctx.time)

    # Phase 1: tree build — walk each owned body's insertion path.
    for body in bodies:
        for cell_index in tree.paths[body]:
            t, _ = yield from ctx.load_f64(cell_ea(cell_index, 3))
            ctx.charge_ops(3)  # quadrant select
        # Per-cell locking as in Splash-2: lock the touched leaf region.
        lock = locks[tree.paths[body][-1] % len(locks)]
        yield from lock.acquire(ctx)
        yield from ctx.store_f64(body_ea(body, 0), positions[body].real)
        yield from ctx.store_f64(body_ea(body, 1), positions[body].imag)
        yield from lock.release(ctx)
        ctx.branch()
    yield from barrier.wait(ctx)

    # Phase 2: centre-of-mass upward pass, barrier per level.
    for level in tree.levels():
        mine = [cell for cell in level if cell.index % params.n_threads == me]
        for cell in mine:
            deps = ()
            for child in cell.children:
                if child is None:
                    continue
                tm, _ = yield from ctx.load_f64(cell_ea(child.index, 2))
                tf = yield from ctx.fp_fma(deps=(tm,) + deps)
                deps = (tf,)
            yield from ctx.store_f64(cell_ea(cell.index, 0), cell.cm.real,
                                     deps=deps)
            yield from ctx.store_f64(cell_ea(cell.index, 1), cell.cm.imag,
                                     deps=deps)
            yield from ctx.store_f64(cell_ea(cell.index, 2), cell.mass,
                                     deps=deps)
            ctx.charge_ops(2)
        yield from barrier.wait(ctx)

    # Phase 3: force computation via tree traversal.
    theta, eps2 = params.theta, params.softening ** 2
    for body in bodies:
        visits = []
        acc = _accel_traversal(
            tree, body, positions[body], positions, masses, theta, eps2,
            visit=lambda cell, opened: visits.append((cell.index, opened)),
        )
        for cell_index, opened in visits:
            # Load the cell's cm/mass/size and run the acceptance test.
            for field in range(4):
                yield from ctx.load_f64(cell_ea(cell_index, field))
            # Pointer chasing into the child array plus bounds work — the
            # integer-heavy part of a tree visit.
            t, _ = yield from ctx.load_u32(cell_ea(cell_index, 3))
            ctx.charge_ops(4)
            yield from ctx.fp_stream(3, op="fma")  # dist2 + theta test
            ctx.branch()
            if not opened:
                # Accept: accumulate the interaction. The non-pipelined
                # divide/sqrt unit (30 + 56 cycles, one per quad) would
                # serialize all four quad-mates, so — like the Cyclops
                # molecular-dynamics code the paper cites — the inner
                # loop uses a pipelined Newton-Raphson reciprocal square
                # root: a table-seeded estimate refined by two iterations
                # of multiplies/FMAs.
                yield from ctx.load_f64(cell_ea(cell_index, 3))  # seed table
                yield from ctx.fp_stream(6, op="fma")  # 2 NR iterations
                yield from ctx.fp_stream(4, op="fma")  # accumulate force
        accels[body] = acc
        yield from ctx.store_f64(body_ea(body, 2), acc.real)
        yield from ctx.store_f64(body_ea(body, 3), acc.imag)
    yield from barrier.wait(ctx)

    # Phase 4: leapfrog update of owned bodies.
    for body in bodies:
        ta, ar = yield from ctx.load_f64(body_ea(body, 2))
        tb, ai = yield from ctx.load_f64(body_ea(body, 3))
        t1 = yield from ctx.fp_fma(deps=(ta,))
        t2 = yield from ctx.fp_fma(deps=(tb,))
        new = positions[body] + params.dt * accels[body]
        yield from ctx.store_f64(body_ea(body, 4), new.real, deps=(t1,))
        yield from ctx.store_f64(body_ea(body, 5), new.imag, deps=(t2,))
        state["new_positions"][body] = new
        ctx.charge_ops(2)
    section.record_finish(me, ctx.time)


def run_barnes(params: BarnesParams, chip: Chip | None = None) -> BarnesResult:
    """Run one Barnes-Hut time step."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n = params.n_bodies
    rng = np.random.default_rng(seed=41)
    positions = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    masses = rng.uniform(0.5, 1.5, size=n)
    tree = _Tree.build(positions, masses)

    cells_base = kernel.heap.alloc_f64_array(len(tree.cells) * 4)
    bodies_base = kernel.heap.alloc_f64_array(n * 6)
    cells_view = chip.memory.backing.f64_view(cells_base, len(tree.cells) * 4)
    for cell in tree.cells:
        cells_view[cell.index * 4:cell.index * 4 + 4] = [
            cell.cm.real, cell.cm.imag, cell.mass, cell.size,
        ]

    state = {
        "tree": tree,
        "positions": positions,
        "masses": masses,
        "accels": np.zeros(n, dtype=complex),
        "new_positions": np.zeros(n, dtype=complex),
        # Strided body assignment: per-body traversal cost varies a lot
        # (Splash-2 uses costzones); interleaving balances it well.
        "ranges": [range(t, n, params.n_threads)
                   for t in range(params.n_threads)],
        "cells_base": cells_base,
        "bodies_base": bodies_base,
    }
    barrier = kernel.hardware_barrier(0, params.n_threads)
    locks = [SpinLock(kernel) for _ in range(32)]
    section = TimedSection.empty()
    for t in range(params.n_threads):
        kernel.spawn(_barnes_thread, t, params, state, barrier, locks,
                     section, name=f"barnes-{t}")
    kernel.run()

    verified = False
    if params.verify:
        eps2 = params.softening ** 2
        expected = np.array([
            _accel_traversal(tree, i, positions[i], positions, masses,
                             params.theta, eps2)
            for i in range(n)
        ])
        verified = bool(np.allclose(state["accels"], expected))
        # Sanity: Barnes-Hut must approximate the direct sum.
        direct = np.zeros(n, dtype=complex)
        for i in range(n):
            d = positions - positions[i]
            dist2 = np.abs(d) ** 2 + eps2
            contrib = masses * d / (dist2 * np.sqrt(dist2))
            contrib[i] = 0
            direct[i] = contrib.sum()
        scale = np.abs(direct).mean()
        err = np.abs(state["accels"] - direct).mean() / scale
        verified = verified and err < 0.05
    return BarnesResult(params=params, cycles=section.elapsed,
                        verified=verified)
