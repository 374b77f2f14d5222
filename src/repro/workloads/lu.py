"""Splash-2 LU: blocked dense LU factorization (Figure 3).

The Splash-2 contiguous-blocks LU: the n x n matrix is divided into B x B
blocks owned round-robin by threads in a 2-D scatter. Step k:

1. the owner factors diagonal block (k,k);            [barrier]
2. owners update the perimeter blocks of row/col k;   [barrier]
3. owners rank-B-update the interior trailing blocks. [barrier]

The interior update is the O(n^3) term and is a stream of FMAs through
the shared quad FPUs; the barriers between phases and the fan-out of the
pivot row/column generate the sharing traffic. No pivoting (as in
Splash-2); use diagonally dominant matrices.

Problem sizes are scaled down from Splash-2's 512x512 default so that a
full 1..128-thread sweep simulates in minutes (DESIGN.md section 4);
pass a larger ``n`` to approach the original.
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
class LUParams:
    """One LU experiment point."""

    n: int = 64
    block: int = 8
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    verify: bool = True

    def __post_init__(self) -> None:
        if self.n % self.block:
            raise WorkloadError("matrix size must be a multiple of the block")
        if self.n_threads < 1:
            raise WorkloadError("need at least one thread")

    @property
    def n_blocks(self) -> int:
        return self.n // self.block


@dataclass
class LUResult:
    """Measured outcome of one LU run."""

    params: LUParams
    cycles: int
    verified: bool


class _SimMatrix:
    """Row-major double matrix in simulated memory."""

    def __init__(self, base: int, n: int, ig: int) -> None:
        self.base = base
        self.n = n
        self.ig = ig

    def ea(self, i: int, j: int) -> int:
        return make_effective(self.base + 8 * (i * self.n + j), self.ig)


def _owner(bi: int, bj: int, n_blocks: int, n_threads: int) -> int:
    """2-D scatter block ownership (Splash-2 style)."""
    return (bi * n_blocks + bj) % n_threads


def _factor_diagonal(ctx, mat: _SimMatrix, k0: int, b: int, values):
    """Unblocked LU of the b x b diagonal block (in numpy mirror + timing)."""
    for j in range(b):
        tp, pivot = yield from ctx.load_f64(mat.ea(k0 + j, k0 + j))
        for i in range(j + 1, b):
            tv, v = yield from ctx.load_f64(mat.ea(k0 + i, k0 + j))
            td = yield from ctx.fp_div(deps=(tv, tp))
            lij = values[k0 + i, k0 + j] / values[k0 + j, k0 + j]
            values[k0 + i, k0 + j] = lij
            yield from ctx.store_f64(mat.ea(k0 + i, k0 + j), lij, deps=(td,))
            for col in range(j + 1, b):
                ta, a = yield from ctx.load_f64(mat.ea(k0 + i, k0 + col))
                tu, u = yield from ctx.load_f64(mat.ea(k0 + j, k0 + col))
                tf = yield from ctx.fp_fma(deps=(ta, tu, td))
                new = values[k0 + i, k0 + col] - lij * values[k0 + j, k0 + col]
                values[k0 + i, k0 + col] = new
                yield from ctx.store_f64(mat.ea(k0 + i, k0 + col), new,
                                         deps=(tf,))
            ctx.charge_ops(2)
        ctx.branch()


def _update_row_block(ctx, mat: _SimMatrix, k0: int, j0: int, b: int, values):
    """A[k, j] block: solve L(k,k) * X = A (unit lower triangular solve)."""
    for j in range(b):
        for i in range(1, b):
            acc_t = ()
            total = values[k0 + i, j0 + j]
            for p in range(i):
                tl, l = yield from ctx.load_f64(mat.ea(k0 + i, k0 + p))
                tx, x = yield from ctx.load_f64(mat.ea(k0 + p, j0 + j))
                tf = yield from ctx.fp_fma(deps=(tl, tx) + acc_t)
                acc_t = (tf,)
                total -= values[k0 + i, k0 + p] * values[k0 + p, j0 + j]
            values[k0 + i, j0 + j] = total
            yield from ctx.store_f64(mat.ea(k0 + i, j0 + j), total,
                                     deps=acc_t)
            ctx.charge_ops(2)
        ctx.branch()


def _update_col_block(ctx, mat: _SimMatrix, i0: int, k0: int, b: int, values):
    """A[i, k] block: solve X * U(k,k) = A (upper triangular solve)."""
    for i in range(b):
        for j in range(b):
            acc_t = ()
            total = values[i0 + i, k0 + j]
            for p in range(j):
                tl, l = yield from ctx.load_f64(mat.ea(i0 + i, k0 + p))
                tu, u = yield from ctx.load_f64(mat.ea(k0 + p, k0 + j))
                tf = yield from ctx.fp_fma(deps=(tl, tu) + acc_t)
                acc_t = (tf,)
                total -= values[i0 + i, k0 + p] * values[k0 + p, k0 + j]
            tp, piv = yield from ctx.load_f64(mat.ea(k0 + j, k0 + j))
            td = yield from ctx.fp_div(deps=(tp,) + acc_t)
            new = total / values[k0 + j, k0 + j]
            values[i0 + i, k0 + j] = new
            yield from ctx.store_f64(mat.ea(i0 + i, k0 + j), new, deps=(td,))
            ctx.charge_ops(2)
        ctx.branch()


def _update_interior(ctx, mat: _SimMatrix, i0: int, j0: int, k0: int, b: int,
                     values):
    """A[i,j] -= A[i,k] @ A[k,j]: the rank-B FMA stream."""
    for i in range(b):
        for j in range(b):
            acc_t = ()
            acc = values[i0 + i, j0 + j]
            for p in range(b):
                tl, l = yield from ctx.load_f64(mat.ea(i0 + i, k0 + p))
                tu, u = yield from ctx.load_f64(mat.ea(k0 + p, j0 + j))
                tf = yield from ctx.fp_fma(deps=(tl, tu) + acc_t)
                acc_t = (tf,)
                acc -= values[i0 + i, k0 + p] * values[k0 + p, j0 + j]
            values[i0 + i, j0 + j] = acc
            yield from ctx.store_f64(mat.ea(i0 + i, j0 + j), acc, deps=acc_t)
            ctx.charge_ops(2)
        ctx.branch()


def _lu_thread(ctx, me: int, mat: _SimMatrix, params: LUParams, values,
               barrier, section):
    nb, b = params.n_blocks, params.block
    p = params.n_threads
    section.record_start(me, ctx.time)
    for k in range(nb):
        k0 = k * b
        if _owner(k, k, nb, p) == me:
            yield from _factor_diagonal(ctx, mat, k0, b, values)
        yield from barrier.wait(ctx)
        for j in range(k + 1, nb):
            if _owner(k, j, nb, p) == me:
                yield from _update_row_block(ctx, mat, k0, j * b, b, values)
            if _owner(j, k, nb, p) == me:
                yield from _update_col_block(ctx, mat, j * b, k0, b, values)
        yield from barrier.wait(ctx)
        for i in range(k + 1, nb):
            for j in range(k + 1, nb):
                if _owner(i, j, nb, p) == me:
                    yield from _update_interior(ctx, mat, i * b, j * b, k0,
                                                b, values)
        yield from barrier.wait(ctx)
    section.record_finish(me, ctx.time)


def run_lu(params: LUParams, chip: Chip | None = None) -> LUResult:
    """Run one LU experiment point."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n = params.n
    base = kernel.heap.alloc_f64_array(n * n)
    mat = _SimMatrix(base, n, IG_ALL)
    rng = np.random.default_rng(seed=7)
    original = rng.standard_normal((n, n)) + n * np.eye(n)
    values = original.copy()
    chip.memory.backing.f64_view(base, n * n)[:] = values.reshape(-1)

    barrier = kernel.hardware_barrier(0, params.n_threads)
    section = TimedSection.empty()
    for t in range(params.n_threads):
        kernel.spawn(_lu_thread, t, mat, params, values, barrier, section,
                     name=f"lu-{t}")
    kernel.run()

    verified = False
    if params.verify:
        lower = np.tril(values, -1) + np.eye(n)
        upper = np.triu(values)
        verified = bool(np.allclose(lower @ upper, original, atol=1e-6))
        # The simulated memory must agree with the numpy mirror.
        sim_values = chip.memory.backing.f64_view(base, n * n).reshape(n, n)
        verified = verified and bool(np.allclose(sim_values, values))
    return LUResult(params=params, cycles=section.elapsed, verified=verified)
