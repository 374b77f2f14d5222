"""The Splash-2 FFT kernel (Figures 3 and 7).

This is the 1-D complex FFT of Splash-2 — Bailey's six-step radix-sqrt(n)
algorithm over an n = m*m data set viewed as an m x m matrix of complex
doubles:

1. transpose;
2. m-point FFT on every row;
3. multiply by the W_N twiddle factors;
4. transpose;
5. m-point FFT on every row;
6. transpose (final ordering).

Rows are block-partitioned over the threads; a chip barrier separates the
steps, so the transposes are the all-to-all communication phases and the
barriers are what Figure 7 varies: ``barrier="hw"`` uses the wired-OR
hardware barrier, ``barrier="sw"`` the software combining tree of
:class:`repro.runtime.barrier_sw.TreeBarrier`.

The paper's constraints are enforced: "the number of points per processor
[must] be greater than or equal to the square root of the total number of
points, and the number of processors [must] be a power of two."

Everything is computed functionally — the result is checked against
``numpy.fft.fft`` — while every load, store, butterfly flop, and barrier
charges the Table 2 timing model.
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
from repro.workloads.common import block_ranges


@dataclass(frozen=True)
class FFTParams:
    """One FFT experiment point."""

    n_points: int = 256
    n_threads: int = 4
    barrier: str = "hw"  # "hw" or "sw"
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    verify: bool = True

    def __post_init__(self) -> None:
        n, p = self.n_points, self.n_threads
        if n < 4 or n & (n - 1):
            raise WorkloadError("n_points must be a power of two >= 4")
        m = math.isqrt(n)
        if m * m != n:
            raise WorkloadError("n_points must be a perfect square (n = m*m)")
        if p < 1 or p & (p - 1):
            raise WorkloadError("the number of processors must be a power of two")
        if n // p < m:
            raise WorkloadError(
                f"points per processor ({n // p}) must be >= sqrt(n) ({m})"
            )
        if self.barrier not in ("hw", "sw"):
            raise WorkloadError(f"unknown barrier kind {self.barrier!r}")

    @property
    def m(self) -> int:
        """The matrix edge: sqrt(n)."""
        return math.isqrt(self.n_points)


@dataclass
class FFTResult:
    """Measured outcome of one FFT run."""

    params: FFTParams
    total_cycles: int
    run_cycles: int
    stall_cycles: int
    barrier_episodes: int
    verified: bool


class _Matrix:
    """An m x m complex-double matrix living in simulated memory.

    Element ``(row, col)`` is a ``(re, im)`` pair of doubles at
    ``ea + 16 * (row * m + col)``: the base's effective address is
    range-checked once, here, so an element's address is an add.
    """

    def __init__(self, base: int, m: int, ig_byte: int) -> None:
        self.m = m
        make_effective(base + 16 * m * m - 8, ig_byte)  # the last double
        self.ea = make_effective(base, ig_byte)


# The loops below issue every shared-resource op in split-phase form
# (see ``ThreadCtx.op_begin``): they yield the op's issue cycle
# themselves -- the thread clock, or the latest of it and the op's input
# ready times, re-read before every op and taken with comparisons rather
# than a builtin ``max`` call -- and pass the granted cycle to the bound
# ``*_finish`` method. The event sequence is the one the
# ``yield from ctx.load_f64(...)`` generator forms produce, without a
# generator per operation. The finishers only do timing; each loop
# iteration counts its ops, and charges its trailing ``charge_ops`` and
# branch, in one ``count_iteration`` call.
def _transpose(ctx, src: _Matrix, dst: _Matrix, rows: range):
    """Copy ``src`` transposed into ``dst`` for this thread's target rows.

    Reading down a source column is the all-to-all communication phase:
    the elements live in lines homed all over the chip.
    """
    tu = ctx.tu
    load = ctx.load_f64_finish
    store = ctx.store_f64_finish
    count = ctx.count_iteration
    m = src.m
    src_ea, dst_ea = src.ea, dst.ea
    for row in rows:
        for col in range(m):
            ea = src_ea + 16 * (col * m + row)
            now = yield tu.issue_time
            t, re = load(now, ea)
            now = yield tu.issue_time
            ti, im = load(now, ea + 8)
            if ti > t:
                t = ti
            ea = dst_ea + 16 * (row * m + col)
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            store(now, ea, re)
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            store(now, ea + 8, im)
            count(4, 2, 2, 0, 2, 0)  # 2 loads, 2 stores; 2 int ops
        ctx.branch()


def _bit_reverse_indices(m: int) -> list[int]:
    bits = m.bit_length() - 1
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(m)]


def _row_fft(ctx, mat: _Matrix, row: int, roots: "_RootTable",
             bitrev: list[int]):
    """In-place iterative radix-2 FFT over one row of length m."""
    tu = ctx.tu
    load = ctx.load_f64_finish
    store = ctx.store_f64_finish
    fp_mul = ctx.fp_mul_finish
    fp_fma = ctx.fp_fma_finish
    fp_add = ctx.fp_add_finish
    count = ctx.count_iteration
    m = mat.m
    row_ea = mat.ea + 16 * row * m
    # Bit-reverse permutation (swap elements through memory).
    for i, j in enumerate(bitrev):
        if i < j:
            ea_i = row_ea + 16 * i
            ea_j = row_ea + 16 * j
            now = yield tu.issue_time
            ti, ri = load(now, ea_i)
            now = yield tu.issue_time
            t, ii = load(now, ea_i + 8)
            if t > ti:
                ti = t
            now = yield tu.issue_time
            tj, rj = load(now, ea_j)
            now = yield tu.issue_time
            t, ij = load(now, ea_j + 8)
            if t > tj:
                tj = t
            clock = tu.issue_time
            now = yield (tj if tj > clock else clock)
            store(now, ea_i, rj)
            clock = tu.issue_time
            now = yield (tj if tj > clock else clock)
            store(now, ea_i + 8, ij)
            clock = tu.issue_time
            now = yield (ti if ti > clock else clock)
            store(now, ea_j, ri)
            clock = tu.issue_time
            now = yield (ti if ti > clock else clock)
            store(now, ea_j + 8, ii)
            count(8, 4, 4, 0, 2, 0)  # 4 loads, 4 stores; 2 int ops
    roots_ea = roots.ea
    size = 2
    while size <= m:
        half = size // 2
        step = m // size
        for j in range(half):
            ea = roots_ea + 16 * j * step
            now = yield tu.issue_time
            tw, re = load(now, ea)
            now = yield tu.issue_time
            t, im = load(now, ea + 8)
            if t > tw:
                tw = t
            count(2, 2, 0, 0, 0, 0)  # the twiddle's 2 loads
            w = complex(re, im)
            start = 0
            while start < m:
                ea_a = row_ea + 16 * (start + j)
                ea_b = ea_a + 16 * half
                now = yield tu.issue_time
                ta, re = load(now, ea_a)
                now = yield tu.issue_time
                t, im = load(now, ea_a + 8)
                if t > ta:
                    ta = t
                a = complex(re, im)
                now = yield tu.issue_time
                tb, re = load(now, ea_b)
                now = yield tu.issue_time
                t, im = load(now, ea_b + 8)
                if t > tb:
                    tb = t
                b = complex(re, im)
                # Complex butterfly: t = w*b (2 muls + 2 FMAs), then
                # a' = a + t and b' = a - t (4 adds).
                if tw > tb:
                    tb = tw  # the multiplies wait for w and b
                clock = tu.issue_time
                now = yield (tb if tb > clock else clock)
                t = fp_mul(now)
                clock = tu.issue_time
                now = yield (t if t > clock else clock)
                t2 = fp_fma(now)
                clock = tu.issue_time
                now = yield (tb if tb > clock else clock)
                t = fp_mul(now)
                clock = tu.issue_time
                now = yield (t if t > clock else clock)
                t = fp_fma(now)
                product = w * b
                if t2 > t:
                    t = t2
                if ta > t:
                    t = ta  # the adds wait for a and both FMAs
                clock = tu.issue_time
                now = yield (t if t > clock else clock)
                tsum = fp_add(now)
                clock = tu.issue_time
                now = yield (t if t > clock else clock)
                tdif = fp_add(now)
                clock = tu.issue_time
                now = yield (tsum if tsum > clock else clock)
                tsum = fp_add(now)
                clock = tu.issue_time
                now = yield (tdif if tdif > clock else clock)
                tdif = fp_add(now)
                value = a + product
                clock = tu.issue_time
                now = yield (tsum if tsum > clock else clock)
                store(now, ea_a, value.real)
                clock = tu.issue_time
                now = yield (tsum if tsum > clock else clock)
                store(now, ea_a + 8, value.imag)
                value = a - product
                clock = tu.issue_time
                now = yield (tdif if tdif > clock else clock)
                store(now, ea_b, value.real)
                clock = tu.issue_time
                now = yield (tdif if tdif > clock else clock)
                store(now, ea_b + 8, value.imag)
                # 4 loads, 2 muls + 2 FMAs + 4 adds (10 flops), 4 stores;
                # 2 int ops and the branch.
                count(16, 4, 4, 10, 2, 1)
                start += size
        size *= 2


class _RootTable:
    """Twiddle factors W_K^k = exp(-2*pi*i*k/K) stored in memory.

    Factor *k* is a ``(re, im)`` pair of doubles at ``ea + 16 * k``.
    """

    def __init__(self, kernel: Kernel, count: int, ig_byte: int) -> None:
        self.count = count
        base = kernel.heap.alloc_f64_array(2 * count)
        make_effective(base + 16 * count - 8, ig_byte)  # the last double
        self.ea = make_effective(base, ig_byte)
        view = kernel.chip.memory.backing.f64_view(base, 2 * count)
        angles = -2.0 * np.pi * np.arange(count) / count
        view[0::2] = np.cos(angles)
        view[1::2] = np.sin(angles)


def _twiddle_rows(ctx, mat: _Matrix, rows: range, roots_n: _RootTable):
    """Step 3: scale element (n2, k1) by W_N^(n2*k1)."""
    tu = ctx.tu
    load = ctx.load_f64_finish
    store = ctx.store_f64_finish
    fp_mul = ctx.fp_mul_finish
    fp_fma = ctx.fp_fma_finish
    count = ctx.count_iteration
    n = roots_n.count
    m = mat.m
    mat_ea, roots_ea = mat.ea, roots_n.ea
    for row in rows:
        for col in range(m):
            ea = roots_ea + 16 * ((row * col) % n)
            # ``tin``: when the multiplies' inputs, w and the element,
            # are all ready.
            now = yield tu.issue_time
            tin, re = load(now, ea)
            now = yield tu.issue_time
            t, im = load(now, ea + 8)
            if t > tin:
                tin = t
            w = complex(re, im)
            ea = mat_ea + 16 * (row * m + col)
            now = yield tu.issue_time
            t, re = load(now, ea)
            if t > tin:
                tin = t
            now = yield tu.issue_time
            t, im = load(now, ea + 8)
            if t > tin:
                tin = t
            value = complex(re, im)
            clock = tu.issue_time
            now = yield (tin if tin > clock else clock)
            t = fp_mul(now)
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            t2 = fp_fma(now)
            clock = tu.issue_time
            now = yield (tin if tin > clock else clock)
            t = fp_mul(now)
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            t = fp_fma(now)
            if t2 > t:
                t = t2
            value = value * w
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            store(now, ea, value.real)
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            store(now, ea + 8, value.imag)
            # 4 loads, 2 muls + 2 FMAs (6 flops), 2 stores; 3 int ops.
            count(10, 4, 2, 6, 3, 0)
        ctx.branch()


def _fft_thread(ctx, me: int, mats: tuple, roots_m: _RootTable,
                roots_n: _RootTable, rows: range, barrier, bitrev: list[int],
                section):
    a, work = mats
    section.record_start(me, ctx.time)
    # Step 1: transpose a -> work.
    yield from _transpose(ctx, a, work, rows)
    yield from barrier.wait(ctx)
    # Step 2: row FFTs on work; Step 3: twiddle scaling.
    for row in rows:
        yield from _row_fft(ctx, work, row, roots_m, bitrev)
    yield from _twiddle_rows(ctx, work, rows, roots_n)
    yield from barrier.wait(ctx)
    # Step 4: transpose work -> a.
    yield from _transpose(ctx, work, a, rows)
    yield from barrier.wait(ctx)
    # Step 5: row FFTs on a.
    for row in rows:
        yield from _row_fft(ctx, a, row, roots_m, bitrev)
    yield from barrier.wait(ctx)
    # Step 6: final transpose a -> work.
    yield from _transpose(ctx, a, work, rows)
    yield from barrier.wait(ctx)
    section.record_finish(me, ctx.time)


def run_fft(params: FFTParams, chip: Chip | None = None,
            input_values: np.ndarray | None = None) -> FFTResult:
    """Run one FFT experiment point; returns timing plus verification."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n, m = params.n_points, params.m
    ig = IG_ALL
    base_a = kernel.heap.alloc_f64_array(2 * n)
    base_w = kernel.heap.alloc_f64_array(2 * n)
    mat_a = _Matrix(base_a, m, ig)
    mat_w = _Matrix(base_w, m, ig)
    roots_m = _RootTable(kernel, m, ig)
    roots_n = _RootTable(kernel, n, ig)

    rng = np.random.default_rng(seed=20020202)
    if input_values is None:
        input_values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    view = chip.memory.backing.f64_view(base_a, 2 * n)
    view[0::2] = input_values.real
    view[1::2] = input_values.imag

    if params.barrier == "hw":
        barrier = kernel.hardware_barrier(0, params.n_threads)
    else:
        barrier = kernel.tree_barrier(params.n_threads)

    from repro.workloads.common import TimedSection

    section = TimedSection.empty()
    bitrev = _bit_reverse_indices(m)
    row_blocks = block_ranges(m, params.n_threads)
    for t in range(params.n_threads):
        kernel.spawn(
            _fft_thread, t, (mat_a, mat_w), roots_m, roots_n,
            row_blocks[t], barrier, bitrev, section, name=f"fft-{t}",
        )
    kernel.run()

    verified = False
    if params.verify:
        out = chip.memory.backing.f64_view(base_w, 2 * n)
        result = out[0::2] + 1j * out[1::2]
        expected = np.fft.fft(input_values)
        verified = bool(np.allclose(result, expected, atol=1e-6))

    run_cycles = sum(
        th.ctx.tu.counters.run_cycles for th in kernel.threads
    )
    stall_cycles = sum(
        th.ctx.tu.counters.stall_cycles for th in kernel.threads
    )
    episodes = barrier.episodes
    return FFTResult(
        params=params,
        total_cycles=section.elapsed,
        run_cycles=run_cycles,
        stall_cycles=stall_cycles,
        barrier_episodes=episodes,
        verified=verified,
    )
