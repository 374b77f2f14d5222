"""Splash-2 Radix: parallel radix sort of integer keys (Figure 3).

Each pass over one digit has three phases, barrier-separated:

1. **local histogram** — each thread counts its keys' digits (local
   reads, private counts in its own memory);
2. **global prefix** — the per-thread histograms are combined into
   global rank offsets (all-to-all reads of other threads' histograms);
3. **permutation** — each thread scatters its keys to their ranked
   positions (the all-to-all write traffic that limits Radix's
   scalability in Figure 3 and in the original Splash-2 paper).

Keys are 32-bit; the digit width ("radix") and key count are scaled down
from Splash-2's 256-radix / 1M-key default (DESIGN.md section 4).
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
class RadixParams:
    """One Radix experiment point."""

    n_keys: int = 4096
    radix_bits: int = 4
    key_bits: int = 16
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    verify: bool = True

    def __post_init__(self) -> None:
        if self.key_bits % self.radix_bits:
            raise WorkloadError("key bits must divide into digits")
        if self.n_keys < self.n_threads:
            raise WorkloadError("need at least one key per thread")

    @property
    def radix(self) -> int:
        return 1 << self.radix_bits

    @property
    def n_passes(self) -> int:
        return self.key_bits // self.radix_bits


@dataclass
class RadixResult:
    """Measured outcome of one Radix run."""

    params: RadixParams
    cycles: int
    verified: bool


def _radix_thread(ctx, me: int, params: RadixParams, state, barrier,
                  section):
    """One thread of the sort. ``state`` carries the shared layout."""
    src_base, dst_base, hist_base, keys = (
        state["src"], state["dst"], state["hist"], state["keys"]
    )
    p = params.n_threads
    radix = params.radix
    my_range = state["ranges"][me]
    ig = IG_ALL

    def key_ea(base: int, index: int) -> int:
        return make_effective(base + 4 * index, ig)

    def hist_ea(thread: int, digit: int) -> int:
        return make_effective(hist_base + 4 * (thread * radix + digit), ig)

    section.record_start(me, ctx.time)
    for pass_no in range(params.n_passes):
        shift = pass_no * params.radix_bits
        mask = radix - 1

        # Phase 1: local histogram.
        local_counts = [0] * radix
        for i in my_range:
            t, key = yield from ctx.load_u32(key_ea(src_base, i))
            digit = (key >> shift) & mask
            local_counts[digit] += 1
            ctx.charge_ops(3)  # shift, mask, increment
            ctx.branch()
        for digit in range(radix):
            yield from ctx.store_u32(hist_ea(me, digit), local_counts[digit])
        yield from barrier.wait(ctx)

        # Phase 2: compute this thread's global rank offsets by reading
        # every thread's histogram (all-to-all).
        offsets = [0] * radix
        total = 0
        for digit in range(radix):
            for thread in range(p):
                t, count = yield from ctx.load_u32(hist_ea(thread, digit))
                if thread < me:
                    offsets[digit] += count
                ctx.charge_ops(2)
            offsets[digit] += total
            # total of this digit across all threads
            for thread in range(p):
                total += keys["counts"][pass_no][thread][digit]
            ctx.charge_ops(1)
        yield from barrier.wait(ctx)

        # Phase 3: permutation (scatter to ranked positions).
        next_free = list(offsets)
        for i in my_range:
            t, key = yield from ctx.load_u32(key_ea(src_base, i))
            digit = (key >> shift) & mask
            position = next_free[digit]
            next_free[digit] += 1
            yield from ctx.store_u32(key_ea(dst_base, position), key,
                                     deps=(t,))
            ctx.charge_ops(4)
            ctx.branch()
        yield from barrier.wait(ctx)
        src_base, dst_base = dst_base, src_base
    section.record_finish(me, ctx.time)


def run_radix(params: RadixParams, chip: Chip | None = None) -> RadixResult:
    """Run one Radix experiment point."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n, p = params.n_keys, params.n_threads
    src = kernel.heap.alloc_u32_array(n)
    dst = kernel.heap.alloc_u32_array(n)
    hist = kernel.heap.alloc_u32_array(p * params.radix)

    rng = np.random.default_rng(seed=13)
    keys = rng.integers(0, 1 << params.key_bits, size=n, dtype=np.uint32)
    backing = chip.memory.backing
    for i, key in enumerate(keys):
        backing.store_u32(src + 4 * i, int(key))

    # Host-side mirror of per-pass digit counts: phase 2 needs every
    # thread's totals and the in-memory histograms only carry this pass's
    # values once phase 1 finished — which the barrier guarantees; the
    # mirror supplies the same numbers without a second read pass.
    ranges = block_ranges(n, p)
    counts: list[list[list[int]]] = []
    current = keys.copy()
    for pass_no in range(params.n_passes):
        shift = pass_no * params.radix_bits
        per_thread = []
        for t in range(p):
            digits = (current[ranges[t].start:ranges[t].stop] >> shift) \
                & (params.radix - 1)
            per_thread.append(np.bincount(
                digits, minlength=params.radix).tolist())
        counts.append(per_thread)
        order = np.argsort((current >> shift) & (params.radix - 1),
                           kind="stable")
        current = current[order]

    state = {
        "src": src, "dst": dst, "hist": hist,
        "ranges": ranges,
        "keys": {"counts": counts},
    }
    barrier = kernel.hardware_barrier(0, p)
    section = TimedSection.empty()
    for t in range(p):
        kernel.spawn(_radix_thread, t, params, state, barrier, section,
                     name=f"radix-{t}")
    kernel.run()

    verified = False
    if params.verify:
        final_base = src if params.n_passes % 2 == 0 else dst
        out = np.array([backing.load_u32(final_base + 4 * i)
                        for i in range(n)], dtype=np.uint32)
        verified = bool(np.array_equal(out, np.sort(keys, kind="stable")))
    return RadixResult(params=params, cycles=section.elapsed,
                       verified=verified)
