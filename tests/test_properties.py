"""Property-based and invariant tests across the stack.

These check the simulator's global guarantees: determinism, time
monotonicity, conservation of accounting, cache behaviour against a
reference model, and allocator non-overlap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.core.icache import InstructionCache
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.memory.subsystem import AccessKind, MemorySubsystem
from repro.runtime.heap import BumpHeap
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.stream import StreamParams, run_stream

CFG = ChipConfig.paper()


# ---------------------------------------------------------------------------
# Determinism: the whole simulator is a pure function of its inputs.
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_stream_run_is_reproducible(self):
        params = StreamParams(kernel="triad", n_elements=2048, n_threads=16)
        first = run_stream(params)
        second = run_stream(params)
        assert first.cycles == second.cycles
        assert first.bandwidth == second.bandwidth
        assert first.per_thread_bandwidth == second.per_thread_bandwidth

    def test_fft_run_is_reproducible(self):
        from repro.workloads.fft import FFTParams, run_fft
        params = FFTParams(n_points=64, n_threads=4)
        assert run_fft(params).total_cycles == run_fft(params).total_cycles

    def test_mixed_chaos_is_reproducible(self):
        def run_once() -> int:
            chip = Chip()
            kernel = Kernel(chip, AllocationPolicy.BALANCED)
            barrier = kernel.hardware_barrier(0, 12)
            base = kernel.heap.alloc_f64_array(512)

            def body(ctx, seed):
                t = 0
                for i in range(60):
                    slot = (seed * 37 + i * 13) % 512
                    if (seed + i) % 3 == 0:
                        t, _ = yield from ctx.load_f64(
                            ctx.ea(base + 8 * slot), deps=(t,))
                    elif (seed + i) % 3 == 1:
                        yield from ctx.store_f64(
                            ctx.ea(base + 8 * slot), float(i), deps=(t,))
                    else:
                        t = yield from ctx.fp_fma(deps=(t,))
                    if i % 20 == 19:
                        yield from barrier.wait(ctx)
                yield from barrier.wait(ctx)

            for s in range(12):
                kernel.spawn(body, s)
            return kernel.run()

        assert run_once() == run_once()


# ---------------------------------------------------------------------------
# Accounting conservation
# ---------------------------------------------------------------------------
class TestAccounting:
    def test_run_plus_stall_bounded_by_elapsed(self):
        chip = Chip()
        kernel = Kernel(chip)

        def body(ctx):
            t = 0
            for i in range(50):
                t, _ = yield from ctx.load_f64(ctx.ea(8 * i), deps=(t,))
            return None

        thread = kernel.spawn(body)
        kernel.run()
        c = thread.ctx.tu.counters
        assert c.run_cycles + c.stall_cycles == thread.ctx.tu.issue_time

    def test_flop_counter_matches_issued_ops(self):
        chip = Chip()
        kernel = Kernel(chip)

        def body(ctx):
            for _ in range(10):
                yield from ctx.fp_fma()   # 2 flops
            for _ in range(5):
                yield from ctx.fp_add()   # 1 flop

        thread = kernel.spawn(body)
        kernel.run()
        assert thread.ctx.tu.counters.flops == 25

    def test_memory_traffic_is_line_granular(self):
        chip = Chip()
        for i in range(100):
            chip.memory.access(i * 50, 0,
                               make_effective(i * 64, IG_ALL), 8, False)
        assert chip.memory.memory_traffic_bytes % 32 == 0


# ---------------------------------------------------------------------------
# Cache behaviour vs a reference model
# ---------------------------------------------------------------------------
class _ReferenceCache:
    """An obviously-correct LRU set-associative model with dirty bits."""

    def __init__(self, n_sets: int, ways: int, line: int) -> None:
        self.n_sets, self.ways, self.line = n_sets, ways, line
        #: Each set's lines, least recently used first.
        self.sets = [[] for _ in range(n_sets)]
        self.dirty: set[int] = set()
        self.writebacks = 0

    def access(self, line_addr: int, is_store: bool = False) -> bool:
        entries = self.sets[(line_addr // self.line) % self.n_sets]
        hit = line_addr in entries
        if hit:
            entries.remove(line_addr)
        entries.append(line_addr)
        if len(entries) > self.ways:
            victim = entries.pop(0)
            if victim in self.dirty:
                self.dirty.remove(victim)
                self.writebacks += 1
        if is_store:
            self.dirty.add(line_addr)
        return hit

    def invalidate(self, line_addr: int) -> bool | None:
        """Drop a line; its dirty bit, or ``None`` if it was absent."""
        entries = self.sets[(line_addr // self.line) % self.n_sets]
        if line_addr not in entries:
            return None
        entries.remove(line_addr)
        dirty = line_addr in self.dirty
        self.dirty.discard(line_addr)
        return dirty


_CACHE_OPS = ("load", "store", "warm_load", "warm_store", "invalidate")

#: A line as ``(set, tag)``: two sets at 12 tags each, more than the 8
#: ways, and lists long enough that sets fill and evict.
_LINES = st.tuples(st.integers(0, 1), st.integers(0, 11))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_CACHE_OPS), _LINES),
                min_size=30, max_size=300),
       st.lists(_LINES, min_size=30, max_size=300))
def test_cache_matches_reference_model(ops, fetches):
    # Data accesses use interest group zero (OWN) from quad 0, so cache
    # 0 holds every line.
    memory = MemorySubsystem(CFG)
    cache = memory.caches[0]
    icache = InstructionCache(0, CFG)
    reference = _ReferenceCache(cache.n_sets, cache.total_ways,
                                cache.line_bytes)
    ireference = _ReferenceCache(icache.n_sets, icache.ways,
                                 icache.line_bytes)
    for time, (set_index, tag) in enumerate(fetches):
        addr = (tag * icache.n_sets + set_index) * icache.line_bytes
        _, hit = icache.fetch(time, addr, memory.banks, memory.address_map)
        assert hit == ireference.access(addr)
    for time, (op, (set_index, tag)) in enumerate(ops):
        addr = (tag * cache.n_sets + set_index) * cache.line_bytes
        if op == "invalidate":
            state = cache.invalidate(addr)
            dirty = reference.invalidate(addr)
            assert (state is None) == (dirty is None)
            assert state is None or state.dirty == dirty
            continue
        is_store = op.endswith("store")
        if op.startswith("warm"):
            hits = cache.hits + cache.store_hits
            memory.warm_access(0, addr, is_store)
            hit = cache.hits + cache.store_hits > hits
        else:
            kind = memory.access(time, 0, addr, 8, is_store=is_store)[2]
            hit = kind is AccessKind.LOCAL_HIT
        assert hit == reference.access(addr, is_store)
        assert cache.writebacks == reference.writebacks
    # The whole LRU order and every dirty bit, not only the hit flags.
    assert [list(lines) for lines in cache._sets] == reference.sets
    assert {addr for lines in cache._sets
            for addr, state in lines.items() if state.dirty} \
        == reference.dirty
    assert [list(lines) for lines in icache._sets] == ireference.sets


# ---------------------------------------------------------------------------
# Heap allocations never overlap
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.integers(1, 3000),
              st.sampled_from([1, 8, 64, 256])),
    min_size=1, max_size=40,
))
def test_heap_allocations_disjoint(requests):
    heap = BumpHeap(0, 1 << 20)
    regions = []
    for size, align in requests:
        base = heap.alloc(size, align=align)
        assert base % align == 0
        for other_base, other_size in regions:
            assert base + size <= other_base or base >= other_base + other_size
        regions.append((base, size))


# ---------------------------------------------------------------------------
# Resource timeline properties
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1000), st.integers(1, 50)),
                min_size=1, max_size=60))
def test_timeline_never_overlaps(requests):
    from repro.engine.resources import TimelineResource
    resource = TimelineResource("r")
    intervals = []
    for time, busy in requests:
        grant = resource.reserve(time, busy)
        assert grant >= time
        for start, end in intervals:
            assert grant >= end or grant + busy <= start
        intervals.append((grant, grant + busy))
    total_busy = sum(b for _, b in requests)
    assert resource.busy_cycles == total_busy


# ---------------------------------------------------------------------------
# Interest-group placement properties
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(0, (1 << 24) - 64), st.integers(0, 31))
def test_placement_is_stable_across_requesters(physical, quad):
    """Under non-OWN groups, the home cache never depends on who asks."""
    from repro.memory.subsystem import MemorySubsystem
    memory = MemorySubsystem(CFG)
    home_from_quad = memory.target_cache(IG_ALL, physical, quad)
    home_from_zero = memory.target_cache(IG_ALL, physical, 0)
    assert home_from_quad == home_from_zero


@settings(max_examples=30, deadline=None)
@given(st.integers(0, (1 << 24) - 64))
def test_same_line_same_home(physical):
    """Addresses within one line share a home cache."""
    from repro.memory.subsystem import MemorySubsystem
    memory = MemorySubsystem(CFG)
    line_start = physical - physical % 64
    homes = {memory.target_cache(IG_ALL, line_start + off, 0)
             for off in (0, 8, 56)}
    assert len(homes) == 1
