"""Tests for the data cache unit: LRU, dirty state, way partitioning.

Lookups go through :meth:`MemorySubsystem.access`, the one path the
simulator runs: an interest-group-zero (OWN) address from quad 0 lands
in cache 0, whose tag state the assertions read back.
"""

import pytest
from hypothesis import given, strategies as st

from repro.config import ChipConfig
from repro.errors import CacheConfigError
from repro.memory.cache import CacheUnit
from repro.memory.subsystem import AccessKind, MemorySubsystem

CFG = ChipConfig.paper()
LINE = CFG.dcache_line_bytes


def make_memory(**kwargs) -> MemorySubsystem:
    return MemorySubsystem(CFG, **kwargs)


def make_cache(**kwargs) -> CacheUnit:
    return make_memory(**kwargs).caches[0]


def touch(memory: MemorySubsystem, line: int, is_store: bool = False) -> bool:
    """One 8-byte access to *line* from quad 0; True on a hit."""
    kind = memory.access(0, 0, line, 8, is_store)[2]
    return kind is AccessKind.LOCAL_HIT


def lookups(memory: MemorySubsystem, cache_id: int = 0) -> int:
    """Tag lookups made in one cache: its hits plus its misses."""
    cache = memory.caches[cache_id]
    return (sum(memory.cache_hits(cache_id)) + cache.misses
            + cache.store_misses)


def line_in_set(cache: CacheUnit, set_index: int, k: int) -> int:
    """The k-th distinct line address mapping to *set_index*."""
    return (set_index + k * cache.n_sets) * LINE


def resident(cache: CacheUnit, lines) -> int:
    """How many of *lines* the cache holds."""
    return sum(cache.line(addr) is not None for addr in lines)


class TestGeometry:
    def test_paper_geometry(self):
        cache = make_cache()
        assert cache.n_sets == 32
        assert cache.total_ways == 8
        assert cache.effective_ways * cache.n_sets * LINE == 16 * 1024

    def test_resident_lines_starts_empty(self):
        cache = make_cache()
        assert resident(cache, [line_in_set(cache, s, k)
                                for s in range(cache.n_sets)
                                for k in range(2)]) == 0


class TestHitsAndMisses:
    def test_first_access_misses_then_hits(self):
        memory = make_memory()
        assert not touch(memory, 0)
        assert touch(memory, 0)
        assert memory.cache_hits(0)[0] == 1
        assert memory.caches[0].misses == 1

    def test_different_lines_tracked_separately(self):
        memory = make_memory()
        touch(memory, 0)
        assert not touch(memory, LINE)

    def test_store_marks_dirty(self):
        memory = make_memory()
        touch(memory, 0, is_store=True)
        assert memory.caches[0].line(0).dirty

    def test_load_does_not_mark_dirty(self):
        memory = make_memory()
        touch(memory, 0)
        assert not memory.caches[0].line(0).dirty

    def test_store_hit_dirties_clean_line(self):
        memory = make_memory()
        touch(memory, 0)
        touch(memory, 0, is_store=True)
        assert memory.caches[0].line(0).dirty

    def test_probe_does_not_change_state(self):
        memory = make_memory()
        assert memory.caches[0].line(0) is None
        assert lookups(memory) == 0


class TestLRU:
    def test_evicts_least_recently_used(self):
        memory = make_memory()
        cache = memory.caches[0]
        lines = [line_in_set(cache, 0, k) for k in range(9)]
        for addr in lines[:8]:
            touch(memory, addr)
        # Touch line 0 so line 1 becomes LRU.
        touch(memory, lines[0])
        touch(memory, lines[8])
        assert cache.line(lines[1]) is None
        assert resident(cache, lines) == 8
        assert cache.evictions == 1

    def test_victim_reports_dirty(self):
        memory = make_memory()
        cache = memory.caches[0]
        lines = [line_in_set(cache, 3, k) for k in range(9)]
        touch(memory, lines[0], is_store=True)
        for addr in lines[1:8]:
            touch(memory, addr)
        touch(memory, lines[8])
        assert cache.line(lines[0]) is None
        assert cache.writebacks == 1

    def test_clean_victim_needs_no_writeback(self):
        memory = make_memory()
        cache = memory.caches[0]
        lines = [line_in_set(cache, 0, k) for k in range(9)]
        for addr in lines[:8]:
            touch(memory, addr)
        touch(memory, lines[8])
        assert cache.evictions == 1
        assert cache.writebacks == 0

    def test_capacity_never_exceeded(self):
        memory = make_memory()
        cache = memory.caches[0]
        lines = [line_in_set(cache, 5, k) for k in range(100)]
        for addr in lines:
            touch(memory, addr)
        assert resident(cache, lines) <= cache.total_ways

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_property_bounded_occupancy(self, accesses):
        memory = make_memory()
        cache = memory.caches[0]
        for k in accesses:
            touch(memory, k * LINE, is_store=bool(k % 2))
        assert resident(cache, [k * LINE for k in range(64)]) \
            <= cache.n_sets * cache.total_ways
        assert lookups(memory) == len(accesses)


class TestInvalidateAndFlush:
    def test_invalidate_drops_line(self):
        memory = make_memory()
        cache = memory.caches[0]
        touch(memory, 0, is_store=True)
        state = cache.invalidate(0)
        assert state.dirty
        assert cache.line(0) is None

    def test_invalidate_missing_returns_none(self):
        assert make_cache().invalidate(0) is None

    def test_flush_returns_dirty_lines(self):
        memory = make_memory()
        cache = memory.caches[0]
        touch(memory, 0, is_store=True)
        touch(memory, LINE)
        dirty = cache.flush()
        assert [addr for addr, _ in dirty] == [0]
        assert resident(cache, [0, LINE]) == 0


class TestWayPartitioning:
    def test_partition_reduces_ways(self):
        cache = make_cache()
        cache.set_scratchpad_ways(2)
        assert cache.effective_ways == 6
        assert cache.scratchpad_bytes == 4 * 1024
        assert cache.effective_ways * cache.n_sets * LINE == 12 * 1024

    def test_partition_by_bytes_at_2kb_grain(self):
        cache = make_cache()
        cache.set_scratchpad_bytes(4 * 1024)
        assert cache.scratchpad_ways == 2

    def test_rejects_non_grain_sizes(self):
        with pytest.raises(CacheConfigError):
            make_cache().set_scratchpad_bytes(3 * 1024)

    def test_rejects_partitioning_everything(self):
        with pytest.raises(CacheConfigError):
            make_cache().set_scratchpad_ways(8)

    def test_partition_flushes(self):
        memory = make_memory()
        cache = memory.caches[0]
        touch(memory, 0)
        cache.set_scratchpad_ways(1)
        assert cache.line(0) is None

    def test_reduced_associativity_evicts_sooner(self):
        memory = make_memory()
        cache = memory.caches[0]
        cache.set_scratchpad_ways(6)  # 2 ways left
        lines = [line_in_set(cache, 0, k) for k in range(3)]
        for addr in lines:
            touch(memory, addr)
        assert cache.line(lines[0]) is None
        assert resident(cache, lines) == 2

    def test_scratchpad_readback(self):
        cache = make_cache()
        cache.set_scratchpad_ways(1)
        cache.scratchpad_write(64, b"hello   ")
        assert cache.scratchpad_read(64, 8) == b"hello   "

    def test_scratchpad_bounds(self):
        cache = make_cache()
        cache.set_scratchpad_ways(1)
        with pytest.raises(CacheConfigError):
            cache.scratchpad_read(cache.scratchpad_bytes, 1)
        with pytest.raises(CacheConfigError):
            cache.scratchpad_write(-1, b"x")


class TestBufferedData:
    def test_lines_carry_buffers_in_strict_mode(self):
        memory = make_memory(strict_incoherence=True)
        touch(memory, 0)
        cache = memory.caches[0]
        assert cache.line(0).data is not None
        assert len(cache.line(0).data) == LINE

    def test_victim_data_travels_out(self):
        memory = make_memory(strict_incoherence=True)
        cache = memory.caches[0]
        lines = [line_in_set(cache, 0, k) for k in range(9)]
        touch(memory, lines[0], is_store=True)
        cache.line(lines[0]).data[:5] = b"dirty"
        for addr in lines[1:9]:
            touch(memory, addr)
        # lines[0] was the LRU victim of the 9th access; its bytes
        # reached the backing store.
        assert cache.evictions == 1
        assert memory.backing.read_block(lines[0], 5) == b"dirty"


class TestCounters:
    def test_hit_rate(self):
        memory = make_memory()
        touch(memory, 0)
        touch(memory, 0)
        touch(memory, 0, is_store=True)
        assert memory.cache_hit_rate(0) == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert make_memory().cache_hit_rate(0) == 0.0
