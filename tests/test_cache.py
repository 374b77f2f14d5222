"""Tests for the data cache unit: LRU, dirty state, way partitioning."""

import pytest
from hypothesis import given, strategies as st

from repro.config import ChipConfig
from repro.errors import CacheConfigError
from repro.memory.cache import CacheUnit

CFG = ChipConfig.paper()
LINE = CFG.dcache_line_bytes


def make_cache(**kwargs) -> CacheUnit:
    return CacheUnit(0, CFG, **kwargs)


def line_in_set(cache: CacheUnit, set_index: int, k: int) -> int:
    """The k-th distinct line address mapping to *set_index*."""
    return (set_index + k * cache.n_sets) * LINE


class TestGeometry:
    def test_paper_geometry(self):
        cache = make_cache()
        assert cache.n_sets == 32
        assert cache.total_ways == 8
        assert cache.capacity_bytes == 16 * 1024

    def test_resident_lines_starts_empty(self):
        assert make_cache().resident_lines == 0


class TestHitsAndMisses:
    def test_first_access_misses_then_hits(self):
        cache = make_cache()
        assert not cache.access(0, is_store=False).hit
        assert cache.access(0, is_store=False).hit
        assert cache.hits == 1 and cache.misses == 1

    def test_different_lines_tracked_separately(self):
        cache = make_cache()
        cache.access(0, is_store=False)
        assert not cache.access(LINE, is_store=False).hit

    def test_store_marks_dirty(self):
        cache = make_cache()
        cache.access(0, is_store=True)
        assert cache.line(0).dirty

    def test_load_does_not_mark_dirty(self):
        cache = make_cache()
        cache.access(0, is_store=False)
        assert not cache.line(0).dirty

    def test_store_hit_dirties_clean_line(self):
        cache = make_cache()
        cache.access(0, is_store=False)
        cache.access(0, is_store=True)
        assert cache.line(0).dirty

    def test_probe_does_not_change_state(self):
        cache = make_cache()
        assert not cache.probe(0)
        assert cache.accesses == 0

    def test_no_allocate_records_miss_without_fill(self):
        cache = make_cache()
        result = cache.access(0, is_store=False, allocate=False)
        assert not result.hit
        assert cache.resident_lines == 0


class TestLRU:
    def test_evicts_least_recently_used(self):
        cache = make_cache()
        lines = [line_in_set(cache, 0, k) for k in range(9)]
        for addr in lines[:8]:
            cache.access(addr, is_store=False)
        # Touch line 0 so line 1 becomes LRU.
        cache.access(lines[0], is_store=False)
        result = cache.access(lines[8], is_store=False)
        assert result.victim_line == lines[1]

    def test_victim_reports_dirty(self):
        cache = make_cache()
        lines = [line_in_set(cache, 3, k) for k in range(9)]
        cache.access(lines[0], is_store=True)
        for addr in lines[1:8]:
            cache.access(addr, is_store=False)
        result = cache.access(lines[8], is_store=False)
        assert result.victim_line == lines[0]
        assert result.victim_dirty
        assert cache.writebacks == 1

    def test_clean_victim_needs_no_writeback(self):
        cache = make_cache()
        lines = [line_in_set(cache, 0, k) for k in range(9)]
        for addr in lines[:8]:
            cache.access(addr, is_store=False)
        result = cache.access(lines[8], is_store=False)
        assert result.victim_dirty is False
        assert cache.writebacks == 0

    def test_capacity_never_exceeded(self):
        cache = make_cache()
        for k in range(100):
            cache.access(line_in_set(cache, 5, k), is_store=False)
        assert cache.resident_lines <= cache.total_ways

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_property_bounded_occupancy(self, accesses):
        cache = make_cache()
        for k in accesses:
            cache.access(k * LINE, is_store=bool(k % 2))
        assert cache.resident_lines <= cache.n_sets * cache.total_ways
        # Everything recently touched within associativity must still hit.
        assert cache.accesses == len(accesses)


class TestInvalidateAndFlush:
    def test_invalidate_drops_line(self):
        cache = make_cache()
        cache.access(0, is_store=True)
        state = cache.invalidate(0)
        assert state.dirty
        assert not cache.probe(0)

    def test_invalidate_missing_returns_none(self):
        assert make_cache().invalidate(0) is None

    def test_flush_returns_dirty_lines(self):
        cache = make_cache()
        cache.access(0, is_store=True)
        cache.access(LINE, is_store=False)
        dirty = cache.flush()
        assert [addr for addr, _ in dirty] == [0]
        assert cache.resident_lines == 0


class TestWayPartitioning:
    def test_partition_reduces_ways(self):
        cache = make_cache()
        cache.set_scratchpad_ways(2)
        assert cache.effective_ways == 6
        assert cache.scratchpad_bytes == 4 * 1024
        assert cache.capacity_bytes == 12 * 1024

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
        cache = make_cache()
        cache.access(0, is_store=False)
        cache.set_scratchpad_ways(1)
        assert cache.resident_lines == 0

    def test_reduced_associativity_evicts_sooner(self):
        cache = make_cache()
        cache.set_scratchpad_ways(6)  # 2 ways left
        lines = [line_in_set(cache, 0, k) for k in range(3)]
        cache.access(lines[0], is_store=False)
        cache.access(lines[1], is_store=False)
        result = cache.access(lines[2], is_store=False)
        assert result.victim_line == lines[0]

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
        cache = make_cache(buffer_data=True)
        cache.access(0, is_store=False)
        assert cache.line(0).data is not None
        assert len(cache.line(0).data) == LINE

    def test_victim_data_travels_out(self):
        cache = make_cache(buffer_data=True)
        lines = [line_in_set(cache, 0, k) for k in range(9)]
        cache.access(lines[0], is_store=True)
        cache.line(lines[0]).data[:5] = b"dirty"
        for addr in lines[1:9]:
            cache.access(addr, is_store=False)
        # lines[0] was the LRU victim of the 9th access.
        assert cache.evictions == 1


class TestCounters:
    def test_hit_rate(self):
        cache = make_cache()
        cache.access(0, is_store=False)
        cache.access(0, is_store=False)
        cache.access(0, is_store=True)
        assert cache.hit_rate() == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert make_cache().hit_rate() == 0.0
