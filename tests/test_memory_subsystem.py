"""Tests for banks, backing store, switch, off-chip DMA, and the
composed memory subsystem (Table 2 latencies, Figure 2 paths)."""

import gc
import os
import pathlib

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import AddressError, MemoryFault
from repro.memory.address import make_effective
from repro.memory.backing import BackingStore
from repro.memory.bank import MemoryBank
from repro.memory.interest_groups import IG_ALL, IG_OWN, InterestGroup, Level
from repro.memory.subsystem import AccessKind, MemorySubsystem
from repro.memory.switch import CrossbarSwitch, build_cache_switch

CFG = ChipConfig.paper()


# ---------------------------------------------------------------------------
# Backing store
# ---------------------------------------------------------------------------
class TestBackingStore:
    def test_f64_roundtrip(self):
        b = BackingStore(1024)
        b.store_f64(8, 2.5)
        assert b.load_f64(8) == 2.5

    def test_u32_roundtrip(self):
        b = BackingStore(1024)
        b.store_u32(4, 0xDEADBEEF)
        assert b.load_u32(4) == 0xDEADBEEF

    def test_u32_wraps_modulo_32_bits(self):
        b = BackingStore(64)
        b.store_u32(0, 2**32 + 7)
        assert b.load_u32(0) == 7

    def test_misaligned_rejected(self):
        b = BackingStore(64)
        with pytest.raises(AddressError):
            b.load_f64(4)

    def test_out_of_range_rejected(self):
        b = BackingStore(64)
        with pytest.raises(MemoryFault):
            b.load_f64(64)

    def test_view_is_mutable(self):
        b = BackingStore(1024)
        view = b.f64_view(0, 4)
        view[:] = [1, 2, 3, 4]
        assert b.load_f64(16) == 3.0

    def test_block_roundtrip(self):
        b = BackingStore(256)
        b.write_block(10, b"abcdef")
        assert b.read_block(10, 6) == b"abcdef"


# ---------------------------------------------------------------------------
# The stores' host mapping (backing.zeroed_pages)
# ---------------------------------------------------------------------------
PAGEMAP = pathlib.Path("/proc/self/pagemap")
THP = pathlib.Path("/sys/kernel/mm/transparent_hugepage/enabled")


def resident_kib(array) -> int:
    """Host memory held by *array*'s own pages, from ``/proc/self/pagemap``.

    ``smaps`` reports a whole VMA, and the kernel merges adjacent
    anonymous mappings, so its ``Rss`` would count the neighbours too.
    """
    page = os.sysconf("SC_PAGE_SIZE")
    address = array.__array_interface__["data"][0]
    first, last = address // page, (address + array.nbytes - 1) // page
    with PAGEMAP.open("rb") as pagemap:
        pagemap.seek(8 * first)
        entries = pagemap.read(8 * (last - first + 1))
    present = sum(entries[i + 7] >> 7 for i in range(0, len(entries), 8))
    return present * page // 1024


class TestStoreMapping:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_writes_stay_in_the_child(self):
        ms = MemorySubsystem(CFG)
        ms.backing.store_f64(0x100, 1.5)
        ms.offchip.poke(1024, b"\x11" * 8)
        pid = os.fork()
        if pid == 0:
            ok = False
            try:
                ms.backing.store_f64(0x100, 7.0)
                ms.offchip.poke(1024, b"\x22" * 8)
                ok = (ms.backing.load_f64(0x100) == 7.0
                      and ms.offchip.peek(1024, 8) == b"\x22" * 8)
            finally:
                os._exit(0 if ok else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert ms.backing.load_f64(0x100) == 1.5
        assert ms.offchip.peek(1024, 8) == b"\x11" * 8

    @pytest.mark.skipif(not PAGEMAP.exists(),
                        reason="needs /proc/self/pagemap")
    @pytest.mark.skipif(THP.exists() and "[always]" in THP.read_text(),
                        reason="transparent huge pages fault 2 MiB at once")
    def test_a_fresh_chip_holds_only_the_pages_it_writes(self):
        used = Chip()
        used.memory.backing.f64_view(0, 1 << 19)[:] = 1.0  # 4 MiB
        del used
        gc.collect()
        chip = Chip()
        backing = chip.memory.backing
        before = resident_kib(backing._bytes)
        assert before < 64
        for i in range(1024):
            backing.store_f64(8 * i, float(i))
        assert resident_kib(backing._bytes) - before <= 12


# ---------------------------------------------------------------------------
# Banks
# ---------------------------------------------------------------------------
class TestMemoryBank:
    def test_burst_timing_matches_paper(self):
        bank = MemoryBank(0, CFG)
        assert bank.burst(0) == 12  # 64 bytes every 12 cycles
        assert bank.burst(0) == 24  # second burst queues

    def test_block_cheaper_than_burst_but_less_efficient(self):
        bank = MemoryBank(0, CFG)
        done = bank.read_block(0)
        assert done == CFG.block_cycles
        # bytes/cycle: burst 64/12 > block 32/8
        assert 64 / 12 > 32 / 8

    def test_traffic_counters(self):
        bank = MemoryBank(0, CFG)
        bank.burst(0)
        bank.burst(12, write=True)
        assert bank.bytes_read == 64
        assert bank.bytes_written == 64
        assert bank.bytes_total == 128

    def test_failed_bank_rejects_access(self):
        bank = MemoryBank(0, CFG)
        bank.fail()
        with pytest.raises(MemoryFault):
            bank.burst(0)

    def test_peak_bandwidth_41_7_gb_s(self):
        """16 banks x 64B/12cyc at 500 MHz is the paper's 42 GB/s peak."""
        per_bank_bytes_per_cycle = CFG.burst_bytes / CFG.burst_cycles
        total = per_bank_bytes_per_cycle * CFG.n_memory_banks * CFG.clock_hz
        assert total == pytest.approx(42.7e9, rel=0.01)


# ---------------------------------------------------------------------------
# Switch
# ---------------------------------------------------------------------------
class TestCrossbarSwitch:
    def test_port_moves_8_bytes_per_cycle(self):
        switch = build_cache_switch(CFG)
        assert switch.transfer(0, 0, 8) == 0
        assert switch.transfer(0, 0, 8) == 1  # port busy one cycle each

    def test_wide_transfer_occupies_longer(self):
        switch = CrossbarSwitch("s", 2, 8)
        switch.transfer(0, 0, 64)  # 8 cycles
        assert switch.transfer(0, 0, 8) == 8

    def test_ports_are_independent(self):
        switch = CrossbarSwitch("s", 2, 8)
        switch.transfer(0, 0, 8)
        assert switch.transfer(1, 0, 8) == 0


# ---------------------------------------------------------------------------
# Composed subsystem: Table 2 latencies
# ---------------------------------------------------------------------------
def fresh() -> MemorySubsystem:
    return MemorySubsystem(CFG)


class TestAccessLatencies:
    """Unloaded latencies must be exactly Table 2."""

    def test_local_miss_then_hit(self):
        ms = fresh()
        ig = InterestGroup(Level.ONE, 5).encode()
        ea = make_effective(0x2000, ig)
        issue_end, complete, kind, _ = ms.access(0, 5, ea, 8, is_store=False)
        assert kind is AccessKind.LOCAL_MISS
        assert complete - issue_end == 24
        issue_end, complete, kind, _ = ms.access(100, 5, ea, 8,
                                                 is_store=False)
        assert kind is AccessKind.LOCAL_HIT
        assert complete - issue_end == 6

    def test_remote_miss_then_hit(self):
        ms = fresh()
        ig = InterestGroup(Level.ONE, 9).encode()
        ea = make_effective(0x3000, ig)
        issue_end, complete, kind, _ = ms.access(0, 5, ea, 8, is_store=False)
        assert kind is AccessKind.REMOTE_MISS
        assert complete - issue_end == 36
        issue_end, complete, kind, _ = ms.access(100, 5, ea, 8,
                                                 is_store=False)
        assert kind is AccessKind.REMOTE_HIT
        assert complete - issue_end == 17

    def test_issue_occupies_one_cycle(self):
        ms = fresh()
        issue_end, _, _, _ = ms.access(0, 0, make_effective(0, IG_ALL), 8,
                                       is_store=False)
        assert issue_end == 1

    def test_access_ratio_local_remote_is_3x(self):
        """Paper: local cache access is ~3x faster (6 vs 17 cycles)."""
        assert CFG.latency.mem_remote_hit[1] / CFG.latency.mem_local_hit[1] \
            == pytest.approx(17 / 6)


class TestInterestGroupPlacement:
    def test_own_group_goes_local(self):
        ms = fresh()
        ea = make_effective(0x4000, IG_OWN)
        _, _, kind, cache_id = ms.access(0, 7, ea, 8, is_store=False)
        assert cache_id == 7
        assert kind is AccessKind.LOCAL_MISS

    def test_own_group_replicates_across_quads(self):
        ms = fresh()
        ea = make_effective(0x4000, IG_OWN)
        ms.access(0, 7, ea, 8, is_store=False)
        _, _, kind, cache_id = ms.access(50, 9, ea, 8, is_store=False)
        assert cache_id == 9
        assert kind is AccessKind.LOCAL_MISS  # its own copy, own miss
        assert ms.caches[7].line(0x4000) is not None
        assert ms.caches[9].line(0x4000) is not None

    def test_all_group_single_home(self):
        ms = fresh()
        ea = make_effective(0x5000, IG_ALL)
        _, _, _, first_cache = ms.access(0, 0, ea, 8, is_store=False)
        _, _, kind, second_cache = ms.access(50, 31, ea, 8, is_store=False)
        assert first_cache == second_cache
        assert kind in (AccessKind.LOCAL_HIT, AccessKind.REMOTE_HIT)

    def test_pinned_group(self):
        ms = fresh()
        ig = InterestGroup(Level.ONE, 12).encode()
        _, _, _, cache_id = ms.access(0, 3, make_effective(0x6000, ig), 8,
                                      is_store=False)
        assert cache_id == 12


class TestStoreMissPolicy:
    def test_write_validate_touches_no_bank(self):
        ms = fresh()
        ea = make_effective(0x7000, IG_ALL)
        ms.access(0, 0, ea, 8, is_store=True)
        assert ms.memory_traffic_bytes == 0

    def test_dirty_writeback_counts_traffic(self):
        ms = fresh()
        cache_id = ms.target_cache(IG_ALL, 0x7000, 0)
        cache = ms.caches[cache_id]
        ms.access(0, 0, make_effective(0x7000, IG_ALL), 8, is_store=True)
        # Force eviction of that dirty line by flushing.
        dirty = cache.flush()
        assert [addr for addr, _ in dirty] == [0x7000 & ~63]

    def test_fetch_on_store_miss_config(self):
        ms = MemorySubsystem(CFG.with_store_miss_fetch(True))
        ea = make_effective(0x7000, IG_ALL)
        issue_end, complete, _, _ = ms.access(0, 0, ea, 8, is_store=True)
        assert ms.memory_traffic_bytes == 64
        assert complete > issue_end


class TestBankQueueing:
    def test_contention_adds_queue_delay(self):
        ms = fresh()
        # Two misses to lines in the same bank back to back.
        ig = InterestGroup(Level.ONE, 0).encode()
        interleave_span = CFG.interleave_bytes * CFG.n_memory_banks
        issue_end, complete, _, _ = ms.access(0, 0, make_effective(0, ig),
                                              8, False)
        assert complete - issue_end == 24
        issue_end, complete, _, _ = ms.access(
            0, 0, make_effective(interleave_span, ig), 8, False
        )
        # The second fill waits for the first burst (12 cycles each).
        assert complete - issue_end > 24

    def test_different_banks_do_not_queue(self):
        ms = fresh()
        ig = InterestGroup(Level.ONE, 0).encode()
        ms.access(0, 0, make_effective(0, ig), 8, False)
        issue_end, complete, _, _ = ms.access(
            0, 0, make_effective(CFG.interleave_bytes, ig), 8, False)
        assert complete - issue_end == 24


class TestInflightFills:
    def test_hit_on_inflight_line_waits_for_fill(self):
        ms = fresh()
        ig = InterestGroup(Level.ONE, 0).encode()
        ea = make_effective(0x8000, ig)
        _, miss_complete, _, _ = ms.access(0, 0, ea, 8, False)
        _, hit_complete, kind, _ = ms.access(2, 0, ea, 8, False)
        assert kind is AccessKind.LOCAL_HIT
        assert hit_complete >= miss_complete

    def test_hit_after_fill_is_normal(self):
        ms = fresh()
        ig = InterestGroup(Level.ONE, 0).encode()
        ea = make_effective(0x8000, ig)
        _, miss_complete, _, _ = ms.access(0, 0, ea, 8, False)
        issue_end, complete, _, _ = ms.access(miss_complete + 10, 0, ea, 8,
                                              False)
        assert complete - issue_end == 6


class TestPendingFills:
    """A fill's completion time lives on its line: it goes with the line
    and is never inherited by a line allocated in its place."""

    IG = InterestGroup(Level.ONE, 0).encode()

    def test_evicted_fill_time_not_inherited(self):
        ms = fresh()
        cache = ms.caches[0]
        line = 0x8000
        _, miss_complete, _, _ = ms.access(0, 0, make_effective(line, self.IG),
                                           8, False)
        # Fill the line's set with other lines until it is evicted,
        # all while its fill is still in flight.
        stride = cache.n_sets * CFG.dcache_line_bytes
        for way in range(1, cache.total_ways + 1):
            ms.access(way, 0, make_effective(line + way * stride, self.IG),
                      8, False)
        assert cache.line(line) is None
        # A write-validate store re-allocates the line without a fetch;
        # a hit right behind it must not wait for the evicted fill.
        t = cache.total_ways + 1
        _, _, kind, _ = ms.access(t, 0, make_effective(line, self.IG), 8,
                                  True)
        assert kind is AccessKind.LOCAL_MISS
        issue_end, complete, kind, _ = ms.access(
            t + 1, 0, make_effective(line, self.IG), 8, False)
        assert kind is AccessKind.LOCAL_HIT
        assert issue_end < miss_complete
        assert complete - issue_end == 6

    def test_invalidate_then_reload_refetches(self):
        ms = fresh()
        ea = make_effective(0x8000, self.IG)
        _, miss_complete, _, _ = ms.access(0, 0, ea, 8, False)
        _, hit_complete, kind, _ = ms.access(miss_complete, 0, ea, 8, False)
        assert kind is AccessKind.LOCAL_HIT
        ms.invalidate_line(hit_complete, 0, ea)
        read_before = ms.memory_traffic_bytes
        issue_end, complete, kind, _ = ms.access(hit_complete + 10, 0, ea, 8,
                                                 False)
        assert kind is AccessKind.LOCAL_MISS
        assert ms.memory_traffic_bytes == read_before + CFG.burst_bytes
        assert complete - issue_end == 24


class TestSwitchTransfers:
    def test_transfers_count_every_port_request(self):
        ms = fresh()
        switch = ms.cache_switch
        ms.access(0, 0, make_effective(0x100, IG_ALL), 8, False)
        ms.access(1, 0, make_effective(0x100, IG_ALL), 4, True)
        ms.access(2, 3, make_effective(0x4000, IG_OWN), 8, False)
        switch.transfer(5, 3, 64)  # multi-beat: 8 cycles on one port
        ms.scratchpad_access(4, 0, 2, 16)  # two beats
        assert switch.transfers == 5
        assert switch.transfers == sum(p.n_requests for p in switch.ports)


class TestAtomics:
    def test_rmw_semantics(self):
        ms = fresh()
        ea = make_effective(0x100, IG_ALL)
        ms.backing.store_u32(0x100, 10)
        out, old = ms.atomic_rmw_u32(0, 0, ea, "add", 5)
        assert old == 10
        assert ms.backing.load_u32(0x100) == 15

    def test_swap(self):
        ms = fresh()
        ea = make_effective(0x100, IG_ALL)
        _, old = ms.atomic_rmw_u32(0, 0, ea, "swap", 1)
        assert old == 0
        assert ms.backing.load_u32(0x100) == 1

    def test_and_or(self):
        ms = fresh()
        ea = make_effective(0x100, IG_ALL)
        ms.backing.store_u32(0x100, 0b1100)
        ms.atomic_rmw_u32(0, 0, ea, "and", 0b1010)
        assert ms.backing.load_u32(0x100) == 0b1000
        ms.atomic_rmw_u32(0, 0, ea, "or", 0b0001)
        assert ms.backing.load_u32(0x100) == 0b1001

    def test_unknown_op_rejected(self):
        ms = fresh()
        with pytest.raises(AddressError):
            ms.atomic_rmw_u32(0, 0, make_effective(0x100, IG_ALL), "xor", 1)


class TestScratchpadPath:
    def test_local_scratchpad_cost(self):
        ms = fresh()
        ms.caches[3].set_scratchpad_ways(2)
        issue_end, complete, kind, _ = ms.scratchpad_access(0, 3, 3, 8)
        assert kind is AccessKind.SCRATCHPAD
        assert complete - issue_end == 6

    def test_remote_scratchpad_cost(self):
        ms = fresh()
        ms.caches[3].set_scratchpad_ways(2)
        issue_end, complete, _, _ = ms.scratchpad_access(0, 0, 3, 8)
        assert complete - issue_end == 17


class TestOffChip:
    def test_dma_roundtrip(self):
        ms = fresh()
        ms.offchip.poke(0, b"\x11" * 1024)
        done = ms.offchip.read_in(0, 0, 0x1000, 1, ms.backing, ms.banks,
                                  ms.address_map)
        assert done == CFG.offchip_block_cycles
        assert ms.backing.read_block(0x1000, 4) == b"\x11" * 4

    def test_dma_write_out(self):
        ms = fresh()
        ms.backing.write_block(0x2000, b"\x22" * 1024)
        ms.offchip.write_out(0, 0x2000, 4096, 1, ms.backing, ms.banks,
                             ms.address_map)
        assert ms.offchip.peek(4096, 4) == b"\x22" * 4

    def test_dma_occupies_banks(self):
        ms = fresh()
        before = ms.memory_traffic_bytes
        ms.offchip.read_in(0, 0, 0, 1, ms.backing, ms.banks, ms.address_map)
        assert ms.memory_traffic_bytes - before == 1024

    def test_unaligned_offset_rejected(self):
        ms = fresh()
        with pytest.raises(AddressError):
            ms.offchip.read_in(0, 100, 0, 1, ms.backing, ms.banks,
                               ms.address_map)

    def test_out_of_range_rejected(self):
        ms = fresh()
        with pytest.raises(MemoryFault):
            ms.offchip.peek(CFG.offchip_bytes, 1)


class TestReset:
    def test_cold_caches_drops_tags(self):
        ms = fresh()
        ea = make_effective(0x9000, IG_ALL)
        ms.access(0, 0, ea, 8, False)
        ms.cold_caches()
        _, _, kind, _ = ms.access(0, 0, ea, 8, False)
        assert kind in (AccessKind.LOCAL_MISS, AccessKind.REMOTE_MISS)
