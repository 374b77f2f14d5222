"""Tests for the chip core: FPU sharing, SPR barrier, thread units,
quads, instruction caches, fault tolerance."""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.core.counters import ChipCounters, ThreadCounters
from repro.core.faults import FaultController
from repro.core.fpu import FPU
from repro.core.icache import InstructionCache, PrefetchBuffer
from repro.core.spr import BarrierSPRFile
from repro.core.thread_unit import ThreadUnit
from repro.errors import BarrierError, ConfigError, MemoryFault
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, single_cache_group

CFG = ChipConfig.paper()


class TestFPU:
    def test_add_latency_matches_table_2(self):
        fpu = FPU(0, CFG)
        issue_end, ready = fpu.add(0)
        assert issue_end == 1
        assert ready == 6  # 1 execution + 5 latency

    def test_adder_pipelines_one_per_cycle(self):
        fpu = FPU(0, CFG)
        ends = [fpu.add(0)[0] for _ in range(3)]
        assert ends == [1, 2, 3]

    def test_adder_and_multiplier_independent(self):
        """Paper: an add and a multiply can dispatch every cycle."""
        fpu = FPU(0, CFG)
        assert fpu.add(0)[0] == 1
        assert fpu.multiply(0)[0] == 1

    def test_fma_occupies_both_pipes(self):
        fpu = FPU(0, CFG)
        fpu.fma(0)
        assert fpu.add(0)[0] == 2
        assert fpu.multiply(0)[0] == 2

    def test_fma_sustains_one_per_cycle(self):
        """Paper: the FPU completes an FMA every cycle (1 GFlops/FPU)."""
        fpu = FPU(0, CFG)
        readies = [fpu.fma(0)[1] for _ in range(10)]
        assert [r - readies[0] for r in readies] == list(range(10))

    def test_fma_latency(self):
        fpu = FPU(0, CFG)
        issue_end, ready = fpu.fma(0)
        assert ready - issue_end == 9

    def test_divide_non_pipelined(self):
        fpu = FPU(0, CFG)
        assert fpu.divide(0) == (30, 30)
        assert fpu.divide(0) == (60, 60)  # second waits for the unit

    def test_sqrt_56_cycles(self):
        fpu = FPU(0, CFG)
        assert fpu.sqrt(0) == (56, 56)

    def test_divide_does_not_block_adder(self):
        fpu = FPU(0, CFG)
        fpu.divide(0)
        assert fpu.add(0)[0] == 1

    def test_reset(self):
        fpu = FPU(0, CFG)
        fpu.add(0)
        fpu.reset()
        assert fpu.operations == 0
        assert fpu.add(0)[0] == 1


class TestBarrierSPR:
    def test_protocol_cycle(self):
        """The exact current/next-bit protocol of Section 2.3."""
        spr = BarrierSPRFile(CFG)
        participants = [0, 1, 2]
        for tid in participants:
            spr.participate(tid, 0)
        assert not spr.current_clear(0)
        spr.arrive(0, 0)
        spr.arrive(1, 0)
        assert not spr.current_clear(0)  # thread 2 still computing
        spr.arrive(2, 0)
        assert spr.current_clear(0)
        # Arrivals pre-set the next cycle: after the phase flip everyone
        # is already participating again.
        spr.advance_phase(0)
        assert not spr.current_clear(0)

    def test_roles_interchange_every_use(self):
        spr = BarrierSPRFile(CFG)
        spr.participate(0, 0)
        for _ in range(4):
            spr.arrive(0, 0)
            assert spr.current_clear(0)
            spr.advance_phase(0)

    def test_four_independent_barriers(self):
        spr = BarrierSPRFile(CFG)
        for b in range(4):
            spr.participate(0, b)
        spr.arrive(0, 1)
        assert spr.current_clear(1)
        assert not spr.current_clear(0)
        assert not spr.current_clear(2)

    def test_non_participants_do_not_block(self):
        spr = BarrierSPRFile(CFG)
        spr.participate(0, 0)
        # Threads 1..127 leave both bits 0 and never matter.
        spr.arrive(0, 0)
        assert spr.current_clear(0)

    def test_wired_or_reads(self):
        spr = BarrierSPRFile(CFG)
        spr.write(3, 0b0101)
        spr.write(90, 0b0010)
        assert spr.read_or() == 0b0111
        assert spr.read_own(3) == 0b0101

    def test_withdraw(self):
        spr = BarrierSPRFile(CFG)
        spr.participate(0, 0)
        spr.withdraw(0, 0)
        assert spr.current_clear(0)

    def test_bad_barrier_id(self):
        spr = BarrierSPRFile(CFG)
        with pytest.raises(BarrierError):
            spr.participate(0, 4)

    def test_bad_tid(self):
        spr = BarrierSPRFile(CFG)
        with pytest.raises(BarrierError):
            spr.write(128, 0)

    def test_value_width_checked(self):
        spr = BarrierSPRFile(CFG)
        with pytest.raises(BarrierError):
            spr.write(0, 256)


class TestThreadUnit:
    def test_quad_and_lane(self):
        tu = ThreadUnit(13, CFG)
        assert tu.quad_id == 3
        assert tu.lane == 1

    def test_stall_accounting(self):
        tu = ThreadUnit(0, CFG)
        tu.issue_at(10)
        assert tu.counters.stall_cycles == 10
        tu.retire(1)
        assert tu.issue_time == 11
        assert tu.counters.run_cycles == 1

    def test_no_stall_when_ready(self):
        tu = ThreadUnit(0, CFG)
        tu.issue_at(0)
        assert tu.counters.stall_cycles == 0

    def test_execute_local_returns_ready_time(self):
        tu = ThreadUnit(0, CFG)
        ready = tu.execute_local(5, (1, 5))  # int multiply shape
        assert ready == 11
        assert tu.issue_time == 6

    def test_int_divide_occupies_thread(self):
        tu = ThreadUnit(0, CFG)
        tu.execute_local(0, CFG.latency.int_divide)
        assert tu.issue_time == 33
        assert tu.counters.run_cycles == 33

    def test_reset(self):
        tu = ThreadUnit(0, CFG)
        tu.execute_local(0, (1, 0))
        tu.reset()
        assert tu.issue_time == 0
        assert tu.counters.instructions == 0


class TestCounters:
    def test_merge(self):
        a = ThreadCounters(instructions=5, run_cycles=10, stall_cycles=3)
        b = ThreadCounters(instructions=2, run_cycles=4, stall_cycles=1)
        a.merge(b)
        assert a.instructions == 7
        assert a.run_cycles == 14
        assert a.stall_cycles == 4

    def test_total_and_idle(self):
        c = ThreadCounters(run_cycles=5, stall_cycles=3,
                           start_time=10, finish_time=30)
        assert c.total_cycles == 20
        assert c.idle_cycles == 12

    def test_chip_aggregate(self):
        chip_counters = ChipCounters()
        chip_counters.thread(0).run_cycles = 5
        chip_counters.thread(1).run_cycles = 7
        assert chip_counters.total_run_cycles == 12
        assert chip_counters.aggregate().run_cycles == 12


class TestChipAssembly:
    def test_paper_chip_shape(self):
        chip = Chip()
        assert len(chip.threads) == 128
        assert len(chip.quads) == 32
        assert len(chip.fpus) == 32
        assert len(chip.icaches) == 16
        assert len(chip.memory.caches) == 32
        assert len(chip.memory.banks) == 16

    def test_quad_thread_binding(self):
        chip = Chip()
        quad = chip.quad_of(13)
        assert quad.quad_id == 3
        assert 13 in quad.thread_ids
        assert chip.fpu_of(13) is quad.fpu

    def test_icache_shared_by_quad_pair(self):
        chip = Chip()
        assert chip.icache_of(0) is chip.icache_of(7)      # quads 0,1
        assert chip.icache_of(0) is not chip.icache_of(8)  # quad 2

    def test_small_chip(self):
        chip = Chip(ChipConfig.small())
        assert len(chip.quads) == 4

    def test_reset_run_clears_state(self):
        chip = Chip()
        chip.threads[0].execute_local(0, (1, 0))
        chip.fpus[0].add(0)
        chip.reset_run()
        assert chip.threads[0].issue_time == 0
        assert chip.fpus[0].operations == 0

    def test_cold_start_empties_caches(self):
        chip = Chip()
        ea = make_effective(0, IG_ALL)
        chip.memory.access(0, 0, ea, 8, False)
        chip.cold_start()
        assert all(c.resident_lines == 0 for c in chip.memory.caches)

    def test_quad_mismatch_rejected(self):
        from repro.core.quad import Quad
        chip = Chip()
        with pytest.raises(ConfigError):
            Quad(0, CFG, chip.threads[4:8], chip.fpus[0])


class TestPrefetchBuffer:
    def test_window_tracking(self):
        pib = PrefetchBuffer(CFG)
        assert not pib.holds(0)
        pib.refill(0x104)
        assert pib.holds(0x100)
        assert pib.holds(0x13C)
        assert not pib.holds(0x140)

    def test_window_is_16_instructions(self):
        pib = PrefetchBuffer(CFG)
        assert pib.window_bytes == 64

    def test_clear(self):
        pib = PrefetchBuffer(CFG)
        pib.refill(0)
        pib.clear()
        assert not pib.holds(0)


class TestInstructionCache:
    def make(self):
        from repro.memory.address import AddressMap
        from repro.memory.bank import MemoryBank
        banks = [MemoryBank(i, CFG) for i in range(CFG.n_memory_banks)]
        return InstructionCache(0, CFG), banks, AddressMap(CFG)

    def test_geometry(self):
        icache, _, _ = self.make()
        assert icache.n_sets == 64  # 32 KB / (64 B x 8 ways)

    def test_miss_then_hit(self):
        icache, banks, amap = self.make()
        ready, hit = icache.fetch(0, 0x400, banks, amap)
        assert not hit
        assert ready >= 12
        ready, hit = icache.fetch(ready, 0x404, banks, amap)
        assert hit
        assert icache.hit_rate() == 0.5

    def test_miss_consumes_bank_bandwidth(self):
        icache, banks, amap = self.make()
        icache.fetch(0, 0x400, banks, amap)
        assert sum(b.bytes_read for b in banks) == 64

    def test_invalidate(self):
        icache, banks, amap = self.make()
        icache.fetch(0, 0, banks, amap)
        icache.invalidate()
        _, hit = icache.fetch(100, 0, banks, amap)
        assert not hit


class TestFaultTolerance:
    def test_bank_failure_shrinks_memory(self):
        chip = Chip()
        faults = FaultController(chip)
        new_max = faults.fail_bank(3)
        assert new_max == 15 * 512 * 1024
        assert chip.memory.address_map.max_memory == new_max

    def test_chip_still_works_after_bank_failure(self):
        chip = Chip()
        FaultController(chip).fail_bank(0)
        ea = make_effective(0x1000, IG_ALL)
        out, _ = chip.memory.load_f64(0, 0, ea)
        assert out.complete > 0

    def test_thread_failure_excluded_from_enabled(self):
        chip = Chip()
        faults = FaultController(chip)
        faults.fail_thread(5)
        assert 5 not in chip.enabled_threads
        assert len(chip.enabled_threads) == 127

    def test_fpu_failure_disables_quad(self):
        chip = Chip()
        faults = FaultController(chip)
        faults.fail_fpu(2)
        assert chip.quads[2].disabled
        for tid in chip.quads[2].thread_ids:
            assert tid not in chip.enabled_threads
        assert len(chip.enabled_threads) == 124

    def test_disabled_cache_remapped_deterministically(self):
        chip = Chip()
        faults = FaultController(chip)
        faults.fail_fpu(2)
        # Addresses that would map to cache 2 must go elsewhere, stably.
        for phys in range(0, 64 * 256, 64):
            target = chip.memory.target_cache(IG_ALL, phys, 0)
            assert target != 2
            assert target == chip.memory.target_cache(IG_ALL, phys, 0)

    def test_single_cache_group_follows_the_remap(self):
        # A ONE group pinned to quad 3 resolves by its byte alone; once
        # quad 3 fails, every placement path must move to one healthy
        # cache, including for the line resolved before the fault.
        chip = Chip()
        memory = chip.memory
        ig = single_cache_group(3).encode()
        before = make_effective(0x4000, ig)
        assert memory.access(0, 0, before, 8, False).cache_id == 3
        assert memory.target_cache(ig, 0x4000, 0) == 3
        FaultController(chip).fail_fpu(3)
        home = memory.target_cache(ig, 0x4000, 0)
        assert home != 3 and not chip.quads[home].disabled
        for physical in (0x4000, 0x8040):
            ea = make_effective(physical, ig)
            for quad in (0, 5):
                assert memory.target_cache(ig, physical, quad) == home
            assert memory.access(100, 5, ea, 8, False).cache_id == home
            assert memory.flush_line(200, 5, ea).cache_id == home
            assert memory.caches[home].line(physical) is None
            memory.warm_access(5, ea, False)
            assert memory.caches[home].line(physical) is not None

    def test_accesses_still_resolve_after_quad_failure(self):
        chip = Chip()
        FaultController(chip).fail_fpu(0)
        ea = make_effective(0x2000, IG_ALL)
        out, _ = chip.memory.load_f64(0, 1, ea)
        assert out.cache_id != 0

    def test_summary(self):
        chip = Chip()
        faults = FaultController(chip)
        faults.fail_bank(1)
        faults.fail_thread(7)
        faults.fail_fpu(9)
        report = faults.summary()
        assert report["failed_banks"] == [1]
        assert report["healthy_threads"] == 123

    def test_all_caches_disabled_rejected(self):
        chip = Chip(ChipConfig.small(n_threads=8))  # two quads
        faults = FaultController(chip)
        faults.fail_fpu(0)
        with pytest.raises(MemoryFault):
            faults.fail_fpu(1)
