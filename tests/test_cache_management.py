"""Timed cache-management ops and the software-coherence protocol they
enable — including message-passing litmus tests."""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, IG_OWN
from repro.runtime.kernel import AllocationPolicy, Kernel


class TestTimedFlush:
    def test_flush_writes_back_dirty_line(self):
        chip = Chip(strict_incoherence=True)
        ea = make_effective(0x1000, IG_OWN)
        chip.memory.store_f64(0, 0, ea, 4.5)
        assert chip.memory.backing.load_f64(0x1000) != 4.5  # still cached
        _, complete, _, _ = chip.memory.flush_line(100, 0, ea)
        assert chip.memory.backing.load_f64(0x1000) == 4.5
        # A dirty flush pays the bank burst.
        assert complete >= 100 + ChipConfig.paper().burst_cycles

    def test_flush_clean_line_is_cheap(self):
        chip = Chip()
        ea = make_effective(0x2000, IG_OWN)
        chip.memory.load_f64(0, 0, ea)
        issue_end, complete, _, _ = chip.memory.flush_line(100, 0, ea)
        assert complete - issue_end == 6  # local-hit latency only

    def test_invalidate_discards_dirty_data(self):
        chip = Chip(strict_incoherence=True)
        ea = make_effective(0x3000, IG_OWN)
        chip.memory.backing.store_f64(0x3000, 1.0)
        chip.memory.load_f64(0, 0, ea)
        chip.memory.store_f64(10, 0, ea, 9.9)
        chip.memory.invalidate_line(50, 0, ea)
        # The dirty 9.9 is gone; memory still has 1.0.
        _, value = chip.memory.load_f64(100, 0, ea)
        assert value == 1.0

    def test_next_access_misses_after_invalidate(self):
        chip = Chip()
        ea = make_effective(0x4000, IG_ALL)
        chip.memory.load_f64(0, 0, ea)
        chip.memory.invalidate_line(50, 0, ea)
        (_, _, kind, _), _ = chip.memory.load_f64(100, 0, ea)
        assert kind.value.endswith("miss")


class TestSoftwareCoherenceProtocol:
    def test_own_group_producer_consumer(self):
        """The full OWN-group discipline, all timed: the producer writes
        its replica, flushes; the consumer invalidates, re-reads, and
        sees the new value — in strict-incoherence mode."""
        chip = Chip(ChipConfig.paper(), strict_incoherence=True)
        kernel = Kernel(chip, AllocationPolicy.BALANCED)
        data = kernel.heap.alloc(64)
        flag = kernel.heap.alloc(64)
        data_ea = make_effective(data, IG_OWN)
        flag_ea = make_effective(flag, IG_ALL)

        def producer(ctx):
            # Warm a private replica, then update it.
            yield from ctx.load_f64(data_ea)
            yield from ctx.store_f64(data_ea, 42.0)
            done = yield from ctx.flush_line(data_ea)
            yield from ctx.store_u32(flag_ea, 1, deps=(done,))

        def consumer(ctx):
            # Pull a stale replica first (the hazard).
            yield from ctx.load_f64(data_ea)
            yield from ctx.spin_until(flag_ea, lambda v: v == 1)
            yield from ctx.invalidate_line(data_ea)
            t, value = yield from ctx.load_f64(data_ea)
            return value

        kernel.spawn(producer)   # quad 0
        consumer_thread = kernel.spawn(consumer)  # quad 1
        kernel.run()
        assert consumer_thread.result == 42.0

    def test_without_protocol_consumer_sees_stale(self):
        """Drop the flush/invalidate and the consumer reads its stale
        replica — the exact failure the paper assigns to software."""
        chip = Chip(ChipConfig.paper(), strict_incoherence=True)
        kernel = Kernel(chip, AllocationPolicy.BALANCED)
        data = kernel.heap.alloc(64)
        flag = kernel.heap.alloc(64)
        data_ea = make_effective(data, IG_OWN)
        flag_ea = make_effective(flag, IG_ALL)

        def producer(ctx):
            yield from ctx.load_f64(data_ea)
            yield from ctx.store_f64(data_ea, 42.0)
            yield from ctx.store_u32(flag_ea, 1)

        def consumer(ctx):
            yield from ctx.load_f64(data_ea)  # stale replica cached
            yield from ctx.spin_until(flag_ea, lambda v: v == 1)
            t, value = yield from ctx.load_f64(data_ea)
            return value

        kernel.spawn(producer)
        consumer_thread = kernel.spawn(consumer)
        kernel.run()
        assert consumer_thread.result != 42.0


class TestMessagePassingLitmus:
    def test_coherent_groups_never_reorder(self):
        """Message-passing litmus under IG_ALL: flag set implies data
        visible, across many interleavings (shared-state operations
        execute in global time order)."""
        for stagger in range(0, 60, 7):
            chip = Chip()
            kernel = Kernel(chip, AllocationPolicy.BALANCED)
            data = kernel.heap.alloc(64)
            flag = kernel.heap.alloc(64)

            def producer(ctx, delay=stagger):
                ctx.charge_ops(delay)
                done = yield from ctx.store_f64(ctx.ea(data), 7.0)
                yield from ctx.store_u32(ctx.ea(flag), 1, deps=(done,))

            def consumer(ctx):
                yield from ctx.spin_until(ctx.ea(flag), lambda v: v == 1)
                t, value = yield from ctx.load_f64(ctx.ea(data))
                return value

            kernel.spawn(producer)
            consumer_thread = kernel.spawn(consumer)
            kernel.run()
            assert consumer_thread.result == 7.0, f"stagger={stagger}"
