"""Tests for the kernel runtime: heap, thread allocation policies,
spawn/join, direct-execution contexts, barriers, locks."""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import AllocationError, BarrierError, KernelError, WorkloadError
from repro.memory.interest_groups import IG_ALL, IG_OWN
from repro.runtime.heap import BumpHeap
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.runtime.locks import SpinLock


def make_kernel(policy=AllocationPolicy.SEQUENTIAL, config=None):
    return Kernel(Chip(config or ChipConfig.paper()), policy)


class TestBumpHeap:
    def test_alloc_advances(self):
        heap = BumpHeap(0, 1024)
        a = heap.alloc(100)
        b = heap.alloc(100)
        assert b >= a + 100

    def test_default_cache_line_alignment(self):
        heap = BumpHeap(0, 4096, default_align=64)
        heap.alloc(10)
        assert heap.alloc(10) % 64 == 0

    def test_explicit_alignment(self):
        heap = BumpHeap(0, 4096)
        assert heap.alloc(10, align=256) % 256 == 0

    def test_exhaustion(self):
        heap = BumpHeap(0, 128)
        heap.alloc(100, align=1)
        with pytest.raises(AllocationError):
            heap.alloc(100, align=1)

    def test_bad_alignment(self):
        with pytest.raises(AllocationError):
            BumpHeap(0, 128).alloc(8, align=3)

    def test_negative_size(self):
        with pytest.raises(AllocationError):
            BumpHeap(0, 128).alloc(-1)

    def test_reset_recycles(self):
        heap = BumpHeap(0, 128)
        first = heap.alloc(64, align=1)
        heap.reset()
        assert heap.alloc(64, align=1) == first

    def test_f64_array(self):
        heap = BumpHeap(0, 1024)
        base = heap.alloc_f64_array(16)
        assert base % 64 == 0
        assert heap.used >= 128


class TestAllocationPolicies:
    def test_sequential_fills_quads_in_order(self):
        """Paper: threads 0-3 in quad 0, 4-7 in quad 1, ..."""
        kernel = make_kernel(AllocationPolicy.SEQUENTIAL)
        tids = [kernel.hw_tid_for_slot(i) for i in range(8)]
        assert tids == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_balanced_strides_across_quads(self):
        """Paper: threads 0,32,64,96 in quad 0; 1,33,65,97 in quad 1..."""
        kernel = make_kernel(AllocationPolicy.BALANCED)
        tids = [kernel.hw_tid_for_slot(i) for i in range(33)]
        assert tids[:32] == [4 * q for q in range(32)]
        assert tids[32] == 1  # second lane starts

    def test_126_usable_threads(self):
        assert make_kernel().max_software_threads == 126

    def test_reserved_threads_never_allocated(self):
        kernel = make_kernel()
        all_tids = {kernel.hw_tid_for_slot(i) for i in range(126)}
        assert 126 not in all_tids
        assert 127 not in all_tids

    def test_balanced_partial_occupancy_spreads_quads(self):
        """With 32 threads balanced, every quad has exactly one."""
        kernel = make_kernel(AllocationPolicy.BALANCED)
        quads = [kernel.hw_tid_for_slot(i) // 4 for i in range(32)]
        assert sorted(quads) == list(range(32))

    def test_sequential_partial_occupancy_packs_quads(self):
        kernel = make_kernel(AllocationPolicy.SEQUENTIAL)
        quads = [kernel.hw_tid_for_slot(i) // 4 for i in range(32)]
        assert sorted(set(quads)) == list(range(8))

    def test_slot_out_of_range(self):
        with pytest.raises(KernelError):
            make_kernel().hw_tid_for_slot(126)


class TestSpawnJoinRun:
    def test_result_captured(self):
        kernel = make_kernel()

        def body(ctx):
            ctx.charge_ops(10)
            return "done"
            yield  # pragma: no cover - makes this a generator

        thread = kernel.spawn(body)
        kernel.run()
        assert thread.result == "done"
        assert thread.done
        assert thread.finish_time == 10

    def test_too_many_threads(self):
        kernel = make_kernel()

        def body(ctx):
            yield ctx.time

        for _ in range(126):
            kernel.spawn(body)
        with pytest.raises(KernelError):
            kernel.spawn(body)

    def test_worker_side_join(self):
        kernel = make_kernel()
        log = []

        def worker(ctx):
            ctx.charge_ops(500)
            yield ctx.time
            return 42

        def boss(ctx, target):
            value = yield from kernel.join(target, ctx)
            log.append((value, ctx.time))

        w = kernel.spawn(worker)
        kernel.spawn(boss, w)
        kernel.run()
        assert log == [(42, 500)]

    def test_join_finished_thread(self):
        kernel = make_kernel()

        def quick(ctx):
            return 7
            yield  # pragma: no cover

        def late(ctx, target):
            ctx.charge_ops(1000)
            yield ctx.time
            value = yield from kernel.join(target, ctx)
            return value

        q = kernel.spawn(quick)
        l = kernel.spawn(late, q)
        kernel.run()
        assert l.result == 7

    def test_elapsed_cycles(self):
        kernel = make_kernel()

        def body(ctx):
            ctx.charge_ops(100)
            return None
            yield  # pragma: no cover

        kernel.spawn(body)
        kernel.run()
        assert kernel.elapsed_cycles() == 100

    def test_seconds_conversion(self):
        kernel = make_kernel()
        assert kernel.seconds(500_000_000) == pytest.approx(1.0)

    def test_stacks_fit_below_memory_top(self):
        kernel = make_kernel()
        stacks = kernel.config.stack_bytes * kernel.config.n_threads
        top = kernel.chip.memory.address_map.max_memory
        assert kernel.heap.limit == top - stacks


class TestThreadCtxOps:
    def run_body(self, body, *args, config=None):
        kernel = make_kernel(config=config)
        thread = kernel.spawn(body, *args)
        kernel.run()
        return kernel, thread

    def test_load_store_roundtrip(self):
        def body(ctx):
            ea = ctx.ea(0x1000)
            yield from ctx.store_f64(ea, 1.25)
            t, v = yield from ctx.load_f64(ea)
            return v

        _, thread = self.run_body(body)
        assert thread.result == 1.25

    def test_dependence_chain_costs_latency(self):
        def body(ctx):
            t, _ = yield from ctx.load_f64(ctx.ea(0x1000))
            start = ctx.time
            t2 = yield from ctx.fp_add(deps=(t,))
            return t - start, ctx.tu.counters.stall_cycles

        _, thread = self.run_body(body)
        wait, stalls = thread.result
        assert stalls > 0  # the add waited on the load

    def test_independent_ops_overlap(self):
        def chained(ctx):
            t = 0
            for _ in range(10):
                t = yield from ctx.fp_add(deps=(t,))
            return ctx.time

        def overlapped(ctx):
            for _ in range(10):
                yield from ctx.fp_add()
            return ctx.time

        _, t1 = self.run_body(chained)
        _, t2 = self.run_body(overlapped)
        assert t2.result < t1.result

    def test_int_ops_do_not_yield(self):
        def body(ctx):
            t = ctx.int_alu()
            t = ctx.int_mul(deps=(t,))
            t = ctx.int_div(deps=(t,))
            ctx.branch(deps=(t,))
            return ctx.time
            yield  # pragma: no cover

        _, thread = self.run_body(body)
        # 1 + (1) + 33 + 2 execution; mul latency 5 stalls the divide.
        assert thread.result == 1 + 1 + 5 + 33 + 2

    def test_atomic_add(self):
        def body(ctx):
            ea = ctx.ea(0x100)
            yield from ctx.store_u32(ea, 5)
            t, old = yield from ctx.atomic_rmw_u32(ea, "add", 3)
            t, now = yield from ctx.load_u32(ea, deps=(t,))
            return old, now

        _, thread = self.run_body(body)
        assert thread.result == (5, 8)

    def test_charge_ops_bulk(self):
        def body(ctx):
            ctx.charge_ops(100)
            return ctx.tu.counters.instructions
            yield  # pragma: no cover

        _, thread = self.run_body(body)
        assert thread.result == 100

    def test_fpu_shared_within_quad(self):
        """Two threads in one quad contend for the FPU adder."""
        kernel = make_kernel()

        def body(ctx):
            for _ in range(50):
                yield from ctx.fp_add()
            return ctx.time

        a = kernel.spawn(body)  # hw 0, quad 0
        b = kernel.spawn(body)  # hw 1, quad 0
        kernel.run()
        # 100 adds through one pipelined adder need >= 100 cycles.
        assert max(a.result, b.result) >= 100

    def test_different_quads_do_not_contend(self):
        kernel = make_kernel(AllocationPolicy.BALANCED)

        def body(ctx):
            for _ in range(50):
                yield from ctx.fp_add()
            return ctx.time

        a = kernel.spawn(body)  # quad 0
        b = kernel.spawn(body)  # quad 1
        kernel.run()
        assert max(a.result, b.result) <= 60

    def test_scratchpad_roundtrip(self):
        def body(ctx):
            ctx.memory.caches[0].set_scratchpad_ways(2)
            yield from ctx.scratchpad_f64(0, 16, True, value=9.5)
            t, v = yield from ctx.scratchpad_f64(0, 16, False)
            return v

        _, thread = self.run_body(body)
        assert thread.result == 9.5

    def test_spin_until_sees_store(self):
        kernel = make_kernel()
        flag = kernel.heap.alloc(64)

        def waiter(ctx):
            t, v = yield from ctx.spin_until(ctx.ea(flag), lambda v: v == 1)
            return ctx.time

        def setter(ctx):
            ctx.charge_ops(300)
            yield from ctx.store_u32(ctx.ea(flag), 1)
            return ctx.time

        w = kernel.spawn(waiter)
        s = kernel.spawn(setter)
        kernel.run()
        assert w.result >= 300


class TestHardwareBarrierRuntime:
    def test_synchronizes_all(self):
        kernel = make_kernel()
        bar = kernel.hardware_barrier(0, 8)
        exits = []

        def body(ctx, delay):
            ctx.charge_ops(delay)
            yield from bar.wait(ctx)
            exits.append(ctx.time)

        for i in range(8):
            kernel.spawn(body, i * 37)
        kernel.run()
        assert max(exits) - min(exits) <= 3
        assert min(exits) >= 7 * 37

    def test_reusable_many_episodes(self):
        kernel = make_kernel()
        bar = kernel.hardware_barrier(1, 4)
        max_skew = 0

        def body(ctx, me):
            nonlocal max_skew
            for episode in range(5):
                ctx.charge_ops((me * 13 + episode * 7) % 50)
                yield from bar.wait(ctx)

        for i in range(4):
            kernel.spawn(body, i)
        kernel.run()
        assert bar.episodes == 5

    def test_wait_counts_as_full_speed_spin(self):
        """Paper: spinning on the SPR runs at full speed — run cycles, not
        stalls (this is why Figure 7's run-cycle bars are positive)."""
        kernel = make_kernel()
        bar = kernel.hardware_barrier(0, 2)

        def early(ctx):
            yield from bar.wait(ctx)
            c = ctx.tu.counters
            return c.run_cycles, c.stall_cycles

        def late(ctx):
            ctx.charge_ops(500)
            yield from bar.wait(ctx)
            c = ctx.tu.counters
            return c.run_cycles, c.stall_cycles

        e = kernel.spawn(early)
        l = kernel.spawn(late)
        kernel.run()
        early_run, early_stall = e.result
        assert early_run >= 499  # the whole wait was spent spinning
        assert early_stall <= 5
        late_run, _ = l.result
        assert late_run <= 505

    def test_bad_barrier_id(self):
        with pytest.raises(BarrierError):
            make_kernel().hardware_barrier(4, 2)

    def test_single_participant_is_trivial(self):
        kernel = make_kernel()
        bar = kernel.hardware_barrier(0, 1)

        def body(ctx):
            yield from bar.wait(ctx)
            return ctx.time

        thread = kernel.spawn(body)
        kernel.run()
        assert thread.result <= 3


class TestTreeBarrierRuntime:
    def test_synchronizes_all(self):
        kernel = make_kernel()
        bar = kernel.tree_barrier(8)
        exits = []

        def body(ctx, delay):
            ctx.charge_ops(delay)
            yield from bar.wait(ctx)
            exits.append(ctx.time)

        for i in range(8):
            kernel.spawn(body, i * 29)
        kernel.run()
        assert min(exits) >= 7 * 29

    def test_slower_than_hardware_barrier(self):
        """The motivating measurement for the hardware barrier."""
        def run(kind):
            kernel = make_kernel()
            bar = kernel.hardware_barrier(0, 16) if kind == "hw" \
                else kernel.tree_barrier(16)
            finish = []

            def body(ctx):
                yield from bar.wait(ctx)
                finish.append(ctx.time)

            for _ in range(16):
                kernel.spawn(body)
            kernel.run()
            return max(finish)

        assert run("hw") < run("sw")

    def test_reusable(self):
        kernel = make_kernel()
        bar = kernel.tree_barrier(4)
        done = []

        def body(ctx, me):
            for episode in range(3):
                ctx.charge_ops((me * 31) % 40)
                yield from bar.wait(ctx)
            done.append(me)

        for i in range(4):
            kernel.spawn(body, i)
        kernel.run()
        assert sorted(done) == [0, 1, 2, 3]


class TestSpinLock:
    def test_mutual_exclusion_counter(self):
        kernel = make_kernel()
        lock = SpinLock(kernel)
        counter = kernel.heap.alloc(64)

        def body(ctx):
            for _ in range(10):
                yield from lock.acquire(ctx)
                t, v = yield from ctx.load_u32(ctx.ea(counter))
                t2 = ctx.int_alu(deps=(t,))
                yield from ctx.store_u32(ctx.ea(counter), v + 1, deps=(t2,))
                yield from lock.release(ctx)

        for _ in range(8):
            kernel.spawn(body)
        kernel.run()
        assert kernel.chip.memory.backing.load_u32(counter) == 80
        assert lock.acquisitions == 80

    def test_contention_recorded(self):
        kernel = make_kernel()
        lock = SpinLock(kernel)

        def body(ctx):
            yield from lock.acquire(ctx)
            ctx.charge_ops(200)
            yield from lock.release(ctx)

        for _ in range(4):
            kernel.spawn(body)
        kernel.run()
        assert lock.contended_spins > 0
