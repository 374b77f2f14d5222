"""Host-work budgets: CPython opcodes, Python calls and C calls per
simulated unit.

Wall-clock time depends on the host; the number of bytecode instructions
the simulator executes for a given simulation does not (for one CPython
minor version). Each test runs a small, fixed workload under
``sys.settrace`` with opcode events on and ``sys.setprofile`` beside it,
counts every executed opcode, every Python-level call (a generator
resume counts as a call) and every call of a builtin function or method
(``c_call`` events: ``max``, ``len``, ``tuple.__new__``, a dict's
``get``) inside the run loop, and checks each count per simulated unit
against a budget. Opcodes alone miss the C calls: one ``max()`` is a
single opcode but costs several times a comparison. The ``stream_setup``
row counts the same from ``run_stream``'s entry to ``Kernel.run``'s, per
thread: the set-up a workload does before it simulates, which a wall
clock reads only as a noisy millisecond. One more row prices host
memory: the Python heap (``tracemalloc``) one chip holds after the
stream row's run, where the data caches' tag sets dominate.

A change that makes the hot paths do more work fails here even when a
noisy host hides it in wall time. A change that makes them cheaper should
lower the budgets: re-measure with
``PYTHONPATH=src python tests/test_host_budget.py``
and copy the printed values into ``BUDGETS`` (docs/performance.md,
"Host-work budget"). Every budget also pins the workload's simulated
cycles, so a speed change cannot pass by simulating something else.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.chip import Chip
from repro.isa import Interpreter
from repro.isa.kernels import stream_kernel_program, stream_register_setup
from repro.memory.address import make_effective
from repro.memory.interest_groups import InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.sampling.validate import _build_fft
from repro.workloads.common import block_ranges
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.lu import LUParams, run_lu
from repro.workloads.radix import RadixParams, run_radix
from repro.workloads.stream import StreamParams, run_stream

pytestmark = [
    pytest.mark.skipif(
        sys.implementation.name != "cpython"
        or sys.version_info[:2] != (3, 11),
        reason="opcode counts are specific to one CPython minor version "
               "(the budgets were measured on 3.11, CI's version)",
    ),
    pytest.mark.skipif(
        sys.gettrace() is not None or sys.getprofile() is not None,
        reason="another tracer or profiler (coverage, a debugger) is "
               "active",
    ),
]

#: Allowed growth over a budget before the test fails.
SLACK = 1.02


@dataclass(frozen=True)
class Budget:
    """Measured host work of one workload, per simulated unit."""

    unit: str
    ops: float
    calls: float
    c_calls: float
    cycles: int


BUDGETS = {
    # STREAM triad, 32 threads x 256 elements, Figure 6 placement
    # (4-way unrolled, local caches, balanced); per element.
    "stream": Budget("element", ops=974.5, calls=17.81, c_calls=16.12,
                     cycles=4028),
    # The stream row's set-up: run_stream from its entry to Kernel.run's,
    # per thread (it simulates nothing, so it pins no cycles).
    "stream_setup": Budget("thread", ops=1137.6, calls=36.28,
                           c_calls=13.22, cycles=0),
    # 256-point FFT, 16 threads, hardware barrier; per memory access.
    "fft": Budget("access", ops=377.4, calls=6.87, c_calls=6.32,
                  cycles=7747),
    # The triad as assembly through block dispatch, stream's shape and
    # placement; per element.
    "isa_triad": Budget("element", ops=1277.2, calls=15.21, c_calls=17.71,
                        cycles=4381),
    # The constant-geometry FFT program sampling validation runs (integer
    # pointers, FP add/sub-heavy), 8 threads x 256 points, exact; per
    # instruction. Integer registers are memoryview subscripts, dearer
    # than list ones: this row prices that against the double pairs.
    "isa_fft": Budget("instruction", ops=225.7, calls=2.53, c_calls=3.08,
                      cycles=70835),
    # Radix sort, 512 keys, 4 threads (test_radix_golden's shape); per
    # memory access.
    "radix": Budget("access", ops=510.4, calls=11.71, c_calls=4.80,
                    cycles=16831),
    # Blocked LU, n=16, block 8, 4 threads: the generator-form context
    # ops the other Splash kernels use; per memory access.
    "lu": Budget("access", ops=442.4, calls=11.15, c_calls=3.11,
                 cycles=30049),
}

#: Bytes of Python heap one chip holds after the stream row's run
#: (``measure_stream_heap``); the same slack applies.
STREAM_CHIP_HEAP = 890_846


def _counted(run):
    """``(run(), opcodes, calls, c_calls)`` with *run* executed under a
    tracer and a profiler."""
    ops = calls = c_calls = 0

    def local(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return local

    def on_call(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    def on_profile(frame, event, arg):
        nonlocal c_calls
        if event == "c_call":
            c_calls += 1

    sys.setprofile(on_profile)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return result, ops, calls, c_calls


class _CountedKernelRun:
    """Counts host work inside ``Kernel.run`` while active (the
    direct-execution drivers build their kernel internally)."""

    def __enter__(self):
        self.ops = self.calls = self.c_calls = 0
        self._original = Kernel.__dict__["run"]
        original, counter = self._original, self

        def run(kernel, until=None):
            final, ops, calls, c_calls = _counted(
                lambda: original(kernel, until))
            counter.ops += ops
            counter.calls += calls
            counter.c_calls += c_calls
            return final

        Kernel.run = run
        return self

    def __exit__(self, *exc):
        Kernel.run = self._original


def _stream_params(threads: int, per_thread: int) -> StreamParams:
    return StreamParams(
        kernel="triad", n_elements=threads * per_thread, n_threads=threads,
        partition="block", local_caches=True, unroll=4,
        policy=AllocationPolicy.BALANCED, warmup=False,
    )


def measure_stream(threads: int = 32, per_thread: int = 256):
    """``(ops, calls, c_calls, cycles)`` of the STREAM triad, per element."""
    params = _stream_params(threads, per_thread)
    with _CountedKernelRun() as counter:
        result = run_stream(params, chip=Chip())
    assert result.verified
    n = params.n_elements
    return (counter.ops / n, counter.calls / n, counter.c_calls / n,
            result.cycles)


class _SetupDone(Exception):
    """Raised at ``Kernel.run``'s entry to end a set-up measurement."""


def measure_stream_setup(threads: int = 32, per_thread: int = 256):
    """``(ops, calls, c_calls, 0)`` of the stream row's set-up, per thread.

    A first, uncounted set-up does the one-time work (imports, memos), so
    the count does not depend on what ran before it in the process.
    """
    params = _stream_params(threads, per_thread)
    original = Kernel.__dict__["run"]

    def stop(kernel, until=None):
        raise _SetupDone

    def setup(chip):
        try:
            run_stream(params, chip=chip)
        except _SetupDone:
            return
        raise AssertionError("run_stream did not reach Kernel.run")

    Kernel.run = stop
    try:
        setup(Chip())
        chip = Chip()
        gc.collect()
        _, ops, calls, c_calls = _counted(lambda: setup(chip))
    finally:
        Kernel.run = original
    return ops / threads, calls / threads, c_calls / threads, 0


def measure_stream_heap(threads: int = 32, per_thread: int = 256) -> int:
    """Bytes of Python heap a chip holds after the stream row's run.

    A first, untraced run does the one-time work (imports, compiled
    kernels) so that only the traced run's chip remains on the heap.
    """
    params = _stream_params(threads, per_thread)
    run_stream(params, chip=Chip())
    tracemalloc.start()
    try:
        chip = Chip()
        assert run_stream(params, chip=chip).verified
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held


def measure_fft(points: int = 256, threads: int = 16):
    """``(ops, calls, c_calls, cycles)`` of the FFT, per memory access."""
    chip = Chip()
    with _CountedKernelRun() as counter:
        result = run_fft(FFTParams(n_points=points, n_threads=threads,
                                   barrier="hw"), chip=chip)
    assert result.verified
    accesses = sum(chip.memory.kind_counts.values())
    return (counter.ops / accesses, counter.calls / accesses,
            counter.c_calls / accesses, result.total_cycles)


def measure_lu(n: int = 16, block: int = 8, threads: int = 4):
    """``(ops, calls, c_calls, cycles)`` of the blocked LU, per memory access."""
    chip = Chip()
    with _CountedKernelRun() as counter:
        result = run_lu(LUParams(n=n, block=block, n_threads=threads),
                        chip=chip)
    assert result.verified
    accesses = sum(chip.memory.kind_counts.values())
    return (counter.ops / accesses, counter.calls / accesses,
            counter.c_calls / accesses, result.cycles)


def measure_radix(keys: int = 512, threads: int = 4):
    """``(ops, calls, c_calls, cycles)`` of the Radix sort, per memory access."""
    chip = Chip()
    with _CountedKernelRun() as counter:
        result = run_radix(RadixParams(n_keys=keys, n_threads=threads),
                           chip=chip)
    assert result.verified
    accesses = sum(chip.memory.kind_counts.values())
    return (counter.ops / accesses, counter.calls / accesses,
            counter.c_calls / accesses, result.cycles)


def measure_isa_triad(threads: int = 32, per_thread: int = 256):
    """``(ops, calls, c_calls, cycles)`` of the assembly triad, per element."""
    chip = Chip()
    config = chip.config
    kernel = Kernel(chip, AllocationPolicy.BALANCED)  # placement + heap
    n = threads * per_thread
    base_a, base_b, base_c = (kernel.heap.alloc_f64_array(n)
                              for _ in range(3))
    rng = np.random.default_rng(1)
    backing = chip.memory.backing
    b, c = rng.standard_normal(n), rng.standard_normal(n)
    backing.f64_view(base_b, n)[:] = b
    backing.f64_view(base_c, n)[:] = c
    program = stream_kernel_program("triad", 4)
    interp = Interpreter(chip)
    blocks = block_ranges(n, threads, align=config.dcache_line_bytes // 8)
    for slot, block in enumerate(blocks):
        tid = kernel.hw_tid_for_slot(slot)
        ig = InterestGroup(Level.ONE, tid // config.threads_per_quad).encode()
        offset = 8 * block.start
        regs, doubles = stream_register_setup(
            "triad", make_effective(base_b + offset, ig),
            make_effective(base_c + offset, ig),
            make_effective(base_a + offset, ig), len(block))
        interp.add_thread(tid, program, regs, doubles)
    cycles, ops, calls, c_calls = _counted(lambda: interp.run(sampled=False))
    assert np.array_equal(backing.f64_view(base_a, n), b + 3.0 * c)
    return ops / n, calls / n, c_calls / n, cycles


def measure_isa_fft(threads: int = 8, points: int = 256):
    """``(ops, calls, c_calls, cycles)`` of the assembly FFT, per
    instruction."""
    workload = _build_fft(threads, points)
    interp = workload.interp
    cycles, ops, calls, c_calls = _counted(lambda: interp.run(sampled=False))
    n = sum(state.tu.counters.instructions
            for state in interp.states.values())
    return ops / n, calls / n, c_calls / n, cycles


MEASURE = {"stream": measure_stream, "stream_setup": measure_stream_setup,
           "fft": measure_fft,
           "isa_triad": measure_isa_triad, "isa_fft": measure_isa_fft,
           "lu": measure_lu, "radix": measure_radix}


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_host_work_within_budget(workload):
    budget = BUDGETS[workload]
    ops, calls, c_calls, cycles = MEASURE[workload]()
    assert cycles == budget.cycles
    assert ops <= budget.ops * SLACK, (
        f"{workload}: {ops:.1f} opcodes per {budget.unit} exceeds the "
        f"budget {budget.ops} (+{SLACK - 1:.0%})")
    assert calls <= budget.calls * SLACK, (
        f"{workload}: {calls:.2f} calls per {budget.unit} exceeds the "
        f"budget {budget.calls} (+{SLACK - 1:.0%})")
    assert c_calls <= budget.c_calls * SLACK, (
        f"{workload}: {c_calls:.2f} C calls per {budget.unit} exceeds the "
        f"budget {budget.c_calls} (+{SLACK - 1:.0%})")


def test_stream_chip_heap_within_budget():
    held = measure_stream_heap()
    assert held <= STREAM_CHIP_HEAP * SLACK, (
        f"a chip holds {held} bytes of Python heap after the stream run, "
        f"over the budget {STREAM_CHIP_HEAP} (+{SLACK - 1:.0%})")


if __name__ == "__main__":
    for name in sorted(MEASURE):
        ops, calls, c_calls, cycles = MEASURE[name]()
        print(f'"{name}": ops={ops:.1f}, calls={calls:.2f}, '
              f'c_calls={c_calls:.2f}, cycles={cycles}  '
              f'(per {BUDGETS[name].unit})')
    print(f"STREAM_CHIP_HEAP = {measure_stream_heap():_}")
