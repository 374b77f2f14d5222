"""Host-work budgets: CPython opcodes and Python calls per simulated unit.

Wall-clock time depends on the host; the number of bytecode instructions
the simulator executes for a given simulation does not (for one CPython
minor version). Each test runs a small, fixed workload under
``sys.settrace`` with opcode events on, counts every executed opcode and
every Python-level call (a generator resume counts as a call) inside the
run loop, and checks the count per simulated unit against a budget.

A change that makes the hot paths do more work fails here even when a
noisy host hides it in wall time. A change that makes them cheaper should
lower the budgets: re-measure with
``PYTHONPATH=src python tests/test_host_budget.py``
and copy the printed values into ``BUDGETS`` (docs/performance.md,
"Host-work budget"). Every budget also pins the workload's simulated
cycles, so a speed change cannot pass by simulating something else.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.chip import Chip
from repro.isa import Interpreter
from repro.isa.kernels import stream_kernel_program, stream_register_setup
from repro.memory.address import make_effective
from repro.memory.interest_groups import InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.common import block_ranges
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.stream import StreamParams, run_stream

pytestmark = [
    pytest.mark.skipif(
        sys.implementation.name != "cpython"
        or sys.version_info[:2] != (3, 11),
        reason="opcode counts are specific to one CPython minor version "
               "(the budgets were measured on 3.11, CI's version)",
    ),
    pytest.mark.skipif(
        sys.gettrace() is not None,
        reason="another tracer (coverage, a debugger) is active",
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
    cycles: int


BUDGETS = {
    # STREAM triad, 32 threads x 256 elements, Figure 6 placement
    # (4-way unrolled, local caches, balanced); per element.
    "stream": Budget("element", ops=1497.7, calls=22.95, cycles=4028),
    # 256-point FFT, 16 threads, hardware barrier; per memory access.
    "fft": Budget("access", ops=696.3, calls=17.96, cycles=7747),
    # The triad as assembly through block dispatch, stream's shape and
    # placement; per element.
    "isa_triad": Budget("element", ops=1689.0, calls=20.96, cycles=4381),
}


def _counted(run):
    """``(run(), opcodes, calls)`` with *run* executed under a tracer."""
    ops = calls = 0

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

    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
    return result, ops, calls


class _CountedKernelRun:
    """Counts host work inside ``Kernel.run`` while active (the
    direct-execution drivers build their kernel internally)."""

    def __enter__(self):
        self.ops = self.calls = 0
        self._original = Kernel.__dict__["run"]
        original, counter = self._original, self

        def run(kernel, until=None):
            final, ops, calls = _counted(lambda: original(kernel, until))
            counter.ops += ops
            counter.calls += calls
            return final

        Kernel.run = run
        return self

    def __exit__(self, *exc):
        Kernel.run = self._original


def measure_stream(threads: int = 32, per_thread: int = 256):
    """``(ops, calls, cycles)`` of the STREAM triad, per element."""
    params = StreamParams(
        kernel="triad", n_elements=threads * per_thread, n_threads=threads,
        partition="block", local_caches=True, unroll=4,
        policy=AllocationPolicy.BALANCED, warmup=False,
    )
    with _CountedKernelRun() as counter:
        result = run_stream(params, chip=Chip())
    assert result.verified
    n = params.n_elements
    return counter.ops / n, counter.calls / n, result.cycles


def measure_fft(points: int = 256, threads: int = 16):
    """``(ops, calls, cycles)`` of the FFT, per memory access."""
    chip = Chip()
    with _CountedKernelRun() as counter:
        result = run_fft(FFTParams(n_points=points, n_threads=threads,
                                   barrier="hw"), chip=chip)
    assert result.verified
    accesses = sum(chip.memory.kind_counts.values())
    return counter.ops / accesses, counter.calls / accesses, \
        result.total_cycles


def measure_isa_triad(threads: int = 32, per_thread: int = 256):
    """``(ops, calls, cycles)`` of the assembly triad, per element."""
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
    cycles, ops, calls = _counted(lambda: interp.run(sampled=False))
    assert np.array_equal(backing.f64_view(base_a, n), b + 3.0 * c)
    return ops / n, calls / n, cycles


MEASURE = {"stream": measure_stream, "fft": measure_fft,
           "isa_triad": measure_isa_triad}


@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_host_work_within_budget(workload):
    budget = BUDGETS[workload]
    ops, calls, cycles = MEASURE[workload]()
    assert cycles == budget.cycles
    assert ops <= budget.ops * SLACK, (
        f"{workload}: {ops:.1f} opcodes per {budget.unit} exceeds the "
        f"budget {budget.ops} (+{SLACK - 1:.0%})")
    assert calls <= budget.calls * SLACK, (
        f"{workload}: {calls:.2f} calls per {budget.unit} exceeds the "
        f"budget {budget.calls} (+{SLACK - 1:.0%})")


if __name__ == "__main__":
    for name in sorted(MEASURE):
        ops, calls, cycles = MEASURE[name]()
        print(f'"{name}": ops={ops:.1f}, calls={calls:.2f}, '
              f'cycles={cycles}  (per {BUDGETS[name].unit})')
