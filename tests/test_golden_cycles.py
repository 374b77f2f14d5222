"""Golden cycle-count regression tests.

The engine fast paths (calendar-queue scheduling, fused basic-block
dispatch, allocation-free memory accesses) are pure host-side
optimizations: they must not move a single simulated cycle. These tests pin the **exact**
final cycle counts of representative runs — Table 2 microbenchmark
chains through the ISA interpreter, and the paper workloads through the
direct-execution runtime — so any change that shifts timing, however
plausible, fails loudly instead of silently redrawing the figures.

If one of these numbers changes, the change is either a timing-model fix
(update the golden *and* say why in the commit) or a fast-path bug
(fix the fast path).
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.isa.assembler import assemble
from repro.isa.interpreter import Interpreter
from repro.runtime.kernel import Kernel
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.radix import RadixParams, run_radix
from repro.workloads.stream import StreamParams, run_stream


# ---------------------------------------------------------------------------
# Table 2 microbenchmark chains (ISA interpreter)
#
# Each case is a dependent 8-instruction chain (plus setup) so the
# pinned number exercises issue, scoreboard and latency together:
# (name, setup, repeated body, model_fetch, (final_cycle, max_ready)).
# ---------------------------------------------------------------------------
_CHAINS = [
    ("alu", "addi r3, r0, 3\naddi r4, r0, 1", "add r3, r3, r4",
     False, (11, 10)),
    ("mul", "addi r3, r0, 3\naddi r4, r0, 7", "mul r3, r3, r4",
     False, (46, 50)),
    ("div", "addi r3, r0, 1000\naddi r4, r0, 1", "div r3, r3, r4",
     False, (267, 266)),
    ("fadd", "addi r3, r0, 1\ncvtif r10, r3\ncvtif r12, r3",
     "fadd r10, r10, r12", False, (52, 56)),
    ("fmadd",
     "addi r3, r0, 1\ncvtif r10, r3\ncvtif r12, r3\ncvtif r14, r3",
     "fmadd r10, r12, r14", False, (81, 89)),
    ("fsqrt", "addi r3, r0, 1\ncvtif r10, r3", "fsqrt r12, r10",
     False, (456, 455)),
]


@pytest.mark.parametrize(
    "setup,body,model_fetch,golden",
    [case[1:] for case in _CHAINS],
    ids=[case[0] for case in _CHAINS],
)
def test_isa_chain_goldens(setup, body, model_fetch, golden):
    source = setup + "\n" + "\n".join([body] * 8) + "\nhalt\n"
    chip = Chip(ChipConfig())
    interpreter = Interpreter(chip, model_fetch=model_fetch)
    state = interpreter.add_thread(0, assemble(source))
    final = interpreter.run()
    assert (final, max(state.ready)) == golden


def test_pointer_chase_golden():
    """Dependent loads with instruction fetch modeled (PIB + I-cache)."""
    chip = Chip(ChipConfig())
    base = 0x800
    for i in range(16):
        chip.memory.backing.store_u32(
            base + 4 * i, base + 4 * ((i + 1) % 16)
        )
    source = "addi r5, r0, 2048\n" + "lw r5, 0(r5)\n" * 9 + "halt\n"
    interpreter = Interpreter(chip, model_fetch=True)
    state = interpreter.add_thread(0, assemble(source))
    final = interpreter.run()
    assert (final, max(state.ready)) == (101, 106)


# ---------------------------------------------------------------------------
# Workload goldens (direct-execution runtime)
# ---------------------------------------------------------------------------
def test_stream_triad_block_golden():
    result = run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=8, partition="block",
    ))
    assert result.cycles == 2259


def test_stream_triad_cyclic_golden():
    result = run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=8, partition="cyclic",
    ))
    assert result.cycles == 2253


def test_fft_hw_barrier_golden():
    result = run_fft(FFTParams(n_points=256, n_threads=4, barrier="hw"))
    assert result.total_cycles == 27100


def test_fft_sw_barrier_golden():
    result = run_fft(FFTParams(n_points=256, n_threads=4, barrier="sw"))
    assert result.total_cycles == 27136


_OUT_64 = "3ea66862d7705c29df40ce26a787ca94783d22d5d09dfc95a5538cd652dcd116"
_OUT_1024 = "f564e7829fc875ef1d757e375d17b4be136c83e386a23aade36deabfc2f63d4f"

# (points, threads, barrier) -> (total_cycles, run_cycles, stall_cycles,
# barrier_episodes, sha256 of the output matrix's bytes).
_FFT_MATRIX = {
    (64, 8, "hw"): (3317, 8057, 18479, 5, _OUT_64),
    (64, 8, "sw"): (3568, 7217, 21063, 5, _OUT_64),
    (1024, 32, "hw"): (17772, 176913, 391791, 5, _OUT_1024),
    (1024, 32, "sw"): (18261, 153805, 429751, 5, _OUT_1024),
}


@pytest.mark.parametrize("shape", sorted(_FFT_MATRIX),
                         ids=lambda s: "%dx%d-%s" % s)
def test_fft_golden_matrix(shape):
    """Cycles, counters and the exact output bytes over more shapes."""
    n, threads, barrier = shape
    chip = Chip()
    params = FFTParams(n_points=n, n_threads=threads, barrier=barrier)
    result = run_fft(params, chip=chip)
    # run_fft allocates the input matrix, then the output matrix; a
    # fresh heap with the same policy replays those two allocations.
    heap = Kernel(Chip(), params.policy).heap
    heap.alloc_f64_array(2 * n)
    out = chip.memory.backing.read_block(heap.alloc_f64_array(2 * n), 16 * n)
    assert result.verified
    assert (result.total_cycles, result.run_cycles, result.stall_cycles,
            result.barrier_episodes, hashlib.sha256(out).hexdigest()) == \
        _FFT_MATRIX[shape]


def test_radix_golden():
    result = run_radix(RadixParams(n_keys=512, n_threads=4))
    assert result.cycles == 16831


def test_split_phase_context_matches_generator_ops():
    """The split-phase STREAM loop equals the generator-method timing.

    ``op_begin`` + ``*_finish`` must be event-for-event identical to
    ``yield from ctx.load_f64(...)``; the pinned triad goldens above
    were captured with the generator methods before the split.
    """
    block = run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=8, partition="block",
    ))
    scale = run_stream(StreamParams(
        kernel="scale", n_elements=512, n_threads=8, partition="block",
    ))
    add = run_stream(StreamParams(
        kernel="add", n_elements=512, n_threads=8, partition="block",
    ))
    copy = run_stream(StreamParams(
        kernel="copy", n_elements=512, n_threads=8, partition="block",
    ))
    assert (block.cycles, scale.cycles, add.cycles, copy.cycles) == \
        (2259, 1925, 1988, 1539)
    # The FPU ops: ``fp_add``/``fp_mul``/``fp_fma`` against
    # ``op_begin`` + their finishers, eight threads on two quads' FPUs.
    # The final cycle and the pipe states were captured while the adder
    # and multiplier still reserved through ``PipelinedUnit.issue``.
    generator = _fpu_chains(split=False)
    assert _fpu_chains(split=True) == generator
    pipes = (96, 22, (147, 64, 64, 1, 146), (147, 64, 64, 0, 146))
    assert (generator[0], generator[3]) == (147, [pipes, pipes])


def _fpu_chain_body(ctx, split, out):
    ready = 0
    for i in range(24):
        kind = ("add", "mul", "fma")[i % 3]
        deps = (ready, ctx.time + i % 5) if i % 4 else ()
        if split:
            # Finishers only do timing; the split loop counts the op.
            now = yield ctx.op_begin(deps)
            ready = getattr(ctx, f"fp_{kind}_finish")(now)
            ctx.count_iteration(1, 0, 0, 2 if kind == "fma" else 1, 0, 0)
        else:
            ready = yield from getattr(ctx, f"fp_{kind}")(deps=deps)
        out.append((ready, ctx.time))
        if i % 7 == 0:
            ctx.charge_ops(i % 3)


def _fpu_chains(split):
    """Every op's (ready, clock), every thread's counters and every
    FPU's pipe state after a mixed, contended FPU chain per thread."""
    chip = Chip()
    kernel = Kernel(chip)
    outs = [[] for _ in range(8)]
    for t in range(8):
        kernel.spawn(_fpu_chain_body, split, outs[t])
    final = kernel.run()
    counters = [vars(th.ctx.tu.counters).copy() for th in kernel.threads]
    pipes = [(fpu.operations, fpu.contention_cycles,
              *((u.next_free, u.busy_cycles, u.n_requests, u.reorderings,
                 u._last_request) for u in (fpu.adder, fpu.multiplier)))
             for fpu in {id(th.ctx.fpu): th.ctx.fpu
                         for th in kernel.threads}.values()]
    return final, outs, counters, pipes


# ---------------------------------------------------------------------------
# Per-thread counter goldens (direct-execution runtime)
#
# The finishers only do timing and the split-phase loops count their ops
# once per iteration, so a loop that miscounts leaves every cycle right.
# These pin each thread's counters instead. Values live in
# ``thread_counter_goldens.json``, captured while every finisher still
# counted its own op.
# ---------------------------------------------------------------------------
_COUNTER_FIELDS = ("instructions", "run_cycles", "loads", "stores", "flops",
                   "stall_cycles", "stall_events")
_COUNTER_GOLDENS = Path(__file__).with_name("thread_counter_goldens.json")


def _thread_counters(chip):
    """``{tid: [field, ...]}`` for every thread unit that issued work."""
    return {
        str(tu.tid): [getattr(tu.counters, f) for f in _COUNTER_FIELDS]
        for tu in chip.threads if tu.counters.instructions
    }


def _counter_cases():
    """Case id -> a function running it on a fresh chip."""
    cases = {}
    # 12 threads over 1001 elements: under 4-way unrolling 7 of the 12
    # blocks and 9 of the 12 cyclic lanes end in a ragged group, and the
    # cyclic partition's second group has only 4 lanes.
    for kernel in ("copy", "scale", "add", "triad"):
        for unroll in (1, 4):
            for partition in ("block", "cyclic"):
                params = StreamParams(
                    kernel=kernel, n_elements=1001, n_threads=12,
                    partition=partition, unroll=unroll,
                )
                cases[f"stream-{kernel}-u{unroll}-{partition}"] = \
                    partial(run_stream, params)
    for barrier in ("hw", "sw"):
        params = FFTParams(n_points=256, n_threads=16, barrier=barrier)
        cases[f"fft-256x16-{barrier}"] = partial(run_fft, params)
    return cases


def _capture_counters():
    captured = {}
    for case, run in _counter_cases().items():
        chip = Chip()
        run(chip=chip)
        captured[case] = _thread_counters(chip)
    return captured


def test_thread_counter_goldens():
    goldens = json.loads(_COUNTER_GOLDENS.read_text())
    assert goldens["fields"] == list(_COUNTER_FIELDS)
    captured = _capture_counters()
    assert sorted(captured) == sorted(goldens["cases"])
    for case, threads in captured.items():
        assert threads == goldens["cases"][case], case


if __name__ == "__main__":
    # One line per thread: ``python tests/test_golden_cycles.py``.
    cases = ",\n".join(
        f' {json.dumps(case)}: {{\n' + ",\n".join(
            f'  {json.dumps(tid)}: {json.dumps(row)}'
            for tid, row in threads.items()) + "\n }"
        for case, threads in _capture_counters().items())
    print(f'{{"fields": {json.dumps(list(_COUNTER_FIELDS))},\n'
          f'"cases": {{\n{cases}\n}}}}')
