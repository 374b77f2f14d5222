"""Tests for basic-block superinstructions (repro.isa.blocks).

The golden/differential suites prove the compiled blocks are
cycle-exact; these tests pin the machinery itself: block formation
rules, lazily compiled one-instruction entries, compile caches that
survive alternating latency tables, sanitized chips on blocks,
mid-block entry through ``jr``, and the telemetry counters.
"""

import math
import re

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import AddressError, ExecutionError
from repro.isa.assembler import assemble
from repro.isa.blocks import block_spans, compile_blocks
from repro.isa.interpreter import Interpreter, compile_program
from repro.isa.kernels import stream_kernel_program
from repro.telemetry import ChipInstrumentation

_WINDOW = 64  # pib_entries (16) * word_bytes (4)


def _table(program, lat=None, window=_WINDOW):
    lat = lat if lat is not None else ChipConfig().latency
    return compile_blocks(program, lat, window,
                          compile_program(program, lat))


# ---------------------------------------------------------------------------
# Block formation
# ---------------------------------------------------------------------------
def test_spans_cut_at_branches_and_halt():
    program = assemble(
        "addi r3, r0, 8\n"
        "loop:\n"
        "addi r3, r3, -1\n"
        "bne r3, r0, loop\n"
        "addi r4, r0, 7\n"
        "halt\n"
    )
    # Leaders: entry, the branch target, and the branch fall-through.
    assert block_spans(program, _WINDOW) == [(0, 1), (1, 3), (3, 5)]


def test_spans_never_cross_pib_windows():
    # 20 straight-line instructions: the 64-byte window (16 slots at
    # base 0) must split them even with no branch in sight.
    program = assemble("addi r3, r3, 1\n" * 20 + "halt\n")
    spans = block_spans(program, _WINDOW)
    assert spans == [(0, 16), (16, 21)]
    for start, end in spans:
        first = program.address_of(start) // _WINDOW
        last = program.address_of(end - 1) // _WINDOW
        assert first == last, f"block {start}:{end} crosses a window"


def test_generators_stay_inside_blocks():
    # Loads and FPU ops do not end a block: the whole straight-line
    # run (here: the body of the triad loop) fuses into one entry.
    program = assemble(
        "ld r12, 0(r4)\n"
        "fadd r12, r12, r12\n"
        "sd r12, 0(r6)\n"
        "addi r4, r4, 8\n"
        "halt\n"
    )
    assert block_spans(program, _WINDOW) == [(0, 5)]
    lat = ChipConfig().latency
    table = _table(program, lat)
    assert table.n_fused == 1
    assert table.lengths == [5]
    assert table.source.count("def ") == 1
    # Non-leader slots compile through the per-instruction table's
    # one-instruction blocks, on first dispatch only.
    assert table.single is compile_program(program, lat).single


def test_lone_plain_instruction_keeps_handler():
    # A single-instruction straight-line block (created here by the
    # branch fall-through and target) is not fused up front: its entry
    # compiles on first dispatch and installs the one-instruction block
    # the per-instruction table shares.
    program = assemble(
        "bne r0, r0, skip\n"
        "addi r3, r0, 1\n"
        "skip:\n"
        "halt\n"
    )
    chip = Chip(sanitize=False)
    lat = chip.config.latency
    handlers = compile_program(program, lat)
    table = _table(program, lat)
    assert table.lengths == [1, 1]  # bne and halt; not the addi
    lazy = table.entries[1]
    interp = Interpreter(chip, model_fetch=False)
    state = interp.add_thread(0, program)
    interp.run()
    assert state.regs.read(3) == 1
    assert table.entries[1] is not lazy
    assert table.entries[1] is handlers.single(1)
    # The per-instruction table never dispatched index 1 itself.
    assert handlers.entries[1] is not table.entries[1]


# ---------------------------------------------------------------------------
# Odd double pairs
# ---------------------------------------------------------------------------
#: (instruction, odd register it names as a pair, test id).
_ODD_PAIR_OPS = [
    ("fadd r10, r11, r12", 11, "fadd_src"),
    ("fadd r10, r12, r13", 13, "fadd_src2"),
    ("fadd r11, r10, r12", 11, "fadd_dst"),
    ("ld r13, 0(r4)", 13, "ld"),
    ("sd r13, 0(r4)", 13, "sd"),
    ("cvtfi r3, r11", 11, "cvtfi"),
    ("fcmplt r3, r11, r12", 11, "fcmplt"),
]
#: ``alone`` makes the instruction a one-instruction block between a
#: branch fall-through and a branch target; ``in_block`` buries it in
#: the middle of a fused block.
_PLACEMENTS = {
    "alone": "bne r0, r0, end\n{}\nend:\nhalt\n",
    "in_block": "addi r5, r0, 1\naddi r6, r0, 2\n{}\naddi r7, r0, 3\nhalt\n",
}


@pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
@pytest.mark.parametrize("inst,odd", [op[:2] for op in _ODD_PAIR_OPS],
                         ids=[op[2] for op in _ODD_PAIR_OPS])
def test_odd_pair_faults(inst, odd, placement):
    # A double operand at an odd register fuses like any other block
    # and raises the register file's own fault when it executes, on
    # the timed table and the functional one.
    program = assemble(_PLACEMENTS[placement].format(inst))
    message = ("double-precision pair must start at an even register, "
               f"got r{odd}")
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    interp.add_thread(0, program, init_regs={4: 0x800},
                      init_doubles={12: 2.5})
    with pytest.raises(ExecutionError) as info:
        interp.run()
    assert str(info.value) == message
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    state = interp.add_thread(0, program, init_regs={4: 0x800},
                              init_doubles={12: 2.5})
    with pytest.raises(ExecutionError) as info:
        interp._run_functional(state, 100)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# r0 and the scoreboard
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("load", ["lw r0, 0(r4)", "lw r7, 0(r4)",
                                  "ld r0, 0(r4)"],
                         ids=["lw_r0", "lw_r7", "ld_r0"])
def test_discarded_writes_leave_no_ready_time(load):
    # r0 (and a pair-0 double) drops its value, so a load into it sets
    # no ready time, and the immediate form's unused rb = r0 is no
    # dependence: the addi issues right behind the load, as it does
    # behind a load into a live register.
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    state = interp.add_thread(
        0, assemble(f"{load}\naddi r5, r6, 1\nhalt\n"),
        init_regs={4: 0x800})
    assert interp.run() == 3
    assert state.tu.counters.stall_cycles == 0
    assert state.ready[0] == state.ready[1] == 0


@pytest.mark.parametrize("load,message", [
    ("lw r7, 2(r4)", "address 0x802 not aligned for 4-byte access"),
    ("lw r0, 2(r4)", "address 0x802 not aligned for 4-byte access"),
    ("ld r0, 4(r4)", "address 0x804 not aligned for 8-byte access"),
], ids=["lw_r7", "lw_r0", "ld_r0"])
def test_discarded_loads_keep_alignment_fault(load, message):
    # r0 and pair 0 drop a load's value, not the load: a misaligned one
    # raises as it does into a live register, timed and functional.
    program = assemble(f"{load}\nhalt\n")
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    interp.add_thread(0, program, init_regs={4: 0x800})
    with pytest.raises(AddressError, match=f"^{message}$"):
        interp.run()
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    state = interp.add_thread(0, program, init_regs={4: 0x800})
    with pytest.raises(AddressError, match=f"^{message}$"):
        interp._run_functional(state, 100)


@pytest.mark.parametrize("op", ["fsqrt", "fneg", "fabs", "fmov"])
def test_unary_fp_ops_wait_only_on_their_operand(op):
    # A unary FP op's rb field encodes r1 but is unused: a load into r1
    # in flight must not hold it, so it issues as behind a load into an
    # unrelated register.
    cycles = []
    for load in ("lw r1, 0(r4)", "lw r7, 0(r4)"):
        interp = Interpreter(Chip(sanitize=False), model_fetch=False)
        state = interp.add_thread(
            0, assemble(f"{load}\n{op} r12, r10\nhalt\n"),
            init_regs={4: 0x800})
        cycles.append(interp.run())
        assert state.tu.counters.stall_cycles == 0
    assert cycles[0] == cycles[1]
    if op == "fsqrt":
        assert cycles[0] == 58


# ---------------------------------------------------------------------------
# Doubles: one register model, direct backing-store moves
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("placement", sorted(_PLACEMENTS))
@pytest.mark.parametrize("inst", ["ld r12, 4(r4)", "sd r12, 4(r4)"])
def test_misaligned_double_faults(inst, placement):
    # Only an aligned double takes the direct memoryview path; a
    # misaligned one raises the backing store's own alignment fault,
    # on the timed table (both fetch modes) and the functional one.
    program = assemble(_PLACEMENTS[placement].format(inst))
    message = "address 0x804 not aligned for 8-byte access"
    for model_fetch in (False, True):
        interp = Interpreter(Chip(sanitize=False), model_fetch=model_fetch)
        interp.add_thread(0, program, init_regs={4: 0x800})
        with pytest.raises(AddressError) as info:
            interp.run()
        assert type(info.value) is AddressError
        assert str(info.value) == message
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    state = interp.add_thread(0, program, init_regs={4: 0x800})
    with pytest.raises(AddressError) as info:
        interp._run_functional(state, 100)
    assert str(info.value) == message


def test_triad_block_moves_doubles_without_packing():
    # The unrolled triad block keeps every double in a float local from
    # load through FMA to store: nothing is packed into u32 words, and
    # the backing store is only called on the misaligned fallbacks.
    program = stream_kernel_program("triad", 4)
    source = _table(program).source
    assert "_pk_" not in source and "_up_" not in source
    fallbacks = re.compile(
        r" if not _ph & 7 else state\.backing\.load_f64\(_ph\)"
        r"|if _ph & 7: state\.backing\.store_f64\(_ph, d\d+\)")
    assert len(fallbacks.findall(source)) == 8 + 4
    assert not re.search(r"state\.backing\.\w+\(", fallbacks.sub("", source))


@pytest.mark.parametrize("value,expected", [
    (4.0, 2.0), (-4.0, math.nan), (-0.0, -0.0), (math.inf, math.inf),
    (math.nan, math.nan),
], ids=["4", "-4", "-0", "inf", "nan"])
def test_fsqrt_is_ieee(value, expected):
    # math.sqrt for operands not below zero (keeps -0.0, +inf, NaN);
    # NaN below zero. Timing is the same for every operand.
    program = assemble("fsqrt r12, r10\nhalt\n")

    def same(result):
        if math.isnan(expected):
            return math.isnan(result)
        return result == expected and (math.copysign(1.0, result)
                                       == math.copysign(1.0, expected))

    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    state = interp.add_thread(0, program, init_doubles={10: value})
    assert interp.run() == 57
    assert same(state.regs.read_double(12))
    interp = Interpreter(Chip(sanitize=False), model_fetch=False)
    state = interp.add_thread(0, program, init_doubles={10: value})
    interp._run_functional(state, 100)
    assert state.halted and same(state.regs.read_double(12))


# ---------------------------------------------------------------------------
# Caches (no thrash when two latency tables alternate)
# ---------------------------------------------------------------------------
def test_compile_caches_survive_alternating_latency_tables():
    program = assemble("addi r3, r0, 1\nhalt\n")
    lat_a = ChipConfig().latency
    lat_b = ChipConfig().latency
    handlers_a = compile_program(program, lat_a)
    handlers_b = compile_program(program, lat_b)
    assert handlers_a is not handlers_b
    table_a = _table(program, lat_a)
    table_b = _table(program, lat_b)
    assert table_a is not table_b
    for _ in range(3):
        assert compile_program(program, lat_a) is handlers_a
        assert compile_program(program, lat_b) is handlers_b
        assert _table(program, lat_a) is table_a
        assert _table(program, lat_b) is table_b


# ---------------------------------------------------------------------------
# Sanitized chips
# ---------------------------------------------------------------------------
def test_sanitized_chip_runs_blocks():
    # Blocks store state.pc before every memory yield, which is all the
    # sanitizer's pc_of facade needs: a sanitized chip dispatches the
    # same fused block, with the same cycles, as a clean chip.
    source = (
        "addi r4, r0, 2048\n"
        "addi r3, r0, 7\n"
        "sw r3, 0(r4)\n"
        "lw r5, 0(r4)\n"
        "add r5, r5, r3\n"
        "halt\n"
    )
    sanitized = Chip(sanitize=True)
    interp = Interpreter(sanitized)
    state = interp.add_thread(0, assemble(source))
    cycles = interp.run()

    reference = Interpreter(Chip(sanitize=False))
    ref_state = reference.add_thread(0, assemble(source))
    assert reference.run() == cycles
    assert ref_state.regs.read(5) == state.regs.read(5) == 14
    assert interp._dispatches == reference._dispatches == 1
    assert sanitized.sanitizer.findings == []


# ---------------------------------------------------------------------------
# Mid-block entry through jr
# ---------------------------------------------------------------------------
def test_jr_into_block_interior():
    # A computed jr lands on a pc that no static branch targets, i.e.
    # the *interior* of a fused block. The interior pc compiles its
    # one-instruction block on first dispatch, so execution resumes
    # there and rejoins block dispatch at the next leader.
    source = (
        "addi r2, r0, 16\n"   # byte address of `target` below
        "jr r2\n"
        "addi r3, r3, 100\n"  # skipped; fall-through leader
        "addi r3, r3, 200\n"  # skipped
        "addi r4, r4, 1\n"    # `target`: interior of block [2..5]
        "addi r4, r4, 2\n"
        "halt\n"
    )
    program = assemble(source)
    spans = block_spans(program, _WINDOW)
    assert (2, 7) in spans or any(s < 4 < e - 1 for s, e in spans), spans

    def run(model_fetch):
        interp = Interpreter(Chip(sanitize=False), model_fetch=model_fetch)
        state = interp.add_thread(0, assemble(source))
        cycles = interp.run()
        return (cycles, state.regs.read(3), state.regs.read(4),
                max(state.ready), state.tu.counters.instructions)

    # Skipped the r3 adds, ran the r4 adds: five instructions retired.
    assert run(False) == (6, 0, 3, 5, 5)
    assert run(True) == (30, 0, 3, 29, 5)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
def test_block_metrics_published():
    chip = Chip(sanitize=False)
    inst = ChipInstrumentation(chip)
    chip.telemetry = inst
    program = assemble(
        "addi r3, r0, 4\n"
        "loop:\n"
        "addi r3, r3, -1\n"
        "addi r4, r4, 1\n"
        "bne r3, r0, loop\n"
        "halt\n"
    )
    interp = Interpreter(chip, model_fetch=False)
    interp.add_thread(0, program)
    interp.run()
    snap = inst.registry.snapshot()
    # Two fused blocks: the 3-instruction loop body and the halt
    # singleton. The lone entry addi compiles lazily, outside the
    # fused count.
    assert snap["counters"]["engine.blocks.compiled"] == 2
    # entry once, loop body four times, halt once.
    assert snap["counters"]["engine.blocks.dispatches"] == 6
    hist = snap["histograms"]["engine.blocks.length"]
    assert hist["count"] == 2

    # A fresh interpreter re-publishes its own table exactly once.
    interp2 = Interpreter(chip, model_fetch=False)
    interp2.add_thread(1, program)
    interp2.run()
    snap = inst.registry.snapshot()
    assert snap["counters"]["engine.blocks.compiled"] == 4
    assert snap["counters"]["engine.blocks.dispatches"] == 12


def test_no_metrics_without_instrumentation():
    chip = Chip(sanitize=False)
    interp = Interpreter(chip, model_fetch=False)
    interp.add_thread(0, assemble("addi r3, r0, 1\nhalt\n"))
    interp.run()  # must not raise; chip.telemetry is None
    assert interp._dispatches > 0
