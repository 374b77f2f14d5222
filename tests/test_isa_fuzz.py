"""Property-based fuzzing of the ISA interpreter.

Hypothesis generates random programs; a plain-Python reference executor
(architectural semantics written independently of the block compiler,
no timing) predicts the final registers, memory image and instruction,
load, store and flop counts. The interpreter must agree functionally no
matter what the timing model does — and the timing side must stay
consistent (monotonic clock, instruction count equal to the dynamic
path length).
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chip import Chip
from repro.isa import Interpreter
from repro.isa.assembler import assemble
from repro.isa.blocks import compile_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import opcode
from repro.isa.program import Program

_U32 = 0xFFFFFFFF

#: (mnemonic, reference lambda(a, b, imm)) for R-format integer ops.
_R_OPS = {
    "add": lambda a, b: (a + b) & _U32,
    "sub": lambda a, b: (a - b) & _U32,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: (~(a | b)) & _U32,
    "slt": lambda a, b: int(_sx(a) < _sx(b)),
    "sltu": lambda a, b: int(a < b),
    "sll": lambda a, b: (a << (b & 31)) & _U32,
    "srl": lambda a, b: (a >> (b & 31)) & _U32,
    "sra": lambda a, b: (_sx(a) >> (b & 31)) & _U32,
    "mul": lambda a, b: (_sx(a) * _sx(b)) & _U32,
    "mulhu": lambda a, b: ((a * b) >> 32) & _U32,
}

_I_OPS = {
    "addi": lambda a, imm: (a + imm) & _U32,
    "andi": lambda a, imm: a & (imm & _U32),
    "ori": lambda a, imm: a | (imm & _U32),
    "xori": lambda a, imm: a ^ (imm & _U32),
    "slti": lambda a, imm: int(_sx(a) < imm),
    "slli": lambda a, imm: (a << (imm & 31)) & _U32,
    "srli": lambda a, imm: (a >> (imm & 31)) & _U32,
}


def _sx(v: int) -> int:
    return v - (1 << 32) if v & 0x80000000 else v


@st.composite
def straightline_programs(draw):
    """A random straight-line ALU program plus its instruction list."""
    n = draw(st.integers(1, 40))
    instructions = []
    for _ in range(n):
        if draw(st.booleans()):
            name = draw(st.sampled_from(sorted(_R_OPS)))
            instructions.append(Instruction(
                opcode(name),
                rd=draw(st.integers(0, 31)),
                ra=draw(st.integers(0, 31)),
                rb=draw(st.integers(0, 31)),
            ))
        else:
            name = draw(st.sampled_from(sorted(_I_OPS)))
            imm = draw(st.integers(0, 31)) if name in ("slli", "srli") \
                else draw(st.integers(-(1 << 12), (1 << 12) - 1))
            instructions.append(Instruction(
                opcode(name),
                rd=draw(st.integers(0, 31)),
                ra=draw(st.integers(0, 31)),
                imm=imm,
            ))
    instructions.append(Instruction(opcode("halt")))
    return instructions


#: Reference semantics of the FPU arithmetic ops: value(a, b, d).
_FPU_REF = {
    "fadd": (lambda a, b, d: a + b, 1),
    "fsub": (lambda a, b, d: a - b, 1),
    "fmul": (lambda a, b, d: a * b, 1),
    "fmadd": (lambda a, b, d: d + a * b, 2),
    "fmsub": (lambda a, b, d: d - a * b, 2),
    "fneg": (lambda a, b, d: -a, 1),
    "fabs": (lambda a, b, d: abs(a), 1),
    "fmov": (lambda a, b, d: a, 1),
}

_BRANCH_REF = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _sx(a) < _sx(b),
    "bgeu": lambda a, b: a >= b,
}

_AMO_REF = {
    "amoadd": lambda old, v: (old + v) & _U32,
    "amoswap": lambda old, v: v,
    "amoand": lambda old, v: old & v,
    "amoor": lambda old, v: old | v,
}

#: Memory image the mixed programs address (r8/r9 index into it).
_MEM_BASE, _MEM_SIZE = 0x8000, 0x2200


def _reference_run(instructions, init_regs, init_doubles=None):
    """Execute *instructions* architecturally, one at a time.

    Returns ``(regs, memory, counts)``: the 64 register values, the
    bytes of ``[_MEM_BASE, _MEM_BASE + _MEM_SIZE)`` and the
    ``(instructions, loads, stores, flops)`` counts. Faults the host
    raises (``int()`` of a NaN or infinity) propagate.
    """
    regs = [0] * 64
    memory = bytearray(_MEM_SIZE)

    def write(r, value):
        if r:
            regs[r] = value & _U32

    def read_d(r):
        return struct.unpack("<d", struct.pack("<II", regs[r],
                                               regs[r + 1]))[0]

    def write_d(r, value):
        if r:
            regs[r], regs[r + 1] = struct.unpack("<II",
                                                 struct.pack("<d", value))

    for r, value in init_regs.items():
        write(r, value)
    for r, value in (init_doubles or {}).items():
        write_d(r, value)
    n_insns = loads = stores = flops = 0
    pc = 0
    while True:
        inst = instructions[pc]
        name = inst.opcode.name
        a, b = regs[inst.ra], regs[inst.rb]
        n_insns += 1
        pc += 1
        if name == "halt":
            break
        if name in _R_OPS:
            write(inst.rd, _R_OPS[name](a, b))
        elif name in _I_OPS:
            write(inst.rd, _I_OPS[name](a, inst.imm))
        elif name in _BRANCH_REF:
            if _BRANCH_REF[name](a, b):
                pc += inst.imm
        elif name in _MEM_REF:
            offset = ((a + inst.imm) & 0xFFFFFF) - _MEM_BASE
            size, is_store = _MEM_REF[name]
            if not is_store:
                loads += 1
                raw = bytes(memory[offset:offset + size])
                if name == "ld":
                    write_d(inst.rd, struct.unpack("<d", raw)[0])
                else:
                    write(inst.rd, int.from_bytes(raw, "little"))
            else:
                stores += 1
                if name == "sd":
                    raw = struct.pack("<d", read_d(inst.rd))
                else:
                    raw = regs[inst.rd].to_bytes(4, "little")[:size]
                memory[offset:offset + size] = raw
        elif name in _AMO_REF:
            loads += 1
            stores += 1
            offset = (a & 0xFFFFFF) - _MEM_BASE
            old = int.from_bytes(memory[offset:offset + 4], "little")
            new = _AMO_REF[name](old, b)
            memory[offset:offset + 4] = new.to_bytes(4, "little")
            write(inst.rd, old)
        elif name in _FPU_REF:
            value, n_flops = _FPU_REF[name]
            flops += n_flops
            write_d(inst.rd, value(read_d(inst.ra), read_d(inst.rb),
                                   read_d(inst.rd)))
        elif name in ("fcmplt", "fcmpeq"):
            flops += 1
            x, y = read_d(inst.ra), read_d(inst.rb)
            write(inst.rd, int(x < y if name == "fcmplt" else x == y))
        elif name == "cvtif":
            flops += 1
            write_d(inst.rd, float(_sx(a)))
        elif name == "cvtfi":
            flops += 1
            write(inst.rd, int(read_d(inst.ra)))
        elif name == "tid":
            write(inst.rd, 0)
        else:
            assert name in ("sync", "nop", "mtspr"), name
    return regs, bytes(memory), (n_insns, loads, stores, flops)


@settings(max_examples=60, deadline=None)
@given(straightline_programs(),
       st.dictionaries(st.integers(1, 31), st.integers(0, _U32),
                       max_size=8))
def test_interpreter_matches_reference(instructions, init_regs):
    program = Program(instructions=list(instructions))
    chip = Chip()
    interp = Interpreter(chip, model_fetch=False)
    state = interp.add_thread(0, program, init_regs=dict(init_regs))
    cycles = interp.run()

    expected, _, _ = _reference_run(instructions, init_regs)
    for reg in range(32):
        assert state.regs.read(reg) == expected[reg], f"r{reg}"

    # Timing invariants: one retired instruction per program slot, and
    # the clock covered at least the issue slots.
    assert state.tu.counters.instructions == len(instructions)
    assert cycles >= len(instructions) - 1


# ---------------------------------------------------------------------------
# Mixed programs: reference semantics and the block differential
#
# Fused basic blocks (repro.isa.blocks) must be a pure host-side
# optimization: any program, dispatched block by block or through the
# table of one-instruction blocks, must produce identical cycles,
# registers, scoreboard, counters, and memory — and both must match the
# reference executor. The strategy goes beyond straight-line ALU work
# on purpose: forward branches carve unpredictable block shapes,
# memory/FPU/atomic/SPR instructions pin the mid-block yield protocol,
# and `tid`/`sync`/`nop` cover the system ops.
# ---------------------------------------------------------------------------
_FPU_FUZZ_OPS = ("fadd", "fsub", "fmul", "fmadd", "fmsub", "fneg",
                 "fabs", "fmov", "fcmplt", "fcmpeq", "cvtif", "cvtfi")
#: Access size and direction per memory mnemonic.
_MEM_REF = {"lw": (4, False), "lhu": (2, False), "lbu": (1, False),
            "ld": (8, False), "sw": (4, True), "sh": (2, True),
            "sb": (1, True), "sd": (8, True)}
_MEM_FUZZ_OPS = tuple(_MEM_REF)
#: Destinations exclude r8/r9, which anchor the memory base addresses.
_DEST_REGS = tuple(r for r in range(16) if r not in (8, 9))


@st.composite
def mixed_programs(draw):
    """Programs with branches, memory, FPU, atomic, and SPR traffic.

    Branches only jump forward, so every program terminates. Memory
    ops index off r8/r9 (preset to disjoint backing regions by the
    test) with 8-byte-aligned immediates, so doubles stay aligned.
    """
    n = draw(st.integers(3, 24))
    body = []
    for i in range(n):
        kind = draw(st.sampled_from(
            ["alu", "alu", "mem", "fpu", "branch", "atomic", "sys"]
        ))
        if kind == "branch" and i >= n - 1:
            kind = "sys"  # no room left for a forward target
        if kind == "alu":
            name = draw(st.sampled_from(sorted(_R_OPS)))
            body.append(Instruction(
                opcode(name), rd=draw(st.sampled_from(_DEST_REGS)),
                ra=draw(st.integers(0, 15)), rb=draw(st.integers(0, 15)),
            ))
        elif kind == "mem":
            name = draw(st.sampled_from(_MEM_FUZZ_OPS))
            rd = draw(st.sampled_from(range(10, 31, 2))) \
                if name in ("ld", "sd") \
                else draw(st.sampled_from(_DEST_REGS))
            body.append(Instruction(
                opcode(name), rd=rd, ra=draw(st.sampled_from((8, 9))),
                imm=8 * draw(st.integers(0, 63)),
            ))
        elif kind == "fpu":
            name = draw(st.sampled_from(_FPU_FUZZ_OPS))
            pairs = range(10, 31, 2)
            rd = draw(st.sampled_from(_DEST_REGS)) \
                if name in ("fcmplt", "fcmpeq", "cvtfi") \
                else draw(st.sampled_from(pairs))
            ra = draw(st.integers(0, 15)) if name == "cvtif" \
                else draw(st.sampled_from(pairs))
            body.append(Instruction(
                opcode(name), rd=rd, ra=ra,
                rb=draw(st.sampled_from(pairs)),
            ))
        elif kind == "branch":
            name = draw(st.sampled_from(("beq", "bne", "blt", "bgeu")))
            # Forward only, never past the trailing halt at index n:
            # target = i + 1 + imm must stay <= n.
            body.append(Instruction(
                opcode(name), ra=draw(st.integers(0, 15)),
                rb=draw(st.integers(0, 15)),
                imm=draw(st.integers(1, n - i - 1)),
            ))
        elif kind == "atomic":
            name = draw(st.sampled_from(
                ("amoadd", "amoswap", "amoand", "amoor")
            ))
            body.append(Instruction(
                opcode(name), rd=draw(st.sampled_from(_DEST_REGS)),
                ra=draw(st.sampled_from((8, 9))),
                rb=draw(st.integers(0, 15)),
            ))
        else:
            name = draw(st.sampled_from(("tid", "sync", "nop", "mtspr")))
            body.append(Instruction(
                opcode(name), rd=draw(st.sampled_from(_DEST_REGS)),
                ra=draw(st.integers(0, 15)),
            ))
    body.append(Instruction(opcode("halt")))
    return body


def _per_instruction_table(interp, state):
    """Stand-in ``Interpreter._dispatch_table``: one-instruction blocks."""
    table = compile_program(state.program, interp.chip.config.latency)
    return table.entries, len(table.entries)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_dispatch(instructions, init_regs, init_doubles, model_fetch,
                  per_instruction=False):
    program = Program(instructions=list(instructions))
    chip = Chip()
    with pytest.MonkeyPatch.context() as patch:
        if per_instruction:
            patch.setattr(Interpreter, "_dispatch_table",
                          _per_instruction_table)
        interp = Interpreter(chip, model_fetch=model_fetch)
        state = interp.add_thread(
            0, program, init_regs=dict(init_regs),
            init_doubles=dict(init_doubles),
        )
        try:
            cycles = interp.run()
        except (ValueError, OverflowError) as exc:
            # cvtfi of a NaN or an infinity: the host conversion fails.
            return {"error": _describe(exc)}
    c = state.tu.counters
    return {
        "cycles": cycles,
        "regs": [state.regs.read(r) for r in range(64)],
        "ready": list(state.ready),
        "counters": (c.run_cycles, c.stall_cycles, c.stall_events,
                     c.finish_time),
        "counts": (c.instructions, c.loads, c.stores, c.flops),
        "memory": bytes(chip.memory.backing.read_block(_MEM_BASE,
                                                       _MEM_SIZE)),
    }


_MIXED_CASES = (
    mixed_programs(),
    st.dictionaries(st.integers(1, 15), st.integers(0, _U32),
                    max_size=8),
    st.dictionaries(st.sampled_from(range(10, 31, 2)),
                    st.floats(-1e6, 1e6, allow_nan=False),
                    max_size=6),
)


@settings(max_examples=40, deadline=None)
@given(*_MIXED_CASES, st.booleans())
def test_fused_blocks_match_one_instruction_blocks(
        instructions, init_regs, init_doubles, model_fetch):
    init_regs = {**init_regs, 8: 0x8000, 9: 0x9000}
    results = [
        _run_dispatch(instructions, init_regs, init_doubles,
                      model_fetch, per_instruction)
        for per_instruction in (True, False)
    ]
    assert results[0] == results[1]


#: Every integer register and double pair starts nonzero-ish, so data
#: bugs (a wrong mask, a flipped sign) show in the results instead of
#: multiplying by zero.
_FULL_STATE = (
    st.lists(st.integers(0, _U32), min_size=15, max_size=15)
    .map(lambda values: dict(zip(range(1, 16), values))),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=11,
             max_size=11)
    .map(lambda values: dict(zip(range(10, 31, 2), values))),
)


@settings(max_examples=100, deadline=None)
@given(mixed_programs(), *_FULL_STATE)
def test_mixed_programs_match_reference(instructions, init_regs,
                                        init_doubles):
    init_regs = {**init_regs, 8: 0x8000, 9: 0x9000}
    result = _run_dispatch(instructions, init_regs, init_doubles, False)
    try:
        regs, memory, counts = _reference_run(instructions, init_regs,
                                              init_doubles)
    except (ValueError, OverflowError) as exc:
        assert result == {"error": _describe(exc)}
        return
    assert "error" not in result, result
    assert result["regs"] == regs
    assert result["memory"] == memory
    assert result["counts"] == counts


#: Integer writes to one half of a double pair, then double reads of
#: the pair, and the reverse; ``{cut}`` is empty (one fused block) or a
#: branch to the next line (the read lands in the next block).
_ALIASING_SOURCE = """
addi r12, r0, 5
{cut}fadd r14, r12, r10
fmov r16, r10
{cut}addi r17, r17, 1
{cut}fadd r18, r16, r16
fmov r20, r10
{cut}add r3, r20, r21
ld r22, 0(r9)
{cut}sw r3, 4(r9)
{cut}lw r23, 4(r9)
{cut}fmov r24, r22
sd r14, 0(r8)
sd r18, 8(r8)
sd r24, 16(r8)
sw r17, 24(r8)
halt
"""


@pytest.mark.parametrize("cut", ["", "beq r0, r0, 0\n"],
                         ids=["one_block", "across_blocks"])
@pytest.mark.parametrize("model_fetch", [False, True])
def test_int_and_double_views_of_a_pair_alias(cut, model_fetch):
    # A signalling NaN with a payload in pair 12 shows that the integer
    # write of its low half reaches the double read bit for bit.
    snan = struct.unpack("<d", (0x7FF4000000000001).to_bytes(8, "little"))[0]
    instructions = assemble(_ALIASING_SOURCE.format(cut=cut)).instructions
    init_regs = {8: 0x8000, 9: 0x9000, 17: 0x3FF00000}
    init_doubles = {10: 1.5, 12: snan, 16: -2.25}
    result = _run_dispatch(instructions, init_regs, init_doubles,
                           model_fetch)
    regs, memory, counts = _reference_run(instructions, init_regs,
                                          init_doubles)
    assert result["regs"] == regs
    assert result["memory"] == memory
    assert result["counts"] == counts
    assert result == _run_dispatch(instructions, init_regs, init_doubles,
                                   model_fetch, per_instruction=True)


@settings(max_examples=20, deadline=None)
@given(straightline_programs())
def test_encode_decode_preserves_execution(instructions):
    """Machine-word round-tripping cannot change program behaviour."""
    program = Program(instructions=list(instructions))
    reloaded = Program.from_words(program.encode())

    def final_regs(prog):
        chip = Chip()
        interp = Interpreter(chip, model_fetch=False)
        state = interp.add_thread(0, prog, init_regs={5: 12345})
        interp.run()
        return [state.regs.read(r) for r in range(32)]

    assert final_regs(program) == final_regs(reloaded)
