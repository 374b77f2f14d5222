"""Tests for the ISA layer: registers, encoding, assembler, builder,
and the timed interpreter."""

import struct

import pytest
from hypothesis import given, strategies as st

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import AssemblerError, EncodingError, ExecutionError, IsaError
from repro.isa import (
    Builder,
    Interpreter,
    Program,
    assemble,
    decode_instruction,
    encode_instruction,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    N_INSTRUCTION_TYPES,
    OPCODES,
    Format,
    opcode,
)
from repro.isa.registers import REG_ZERO, RegisterFile


#: Bit patterns of doubles the register views must carry unchanged.
_SPECIAL_BITS = (
    0x7FF8000000000000,  # quiet NaN
    0x7FF8000000000001,  # quiet NaN, payload
    0xFFF8DEADBEEF0001,  # negative quiet NaN, payload
    0x7FF0000000000001,  # signalling NaN
    0x7FF4000000000000,  # signalling NaN, high payload bit
    0xFFF0000000000001,  # negative signalling NaN
    0x0000000000000000,  # +0.0
    0x8000000000000000,  # -0.0
    0x0000000000000001,  # smallest subnormal
    0x000FFFFFFFFFFFFF,  # largest subnormal
    0x800FFFFFFFFFFFFF,  # negative subnormal
    0x7FF0000000000000,  # +inf
    0xFFF0000000000000,  # -inf
)


def _bits(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


def signed32(value: int) -> int:
    """A register's 32 bits read as a two's-complement integer."""
    return value - (1 << 32) if value & 0x80000000 else value


class TestOpcodeTable:
    def test_about_60_instruction_types(self):
        """The paper: 'about 60 instruction types'."""
        assert 55 <= N_INSTRUCTION_TYPES <= 75

    def test_all_names_unique_codes(self):
        codes = [op.code for op in OPCODES.values()]
        assert len(codes) == len(set(codes))

    def test_multithreading_additions_present(self):
        """Atomics and synchronization instructions (Section 2)."""
        for name in ("amoadd", "amoswap", "amoand", "amoor", "sync",
                     "mtspr", "mfspr"):
            assert name in OPCODES

    def test_unknown_mnemonic(self):
        with pytest.raises(IsaError):
            opcode("bogus")

    def test_latency_rows_resolve(self):
        cfg = ChipConfig.paper()
        for op in OPCODES.values():
            if op.latency_row != "memory":
                assert hasattr(cfg.latency, op.latency_row)


class TestRegisterFile:
    def test_r0_reads_zero(self):
        regs = RegisterFile()
        regs.write(REG_ZERO, 42)
        assert regs.read(REG_ZERO) == 0

    def test_values_wrap_32_bits(self):
        regs = RegisterFile()
        regs.write(5, 2**32 + 3)
        assert regs.read(5) == 3

    def test_signed_read(self):
        regs = RegisterFile()
        regs.write(5, -1)
        assert regs.read(5) == 0xFFFFFFFF
        assert signed32(regs.read(5)) == -1

    def test_double_pairing(self):
        regs = RegisterFile()
        regs.write_double(10, 3.25)
        assert regs.read_double(10) == 3.25
        # The pair occupies two physical words.
        assert regs.read(10) != 0 or regs.read(11) != 0

    def test_double_must_be_even(self):
        regs = RegisterFile()
        with pytest.raises(ExecutionError):
            regs.write_double(11, 1.0)

    def test_out_of_range(self):
        with pytest.raises(ExecutionError):
            RegisterFile().read(64)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_roundtrip_property(self, value):
        regs = RegisterFile()
        regs.write_double(20, value)
        assert regs.read_double(20) == value

    @given(st.one_of(st.sampled_from(_SPECIAL_BITS),
                     st.integers(0, (1 << 64) - 1)))
    def test_pair_views_match_struct_round_trip(self, bits):
        # The u32 and f64 views of one buffer must agree with packing
        # the halves as "<II" and reading "<d" (and the reverse) bit for
        # bit, NaN payloads and signalling NaNs included.
        lo, hi = bits & 0xFFFFFFFF, bits >> 32
        regs = RegisterFile()
        regs.write(20, lo)
        regs.write(21, hi)
        expected = struct.unpack("<d", struct.pack("<II", lo, hi))[0]
        assert _bits(regs.read_double(20)) == _bits(expected) == bits

        regs = RegisterFile()
        regs.write_double(20, expected)
        assert (regs.read(20), regs.read(21)) == struct.unpack(
            "<II", struct.pack("<d", expected)) == (lo, hi)


class TestEncoding:
    def test_roundtrip_specific(self):
        inst = Instruction(opcode("addi"), rd=3, ra=7, imm=-100)
        assert decode_instruction(encode_instruction(inst)) == inst

    def test_negative_immediates(self):
        inst = Instruction(opcode("beq"), ra=1, rb=2, imm=-4)
        decoded = decode_instruction(encode_instruction(inst))
        assert decoded.imm == -4

    def test_immediate_overflow(self):
        with pytest.raises(IsaError):
            Instruction(opcode("addi"), rd=1, ra=1, imm=5000)

    def test_unknown_opcode_word(self):
        with pytest.raises(EncodingError):
            decode_instruction(127 << 25)

    @given(st.sampled_from(sorted(OPCODES)), st.integers(0, 63),
           st.integers(0, 63), st.integers(0, 63),
           st.integers(-(1 << 12), (1 << 12) - 1))
    def test_roundtrip_property(self, name, rd, ra, rb, imm):
        op = OPCODES[name]
        kwargs = {}
        if op.fmt in (Format.R, Format.S):
            kwargs = dict(rd=rd, ra=ra, rb=rb)
        elif op.fmt in (Format.I, Format.M):
            kwargs = dict(rd=rd, ra=ra, imm=imm)
        elif op.fmt is Format.B:
            kwargs = dict(ra=ra, rb=rb, imm=imm)
        else:
            kwargs = dict(imm=abs(imm))
        inst = Instruction(op, **kwargs)
        assert decode_instruction(encode_instruction(inst)) == inst


class TestAssembler:
    def test_labels_and_branches(self):
        program = assemble("""
        top:
            addi r3, r3, -1
            bne  r3, r0, top
            halt
        """)
        assert program.labels == {"top": 0}
        assert program[1].imm == -2

    def test_forward_references(self):
        program = assemble("""
            beq r0, r0, out
            nop
        out:
            halt
        """)
        assert program[0].imm == 1

    def test_memory_displacement(self):
        program = assemble("lw r4, -8(r5)\nhalt")
        assert program[0].ra == 5
        assert program[0].imm == -8

    def test_hex_immediates(self):
        program = assemble("addi r3, r0, 0x7f\nhalt")
        assert program[0].imm == 0x7F

    def test_comments_ignored(self):
        program = assemble("# top\nnop  # mid\nhalt")
        assert len(program) == 2

    def test_two_operand_fp(self):
        program = assemble("fsqrt r10, r12\nhalt")
        assert program[0].ra == 12

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError):
            assemble("a:\nnop\na:\nhalt")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2, r3")

    def test_operand_count_checked(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2, r99")

    def test_listing_roundtrips_through_assembler(self):
        source = "top:\n  addi r3, r0, 5\n  bne r3, r0, top\n  halt"
        program = assemble(source)
        # Every rendered instruction re-assembles to itself.
        for inst in program.instructions:
            if inst.opcode.fmt is Format.B:
                continue  # render shows resolved numeric offsets
            again = assemble(inst.render() + "\nhalt")
            assert again[0] == inst


class TestBuilder:
    def test_matches_assembler(self):
        b = Builder()
        b.addi(3, 0, 5)
        b.label("spin")
        b.addi(3, 3, -1)
        b.bne(3, 0, "spin")
        b.halt()
        built = b.build()
        text = assemble("""
            addi r3, r0, 5
        spin:
            addi r3, r3, -1
            bne  r3, r0, spin
            halt
        """)
        assert [i.render() for i in built.instructions] == \
            [i.render() for i in text.instructions]

    def test_undefined_label(self):
        b = Builder()
        b.beq(0, 0, "nowhere")
        with pytest.raises(AssemblerError):
            b.build()

    def test_duplicate_label(self):
        b = Builder()
        b.label("x")
        with pytest.raises(AssemblerError):
            b.label("x")


class TestProgram:
    def test_addresses(self):
        program = assemble("nop\nnop\nhalt", base=0x100)
        assert program.address_of(2) == 0x108

    def test_encode_from_words_roundtrip(self):
        program = assemble("addi r3, r0, 7\nsw r3, 0(r4)\nhalt")
        again = Program.from_words(program.encode())
        assert [i.render() for i in again.instructions] == \
            [i.render() for i in program.instructions]


class TestInterpreter:
    def run_program(self, source, init_regs=None, init_doubles=None,
                    chip=None, tid=0):
        chip = chip or Chip()
        interp = Interpreter(chip, model_fetch=False)
        state = interp.add_thread(tid, assemble(source), init_regs,
                                  init_doubles)
        cycles = interp.run()
        return chip, state, cycles

    def test_arithmetic(self):
        _, state, _ = self.run_program("""
            addi r3, r0, 6
            addi r4, r0, 7
            mul  r5, r3, r4
            halt
        """)
        assert state.regs.read(5) == 42

    def test_division_semantics(self):
        _, state, _ = self.run_program("""
            addi r3, r0, -7
            addi r4, r0, 2
            div  r5, r3, r4
            rem  r6, r3, r4
            halt
        """)
        assert signed32(state.regs.read(5)) == -3  # truncating division
        assert signed32(state.regs.read(6)) == -1

    def test_divide_by_zero_traps(self):
        with pytest.raises(ExecutionError):
            self.run_program("div r3, r0, r0\nhalt")

    def test_loop_executes(self):
        _, state, _ = self.run_program("""
            addi r3, r0, 10
            addi r4, r0, 0
        loop:
            add  r4, r4, r3
            addi r3, r3, -1
            bne  r3, r0, loop
            halt
        """)
        assert state.regs.read(4) == 55

    def test_memory_roundtrip(self):
        chip, state, _ = self.run_program("""
            addi r3, r0, 0x50
            addi r4, r0, 77
            sw   r4, 4(r3)
            lw   r5, 4(r3)
            halt
        """)
        assert state.regs.read(5) == 77
        assert chip.memory.backing.load_u32(0x54) == 77

    def test_byte_and_half_accesses(self):
        chip, state, _ = self.run_program("""
            addi r3, r0, 0x60
            addi r4, r0, 0x7b4
            sh   r4, 0(r3)
            lbu  r5, 0(r3)
            lhu  r6, 0(r3)
            halt
        """)
        assert state.regs.read(5) == 0xB4
        assert state.regs.read(6) == 0x7B4

    def test_double_memory(self):
        chip, state, _ = self.run_program(
            "sd r10, 0(r3)\nld r12, 0(r3)\nhalt",
            init_regs={3: 0x80}, init_doubles={10: 2.5},
        )
        assert state.regs.read_double(12) == 2.5

    def test_fp_pipeline(self):
        _, state, _ = self.run_program(
            "fmadd r10, r12, r14\nhalt",
            init_doubles={10: 1.0, 12: 2.0, 14: 3.0},
        )
        assert state.regs.read_double(10) == 7.0

    def test_fp_divide_and_sqrt(self):
        _, state, _ = self.run_program(
            "fdiv r16, r10, r12\nfsqrt r18, r14\nhalt",
            init_doubles={10: 10.0, 12: 4.0, 14: 9.0},
        )
        assert state.regs.read_double(16) == 2.5
        assert state.regs.read_double(18) == 3.0

    def test_conversions(self):
        _, state, _ = self.run_program("""
            addi  r3, r0, -5
            cvtif r10, r3
            cvtfi r4, r10
            halt
        """)
        assert state.regs.read_double(10) == -5.0
        assert signed32(state.regs.read(4)) == -5

    def test_atomics(self):
        chip, state, _ = self.run_program("""
            addi    r3, r0, 0x90
            addi    r4, r0, 5
            amoadd  r5, r3, r4
            amoadd  r6, r3, r4
            halt
        """)
        assert state.regs.read(5) == 0
        assert state.regs.read(6) == 5
        assert chip.memory.backing.load_u32(0x90) == 10

    def test_jal_and_jr(self):
        _, state, _ = self.run_program("""
            jal  sub
            addi r4, r0, 1
            halt
        sub:
            addi r3, r0, 9
            jr   r2
        """)
        assert state.regs.read(3) == 9
        assert state.regs.read(4) == 1

    def test_tid(self):
        _, state, _ = self.run_program("tid r3\nhalt", tid=37)
        assert state.regs.read(3) == 37

    def test_dependence_stalls_counted(self):
        _, state, _ = self.run_program("""
            addi r3, r0, 1
            mul  r4, r3, r3
            add  r5, r4, r4
            halt
        """)
        # The add waits 5 extra cycles for the multiply's latency.
        assert state.tu.counters.stall_cycles >= 5

    def test_two_threads_contend_for_fpu(self):
        chip = Chip()
        interp = Interpreter(chip, model_fetch=False)
        source = "fadd r10, r12, r14\n" * 20 + "halt"
        program = assemble(source)
        interp.add_thread(0, program)
        interp.add_thread(1, program)  # same quad: shared adder pipe
        cycles = interp.run()
        assert cycles >= 38  # ~40 issues through a 1-per-cycle pipe

    def test_pc_out_of_range(self):
        with pytest.raises(ExecutionError):
            self.run_program("nop")  # falls off the end (no halt)

    def test_duplicate_thread_rejected(self):
        chip = Chip()
        interp = Interpreter(chip)
        program = assemble("halt")
        interp.add_thread(0, program)
        with pytest.raises(ExecutionError):
            interp.add_thread(0, program)

    def test_icache_fetch_modeled(self):
        chip = Chip()
        interp = Interpreter(chip, model_fetch=True)
        # A loop body spanning two PIB windows: the first iteration
        # misses in the I-cache, later iterations hit.
        program = assemble(
            "addi r3, r0, 3\nloop:\n" + "nop\n" * 20
            + "addi r3, r3, -1\nbne r3, r0, loop\nhalt"
        )
        interp.add_thread(0, program)
        interp.run()
        icache = chip.icache_of(0)
        assert icache.misses >= 1
        assert icache.hits >= 1

    def test_fetch_once_per_aligned_window(self):
        # Straight-line code from 0x104 to 0x1A4 touches the windows at
        # 0x100, 0x140 and 0x180: three fetches, however the program's
        # base sits inside the first one.
        chip = Chip()
        interp = Interpreter(chip, model_fetch=True)
        interp.add_thread(0, assemble("nop\n" * 40 + "halt", base=0x104))
        interp.run()
        icache = chip.icache_of(0)
        assert icache.hits + icache.misses == 3
