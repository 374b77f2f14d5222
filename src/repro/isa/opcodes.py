"""The Cyclops opcode table.

A 3-operand load/store RISC set of ~60 instruction types modeled on the
most-used PowerPC instructions, plus the multithreading additions the
paper calls out (atomic memory operations, SPR access for the hardware
barrier, sync). Each opcode carries its instruction format, the hardware
unit class it issues to, and the Table 2 latency row that prices it;
``docs/isa.md`` tabulates each opcode's semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.errors import IsaError


class Format(Enum):
    """Instruction encoding formats."""

    R = "r"      # rd, ra, rb
    I = "i"      # rd, ra, imm13
    M = "m"      # rd, imm13(ra)  — memory displacement form
    B = "b"      # ra, rb, branch offset
    J = "j"      # absolute word target
    S = "s"      # system/no operands (or rd only)


class UnitClass(Enum):
    """Which hardware unit an instruction issues to."""

    ALU = "alu"            # thread-private fixed point
    ALU_MUL = "alu_mul"    # thread-private multiplier
    ALU_DIV = "alu_div"    # thread-private divider (occupies the thread)
    BRANCH = "branch"      # sequencer
    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    FPU_ADD = "fpu_add"    # quad-shared adder pipe
    FPU_MUL = "fpu_mul"    # quad-shared multiplier pipe
    FPU_FMA = "fpu_fma"    # both pipes for one cycle
    FPU_DIV = "fpu_div"    # quad-shared non-pipelined divide/sqrt unit
    FPU_SQRT = "fpu_sqrt"
    FPU_CVT = "fpu_cvt"
    SPR = "spr"
    SYSTEM = "system"


@dataclass(frozen=True)
class Opcode:
    """One instruction type."""

    name: str
    code: int
    fmt: Format
    unit: UnitClass
    latency_row: str


_TABLE: list[tuple[str, Format, UnitClass, str]] = [
    # --- fixed point, register form ------------------------------------
    ("add", Format.R, UnitClass.ALU, "other"),
    ("sub", Format.R, UnitClass.ALU, "other"),
    ("and", Format.R, UnitClass.ALU, "other"),
    ("or", Format.R, UnitClass.ALU, "other"),
    ("xor", Format.R, UnitClass.ALU, "other"),
    ("nor", Format.R, UnitClass.ALU, "other"),
    ("slt", Format.R, UnitClass.ALU, "other"),
    ("sltu", Format.R, UnitClass.ALU, "other"),
    ("sll", Format.R, UnitClass.ALU, "other"),
    ("srl", Format.R, UnitClass.ALU, "other"),
    ("sra", Format.R, UnitClass.ALU, "other"),
    # --- fixed point, immediate form ------------------------------------
    ("addi", Format.I, UnitClass.ALU, "other"),
    ("andi", Format.I, UnitClass.ALU, "other"),
    ("ori", Format.I, UnitClass.ALU, "other"),
    ("xori", Format.I, UnitClass.ALU, "other"),
    ("slti", Format.I, UnitClass.ALU, "other"),
    ("sltiu", Format.I, UnitClass.ALU, "other"),
    ("slli", Format.I, UnitClass.ALU, "other"),
    ("srli", Format.I, UnitClass.ALU, "other"),
    ("srai", Format.I, UnitClass.ALU, "other"),
    ("lui", Format.I, UnitClass.ALU, "other"),
    # --- fixed point multiply / divide ----------------------------------
    ("mul", Format.R, UnitClass.ALU_MUL, "int_multiply"),
    ("mulhu", Format.R, UnitClass.ALU_MUL, "int_multiply"),
    ("div", Format.R, UnitClass.ALU_DIV, "int_divide"),
    ("divu", Format.R, UnitClass.ALU_DIV, "int_divide"),
    ("rem", Format.R, UnitClass.ALU_DIV, "int_divide"),
    # --- branches ---------------------------------------------------------
    ("beq", Format.B, UnitClass.BRANCH, "branch"),
    ("bne", Format.B, UnitClass.BRANCH, "branch"),
    ("blt", Format.B, UnitClass.BRANCH, "branch"),
    ("bge", Format.B, UnitClass.BRANCH, "branch"),
    ("bltu", Format.B, UnitClass.BRANCH, "branch"),
    ("bgeu", Format.B, UnitClass.BRANCH, "branch"),
    ("j", Format.J, UnitClass.BRANCH, "branch"),
    ("jal", Format.J, UnitClass.BRANCH, "branch"),
    ("jr", Format.S, UnitClass.BRANCH, "branch"),
    # --- memory -------------------------------------------------------------
    ("lw", Format.M, UnitClass.LOAD, "memory"),
    ("lhu", Format.M, UnitClass.LOAD, "memory"),
    ("lbu", Format.M, UnitClass.LOAD, "memory"),
    ("ld", Format.M, UnitClass.LOAD, "memory"),
    ("sw", Format.M, UnitClass.STORE, "memory"),
    ("sh", Format.M, UnitClass.STORE, "memory"),
    ("sb", Format.M, UnitClass.STORE, "memory"),
    ("sd", Format.M, UnitClass.STORE, "memory"),
    # --- multithreading additions -------------------------------------------
    ("amoadd", Format.R, UnitClass.ATOMIC, "memory"),
    ("amoswap", Format.R, UnitClass.ATOMIC, "memory"),
    ("amoand", Format.R, UnitClass.ATOMIC, "memory"),
    ("amoor", Format.R, UnitClass.ATOMIC, "memory"),
    ("sync", Format.S, UnitClass.SYSTEM, "other"),
    ("mtspr", Format.I, UnitClass.SPR, "other"),
    ("mfspr", Format.I, UnitClass.SPR, "other"),
    # --- floating point (double precision via even/odd pairs) ---------------
    ("fadd", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("fsub", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("fmul", Format.R, UnitClass.FPU_MUL, "fp_multiply"),
    ("fdiv", Format.R, UnitClass.FPU_DIV, "fp_divide"),
    ("fsqrt", Format.R, UnitClass.FPU_SQRT, "fp_sqrt"),
    ("fmadd", Format.R, UnitClass.FPU_FMA, "fp_multiply_add"),
    ("fmsub", Format.R, UnitClass.FPU_FMA, "fp_multiply_add"),
    ("fneg", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("fabs", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("fmov", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("fcmplt", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("fcmpeq", Format.R, UnitClass.FPU_ADD, "fp_add"),
    ("cvtif", Format.R, UnitClass.FPU_CVT, "fp_convert"),
    ("cvtfi", Format.R, UnitClass.FPU_CVT, "fp_convert"),
    # --- system ---------------------------------------------------------------
    ("nop", Format.S, UnitClass.SYSTEM, "other"),
    ("halt", Format.S, UnitClass.SYSTEM, "other"),
    ("tid", Format.S, UnitClass.SYSTEM, "other"),
]

#: Name -> Opcode for the whole instruction set.
OPCODES: dict[str, Opcode] = {}
#: Numeric code -> Opcode (encoding/decoding).
OPCODES_BY_CODE: dict[int, Opcode] = {}

for _code, (_name, _fmt, _unit, _row) in enumerate(_TABLE):
    _op = Opcode(_name, _code, _fmt, _unit, _row)
    OPCODES[_name] = _op
    OPCODES_BY_CODE[_code] = _op


#: Unit-class groups, used by the block compiler (repro.isa.blocks) to
#: pick an emitter per static instruction.
ALU_UNITS = frozenset(
    (UnitClass.ALU, UnitClass.ALU_MUL, UnitClass.ALU_DIV)
)
FPU_UNITS = frozenset(
    (UnitClass.FPU_ADD, UnitClass.FPU_MUL, UnitClass.FPU_FMA,
     UnitClass.FPU_DIV, UnitClass.FPU_SQRT, UnitClass.FPU_CVT)
)

#: Access width in bytes of each memory mnemonic (0 for atomics, which
#: are always word-sized).
MEM_SIZES: dict[str, int] = {
    "lw": 4, "sw": 4, "lhu": 2, "sh": 2, "lbu": 1, "sb": 1,
    "ld": 8, "sd": 8,
}

#: Arithmetic FP mnemonics with one source operand: their ``rb`` is
#: unused, so they neither read nor wait on it.
FPU_UNARY = frozenset(("fsqrt", "fneg", "fabs", "fmov"))


def opcode(name: str) -> Opcode:
    """Look up an opcode by mnemonic."""
    try:
        return OPCODES[name]
    except KeyError:
        raise IsaError(f"unknown instruction mnemonic {name!r}") from None


#: The paper's claim we honour: "about 60 instruction types".
N_INSTRUCTION_TYPES = len(_TABLE)
