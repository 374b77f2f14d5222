"""The Cyclops opcode table.

A 3-operand load/store RISC set of ~60 instruction types modeled on the
most-used PowerPC instructions, plus the multithreading additions the
paper calls out (atomic memory operations, SPR access for the hardware
barrier, sync). Each opcode carries its instruction format, the hardware
unit class it issues to, and the Table 2 latency row that prices it.
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
    doc: str


_TABLE: list[tuple[str, Format, UnitClass, str, str]] = [
    # --- fixed point, register form ------------------------------------
    ("add", Format.R, UnitClass.ALU, "other", "rd = ra + rb"),
    ("sub", Format.R, UnitClass.ALU, "other", "rd = ra - rb"),
    ("and", Format.R, UnitClass.ALU, "other", "rd = ra & rb"),
    ("or", Format.R, UnitClass.ALU, "other", "rd = ra | rb"),
    ("xor", Format.R, UnitClass.ALU, "other", "rd = ra ^ rb"),
    ("nor", Format.R, UnitClass.ALU, "other", "rd = ~(ra | rb)"),
    ("slt", Format.R, UnitClass.ALU, "other", "rd = (ra <s rb)"),
    ("sltu", Format.R, UnitClass.ALU, "other", "rd = (ra <u rb)"),
    ("sll", Format.R, UnitClass.ALU, "other", "rd = ra << (rb & 31)"),
    ("srl", Format.R, UnitClass.ALU, "other", "rd = ra >>u (rb & 31)"),
    ("sra", Format.R, UnitClass.ALU, "other", "rd = ra >>s (rb & 31)"),
    # --- fixed point, immediate form ------------------------------------
    ("addi", Format.I, UnitClass.ALU, "other", "rd = ra + imm"),
    ("andi", Format.I, UnitClass.ALU, "other", "rd = ra & imm"),
    ("ori", Format.I, UnitClass.ALU, "other", "rd = ra | imm"),
    ("xori", Format.I, UnitClass.ALU, "other", "rd = ra ^ imm"),
    ("slti", Format.I, UnitClass.ALU, "other", "rd = (ra <s imm)"),
    ("sltiu", Format.I, UnitClass.ALU, "other", "rd = (ra <u imm)"),
    ("slli", Format.I, UnitClass.ALU, "other", "rd = ra << imm"),
    ("srli", Format.I, UnitClass.ALU, "other", "rd = ra >>u imm"),
    ("srai", Format.I, UnitClass.ALU, "other", "rd = ra >>s imm"),
    ("lui", Format.I, UnitClass.ALU, "other", "rd = imm << 19"),
    # --- fixed point multiply / divide ----------------------------------
    ("mul", Format.R, UnitClass.ALU_MUL, "int_multiply", "rd = ra * rb (low)"),
    ("mulhu", Format.R, UnitClass.ALU_MUL, "int_multiply",
     "rd = (ra * rb) >> 32"),
    ("div", Format.R, UnitClass.ALU_DIV, "int_divide", "rd = ra /s rb"),
    ("divu", Format.R, UnitClass.ALU_DIV, "int_divide", "rd = ra /u rb"),
    ("rem", Format.R, UnitClass.ALU_DIV, "int_divide", "rd = ra %s rb"),
    # --- branches ---------------------------------------------------------
    ("beq", Format.B, UnitClass.BRANCH, "branch", "if ra == rb goto off"),
    ("bne", Format.B, UnitClass.BRANCH, "branch", "if ra != rb goto off"),
    ("blt", Format.B, UnitClass.BRANCH, "branch", "if ra <s rb goto off"),
    ("bge", Format.B, UnitClass.BRANCH, "branch", "if ra >=s rb goto off"),
    ("bltu", Format.B, UnitClass.BRANCH, "branch", "if ra <u rb goto off"),
    ("bgeu", Format.B, UnitClass.BRANCH, "branch", "if ra >=u rb goto off"),
    ("j", Format.J, UnitClass.BRANCH, "branch", "goto target"),
    ("jal", Format.J, UnitClass.BRANCH, "branch", "r2 = pc+4; goto target"),
    ("jr", Format.S, UnitClass.BRANCH, "branch", "goto rd"),
    # --- memory -------------------------------------------------------------
    ("lw", Format.M, UnitClass.LOAD, "memory", "rd = mem32[ra+imm]"),
    ("lhu", Format.M, UnitClass.LOAD, "memory", "rd = mem16[ra+imm] zext"),
    ("lbu", Format.M, UnitClass.LOAD, "memory", "rd = mem8[ra+imm] zext"),
    ("ld", Format.M, UnitClass.LOAD, "memory", "pair rd = mem64[ra+imm]"),
    ("sw", Format.M, UnitClass.STORE, "memory", "mem32[ra+imm] = rd"),
    ("sh", Format.M, UnitClass.STORE, "memory", "mem16[ra+imm] = rd"),
    ("sb", Format.M, UnitClass.STORE, "memory", "mem8[ra+imm] = rd"),
    ("sd", Format.M, UnitClass.STORE, "memory", "mem64[ra+imm] = pair rd"),
    # --- multithreading additions -------------------------------------------
    ("amoadd", Format.R, UnitClass.ATOMIC, "memory",
     "rd = mem32[ra]; mem32[ra] += rb (atomic)"),
    ("amoswap", Format.R, UnitClass.ATOMIC, "memory",
     "rd = mem32[ra]; mem32[ra] = rb (atomic)"),
    ("amoand", Format.R, UnitClass.ATOMIC, "memory",
     "rd = mem32[ra]; mem32[ra] &= rb (atomic)"),
    ("amoor", Format.R, UnitClass.ATOMIC, "memory",
     "rd = mem32[ra]; mem32[ra] |= rb (atomic)"),
    ("sync", Format.S, UnitClass.SYSTEM, "other",
     "order earlier memory operations"),
    ("mtspr", Format.I, UnitClass.SPR, "other", "SPR[imm] = ra"),
    ("mfspr", Format.I, UnitClass.SPR, "other", "rd = wired-OR SPR[imm]"),
    # --- floating point (double precision via even/odd pairs) ---------------
    ("fadd", Format.R, UnitClass.FPU_ADD, "fp_add", "dd = da + db"),
    ("fsub", Format.R, UnitClass.FPU_ADD, "fp_add", "dd = da - db"),
    ("fmul", Format.R, UnitClass.FPU_MUL, "fp_multiply", "dd = da * db"),
    ("fdiv", Format.R, UnitClass.FPU_DIV, "fp_divide", "dd = da / db"),
    ("fsqrt", Format.R, UnitClass.FPU_SQRT, "fp_sqrt", "dd = sqrt(da)"),
    ("fmadd", Format.R, UnitClass.FPU_FMA, "fp_multiply_add",
     "dd = dd + da * db"),
    ("fmsub", Format.R, UnitClass.FPU_FMA, "fp_multiply_add",
     "dd = dd - da * db"),
    ("fneg", Format.R, UnitClass.FPU_ADD, "fp_add", "dd = -da"),
    ("fabs", Format.R, UnitClass.FPU_ADD, "fp_add", "dd = |da|"),
    ("fmov", Format.R, UnitClass.FPU_ADD, "fp_add", "dd = da"),
    ("fcmplt", Format.R, UnitClass.FPU_ADD, "fp_add", "rd = (da < db)"),
    ("fcmpeq", Format.R, UnitClass.FPU_ADD, "fp_add", "rd = (da == db)"),
    ("cvtif", Format.R, UnitClass.FPU_CVT, "fp_convert",
     "dd = double(signed ra)"),
    ("cvtfi", Format.R, UnitClass.FPU_CVT, "fp_convert",
     "rd = int(da), truncating"),
    # --- system ---------------------------------------------------------------
    ("nop", Format.S, UnitClass.SYSTEM, "other", "do nothing"),
    ("halt", Format.S, UnitClass.SYSTEM, "other", "stop this thread"),
    ("tid", Format.S, UnitClass.SYSTEM, "other", "rd = hardware thread id"),
]

#: Name -> Opcode for the whole instruction set.
OPCODES: dict[str, Opcode] = {}
#: Numeric code -> Opcode (encoding/decoding).
OPCODES_BY_CODE: dict[int, Opcode] = {}

for _code, (_name, _fmt, _unit, _row, _doc) in enumerate(_TABLE):
    _op = Opcode(_name, _code, _fmt, _unit, _row, _doc)
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


def opcode(name: str) -> Opcode:
    """Look up an opcode by mnemonic."""
    try:
        return OPCODES[name]
    except KeyError:
        raise IsaError(f"unknown instruction mnemonic {name!r}") from None


#: The paper's claim we honour: "about 60 instruction types".
N_INSTRUCTION_TYPES = len(_TABLE)
