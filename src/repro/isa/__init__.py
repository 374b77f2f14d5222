"""The Cyclops instruction set architecture and toolchain substitute.

"The proprietary instruction set architecture (ISA) consists of about 60
instruction types, and follows a 3-operand, load/store RISC design. For
designing the Cyclops ISA we selected the most widely used instructions
in the PowerPC architecture. Instructions were added to enable
multithreaded functionality, such as atomic memory operations and
synchronization instructions." (paper, Section 2)

The authors generated code with a GNU cross-compiler; our substitute is
an assembler (:mod:`repro.isa.assembler`) plus a builder DSL
(:mod:`repro.isa.builder`) over a documented ~60-opcode instruction set
(:mod:`repro.isa.opcodes`) with a 32-bit binary encoding
(:mod:`repro.isa.encoding`). Programs execute on the chip through
:mod:`repro.isa.interpreter`, which performs the architectural work
functionally *and* charges the same Table 2 timing model as the
direct-execution runtime — including instruction fetch through the PIB
and the pair-shared instruction caches.
"""

from repro.isa.assembler import assemble
from repro.isa.builder import Builder
from repro.isa.encoding import decode_instruction, encode_instruction
from repro.isa.instruction import Instruction
from repro.isa.interpreter import Interpreter
from repro.isa.opcodes import OPCODES, Opcode, UnitClass
from repro.isa.program import Program
from repro.isa.registers import (
    N_REGISTERS,
    REG_LINK,
    REG_STACK,
    REG_ZERO,
    RegisterFile,
)

__all__ = [
    "Builder",
    "Instruction",
    "Interpreter",
    "N_REGISTERS",
    "OPCODES",
    "Opcode",
    "Program",
    "REG_LINK",
    "REG_STACK",
    "REG_ZERO",
    "RegisterFile",
    "UnitClass",
    "assemble",
    "decode_instruction",
    "encode_instruction",
]
