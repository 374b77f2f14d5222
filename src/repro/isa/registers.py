"""The thread-unit register file.

Each thread unit has "64 32-bit single precision registers, that can be
paired for double precision operations" (paper, Section 2). Convention
(documented, PowerPC-flavoured):

* ``r0`` reads as zero and ignores writes (the usual RISC idiom — the
  assembler uses it for immediates and discards);
* ``r1`` is the stack pointer, initialized by the kernel;
* ``r2`` is the link register target used by ``jal``;
* double-precision values occupy an even/odd register pair addressed by
  the even register.
"""

from __future__ import annotations

import struct

from repro.errors import ExecutionError

N_REGISTERS = 64
REG_ZERO = 0
REG_STACK = 1
REG_LINK = 2

_U32 = 0xFFFFFFFF


class RegisterFile:
    """64 x 32-bit registers with pairing for doubles."""

    __slots__ = ("_regs",)

    def __init__(self) -> None:
        self._regs = [0] * N_REGISTERS

    # ------------------------------------------------------------------
    def _check(self, reg: int) -> None:
        if not 0 <= reg < N_REGISTERS:
            raise ExecutionError(f"register r{reg} out of range")

    def read(self, reg: int) -> int:
        """Read a 32-bit register (r0 always reads 0)."""
        self._check(reg)
        return self._regs[reg]

    def write(self, reg: int, value: int) -> None:
        """Write a 32-bit register (writes to r0 are discarded)."""
        self._check(reg)
        if reg == REG_ZERO:
            return
        self._regs[reg] = value & _U32

    # ------------------------------------------------------------------
    # Double-precision pairs
    # ------------------------------------------------------------------
    def _check_pair(self, reg: int) -> None:
        self._check(reg)
        if reg % 2:
            raise ExecutionError(
                f"double-precision pair must start at an even register, "
                f"got r{reg}"
            )
        if reg == REG_ZERO:
            return

    def read_double(self, reg: int) -> float:
        """Read the even/odd pair ``(reg, reg+1)`` as a double."""
        self._check_pair(reg)
        raw = struct.pack("<II", self._regs[reg], self._regs[reg + 1])
        return struct.unpack("<d", raw)[0]

    def write_double(self, reg: int, value: float) -> None:
        """Write a double into the even/odd pair starting at *reg*."""
        self._check_pair(reg)
        if reg == REG_ZERO:
            return
        low, high = struct.unpack("<II", struct.pack("<d", value))
        self._regs[reg] = low
        self._regs[reg + 1] = high
