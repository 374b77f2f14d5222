"""Instruction semantics as generated code: the block compiler.

This module is the one definition of what every instruction does. The
interpreter (:mod:`repro.isa.interpreter`) dispatches once per entry of
a :class:`BlockTable`; each entry is a closure of generated Python
source that executes a straight-line run of instructions. A table is
compiled once per ``(latency table, PIB window)`` pair and cached on
the :class:`~repro.isa.program.Program`. The generated code

* threads the issue clock and the per-register scoreboard through
  locals, touching ``state.regs`` / ``state.ready`` once per register
  per block instead of once per instruction;
* folds every compile-time-constant quantity (latency rows, immediates,
  retire counts, load/store/flop counter deltas) into literals;
* writes ``state.pc`` at block exit, and before each memory or atomic
  yield, so a coherence sanitizer attributes every finding to the
  instruction that made the access.

**Block formation.** A leader is the program entry, every branch
target, every fall-through past a block terminator, and every
instruction whose address starts a new PIB window. A block runs from a
leader to the first terminator: a branch or a ``halt``. Instructions
that touch shared hardware (memory, FPU, SPR, atomic — the units that
synchronize with the global event order) do **not** end a block: each
one's scheduler yield is reproduced verbatim inside the fused closure,
with the thread's architectural clock flushed before parking, so the
global event order — and therefore every simulated cycle count — is
the same as executing one instruction at a time. Caching register and
scoreboard values in locals across those yields is safe because that
state is thread-private; everything shared (backing memory, FPU pipes,
the SPR file) is read live, after the owning instruction's own yield.

**Why blocks never span a PIB window.** The dispatch loop consults the
prefetch buffer before every entry; straight-line fetch inside the
16-instruction window is free and only a window crossing can fetch.
Cutting blocks at window boundaries makes the per-block PIB check
equivalent to a per-instruction check, for both ``model_fetch`` modes,
with no fetch logic inside blocks.

**One-instruction blocks.** Leaders are fused up front. Every other
index (reachable only through ``jr`` into the middle of a block, or a
lone straight-line leader) holds a lazy entry that compiles the
one-instruction block at that index on its first dispatch and installs
it in place. :func:`compile_program` is the table of one-instruction
blocks alone. Faults the register file raises at run time (a double
pair at an odd register) are emitted as the register-file call itself,
so every block fuses.

**One register model.** The register file is one buffer seen as 64
u32 registers (``_R``) and 32 doubles (``_D``). A block caches each
pair it touches in one view at a time: u32 locals (``r12``, ``r13``)
or a float local (``d12``). Materializing either view writes back and
drops the other, so a double moves between memory, the FPU and the
register file without ever being split into words. An aligned
``ld``/``sd`` reads or writes the backing store's ``f64`` memoryview
directly; a misaligned one calls the checked ``BackingStore`` method,
which raises the alignment fault.

**Functional code.** :class:`_FunctionalEmitter` overrides only the
timing hooks (scoreboard, yields, unit issue, memory access vs a
max-memory check and cache warming); the data movement and the
register model are the timed emitter's. :func:`compile_functional`
builds the timing-free table that :mod:`repro.sampling` fast-forwards
with.
"""

from __future__ import annotations

import math
import struct

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    ALU_UNITS, FPU_UNARY, FPU_UNITS, MEM_SIZES, UnitClass,
)
from repro.isa.program import Program
from repro.isa.registers import REG_LINK

_U32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# Shared runtime namespace for the generated code
# ---------------------------------------------------------------------------
_STRUCT_H = struct.Struct("<H")


def _div_zero(tu) -> ExecutionError:
    return ExecutionError(f"thread {tu.tid}: divide by zero")


def _fdiv_zero(tu) -> ExecutionError:
    return ExecutionError(f"thread {tu.tid}: FP divide by zero")


#: Read-only helpers every generated block module can reach.
_NAMESPACE = {
    "_pk_H": _STRUCT_H.pack,
    "_ifb": int.from_bytes,
    "_fmod": math.fmod,
    "_sqrt": math.sqrt,
    "_nan": math.nan,
    "_div_zero": _div_zero,
    "_fdiv_zero": _fdiv_zero,
}


def _sx(expr: str) -> str:
    """Signed-32 view of a u32 local/literal (inline, no call)."""
    if expr == "0":
        return "0"
    return f"({expr} - 4294967296 if {expr} & 2147483648 else {expr})"


#: ALU value expression per mnemonic: (builder(a, b, imm), needs_mask).
#: ``a``/``b`` are u32 expressions (a local name or the literal ``0``);
#: masking to 32 bits happens at writeback.
_ALU_EXPR = {
    "add": (lambda a, b, imm: f"{a} + {b}", True),
    "sub": (lambda a, b, imm: f"{a} - {b}", True),
    "and": (lambda a, b, imm: f"{a} & {b}", False),
    "or": (lambda a, b, imm: f"{a} | {b}", False),
    "xor": (lambda a, b, imm: f"{a} ^ {b}", False),
    "nor": (lambda a, b, imm: f"~({a} | {b})", True),
    "slt": (lambda a, b, imm: f"1 if {_sx(a)} < {_sx(b)} else 0", False),
    "sltu": (lambda a, b, imm: f"1 if {a} < {b} else 0", False),
    "sll": (lambda a, b, imm: f"{a} << ({b} & 31)", True),
    "srl": (lambda a, b, imm: f"{a} >> ({b} & 31)", False),
    "sra": (lambda a, b, imm: f"{_sx(a)} >> ({b} & 31)", True),
    "addi": (lambda a, b, imm: f"{a} + ({imm})", True),
    "andi": (lambda a, b, imm: f"{a} & {imm & _U32}", False),
    "ori": (lambda a, b, imm: f"{a} | {imm & _U32}", False),
    "xori": (lambda a, b, imm: f"{a} ^ {imm & _U32}", False),
    "slti": (lambda a, b, imm: f"1 if {_sx(a)} < ({imm}) else 0", False),
    "sltiu": (lambda a, b, imm: f"1 if {a} < {imm & _U32} else 0", False),
    "slli": (lambda a, b, imm: f"{a} << {imm & 31}", True),
    "srli": (lambda a, b, imm: f"{a} >> {imm & 31}", False),
    "srai": (lambda a, b, imm: f"{_sx(a)} >> {imm & 31}", True),
    "lui": (lambda a, b, imm: f"{((imm & 0x1FFF) << 19) & _U32}", False),
    "mul": (lambda a, b, imm: f"({_sx(a)} * {_sx(b)}) & 4294967295", False),
    "mulhu": (lambda a, b, imm: f"({a} * {b}) >> 32", False),
}

_BRANCH_COND_EXPR = {
    "beq": lambda a, b: f"{a} == {b}",
    "bne": lambda a, b: f"{a} != {b}",
    "blt": lambda a, b: f"{_sx(a)} < {_sx(b)}",
    "bge": lambda a, b: f"{_sx(a)} >= {_sx(b)}",
    "bltu": lambda a, b: f"{a} < {b}",
    "bgeu": lambda a, b: f"{a} >= {b}",
}

_FPU_VALUE_EXPR = {
    "fadd": "_a + _b",
    "fsub": "_a - _b",
    "fmul": "_a * _b",
    "fdiv": "_a / _b",
    # IEEE 754: sqrt keeps -0.0, +inf and NaN; below zero is NaN.
    "fsqrt": "_nan if _a < 0.0 else _sqrt(_a)",
    "fmadd": "_d + _a * _b",
    "fmsub": "_d - _a * _b",
    "fneg": "-_a",
    "fabs": "abs(_a)",
    "fmov": "_a",
}

#: FPU sub-unit method and flop count per arithmetic mnemonic.
_FPU_UNIT = {
    "fadd": ("add", 1), "fsub": ("add", 1), "fmul": ("multiply", 1),
    "fdiv": ("divide", 1), "fsqrt": ("sqrt", 1), "fmadd": ("fma", 2),
    "fmsub": ("fma", 2), "fneg": ("add", 1), "fabs": ("add", 1),
    "fmov": ("add", 1),
}

_AMO_OPS = {"amoadd": "add", "amoswap": "swap",
            "amoand": "and", "amoor": "or"}


# ---------------------------------------------------------------------------
# Block formation
# ---------------------------------------------------------------------------
def _is_terminator(inst: Instruction) -> bool:
    unit = inst.opcode.unit
    return unit is UnitClass.BRANCH or inst.opcode.name == "halt"


def block_spans(program: Program,
                window_bytes: int) -> list[tuple[int, int]]:
    """``(start, end)`` index spans of the program's basic blocks.

    ``end`` is exclusive. Leaders: index 0, branch targets,
    fall-throughs past a terminator, and every index whose address
    starts a new PIB window (so no block spans a fetch boundary).
    """
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        return []
    leaders = {0}
    for i, inst in enumerate(instructions):
        unit = inst.opcode.unit
        if unit is UnitClass.BRANCH:
            leaders.add(i + 1)
            name = inst.opcode.name
            if name in ("j", "jal"):
                target = inst.imm
            elif name == "jr":
                target = None
            else:
                target = i + 1 + inst.imm
            if target is not None and 0 <= target < n:
                leaders.add(target)
        elif inst.opcode.name == "halt":
            leaders.add(i + 1)
    base = program.base
    for i in range(n):
        if (base + 4 * i) % window_bytes == 0:
            leaders.add(i)
    leaders.discard(n)
    ordered = sorted(leaders)
    spans = []
    for pos, start in enumerate(ordered):
        limit = ordered[pos + 1] if pos + 1 < len(ordered) else n
        end = start
        while end < limit:
            end += 1
            if _is_terminator(instructions[end - 1]):
                break
        spans.append((start, end))
    return spans


# ---------------------------------------------------------------------------
# Code generation for one block
# ---------------------------------------------------------------------------
class _BlockEmitter:
    """Emits the fused Python source of one basic block.

    The ``emit_*`` methods define each instruction's data movement;
    the timing they charge goes through a small set of hooks
    (:meth:`wait_deps`, :meth:`stall_to_e`, :meth:`retire`,
    :meth:`park`, :meth:`access`, :meth:`fpu_issue`, :meth:`fence`, the
    scoreboard writes and :meth:`flush`) that the functional subclass
    overrides.
    """

    def __init__(self, program: Program, lat, start: int, end: int) -> None:
        self.program = program
        self.lat = lat
        self.start = start
        self.end = end
        self.lines: list[str] = []
        #: Registers / scoreboard slots currently mirrored in locals.
        self.local_r: set[int] = set()
        self.local_t: set[int] = set()
        #: Even registers whose pair is mirrored in a float local.
        self.local_d: set[int] = set()
        #: Locals that must be stored back on flush (r0 never is).
        self.dirty_r: set[int] = set()
        self.dirty_d: set[int] = set()
        self.dirty_t: set[int] = set()
        #: Compile-time counter deltas (already-flushed prefix excluded).
        self.ni = 0      # instructions
        self.nr = 0      # run cycles
        self.nl = 0      # loads
        self.ns = 0      # stores
        self.nf = 0      # flops
        self.is_gen = False
        #: What ``state.pc`` holds at this point of the block: the
        #: dispatcher entered the block at ``start``.
        self.pc = start

    # -- small emission helpers ---------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    # -- the register model ----------------------------------------------
    # A pair lives in at most one view at a time: u32 locals or a float
    # local. Materializing either view writes back and drops the other,
    # so mixed int/double access of the same registers stays exact.
    def _spill_pair(self, pair: int) -> None:
        """Retire a pair's float local before an integer access."""
        if pair in self.local_d:
            if pair in self.dirty_d:
                self.emit(f"_D[{pair >> 1}] = d{pair}")
                self.dirty_d.discard(pair)
            self.local_d.discard(pair)

    def _drop_int_view(self, pair: int) -> None:
        """Retire a pair's u32 locals before its float local takes over."""
        for reg in (pair, pair + 1):
            if reg in self.dirty_r:
                self.emit(f"_R[{reg}] = r{reg}")
                self.dirty_r.discard(reg)
            self.local_r.discard(reg)

    def rv(self, reg: int) -> str:
        """u32 value expression for *reg* (loads a local on first use)."""
        if reg == 0:
            return "0"
        self._spill_pair(reg & ~1)
        if reg not in self.local_r:
            self.emit(f"r{reg} = _R[{reg}]")
            self.local_r.add(reg)
        return f"r{reg}"

    def write_r(self, reg: int, expr: str) -> None:
        """Write *expr* (already masked) into *reg*'s local (r0 drops)."""
        if reg == 0:
            return
        self._spill_pair(reg & ~1)
        self.emit(f"r{reg} = {expr}")
        self.local_r.add(reg)
        self.dirty_r.add(reg)

    def read_double(self, reg: int) -> str:
        """Double-precision read of the pair at *reg*.

        An odd *reg* becomes the register-file call, which raises the
        odd-pair ``ExecutionError`` when the instruction executes.
        """
        if reg % 2:
            return f"state.regs.read_double({reg})"
        if reg not in self.local_d:
            self._drop_int_view(reg)
            self.emit(f"d{reg} = _D[{reg >> 1}]")
            self.local_d.add(reg)
        return f"d{reg}"

    def write_double(self, reg: int, expr: str) -> None:
        if reg % 2:
            # The register file raises exactly as for an odd read.
            self.emit(f"state.regs.write_double({reg}, {expr})")
            return
        if reg == 0:
            # Pair-0 writes are discarded whole, like the register file's
            # write_double.
            return
        self._drop_int_view(reg)
        self.emit(f"d{reg} = {expr}")
        self.local_d.add(reg)
        self.dirty_d.add(reg)

    # -- timing hooks ---------------------------------------------------
    def tv(self, reg: int) -> str:
        if reg not in self.local_t:
            self.emit(f"t{reg} = _T[{reg}]")
            self.local_t.add(reg)
        return f"t{reg}"

    def write_t(self, reg: int, expr: str) -> None:
        """Set *reg*'s ready time. r0's value is discarded, so it never
        gets one: its scoreboard entry stays 0 and nothing waits on it."""
        if reg == 0:
            return
        self.emit(f"t{reg} = {expr}")
        self.local_t.add(reg)
        self.dirty_t.add(reg)

    def write_double_t(self, reg: int, expr: str) -> None:
        """Set both ready times of the pair at *reg*; a pair-0 write is
        discarded whole, so it sets neither."""
        if reg == 0:
            return
        self.write_t(reg, expr)
        self.write_t(reg + 1 if reg + 1 < 64 else reg, f"t{reg}")

    def wait_deps(self, deps: tuple[int, ...]) -> None:
        """``e = max(it, ready[deps...])`` with locals; dupes and r0
        (never scoreboarded, see :meth:`write_t`) skipped."""
        self.emit("e = it")
        seen = {0}
        for reg in deps:
            if reg in seen:
                continue
            seen.add(reg)
            t = self.tv(reg)
            self.emit(f"if {t} > e: e = {t}")

    def stall_to_e(self) -> None:
        """Inline ``tu.issue_at(e)`` on the local clock."""
        self.emit("if e > it:")
        self.emit("    nst += e - it; nse += 1; it = e")

    def retire(self, execution: int) -> None:
        """Inline ``tu.retire(execution)``: constants fold into flush."""
        self.ni += 1
        self.nr += execution
        self.emit(f"it += {execution}")

    def park(self, index: int, value: str = "e",
             publish_pc: bool = False) -> None:
        """Park at the scheduler until cycle *value*; ``e`` is the grant.

        The architectural clock is synced first. *publish_pc* also
        stores the instruction's index in ``state.pc``, which the
        sanitizer's memory facade reads to attribute a finding.
        """
        self.is_gen = True
        if publish_pc and index != self.pc:
            self.emit(f"state.pc = {index}")
            self.pc = index
        self.emit("tu.issue_time = it")
        self.emit(f"e = yield {value}")

    def access(self, index: int, ea: str, access_mask: int,
               access_size: int, is_store: bool) -> None:
        """Time the memory access of instruction *index*."""
        self.emit(
            f"e, _oc, _, _ = state.memory.access(e, tu.quad_id, {ea} & "
            f"{access_mask}, {access_size}, {is_store})"
        )
        self.emit("e -= 1")
        self.stall_to_e()

    def fpu_issue(self, unit_attr: str, execution: int) -> None:
        """Reserve FPU sub-unit *unit_attr*; ``_rt`` is the result time."""
        self.emit(f"_ie, _rt = state.fpu.{unit_attr}(e)")
        self.emit(f"e = _ie - {execution}")
        self.stall_to_e()

    def fence(self) -> None:
        """``sync``: wait for every register's pending value."""
        # The scoreboard locals must be visible in the array first.
        for reg in sorted(self.dirty_t):
            self.emit(f"_T[{reg}] = t{reg}")
        self.emit("e = max(_T)")
        self.stall_to_e()

    def flush(self) -> None:
        """Store the clock and counter deltas back to state (block exit).

        Counters are telemetry, harvested on the cold path — nothing
        reads them while a thread is parked — so the whole block's
        deltas land in one batch of compile-time constants here. The
        architectural clock is different: it is flushed before every
        yield (see :meth:`park`) as well as here.
        """
        self.emit("tu.issue_time = it")
        self.emit("c = tu.counters")
        if self.ni:
            self.emit(f"c.instructions += {self.ni}")
        if self.nr:
            self.emit(f"c.run_cycles += {self.nr}")
        if self.nl:
            self.emit(f"c.loads += {self.nl}")
        if self.ns:
            self.emit(f"c.stores += {self.ns}")
        if self.nf:
            self.emit(f"c.flops += {self.nf}")
        self.emit("if nst:")
        self.emit("    c.stall_cycles += nst; c.stall_events += nse")

    def flush_registers(self) -> None:
        for reg in sorted(self.dirty_r):
            self.emit(f"_R[{reg}] = r{reg}")
        for reg in sorted(self.dirty_d):
            self.emit(f"_D[{reg >> 1}] = d{reg}")
        for reg in sorted(self.dirty_t):
            self.emit(f"_T[{reg}] = t{reg}")
        self.dirty_r.clear()
        self.dirty_d.clear()
        self.dirty_t.clear()

    def prologue(self, fn_name: str) -> list[str]:
        """Opening lines of the generated ``def``."""
        return [
            f"def {fn_name}(state):",
            "    tu = state.tu",
            "    _R = state.regs._regs",
            "    _D = state.regs._dbl",
            "    _MF = state.backing._mv_f64",
            "    _T = state.ready",
            "    it = tu.issue_time",
            "    nst = 0",
            "    nse = 0",
        ]

    # -- per-unit emitters --------------------------------------------
    def emit_alu(self, inst: Instruction) -> None:
        name = inst.opcode.name
        row = getattr(self.lat, inst.opcode.latency_row)
        execution, latency = row
        a, b = self.rv(inst.ra), self.rv(inst.rb)
        if name in ("div", "divu", "rem"):
            self.emit(f"if {b} == 0:")
            self.emit("    raise _div_zero(tu)")
            if name == "div":
                self.emit(f"_v = int({_sx(a)} / {_sx(b)}) & 4294967295")
            elif name == "divu":
                self.emit(f"_v = {a} // {b}")
            else:
                self.emit(
                    f"_v = int(_fmod({_sx(a)}, {_sx(b)})) & 4294967295"
                )
        else:
            build, needs_mask = _ALU_EXPR[name]
            expr = build(a, b, inst.imm)
            if needs_mask:
                expr = f"({expr}) & 4294967295"
            self.emit(f"_v = {expr}")
        self.wait_deps((inst.ra, inst.rb))
        self.stall_to_e()
        self.retire(execution)
        self.write_r(inst.rd, "_v")
        self.write_t(inst.rd, f"it + {latency}" if latency else "it")

    def emit_system(self, inst: Instruction) -> None:
        name = inst.opcode.name
        if name == "sync":
            self.fence()
        self.retire(1)
        if name == "tid":
            self.write_r(inst.rd, "tu.tid")
            self.write_t(inst.rd, "it")

    def emit_halt(self) -> None:
        self.retire(1)
        self.flush()
        self.flush_registers()
        # The functional clock does not advance, so its finish time is
        # the last detailed issue time; the timed flush just stored it.
        self.emit("c.finish_time = tu.issue_time")
        self.emit("state.halted = True")
        self.emit("return")

    def emit_branch(self, index: int, inst: Instruction) -> None:
        name = inst.opcode.name
        execution = self.lat.branch[0]
        next_pc = index + 1
        if name in _BRANCH_COND_EXPR:
            a, b = self.rv(inst.ra), self.rv(inst.rb)
            self.emit(f"_tk = {_BRANCH_COND_EXPR[name](a, b)}")
            self.wait_deps((inst.ra, inst.rb))
            self.stall_to_e()
            self.retire(execution)
            self.exit_to(f"{index + 1 + inst.imm} if _tk else {next_pc}")
            return
        if name == "j":
            self.retire(execution)
            self.exit_to(str(inst.imm))
            return
        if name == "jal":
            link = self.program.address_of(next_pc) & _U32
            self.write_r(REG_LINK, str(link))
            self.write_t(REG_LINK, "it + 2")
            self.retire(execution)
            self.exit_to(str(inst.imm))
            return
        # jr
        target = self.rv(inst.rd)
        self.wait_deps((inst.rd,))
        self.stall_to_e()
        self.retire(execution)
        self.exit_to(f"({target} - {self.program.base}) // 4")

    def emit_memory(self, index: int, inst: Instruction) -> None:
        name = inst.opcode.name
        size = MEM_SIZES[name]
        is_store = inst.opcode.unit is UnitClass.STORE
        rd = inst.rd
        self.wait_deps(inst.scoreboard_deps())
        self.park(index, publish_pc=True)
        ea = self.rv(inst.ra)
        if inst.imm:
            self.emit(f"_ea = ({ea} + ({inst.imm})) & 4294967295")
            ea = "_ea"
        self.emit(f"_ph = {ea} & 16777215")
        # Sub-word accesses are timed as their containing word. The
        # interest-group bits and the aligned offset partition the
        # address bits, so they fold into a single AND.
        align_mask = ~(size - 1) if size >= 4 else ~3
        self.access(index, ea, 0xFF000000 | (0xFFFFFF & align_mask),
                    max(size, 4), is_store)
        self.retire(1)
        if is_store:
            self.ns += 1
            if name == "sd":
                # Aligned doubles skip the backing store's bound check:
                # ``access`` checked max-memory, which never exceeds the
                # backing store. A misaligned one raises its fault there.
                value = self.read_double(rd)
                self.emit(f"if _ph & 7: "
                          f"state.backing.store_f64(_ph, {value})")
                self.emit(f"else: _MF[_ph >> 3] = {value}")
            elif name == "sw":
                self.emit(f"state.backing.store_u32(_ph, {self.rv(rd)})")
            else:
                self.emit("_wb = _ph - _ph % 4")
                self.emit(
                    "_dat = bytearray(state.backing.read_block(_wb, 4))"
                )
                if name == "sh":
                    self.emit(
                        "_dat[_ph % 4:_ph % 4 + 2] = "
                        f"_pk_H({self.rv(rd)} & 65535)"
                    )
                else:  # sb
                    self.emit(f"_dat[_ph % 4] = {self.rv(rd)} & 255")
                self.emit("state.backing.write_block(_wb, bytes(_dat))")
        else:
            self.nl += 1
            if name == "ld":
                value = ("_MF[_ph >> 3] if not _ph & 7 "
                         "else state.backing.load_f64(_ph)")
            elif name == "lw":
                value = "state.backing.load_u32(_ph)"
            else:  # lhu / lbu
                value = (f"_ifb(state.backing.read_block(_ph, {size}), "
                         "'little')")
            if rd == 0:
                # r0 and pair 0 drop the value, not the load: its
                # alignment fault still raises.
                self.emit(value)
            elif name == "ld":
                self.write_double(rd, value)
                self.write_double_t(rd, "_oc")
            else:
                self.write_r(rd, value)
                self.write_t(rd, "_oc")

    def emit_atomic(self, index: int, inst: Instruction) -> None:
        # The read-modify-write happens inside the memory system, which
        # times it; the functional emitter spells it out instead.
        op = _AMO_OPS[inst.opcode.name]
        self.wait_deps((inst.ra, inst.rb))
        a, b = self.rv(inst.ra), self.rv(inst.rb)
        self.park(index, publish_pc=True)
        self.emit(
            f"(e, _oc, _, _), _old = state.memory.atomic_rmw_u32(e, "
            f"tu.quad_id, {a}, {op!r}, {b})"
        )
        self.emit("e -= 1")
        self.stall_to_e()
        self.retire(1)
        self.nl += 1
        self.ns += 1
        self.write_r(inst.rd, "_old")
        self.write_t(inst.rd, "_oc")

    def emit_fpu(self, index: int, inst: Instruction) -> None:
        name = inst.opcode.name
        ra, rb, rd = inst.ra, inst.rb, inst.rd
        to_double = True
        if name in ("cvtif", "cvtfi"):
            unit_attr, flops, execution = "convert", 1, 1
            if name == "cvtif":
                value = f"float({_sx(self.rv(ra))})"
            else:
                to_double = False
                value = f"int({self.read_double(ra)}) & 4294967295"
        else:
            self.emit(f"_a = {self.read_double(ra)}")
            if name not in FPU_UNARY:
                self.emit(f"_b = {self.read_double(rb)}")
            if name in ("fcmplt", "fcmpeq"):
                unit_attr, flops, execution = "add", 1, 1
                to_double = False
                cmp = "<" if name == "fcmplt" else "=="
                self.emit(f"_v = 1 if _a {cmp} _b else 0")
            else:
                unit_attr, flops = _FPU_UNIT[name]
                execution = getattr(self.lat, inst.opcode.latency_row)[0]
                if name in ("fmadd", "fmsub"):
                    self.emit(f"_d = {self.read_double(rd)}")
                if name == "fdiv":
                    self.emit("if _b == 0.0:")
                    self.emit("    raise _fdiv_zero(tu)")
                self.emit(f"_v = {_FPU_VALUE_EXPR[name]}")
            value = "_v"
        self.wait_deps(inst.scoreboard_deps())
        self.park(index)
        self.fpu_issue(unit_attr, execution)
        self.retire(execution)
        self.nf += flops
        if to_double:
            self.write_double(rd, value)
            self.write_double_t(rd, "_rt")
        else:
            self.write_r(rd, value)
            self.write_t(rd, "_rt")

    def emit_spr(self, index: int, inst: Instruction) -> None:
        if inst.opcode.name == "mtspr":
            self.wait_deps((inst.ra,))
            a = self.rv(inst.ra)
            self.park(index)
            self.stall_to_e()
            self.retire(1)
            self.emit(f"state.spr.write(tu.tid, {a} & 255)")
        else:  # mfspr
            self.park(index, value="it")
            self.stall_to_e()
            self.retire(1)
            self.write_r(inst.rd, "state.spr.read_or() & 4294967295")
            self.write_t(inst.rd, "it")

    # -- block exits ---------------------------------------------------
    def exit_to(self, pc_expr: str) -> None:
        self.flush()
        self.flush_registers()
        self.emit(f"state.pc = {pc_expr}")
        self.emit("return")

    # -- driver --------------------------------------------------------
    def compile_source(self, fn_name: str) -> str:
        """The source of the fused ``def`` for this block."""
        instructions = self.program.instructions
        self.lines = self.prologue(fn_name)
        for index in range(self.start, self.end):
            inst = instructions[index]
            unit = inst.opcode.unit
            if unit in ALU_UNITS:
                self.emit_alu(inst)
            elif unit is UnitClass.BRANCH:
                self.emit_branch(index, inst)
                return "\n".join(self.lines) + "\n"
            elif unit is UnitClass.ATOMIC:
                self.emit_atomic(index, inst)
            elif unit in (UnitClass.LOAD, UnitClass.STORE):
                self.emit_memory(index, inst)
            elif unit in FPU_UNITS:
                self.emit_fpu(index, inst)
            elif unit is UnitClass.SPR:
                self.emit_spr(index, inst)
            elif inst.opcode.name == "halt":
                self.emit_halt()
                return "\n".join(self.lines) + "\n"
            else:
                self.emit_system(inst)
        self.exit_to(str(self.end))
        return "\n".join(self.lines) + "\n"

    def entry(self, fn):
        """The table entry of compiled block *fn*."""
        return self.is_gen, fn

    @staticmethod
    def lazy(entries: list, index: int, single):
        """A table entry that installs ``single(index)`` when first run."""
        def first_dispatch(state):
            is_gen, fn = entries[index] = single(index)
            if is_gen:
                yield from fn(state)
            else:
                fn(state)
        return True, first_dispatch


# ---------------------------------------------------------------------------
# Functional (timing-free) code generation — repro.sampling fast-forward
# ---------------------------------------------------------------------------
class _ZeroLatency:
    """Latency-table stand-in for functional codegen.

    The timed emitters index latency rows for execution/result cycles;
    the functional subclass discards both, so every row reads ``(1, 0)``.
    """

    def __getattr__(self, name: str) -> tuple[int, int]:
        return (1, 0)


_FUNCTIONAL_LAT = _ZeroLatency()
#: Functional blocks model no fetch, so they never cut at PIB windows:
#: only real leaders (entry, branch targets, fall-throughs) split them.
_FUNCTIONAL_WINDOW = 1 << 30


class _FunctionalEmitter(_BlockEmitter):
    """Emits the timing-free (functional) source of one block.

    Same architectural semantics as the timed emitter — register
    values, memory data, instruction/load/store/flop counters, faults —
    because only the timing hooks are overridden: every clock,
    scoreboard, cache, FPU-pipe and scheduler interaction is dropped,
    memory accesses check max-memory and warm the caches instead, and
    the closures are plain calls with no yields.
    """

    # -- timing hooks, dropped ------------------------------------------
    def write_t(self, reg: int, expr: str) -> None:
        pass

    def wait_deps(self, deps: tuple[int, ...]) -> None:
        pass

    def stall_to_e(self) -> None:
        pass

    def retire(self, execution: int) -> None:
        self.ni += 1

    def park(self, index: int, value: str = "e",
             publish_pc: bool = False) -> None:
        pass

    def fpu_issue(self, unit_attr: str, execution: int) -> None:
        pass

    def fence(self) -> None:
        # The fence orders only the scoreboard, which functional mode
        # does not model; architecturally it is a nop.
        pass

    def access(self, index: int, ea: str, access_mask: int,
               access_size: int, is_store: bool) -> None:
        self.check_bound(f"(_ph & {access_mask & 16777215})", access_size)
        # Functional warming: same aligned line-classified address the
        # timed path would access, minus all timing (see
        # MemorySubsystem.warm_access). Memoized per static op on the
        # line-aligned address: a unit-stride stream touches one line
        # for several consecutive accesses and only the first needs
        # tag/LRU work. A static op is always a load or always a
        # store, so the store flag needs no key space.
        self.emit(f"_k = {ea} & 4294967232")
        self.emit(f"if _wmg({index}) != _k:")
        self.emit(f"    _wm[{index}] = _k")
        self.emit(f"    _warm(_qid, {ea} & {access_mask}, {is_store})")

    def check_bound(self, physical: str, size: int) -> None:
        """Raise the timed access's max-memory fault: the same guarded
        test as ``MemorySubsystem.access``, on the same address."""
        self.emit(f"if {physical} + {size} > _mm:")
        self.emit(f"    state.memory.address_map.check({physical}, {size})")

    def flush(self) -> None:
        self.emit("c = tu.counters")
        if self.ni:
            self.emit(f"c.instructions += {self.ni}")
        if self.nl:
            self.emit(f"c.loads += {self.nl}")
        if self.ns:
            self.emit(f"c.stores += {self.ns}")
        if self.nf:
            self.emit(f"c.flops += {self.nf}")

    def prologue(self, fn_name: str) -> list[str]:
        return [
            f"def {fn_name}(state):",
            "    tu = state.tu",
            "    _R = state.regs._regs",
            "    _D = state.regs._dbl",
            "    _MF = state.backing._mv_f64",
            "    _mm = state.memory.address_map._max_memory",
            "    _warm = state.warm_fn",
            "    _wm = state.warm_memo",
            "    _wmg = _wm.get",
            "    _qid = tu.quad_id",
        ]

    def emit_atomic(self, index: int, inst: Instruction) -> None:
        op = _AMO_OPS[inst.opcode.name]
        a, b = self.rv(inst.ra), self.rv(inst.rb)
        self.emit(f"_ph = {a} & 16777215")
        self.check_bound("_ph", 4)
        self.emit(f"_warm(_qid, {a} & 4294967292, True)")
        self.emit("_old = state.backing.load_u32(_ph)")
        if op == "add":
            self.emit(
                f"state.backing.store_u32(_ph, (_old + {b}) & 4294967295)"
            )
        elif op == "swap":
            self.emit(f"state.backing.store_u32(_ph, {b})")
        elif op == "and":
            self.emit(f"state.backing.store_u32(_ph, _old & {b})")
        else:  # or
            self.emit(f"state.backing.store_u32(_ph, _old | {b})")
        self.retire(1)
        self.nl += 1
        self.ns += 1
        self.write_r(inst.rd, "_old")

    def entry(self, fn):
        return fn

    @staticmethod
    def lazy(entries: list, index: int, single):
        def first_dispatch(state):
            fn = entries[index] = single(index)
            fn(state)
        return first_dispatch


# ---------------------------------------------------------------------------
# Dispatch tables
# ---------------------------------------------------------------------------
class BlockTable:
    """Compiled dispatch table of one program.

    ``entries`` parallels the instruction list. A block leader's entry
    is its fused closure; every other index holds a lazy entry that
    compiles the one-instruction block there on first dispatch (via
    ``single``) and replaces itself, so ``jr`` into a block's interior
    stays executable without compiling every index up front. Timed
    entries are ``(is_generator, fn)`` pairs; functional entries are
    plain ``fn(state)`` closures.
    """

    __slots__ = ("entries", "n_fused", "lengths", "source", "single")

    def __init__(self, entries: list, n_fused: int, lengths: list[int],
                 source: str, single) -> None:
        self.entries = entries
        self.n_fused = n_fused
        #: Instruction count of each fused block (telemetry histogram).
        self.lengths = lengths
        #: Generated Python source of every fused block (debugging aid).
        self.source = source
        #: ``index -> entry`` of the compiled one-instruction block.
        self.single = single


def _exec(program: Program, source: str, name: str) -> dict:
    namespace = dict(_NAMESPACE)
    exec(compile(source, f"<{name}:{program.base:#x}>", "exec"), namespace)
    return namespace


def _single_compiler(program: Program, cls, *args):
    """``index -> entry`` of the one-instruction block there (memoized).

    Blocks are emitted by ``cls(program, *args, start, end)``.
    """
    memo: dict[int, object] = {}

    def single(index: int):
        entry = memo.get(index)
        if entry is None:
            emitter = cls(program, *args, index, index + 1)
            source = emitter.compile_source("_insn")
            fn = _exec(program, source, f"insn{index}")["_insn"]
            entry = memo[index] = emitter.entry(fn)
        return entry

    return single


def _build_table(program: Program, spans, single, name: str,
                 cls, *args) -> BlockTable:
    """Fuse each span at its leader; every other index is lazy."""
    instructions = program.instructions
    pieces: list[str] = []
    fused: list[tuple[int, _BlockEmitter]] = []
    lengths: list[int] = []
    for start, end in spans:
        if end - start == 1 and not _is_terminator(instructions[start]):
            # A lone straight-line instruction cut off by a leader or a
            # window boundary: its lazy entry is the same block.
            continue
        emitter = cls(program, *args, start, end)
        pieces.append(emitter.compile_source(f"_blk_{start}"))
        fused.append((start, emitter))
        lengths.append(end - start)
    module = "\n".join(pieces)
    namespace = _exec(program, module, name) if module else {}
    entries: list = [None] * len(instructions)
    entries[:] = [cls.lazy(entries, i, single) for i in range(len(entries))]
    for start, emitter in fused:
        entries[start] = emitter.entry(namespace[f"_blk_{start}"])
    return BlockTable(entries, len(fused), lengths, module, single)


def compile_program(program: Program, lat) -> BlockTable:
    """The program's table of one-instruction blocks under *lat*.

    Every entry compiles on its first dispatch. The table is cached on
    the program in a dict keyed on the latency table's identity (each
    entry keeps its table alive, so ids cannot be recycled underneath
    it): a program alternating between two chip configs — an ablation
    sweep, say — hits the cache on both instead of recompiling on every
    switch.
    """
    cache = program._threaded
    if cache is None:
        cache = program._threaded = {}
    cached = cache.get(id(lat))
    if cached is not None and cached[0] is lat:
        return cached[1]
    single = _single_compiler(program, _BlockEmitter, lat)
    table = _build_table(program, (), single, "insns", _BlockEmitter, lat)
    cache[id(lat)] = (lat, table)
    return table


def compile_blocks(program: Program, lat, window_bytes: int,
                   handlers: BlockTable) -> BlockTable:
    """Compile *program*'s basic blocks against latency table *lat*.

    *handlers* is the program's :func:`compile_program` table under the
    same *lat*; non-leader entries compile through it on first dispatch,
    so both tables share each one-instruction block. The result is
    cached on the program keyed by ``(lat identity, window_bytes)`` —
    see :class:`Program` — so sharing a program across threads or
    re-running it compiles nothing.
    """
    cache = program._blocks
    if cache is None:
        cache = program._blocks = {}
    key = (id(lat), window_bytes)
    cached = cache.get(key)
    if cached is not None and cached[0] is lat:
        return cached[1]
    table = _build_table(program, block_spans(program, window_bytes),
                         handlers.single, "blocks", _BlockEmitter, lat)
    cache[key] = (lat, table)
    return table


def compile_functional(program: Program) -> BlockTable:
    """Compile *program*'s functional (timing-free) dispatch table.

    Same builder as the timed tables: fused at leaders, lazy elsewhere.
    The table is latency-independent and cached on
    ``Program._functional``.
    """
    cached = program._functional
    if cached is not None:
        return cached
    table = _build_table(
        program, block_spans(program, _FUNCTIONAL_WINDOW),
        _single_compiler(program, _FunctionalEmitter, _FUNCTIONAL_LAT),
        "functional", _FunctionalEmitter, _FUNCTIONAL_LAT,
    )
    program._functional = table
    return table
