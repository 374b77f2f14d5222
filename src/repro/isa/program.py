"""Programs: instruction sequences with labels, placed at a code base."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.encoding import decode_instruction, encode_instruction
from repro.isa.instruction import Instruction


@dataclass
class Program:
    """An assembled program.

    Instructions occupy consecutive 4-byte slots starting at ``base``
    (instruction addresses feed the PIB/I-cache model). ``labels`` map
    names to instruction indices.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    base: int = 0x0
    #: One-instruction block cache: ``{id(latency_table):
    #: (latency_table, table)}``, filled by the interpreter the first
    #: time this program runs — see
    #: :func:`repro.isa.blocks.compile_program`. Tables are keyed to the
    #: latency table they were compiled against (the value keeps the
    #: table alive, which makes the ``id`` key safe), so a program can
    #: move between chips with different configs — or alternate between
    #: two configs in an ablation sweep — without recompiling. Mutating
    #: ``instructions`` after a run leaves a stale cache — assemble a new
    #: Program instead.
    _threaded: dict | None = field(
        init=False, default=None, repr=False, compare=False
    )
    #: Basic-block table cache, same lifecycle, keyed by
    #: ``(id(latency_table), pib_window_bytes)`` — see
    #: :func:`repro.isa.blocks.compile_blocks`.
    _blocks: dict | None = field(
        init=False, default=None, repr=False, compare=False
    )
    #: Functional (timing-free) dispatch table, latency-independent —
    #: see :func:`repro.isa.blocks.compile_functional`. Same lifecycle
    #: caveat: mutating ``instructions`` leaves it stale.
    _functional: object | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def address_of(self, index: int) -> int:
        """Byte address of the instruction at *index*."""
        return self.base + 4 * index

    def encode(self) -> list[int]:
        """The program as 32-bit machine words."""
        return [encode_instruction(inst) for inst in self.instructions]

    @classmethod
    def from_words(cls, words: list[int], base: int = 0) -> "Program":
        """Rebuild a program from machine words (no labels survive)."""
        return cls(
            instructions=[decode_instruction(w) for w in words],
            labels={},
            base=base,
        )

    def listing(self) -> str:
        """A human-readable disassembly listing."""
        by_index: dict[int, list[str]] = {}
        for name, index in self.labels.items():
            by_index.setdefault(index, []).append(name)
        lines = []
        for i, inst in enumerate(self.instructions):
            for name in by_index.get(i, []):
                lines.append(f"{name}:")
            lines.append(f"  {self.address_of(i):#08x}  {inst.render()}")
        return "\n".join(lines)
