"""Instruction caches and per-thread prefetch instruction buffers.

"Instruction caches are 32 KB, 8-way set-associative with 64-byte line
size. One instruction cache is shared by 2 quads. Unlike the data caches,
the instruction caches are private to the quad pair. In addition, to
improve instruction fetching, each thread has a Prefetch Instruction
Buffer (PIB) that can hold up to 16 instructions." (paper, Section 2.1 —
Table 2 lists a 32-byte line for the I-cache; we follow the prose's 64
bytes, which makes one line exactly one PIB refill of sixteen 4-byte
instructions, and note the discrepancy here.)

Instruction fetch is modeled for the ISA interpreter: straight-line fetch
within the current 16-instruction window hits the PIB for free; crossing a
window boundary (or any taken branch leaving it) consults the I-cache —
one cycle on a hit, a memory-bank burst on a miss.
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.errors import CacheConfigError
from repro.memory.address import AddressMap
from repro.memory.bank import MemoryBank


class PrefetchBuffer:
    """One thread's PIB: the 16-instruction window currently buffered.

    The ISA dispatch loops refill it by storing the aligned start of
    the window they fetched in ``_window_start``.
    """

    def __init__(self, config: ChipConfig) -> None:
        self.window_bytes = config.pib_entries * config.word_bytes
        self._window_start: int | None = None

    def holds(self, address: int) -> bool:
        """True when *address* falls in the buffered window."""
        if self._window_start is None:
            return False
        return self._window_start <= address < self._window_start + self.window_bytes

    def clear(self) -> None:
        """Invalidate the buffer."""
        self._window_start = None


class InstructionCache:
    """One I-cache shared by a pair of quads (private to that pair)."""

    def __init__(self, icache_id: int, config: ChipConfig) -> None:
        self.icache_id = icache_id
        self.config = config
        self.line_bytes = config.icache_line_bytes
        self.ways = config.icache_ways
        self.n_sets = config.icache_bytes // (self.line_bytes * self.ways)
        if self.n_sets <= 0 or self.n_sets & (self.n_sets - 1):
            raise CacheConfigError(
                f"I-cache set count {self.n_sets} must be a power of two"
            )
        #: One insertion-ordered dict per set, least recently used line
        #: first (the data caches' layout, see CacheUnit).
        self._sets: list[dict[int, None]] = [
            {} for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.n_sets

    def fetch(self, time: int, address: int, banks: list[MemoryBank],
              address_map: AddressMap) -> tuple[int, bool]:
        """Fetch the line holding *address*; returns (ready_time, hit).

        A hit costs one cycle. A miss bursts the line from its memory bank
        (local-miss latency class: the I-caches sit next to their quads).
        """
        line = address - (address % self.line_bytes)
        index = self._set_index(line)
        lines = self._sets[index]
        if line in lines:
            del lines[line]
            lines[line] = None
            self.hits += 1
            return time + 1, True
        self.misses += 1
        if len(lines) >= self.ways:
            del lines[next(iter(lines))]
        lines[line] = None
        bank = banks[address_map.bank_of(line % address_map.max_memory)]
        done = bank.read_burst(time)
        _, extra = self.config.latency.mem_local_miss
        return max(done, time + extra), False

    def hit_rate(self) -> float:
        """Fraction of fetches that hit."""
        total = self.hits + self.misses
        if not total:
            return 0.0
        return self.hits / total
