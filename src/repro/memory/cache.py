"""The shared, software-controlled data caches.

Each quad owns one 16 KB data cache with 64-byte lines and up to 8-way
associativity. All 32 caches are reachable from any thread (remote
accesses pay the cache-switch latency); *which* cache a line lives in is
decided by the interest-group byte, not by hardware coherence.

Two features beyond a plain cache are modeled:

* **Way partitioning** — "a data cache can also be partitioned with a
  granularity of 2 KB (one set) so that a portion of it can be used as an
  addressable fast memory, for streaming data or temporary work areas."
  At the paper's geometry one way is exactly 2 KB, so we partition by
  ways: reserved ways stop participating in replacement and become a
  directly addressed scratchpad with local-hit timing.

* **Line data buffers** (strict-incoherence mode) — when enabled, lines
  carry their own bytes so that replicated OWN-group lines can go stale,
  reproducing the paper's "potentially non-coherent system" semantics.
  The default mode keeps data in the backing store only (correct programs
  behave identically, and simulation is faster).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.config import ChipConfig
from repro.errors import CacheConfigError


@dataclass(slots=True)
class LineState:
    """Tag-array state for one resident line.

    ``ready`` is the cycle the line's fill from memory completes; a hit
    issued before it waits for the fill (the line is still on its way
    from the bank). It is zero for a line allocated without a fetch (a
    write-validate store) and after a timing reset.
    """

    dirty: bool = False
    data: bytearray | None = None
    ready: int = 0


class AccessResult(NamedTuple):
    """Outcome of a cache miss: any victim line to write back."""

    victim_line: int | None = None
    victim_dirty: bool = False
    victim_data: bytes | None = None


#: Interned result of a victimless miss (immutable, so every one can
#: share this instance and allocate nothing).
_MISS_NO_VICTIM = AccessResult()

#: ``tuple.__new__`` called directly builds an eviction's result in one C
#: call, without the named tuple's keyword-capable ``__new__`` frame.
_tuple_new = tuple.__new__


class CacheUnit:
    """One 16 KB quad data cache: LRU sets, way partition, counters."""

    def __init__(self, cache_id: int, config: ChipConfig,
                 buffer_data: bool = False) -> None:
        self.cache_id = cache_id
        self.config = config
        self.line_bytes = config.dcache_line_bytes
        self.n_sets = config.dcache_sets
        self.total_ways = config.dcache_ways
        self.scratchpad_ways = 0
        #: strict-incoherence mode: lines buffer their own bytes.
        self.buffer_data = buffer_data
        self._sets: list[OrderedDict[int, LineState]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        # Set selection is shift + mask: ChipConfig rejects any line
        # size or set count that is not a power of two.
        self._set_shift = self.line_bytes.bit_length() - 1
        self._set_mask = self.n_sets - 1
        self._scratchpad = bytearray()
        #: Optional coherence-sanitizer observer (repro.sanitizer). It is
        #: notified of evictions, invalidates, and flushes — the events
        #: that decide whether dirty data architecturally reaches memory.
        #: The hit path (inlined in MemorySubsystem.access) never tests it.
        self.observer = None
        # counters
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_misses = 0
        self.evictions = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def effective_ways(self) -> int:
        """Ways still participating in caching (total minus scratchpad)."""
        return self.total_ways - self.scratchpad_ways

    @property
    def scratchpad_bytes(self) -> int:
        """Bytes carved out as addressable fast memory."""
        return self.scratchpad_ways * self.n_sets * self.line_bytes

    def _set_index(self, line_addr: int) -> int:
        return (line_addr >> self._set_shift) & self._set_mask

    # ------------------------------------------------------------------
    # Partitioning (Section 2.1 fast-memory feature)
    # ------------------------------------------------------------------
    def set_scratchpad_ways(self, n_ways: int) -> None:
        """Reserve *n_ways* as scratchpad. Flushes all cached lines."""
        if not 0 <= n_ways < self.total_ways:
            raise CacheConfigError(
                f"scratchpad ways {n_ways} must be in [0, {self.total_ways})"
            )
        self.flush()
        self.scratchpad_ways = n_ways
        self._scratchpad = bytearray(self.scratchpad_bytes)

    def set_scratchpad_bytes(self, n_bytes: int) -> None:
        """Reserve scratchpad by size; must be a multiple of the 2 KB grain."""
        grain = self.config.dcache_partition_bytes
        if n_bytes % grain:
            raise CacheConfigError(
                f"scratchpad size {n_bytes} not a multiple of {grain}"
            )
        ways_bytes = self.n_sets * self.line_bytes
        self.set_scratchpad_ways(n_bytes // ways_bytes)

    def scratchpad_read(self, offset: int, size: int) -> bytes:
        """Read raw bytes from the scratchpad region."""
        if offset < 0 or offset + size > self.scratchpad_bytes:
            raise CacheConfigError(
                f"scratchpad read at {offset} (+{size}) out of range"
            )
        return bytes(self._scratchpad[offset:offset + size])

    def scratchpad_write(self, offset: int, data: bytes) -> None:
        """Write raw bytes into the scratchpad region."""
        if offset < 0 or offset + len(data) > self.scratchpad_bytes:
            raise CacheConfigError(
                f"scratchpad write at {offset} (+{len(data)}) out of range"
            )
        self._scratchpad[offset:offset + len(data)] = data

    # ------------------------------------------------------------------
    # Tag-array operations
    # ------------------------------------------------------------------
    def line(self, line_addr: int) -> LineState | None:
        """The resident line's state, or ``None``."""
        return self._sets[self._set_index(line_addr)].get(line_addr)

    def miss(self, lines: OrderedDict[int, LineState], line_addr: int,
             is_store: bool) -> AccessResult:
        """Count a miss on *line_addr* in its set *lines*; allocate it.

        Callers probe the set themselves (the memory subsystem's inlined
        hit path), so the line must not be resident. The new line is the
        set's most recently used entry, ``lines[line_addr]``; the result
        reports any victim that must be written back.
        """
        if is_store:
            self.store_misses += 1
        else:
            self.misses += 1
        effective_ways = self.total_ways - self.scratchpad_ways
        if effective_ways == 0:
            raise CacheConfigError("cache has no ways left for caching")
        data = bytearray(self.line_bytes) if self.buffer_data else None
        if len(lines) < effective_ways:
            lines[line_addr] = LineState(is_store, data)
            return _MISS_NO_VICTIM
        victim_line, victim_state = lines.popitem(last=False)
        victim_dirty = victim_state.dirty
        victim_data = None
        self.evictions += 1
        if victim_dirty:
            self.writebacks += 1
            if victim_state.data is not None:
                victim_data = bytes(victim_state.data)
        if self.observer is not None:
            self.observer.on_evict(self.cache_id, victim_line, victim_dirty)
        lines[line_addr] = LineState(is_store, data)
        return _tuple_new(AccessResult,
                          (victim_line, victim_dirty, victim_data))

    def invalidate(self, line_addr: int) -> LineState | None:
        """Drop a line without writing it back; returns its final state."""
        state = self._sets[self._set_index(line_addr)].pop(line_addr, None)
        if state is not None and self.observer is not None:
            self.observer.on_cache_invalidate(self.cache_id, line_addr,
                                              state.dirty)
        return state

    def flush(self) -> list[tuple[int, LineState]]:
        """Drop every line; returns the dirty ones (caller writes them back)."""
        dirty: list[tuple[int, LineState]] = []
        observer = self.observer
        for lines in self._sets:
            for addr, state in lines.items():
                if state.dirty:
                    dirty.append((addr, state))
                if observer is not None:
                    observer.on_evict(self.cache_id, addr, state.dirty)
            lines.clear()
        return dirty

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses + self.store_hits + self.store_misses

    def hit_rate(self) -> float:
        """Fraction of lookups that hit."""
        total = self.accesses
        if not total:
            return 0.0
        return (self.hits + self.store_hits) / total

