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

A cache counts its misses and the hits its switch port does not count
(multi-beat accesses, functional warming): a single-beat hit counts
once, on the port, and
:meth:`~repro.memory.subsystem.MemorySubsystem.cache_hits` adds the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ChipConfig
from repro.errors import CacheConfigError
from repro.memory.backing import BackingStore


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


class CacheUnit:
    """One 16 KB quad data cache: LRU sets, way partition, counters."""

    def __init__(self, cache_id: int, config: ChipConfig,
                 backing: BackingStore | None = None) -> None:
        self.cache_id = cache_id
        self.config = config
        self.line_bytes = config.dcache_line_bytes
        self.n_sets = config.dcache_sets
        self.total_ways = config.dcache_ways
        self.scratchpad_ways = 0
        #: strict-incoherence mode: lines buffer their own bytes, and an
        #: evicted dirty line's bytes are written to *backing*.
        self.backing = backing
        #: One insertion-ordered dict per set, least recently used line
        #: first: a hit re-inserts its line (``pop`` + store, one C call)
        #: and a full set evicts its first key.
        self._sets: list[dict[int, LineState]] = [
            {} for _ in range(self.n_sets)
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
        # counters (hits: only those the switch port does not count)
        self.other_hits = 0
        self.other_store_hits = 0
        self.misses = 0
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

    def miss(self, lines: dict[int, LineState], line_addr: int,
             is_store: bool, ready: int = 0) -> int:
        """Count a miss on *line_addr* in its set *lines*; allocate it.

        Callers probe the set themselves (the memory subsystem's inlined
        hit path), so the line must not be resident. The new line is the
        set's most recently used entry, ``lines[line_addr]``, dirty for a
        store, its fill landing at *ready*. A full set evicts its least
        recently used line and hands that line's state over to the new
        one. Returns the address of an evicted dirty line, whose burst
        the caller writes back, or -1.
        """
        if is_store:
            self.store_misses += 1
        else:
            self.misses += 1
        effective_ways = self.total_ways - self.scratchpad_ways
        if effective_ways == 0:
            raise CacheConfigError("cache has no ways left for caching")
        if len(lines) < effective_ways:
            lines[line_addr] = LineState(
                is_store,
                None if self.backing is None else bytearray(self.line_bytes),
                ready)
            return -1
        victim = next(iter(lines))
        state = lines.pop(victim)
        dirty = state.dirty
        self.evictions += 1
        if dirty:
            self.writebacks += 1
        if state.data is not None:
            if dirty:
                self.backing.write_block(victim, state.data)
            # The new line's bytes start at zero, as a fresh line's do.
            state.data = bytearray(self.line_bytes)
        if self.observer is not None:
            self.observer.on_evict(self.cache_id, victim, dirty)
        state.dirty = is_store
        state.ready = ready
        lines[line_addr] = state
        return victim if dirty else -1

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
