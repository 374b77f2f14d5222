"""Composed memory subsystem: the access paths of Figure 2.

Every data access resolves as follows:

1. split the 32-bit effective address into interest-group byte and 24-bit
   physical address; decode the interest group (Table 1 semantics);
2. pick the one target cache for this line (the requester's own cache for
   group OWN, the scrambling function for multi-member sets);
3. reserve the target cache's 8 B/cycle port (this is where the cache
   switch's bandwidth limit and inter-thread contention live);
4. look up the tag array — a hit costs the Table 2 local (6) or remote
   (17) latency depending on whether the target cache belongs to the
   requesting quad;
5. a miss adds the fill: the request travels to the line's memory bank,
   queues behind other fills and writebacks, and transfers a 64-byte
   burst. Unloaded, this lands exactly on Table 2's 24/36-cycle miss
   latencies; under load the bank queueing delay adds on top, which is
   what makes STREAM saturate at the banks' aggregate bandwidth.

Store misses default to *write-validate* (allocate without fetching):
DESIGN.md explains why fetch-on-store-miss is incompatible with the
paper's ~peak sustained STREAM bandwidth. Dirty victims write back as
bursts that occupy the victim's bank but do not block the requester (a
write buffer), so writeback traffic correctly competes for bandwidth.
"""

from __future__ import annotations

import struct
from array import array
from enum import Enum

import numpy as np

from repro.config import DOUBLE_BYTES, PHYSICAL_ADDRESS_BITS, ChipConfig
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import AddressError
from repro.memory.address import (
    AddressMap,
    IG_SHIFT,
    PHYSICAL_MASK,
    line_address,
    split_effective,
)
from repro.memory.backing import BackingStore
from repro.memory.bank import MemoryBank
from repro.memory.cache import CacheUnit
from repro.memory.interest_groups import InterestGroup, Level
from repro.memory.offchip import OffChipMemory
from repro.memory.switch import CrossbarSwitch, build_cache_switch


class AccessKind(Enum):
    """Timing classification of one data access (Table 2 rows)."""

    LOCAL_HIT = "local_hit"
    LOCAL_MISS = "local_miss"
    REMOTE_HIT = "remote_hit"
    REMOTE_MISS = "remote_miss"
    SCRATCHPAD = "scratchpad"


# Aliases: one global load on the access path instead of two lookups.
_LOCAL_HIT = AccessKind.LOCAL_HIT
_LOCAL_MISS = AccessKind.LOCAL_MISS
_REMOTE_HIT = AccessKind.REMOTE_HIT
_REMOTE_MISS = AccessKind.REMOTE_MISS


#: What every timed access returns: ``(issue_end, complete, kind,
#: cache_id)``. ``issue_end`` is when the thread's issue slot frees
#: (execution column of Table 2 plus any wait for the cache port);
#: ``complete`` is when the value is available to dependent instructions
#: (latency column, plus bank queueing on a miss); ``kind`` is the
#: :class:`AccessKind`; ``cache_id`` is the cache that served the access.
#: A plain tuple: one is built per simulated access and every reader
#: unpacks it, which costs less than a named tuple's construction and
#: named-field reads.
AccessTiming = tuple[int, int, AccessKind, int]


#: Placement table of a group byte that has none yet: -1 (unresolved) at
#: every line of the 24-bit space, so the first access resolves through
#: :meth:`MemorySubsystem.target_cache`. A zero-stride view: it takes no
#: memory, and reading it is a C subscript like a real table's.
_NO_TABLE = np.broadcast_to(np.int8(-1), (1 << PHYSICAL_ADDRESS_BITS,))


class MemorySubsystem:
    """Banks + caches + switches + interest-group placement."""

    def __init__(self, config: ChipConfig, strict_incoherence: bool = False,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.config = config
        self.strict = strict_incoherence
        self.tracer = tracer
        self.address_map = AddressMap(config)
        self.backing = BackingStore(config.memory_bytes)
        self.banks = [MemoryBank(i, config) for i in range(config.n_memory_banks)]
        self.cache_switch: CrossbarSwitch = build_cache_switch(config)
        self.caches = [
            CacheUnit(i, config,
                      self.backing if strict_incoherence else None)
            for i in range(config.n_dcaches)
        ]
        self.offchip = OffChipMemory(config)
        #: Decoded interest groups, keyed by the interest-group byte.
        #: Bounded by construction: there are only 256 possible bytes
        #: (and fewer than that decode successfully), so the dict can
        #: never grow past 256 entries.
        self._ig_cache: dict[int, InterestGroup] = {}
        self._line_shift = config.dcache_line_bytes.bit_length() - 1
        self._line_mask = ~(config.dcache_line_bytes - 1)
        #: Target caches of the single-cache (``ONE``) groups, indexed by
        #: interest-group byte, ``None`` until first resolved. A ONE
        #: group's set has one member whatever the line or requester, so
        #: the byte alone decides the target and no placement table is
        #: consulted for it. OWN and scrambled groups stay ``None``.
        self._ig_target: list[int | None] = [None] * 256
        #: Placement tables of the scrambled (multi-cache) groups, indexed
        #: by interest-group byte. The scrambling function is a pure
        #: function of the line address and the group, so each line's
        #: target is resolved once and kept in the group's flat table:
        #: one signed entry per line of ``memory_bytes``, -1 (the byte
        #: 0xFF) until resolved. An entry is one byte, or two on a chip
        #: with more than 128 caches. Signed entries let one test,
        #: ``< 0``, serve both widths. Bytes without a table hold
        #: ``_NO_TABLE``, which reads -1 at every line.
        self._n_lines = config.memory_bytes >> self._line_shift
        self._placement: list = [_NO_TABLE] * 256
        #: Placement around disabled caches (fault tolerance): ``None``
        #: on a healthy chip, else a list mapping each cache id to the
        #: cache that takes its lines. See :meth:`remap_caches`.
        self._cache_remap: list[int] | None = None
        #: Optional attached coherence checker (repro.sanitizer). When
        #: set, sanitized threads route their accesses through observing
        #: facades; this subsystem itself only consults it on the cold
        #: flush path — the access fast path never tests it.
        self.sanitizer = None
        # Hot-path constants hoisted from the config (immutable per run).
        lat = config.latency
        self._local_hit_extra = lat.mem_local_hit[1]
        self._remote_hit_extra = lat.mem_remote_hit[1]
        self._fetch_store_miss = config.store_miss_fetches_line or self.strict
        #: Bound methods hoisted for the access fast path (the switch,
        #: the caches, and the tracer are created once per subsystem and
        #: never replaced; ``Tracer.enabled`` is fixed per tracer kind).
        self._transfer = self.cache_switch.transfer
        self._switch_ports = self.cache_switch.ports
        self._switch_bpc = self.cache_switch.bytes_per_cycle
        self._trace_enabled = tracer.enabled
        #: Hit-path inlining: ``access()`` probes the tag sets directly
        #: (shift and mask, as CacheUnit._set_index) and only calls
        #: :meth:`CacheUnit.miss` on a miss. The ``_sets`` lists are
        #: created once per cache and mutated in place, so hoisting them
        #: here stays coherent.
        self._cache_sets = [cache._sets for cache in self.caches]
        self._cset_shift = self.caches[0]._set_shift
        self._cset_mask = self.caches[0]._set_mask
        #: Miss path: a fill's bank is ``enabled[(line // interleave) %
        #: len(enabled)]`` (AddressMap.bank_of without its bounds check,
        #: which the access has already made). ``_enabled`` is the
        #: address map's live list: a bank failure edits it in place.
        self._enabled_banks = self.address_map._enabled
        self._interleave = config.interleave_bytes
        #: A fill completes at its burst's end plus the Table 2 miss
        #: latency beyond the burst, indexed by ``local``.
        self._fill_extra = (lat.mem_remote_miss[1] - config.burst_cycles,
                            lat.mem_local_miss[1] - config.burst_cycles)
        # Counting, once per access. A single-beat access that hits (the
        # dominant event) increments exactly one counter, on its target
        # cache's switch port, chosen by load or store and by whether
        # the requester's quad owns the cache. Every other access counts
        # apart: the caches count their misses and their multi-beat and
        # functionally warmed hits, the ports and the switch count those
        # transfers, and the attributes below count their kinds (an
        # attribute increment is the cheapest counter). ``kind_counts``
        # and ``cache_hits`` add the two parts; the switch derives its
        # requests and bytes alike.
        self._n_local_hit = self._n_local_miss = 0
        self._n_remote_hit = self._n_remote_miss = 0
        self._n_scratchpad = 0

    @property
    def kind_counts(self) -> dict[AccessKind, int]:
        """Access counts by timing classification (Table 2 rows)."""
        ports = self._switch_ports
        return {_LOCAL_HIT: self._n_local_hit + sum(
                    p.local_loads + p.local_stores for p in ports),
                _LOCAL_MISS: self._n_local_miss,
                _REMOTE_HIT: self._n_remote_hit + sum(
                    p.remote_loads + p.remote_stores for p in ports),
                _REMOTE_MISS: self._n_remote_miss,
                AccessKind.SCRATCHPAD: self._n_scratchpad}

    def cache_hits(self, cache_id: int) -> tuple[int, int]:
        """``(load hits, store hits)`` of one data cache."""
        cache = self.caches[cache_id]
        port = self._switch_ports[cache_id]
        return (cache.other_hits + port.local_loads + port.remote_loads,
                cache.other_store_hits + port.local_stores
                + port.remote_stores)

    def cache_hit_rate(self, cache_id: int) -> float:
        """Fraction of one data cache's lookups that hit (0 if none)."""
        cache = self.caches[cache_id]
        hits = sum(self.cache_hits(cache_id))
        lookups = hits + cache.misses + cache.store_misses
        return hits / lookups if lookups else 0.0

    # ------------------------------------------------------------------
    # Interest-group resolution
    # ------------------------------------------------------------------
    def decode_group(self, ig_byte: int) -> InterestGroup:
        """Decode (and memoize) an interest-group byte."""
        group = self._ig_cache.get(ig_byte)
        if group is None:
            group = InterestGroup.decode(ig_byte)
            self._ig_cache[ig_byte] = group
        return group

    def target_cache(self, ig_byte: int, physical: int, quad_id: int) -> int:
        """The cache that holds *physical* under *ig_byte* for *quad_id*.

        Interest group zero (OWN) is the requester's own cache; every
        other group maps a line to one fixed cache independent of the
        requester, so the answer is kept: per group byte for the
        single-cache groups (``_ig_target``), per line in the group's
        placement table for the scrambled ones (``_placement``). A line
        at or beyond ``memory_bytes`` has no table entry: it is resolved
        every time and not stored. Disabled caches are remapped before
        anything is kept.
        """
        remap = self._cache_remap
        if ig_byte == 0:  # OWN: the requester's own quad cache
            return quad_id if remap is None else remap[quad_id]
        target = self._ig_target[ig_byte]
        if target is not None:
            return target
        index = physical >> self._line_shift
        table = self._placement[ig_byte]
        stored = index < self._n_lines
        if stored:
            target = table[index]
            if target >= 0:
                return target
        group = self.decode_group(ig_byte)
        target = group.target_cache(index, self.config.n_dcaches, quad_id)
        if remap is not None:
            target = remap[target]
        if group.level is Level.ONE:
            self._ig_target[ig_byte] = target
        elif stored:
            if table is _NO_TABLE:
                code = "b" if self.config.n_dcaches <= 128 else "h"
                table = self._placement[ig_byte] = \
                    array(code, [-1]) * self._n_lines
            table[index] = target
        return target

    def remap_caches(self, remap: list[int]) -> None:
        """Place every line whose home is cache *c* in ``remap[c]``.

        The fault controller calls this when a quad's cache is withdrawn.
        Every kept placement is dropped: targets resolved before the
        remap may name a cache that is now disabled.
        """
        self._cache_remap = list(remap)
        self._ig_target = [None] * 256
        self._placement = [_NO_TABLE] * 256

    # ------------------------------------------------------------------
    # The main timed access path
    # ------------------------------------------------------------------
    def access(self, time: int, quad_id: int, effective: int, size: int,
               is_store: bool, target: int = 0,
               lines: dict | None = None) -> AccessTiming:
        """Timed load/store of *size* bytes at a 32-bit effective address.

        This is the simulator's hottest function: the dominant hit path
        allocates nothing beyond the returned plain tuple
        (:data:`AccessTiming`) — the address split is inlined, the target
        cache comes from the kept placement, the tag probe and the port
        reservation are inlined, a single-beat hit counts once on its
        port, and a hit returns from inside the probe.

        It is also the one miss path. A caller that has made this
        method's checks, resolved the *target* cache and probed its set
        *lines* without finding the line (the fused double finishers of
        :class:`~repro.runtime.context.ThreadCtx`) passes both, and the
        access continues at the miss: a miss is checked, placed and
        probed once, whoever starts it.
        """
        physical = effective & PHYSICAL_MASK
        line = physical & self._line_mask
        if lines is not None:
            state = None  # the caller's probe missed
        else:
            if effective >> 32:
                raise AddressError(
                    f"effective address {effective:#x} exceeds 32 bits"
                )
            # Guarded bounds test: `physical` is non-negative by masking,
            # so one comparison against the cached max-memory register
            # suffices; the slow call only runs to raise the detailed
            # fault.
            if physical + size > self.address_map._max_memory:
                self.address_map.check(physical, size)
            ig_byte = effective >> IG_SHIFT
            if ig_byte == 0:  # OWN: the requester's own quad cache
                target = quad_id
            else:
                # Inlined placement probes of target_cache(); the method
                # runs only to resolve a group or line for the first
                # time. The bounds test above keeps the line inside the
                # table.
                target = self._ig_target[ig_byte]
                if target is None:
                    target = self._placement[ig_byte][
                        line >> self._line_shift]
                    if target < 0:
                        target = self.target_cache(ig_byte, physical,
                                                   quad_id)
            # Tag probe, inlined: a hit — the dominant outcome —
            # re-inserts its line at the set's most recently used end
            # (one ``pop``), allocates nothing, and returns below.
            lines = self._cache_sets[target][
                (line >> self._cset_shift) & self._cset_mask
            ]
            state = lines.pop(line, None)
        local = target == quad_id

        if state is not None:
            lines[line] = state
            if is_store:
                state.dirty = True
            # Single-beat switch traversal, inlined (CrossbarSwitch.transfer
            # is a frame per access). The hit counts once, on its port;
            # one narrower or wider than a double also corrects the
            # switch's byte count.
            if size <= self._switch_bpc:
                port = self._switch_ports[target]
                next_free = port.next_free
                if time >= next_free:
                    port.next_free = issue_end = time + 1
                else:
                    port.next_free = issue_end = next_free + 1
                    self.cache_switch.contention_cycles += next_free - time
                if is_store:
                    if local:
                        port.local_stores += 1
                    else:
                        port.remote_stores += 1
                elif local:
                    port.local_loads += 1
                else:
                    port.remote_loads += 1
                if size != DOUBLE_BYTES:
                    self.cache_switch.extra_bytes += size - DOUBLE_BYTES
            else:
                issue_end = self._transfer(target, time, size) + 1
                if is_store:
                    self.caches[target].other_store_hits += 1
                else:
                    self.caches[target].other_hits += 1
                if local:
                    self._n_local_hit += 1
                else:
                    self._n_remote_hit += 1
            # A line whose fill is still on its way from memory delivers
            # only once the fill lands — the effect that penalizes the
            # paper's cyclic partitioning, where eight threads pile onto
            # each line "while the cache line is still being retrieved
            # from main memory" (Section 3.2.2). Grants on one port only
            # move forward, so once a hit issues at or after the fill,
            # every later one does too.
            complete = state.ready
            if complete < issue_end:
                complete = issue_end
            if local:
                kind = _LOCAL_HIT
                complete += self._local_hit_extra
            else:
                kind = _REMOTE_HIT
                complete += self._remote_hit_extra
            if self._trace_enabled:
                self._trace(time, target, kind, physical, is_store)
            return issue_end, complete, kind, target

        # A miss reserves the port as a hit does and counts apart; it
        # allocates the line (CacheUnit.miss), queues the fill burst on
        # the line's bank (none for a write-validate store) and a dirty
        # victim's writeback burst.
        if size <= self._switch_bpc:
            port = self._switch_ports[target]
            next_free = port.next_free
            if time >= next_free:
                port.next_free = issue_end = time + 1
            else:
                port.next_free = issue_end = next_free + 1
                self.cache_switch.contention_cycles += next_free - time
            port.other_requests += 1
            if size != DOUBLE_BYTES:
                self.cache_switch.extra_bytes += size - DOUBLE_BYTES
        else:
            issue_end = self._transfer(target, time, size) + 1
        cache = self.caches[target]
        if is_store and not self._fetch_store_miss:
            # Write-validate: the line is allocated dirty; the store
            # itself completes as soon as it issues.
            complete = issue_end
            victim = cache.miss(lines, line, True)
        else:
            enabled = self._enabled_banks
            complete = self.banks[
                enabled[line // self._interleave % len(enabled)]
            ].burst(issue_end) + self._fill_extra[local]
            victim = cache.miss(lines, line, is_store, complete)
            if self.strict:
                self._fill_line_buffer(cache, line)
        if victim >= 0:
            # A dirty victim's burst write queues on its bank.
            if victim >= self.address_map._max_memory:
                self.address_map.check(victim)
            enabled = self._enabled_banks
            self.banks[
                enabled[victim // self._interleave % len(enabled)]
            ].burst(issue_end, True)
        if local:
            self._n_local_miss += 1
            kind = _LOCAL_MISS
        else:
            self._n_remote_miss += 1
            kind = _REMOTE_MISS
        if self._trace_enabled:
            self._trace(time, target, kind, physical, is_store)
        return issue_end, complete, kind, target

    def _trace(self, time: int, target: int, kind: AccessKind,
               physical: int, is_store: bool) -> None:
        self.tracer.emit(time, f"cache{target}", kind.value,
                         f"phys={physical:#x} store={is_store}")

    def warm_access(self, quad_id: int, effective: int,
                    is_store: bool) -> None:
        """Untimed tag-state touch: SMARTS-style *functional warming*.

        Sampled simulation's fast-forward executes data movement with
        no clock; if cache contents stopped evolving meanwhile, every
        detailed window would resume against stale tags and bill cold
        misses the continuous run never paid (the bias is worst for
        workloads that re-read what they recently wrote). This keeps
        the tag arrays, LRU order, and dirty bits — and the hit/miss
        counters, which under sampling therefore cover *all*
        instructions — moving without reserving ports or banks or
        setting fill times. Dirty victims just drop: outside strict mode
        the data already lives in the backing store. Callers check the
        address against max-memory first (the functional emitter's
        bound test), so the line lies inside every placement table.
        """
        ig_byte = effective >> IG_SHIFT
        physical = effective & PHYSICAL_MASK
        line = physical & self._line_mask
        if ig_byte == 0:
            target = quad_id
        else:
            target = self._ig_target[ig_byte]
            if target is None:
                target = self._placement[ig_byte][line >> self._line_shift]
                if target < 0:
                    target = self.target_cache(ig_byte, physical, quad_id)
        lines = self._cache_sets[target][
            (line >> self._cset_shift) & self._cset_mask
        ]
        state = lines.pop(line, None)
        if state is None:
            self.caches[target].miss(lines, line, is_store)
        else:
            lines[line] = state
            if is_store:
                state.dirty = True
                self.caches[target].other_store_hits += 1
            else:
                self.caches[target].other_hits += 1

    def _fill_line_buffer(self, cache: CacheUnit, line: int) -> None:
        """Strict mode: copy the line's bytes from backing into the cache."""
        state = cache.line(line)
        if state is not None and state.data is not None:
            state.data[:] = self.backing.read_block(
                line, self.config.dcache_line_bytes
            )

    # ------------------------------------------------------------------
    # Functional access (values)
    # ------------------------------------------------------------------
    def load_f64(self, time: int, quad_id: int, effective: int
                 ) -> tuple[AccessTiming, float]:
        """Timed load of a double, returning its value."""
        outcome = self.access(time, quad_id, effective, 8, is_store=False)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            value = self._strict_read(outcome[3], physical, 8)
        else:
            value = self.backing.load_f64(physical)
        return outcome, value

    def store_f64(self, time: int, quad_id: int, effective: int,
                  value: float) -> AccessTiming:
        """Timed store of a double."""
        outcome = self.access(time, quad_id, effective, 8, is_store=True)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            self._strict_write(outcome[3], physical, 8, value=value)
        else:
            self.backing.store_f64(physical, value)
        return outcome

    def load_u32(self, time: int, quad_id: int, effective: int
                 ) -> tuple[AccessTiming, int]:
        """Timed load of a 32-bit word."""
        outcome = self.access(time, quad_id, effective, 4, is_store=False)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            word = self._strict_read(outcome[3], physical, 4)
        else:
            word = self.backing.load_u32(physical)
        return outcome, word

    def store_u32(self, time: int, quad_id: int, effective: int,
                  value: int) -> AccessTiming:
        """Timed store of a 32-bit word."""
        outcome = self.access(time, quad_id, effective, 4, is_store=True)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            self._strict_write(outcome[3], physical, 4, word=value)
        else:
            self.backing.store_u32(physical, value)
        return outcome

    def atomic_rmw_u32(self, time: int, quad_id: int, effective: int,
                       op: str, operand: int) -> tuple[AccessTiming, int]:
        """Atomic read-modify-write; returns the *old* value.

        Supported ops: ``add``, ``swap``, ``and``, ``or``. The engine
        serializes all shared-state operations in time order, so the RMW
        is atomic by construction; timing is a store-classified access
        (the line must be owned to modify it). In strict mode the RMW
        acts on the cached copy, like a plain load and store would.
        """
        outcome = self.access(time, quad_id, effective, 4, is_store=True)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            old = self._strict_read(outcome[3], physical, 4)
        else:
            old = self.backing.load_u32(physical)
        if op == "add":
            new = (old + operand) & 0xFFFFFFFF
        elif op == "swap":
            new = operand & 0xFFFFFFFF
        elif op == "and":
            new = old & operand
        elif op == "or":
            new = old | operand
        else:
            raise AddressError(f"unknown atomic op {op!r}")
        if self.strict:
            self._strict_write(outcome[3], physical, 4, word=new)
        else:
            self.backing.store_u32(physical, new)
        return outcome, old

    # ------------------------------------------------------------------
    # Strict-incoherence data movement
    # ------------------------------------------------------------------
    def _strict_read(self, cache_id: int, physical: int, size: int) -> float | int:
        line = line_address(physical, self.config.dcache_line_bytes)
        state = self.caches[cache_id].line(line)
        offset = physical - line
        if state is None or state.data is None:
            raw = self.backing.read_block(physical, size)
        else:
            raw = bytes(state.data[offset:offset + size])
        if size == 8:
            return struct.unpack("<d", raw)[0]
        return struct.unpack("<I", raw)[0]

    def _strict_write(self, cache_id: int, physical: int, size: int,
                      value: float = 0.0, word: int = 0) -> None:
        line = line_address(physical, self.config.dcache_line_bytes)
        state = self.caches[cache_id].line(line)
        raw = struct.pack("<d", value) if size == 8 else struct.pack("<I", word)
        if state is not None and state.data is not None:
            offset = physical - line
            state.data[offset:offset + size] = raw
        else:
            self.backing.write_block(physical, raw)

    def flush_cache(self, cache_id: int) -> int:
        """Software flush: write dirty lines back; returns #writebacks.

        Host-side (untimed) variant used between runs; the timed
        per-line operations are :meth:`flush_line` and
        :meth:`invalidate_line`.
        """
        dirty = self.caches[cache_id].flush()
        for addr, state in dirty:
            if state.data is not None:
                self.backing.write_block(addr, bytes(state.data))
        return len(dirty)

    def flush_line(self, time: int, quad_id: int,
                   effective: int) -> AccessTiming:
        """Timed line flush (the `dcbf` idiom): write back and drop.

        Costs a port access plus the hit latency; a dirty line also
        bursts onto its bank. This is the software-coherence primitive
        the paper's OWN-group discipline requires.
        """
        ig_byte, physical = split_effective(effective)
        line = line_address(physical, self.config.dcache_line_bytes)
        target = self.target_cache(ig_byte, physical, quad_id)
        cache = self.caches[target]
        local = target == quad_id
        port_grant = self.cache_switch.transfer(target, time, 8)
        issue_end = port_grant + 1
        row = self.config.latency.mem_local_hit if local \
            else self.config.latency.mem_remote_hit
        complete = issue_end + row[1]
        if self.sanitizer is not None:
            # dcbf writes dirty data back before dropping the line —
            # report it as a writeback so the shadow memory version
            # advances (the cache's own invalidate hook is a discard).
            self.sanitizer.on_flush_line(target, line)
        state = cache.invalidate(line)
        if state is not None and state.dirty:
            bank = self.banks[self.address_map.bank_of(line)]
            done = bank.burst(complete, True)
            if state.data is not None:
                self.backing.write_block(line, bytes(state.data))
            complete = done
        kind = AccessKind.LOCAL_HIT if local else AccessKind.REMOTE_HIT
        return issue_end, complete, kind, target

    def invalidate_line(self, time: int, quad_id: int,
                        effective: int) -> AccessTiming:
        """Timed line invalidate (drop without writeback): `dcbi`.

        The reader-side half of the software-coherence protocol; any
        dirty data in the line is *discarded*, as on real hardware.
        """
        ig_byte, physical = split_effective(effective)
        line = line_address(physical, self.config.dcache_line_bytes)
        target = self.target_cache(ig_byte, physical, quad_id)
        local = target == quad_id
        port_grant = self.cache_switch.transfer(target, time, 8)
        issue_end = port_grant + 1
        row = self.config.latency.mem_local_hit if local \
            else self.config.latency.mem_remote_hit
        self.caches[target].invalidate(line)
        kind = AccessKind.LOCAL_HIT if local else AccessKind.REMOTE_HIT
        return issue_end, issue_end + row[1], kind, target

    # ------------------------------------------------------------------
    # Scratchpad (partitioned fast memory)
    # ------------------------------------------------------------------
    def scratchpad_access(self, time: int, quad_id: int, cache_id: int,
                          size: int) -> AccessTiming:
        """Timed access to a cache's scratchpad region (local-hit cost)."""
        port_grant = self.cache_switch.transfer(cache_id, time, size)
        issue_end = port_grant + 1
        local = cache_id == quad_id
        row = self.config.latency.mem_local_hit if local \
            else self.config.latency.mem_remote_hit
        self._n_scratchpad += 1
        return (issue_end, issue_end + row[1], AccessKind.SCRATCHPAD,
                cache_id)

    # ------------------------------------------------------------------
    # Statistics & reset
    # ------------------------------------------------------------------
    @property
    def memory_traffic_bytes(self) -> int:
        """Total bytes moved in/out of the embedded banks."""
        return sum(bank.bytes_total for bank in self.banks)

    def cold_caches(self) -> None:
        """Drop every cached line (cold-start between experiments)."""
        for cache_id in range(len(self.caches)):
            self.flush_cache(cache_id)
