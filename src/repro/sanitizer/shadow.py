"""Shadow-state core of the coherence sanitizer.

The sanitizer never changes what the simulator computes — it watches.
Observation points (all cold paths; see the module docstrings of
:mod:`repro.memory` and :mod:`repro.core` for the other half of this
contract):

* every timed access of a sanitized thread flows through a per-thread
  :class:`SanitizedMemory` facade that forwards to the real
  :class:`~repro.memory.subsystem.MemorySubsystem` and then reports the
  outcome to :meth:`CoherenceSanitizer.on_access` with the thread's
  identity (and, for ISA threads, the faulting PC);
* :class:`~repro.memory.cache.CacheUnit` notifies its ``observer`` on
  evictions, invalidates, and whole-cache flushes, which is how dirty
  data architecturally reaches (or fails to reach) the backing memory;
* :meth:`MemorySubsystem.flush_line` (the ``dcbf`` primitive) reports
  before dropping the line, because unlike a bare invalidate it writes
  dirty data back;
* barrier releases (:class:`~repro.runtime.barrier_hw.HardwareBarrier`,
  :class:`~repro.runtime.barrier_sw.TreeBarrier`) advance the global
  barrier epoch and stamp every participant;
* :meth:`BarrierSPRFile.arrive` reports a protocol violation when a
  thread arrives with its current-cycle bit already clear.

Shadow model
------------

Per line: ``version`` (bumped on every observed store anywhere),
``mem_version`` (what the backing memory architecturally holds — synced
when a dirty copy is written back), and per-cache copies each carrying
the version they hold plus writer provenance. The functional simulator
stores values straight to backing for speed, so stale data never
corrupts *results* in the default mode — the shadow versions recover
the architectural truth the fast path skips, which is exactly what the
sanitizer checks against.

Epochs: a global counter incremented once per barrier release; each
participant's thread-unit epoch is set to the new value. "Same epoch"
for the write-write check means the acting thread has not crossed a
barrier since the conflicting write. Staleness itself is *not* epoch-
gated: barriers order threads but do not update caches, so a stale copy
stays stale across any number of barriers until it is invalidated —
the most common misconception this tool exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SanitizerError
from repro.memory.address import IG_SHIFT, PHYSICAL_MASK
from repro.memory.subsystem import AccessKind
from repro.sanitizer import session

#: The finding kinds, in the order reports list them.
KINDS = ("stale-read", "write-write-conflict", "ig-misroute",
         "barrier-misuse")


@dataclass(frozen=True)
class Finding:
    """One sanitizer finding with full provenance.

    ``pc`` is the instruction address for ISA-interpreter threads and
    ``None`` for direct-execution threads (which have no architectural
    PC). ``writer`` carries the provenance of the newest write involved
    (``{"tid", "pc", "time", "cache", "epoch"}``) when one is known.
    """

    kind: str
    message: str
    time: int | None = None
    tid: int | None = None
    pc: int | None = None
    effective: int | None = None
    line: int | None = None
    cache_id: int | None = None
    epoch: int = 0
    writer: dict | None = None

    def render(self) -> str:
        """One human-readable line: ``[kind] where: message``."""
        where = []
        if self.time is not None:
            where.append(f"t={self.time}")
        if self.tid is not None:
            where.append(f"tu={self.tid}")
        if self.pc is not None:
            where.append(f"pc={self.pc:#x}")
        if self.effective is not None:
            where.append(f"ea={self.effective:#010x}")
        if self.cache_id is not None:
            where.append(f"cache={self.cache_id}")
        prefix = " ".join(where)
        return f"[{self.kind}] {prefix}: {self.message}" if prefix \
            else f"[{self.kind}] {self.message}"

    def to_dict(self) -> dict:
        """JSON-safe representation (for ``--sanitize-report``)."""
        return {
            "kind": self.kind,
            "time": self.time,
            "tid": self.tid,
            "pc": self.pc,
            "effective": self.effective,
            "line": self.line,
            "cache_id": self.cache_id,
            "epoch": self.epoch,
            "writer": self.writer,
            "message": self.message,
        }


class _Copy:
    """Shadow of one cache's copy of a line."""

    __slots__ = ("version", "dirty", "write_tid", "write_pc", "write_time",
                 "write_epoch")

    def __init__(self, version: int) -> None:
        self.version = version
        self.dirty = False
        self.write_tid: int | None = None
        self.write_pc: int | None = None
        self.write_time: int | None = None
        self.write_epoch = 0


@dataclass
class _LineShadow:
    """Shadow of one physical cache line across all 32 caches."""

    #: Newest version written anywhere (0 = the initial memory image).
    version: int = 0
    #: Version the backing memory architecturally holds.
    mem_version: int = 0
    #: Per-cache copies: cache_id -> _Copy.
    copies: dict[int, _Copy] = field(default_factory=dict)
    #: First non-OWN route seen: (ig_byte, cache_id), or None.
    home_ig: int | None = None
    home_cache: int | None = None
    #: Provenance of the newest write: (tid, pc, time, cache, epoch).
    writer: tuple | None = None


def _writer_dict(writer: tuple | None) -> dict | None:
    if writer is None:
        return None
    tid, pc, time, cache, epoch = writer
    return {"tid": tid, "pc": pc, "time": time, "cache": cache,
            "epoch": epoch}


class SanitizedMemory:
    """Per-thread observing facade over a :class:`MemorySubsystem`.

    Threads bind their memory reference once at construction (both the
    direct-execution :class:`~repro.runtime.context.ThreadCtx` and the
    interpreter's ``_ThreadState``), so swapping in this facade there
    intercepts every timed access of that thread with zero change to
    the simulator's hot paths. Attributes not overridden here delegate
    to the real subsystem.
    """

    __slots__ = ("_mem", "_san", "_tid", "_pc_of")

    def __init__(self, memory, sanitizer: "CoherenceSanitizer", tid: int,
                 pc_of=None) -> None:
        self._mem = memory
        self._san = sanitizer
        self._tid = tid
        self._pc_of = pc_of

    def __getattr__(self, name):
        return getattr(self._mem, name)

    def _pc(self) -> int | None:
        pc_of = self._pc_of
        return None if pc_of is None else pc_of()

    # -- timed access paths, each forwarding then observing ------------
    def access(self, time, quad_id, effective, size, is_store):
        outcome = self._mem.access(time, quad_id, effective, size, is_store)
        self._san.on_access(time, self._tid, self._pc(), effective,
                            is_store, outcome)
        return outcome

    def load_f64(self, time, quad_id, effective):
        outcome, value = self._mem.load_f64(time, quad_id, effective)
        self._san.on_access(time, self._tid, self._pc(), effective,
                            False, outcome)
        return outcome, value

    def store_f64(self, time, quad_id, effective, value):
        outcome = self._mem.store_f64(time, quad_id, effective, value)
        self._san.on_access(time, self._tid, self._pc(), effective,
                            True, outcome)
        return outcome

    def load_u32(self, time, quad_id, effective):
        outcome, value = self._mem.load_u32(time, quad_id, effective)
        self._san.on_access(time, self._tid, self._pc(), effective,
                            False, outcome)
        return outcome, value

    def store_u32(self, time, quad_id, effective, value):
        outcome = self._mem.store_u32(time, quad_id, effective, value)
        self._san.on_access(time, self._tid, self._pc(), effective,
                            True, outcome)
        return outcome

    def atomic_rmw_u32(self, time, quad_id, effective, op, operand):
        outcome, old = self._mem.atomic_rmw_u32(time, quad_id, effective,
                                                op, operand)
        # Atomics are the synchronization primitive: they bump the
        # line's version but are exempt from the same-epoch conflict
        # check (their whole point is unordered concurrent update).
        self._san.on_access(time, self._tid, self._pc(), effective,
                            True, outcome, atomic=True)
        return outcome, old


class CoherenceSanitizer:
    """The checker: shadow state, epoch tracking, finding reports.

    One sanitizer serves one chip. :meth:`attach` wires it into the
    chip's memory subsystem, caches, and barrier SPR file; thread
    facades pick it up from ``memory.sanitizer`` when the kernel or
    interpreter creates thread state. Attach *before* creating threads.
    """

    #: Deduplicated findings kept per sanitizer (occurrence counters
    #: keep counting past the cap).
    MAX_FINDINGS = 1000

    def __init__(self) -> None:
        self.chip = None
        self.findings: list[Finding] = []
        #: Occurrence counts per kind (pre-dedup).
        self.counts: dict[str, int] = {kind: 0 for kind in KINDS}
        self.occurrences = 0
        self._seen: set = set()
        self._lines: dict[int, _LineShadow] = {}
        self._tu_epoch: dict[int, int] = {}
        self._global_epoch = 0
        self._line_mask = -64

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, chip) -> "CoherenceSanitizer":
        """Hook this sanitizer into *chip*; returns ``self``."""
        if self.chip is not None:
            raise SanitizerError("sanitizer is already attached to a chip")
        memory = chip.memory
        if memory.sanitizer is not None:
            raise SanitizerError("chip already has an attached sanitizer")
        self.chip = chip
        self._line_mask = memory._line_mask
        memory.sanitizer = self
        for cache in memory.caches:
            cache.observer = self
        chip.barrier_spr.sanitizer = self
        session.register(self)
        return self

    def thread_view(self, memory, tid: int, pc_of=None) -> SanitizedMemory:
        """The observing facade a thread should use instead of *memory*."""
        return SanitizedMemory(memory, self, tid, pc_of)

    # ------------------------------------------------------------------
    # Access observation (the main check)
    # ------------------------------------------------------------------
    def on_access(self, time, tid, pc, effective, is_store, outcome,
                  atomic: bool = False) -> None:
        """Check one completed timed access against the shadow state."""
        _, _, kind, cache = outcome
        if kind is AccessKind.SCRATCHPAD:
            return
        ig_byte = effective >> IG_SHIFT
        line = effective & PHYSICAL_MASK & self._line_mask
        shadow = self._lines.get(line)
        if shadow is None:
            shadow = _LineShadow()
            self._lines[line] = shadow
        epoch = self._tu_epoch.get(tid, 0)

        # Interest-group routing: one physical line must have one home.
        if ig_byte:
            if shadow.home_ig is None:
                shadow.home_ig = ig_byte
                shadow.home_cache = cache
            elif cache != shadow.home_cache:
                self._report(
                    "ig-misroute", ("misroute", line, cache),
                    time, tid, pc, effective, line, cache, epoch,
                    f"interest group {ig_byte:#04x} routes line "
                    f"{line:#08x} to cache {cache}, but the line is homed "
                    f"in cache {shadow.home_cache} (first reached via "
                    f"group {shadow.home_ig:#04x}) — one line, two homes",
                    writer=shadow.writer,
                )
        elif shadow.home_ig is not None and cache != shadow.home_cache:
            self._report(
                "ig-misroute", ("misroute", line, cache),
                time, tid, pc, effective, line, cache, epoch,
                f"OWN-group access replicates line {line:#08x} into cache "
                f"{cache}, but the line is homed in cache "
                f"{shadow.home_cache} via group {shadow.home_ig:#04x} — "
                f"the copies can diverge",
                writer=shadow.writer,
            )

        copies = shadow.copies
        copy = copies.get(cache)
        if is_store:
            if not atomic:
                for other_id, other in copies.items():
                    if (other_id != cache and other.dirty
                            and other.write_tid is not None
                            and other.write_tid != tid
                            and epoch <= other.write_epoch):
                        low, high = sorted((cache, other_id))
                        self._report(
                            "write-write-conflict", ("ww", line, low, high),
                            time, tid, pc, effective, line, cache, epoch,
                            f"store to line {line:#08x} through cache "
                            f"{cache} while cache {other_id} holds a dirty "
                            f"copy written by TU {other.write_tid} in the "
                            f"same barrier epoch ({other.write_epoch}) — "
                            f"whichever copy writes back last wins",
                            writer=_writer_prov(other),
                        )
                        break
            shadow.version += 1
            if copy is None:
                copy = _Copy(shadow.mem_version)
                copies[cache] = copy
            copy.version = shadow.version
            copy.dirty = True
            copy.write_tid = tid
            copy.write_pc = pc
            copy.write_time = time
            copy.write_epoch = self._global_epoch
            shadow.writer = (tid, pc, time, cache, self._global_epoch)
            return

        hit = kind is AccessKind.LOCAL_HIT or kind is AccessKind.REMOTE_HIT
        if hit:
            if copy is None:
                # A resident line the sanitizer never saw filled (warmed
                # before attach, or host-side setup): adopt it as
                # current rather than guess it stale.
                copies[cache] = _Copy(shadow.version)
            elif copy.version < shadow.version:
                writer = shadow.writer
                detail = ""
                if writer is not None:
                    detail = (f"; version {shadow.version} was written by "
                              f"TU {writer[0]} at t={writer[2]} into cache "
                              f"{writer[3]} and never reached this copy")
                self._report(
                    "stale-read", ("stale", line, cache, shadow.version),
                    time, tid, pc, effective, line, cache, epoch,
                    f"load hits a stale copy of line {line:#08x} in cache "
                    f"{cache} (copy has version {copy.version}, newest is "
                    f"{shadow.version}){detail} — missing dcbf/dcbi pair",
                    writer=shadow.writer,
                )
        else:
            if shadow.mem_version < shadow.version:
                writer = shadow.writer
                detail = " — the writer never flushed it (missing dcbf)" \
                    if writer is not None else ""
                if writer is not None:
                    detail = (f"; version {shadow.version} is still dirty "
                              f"in cache {writer[3]} (written by TU "
                              f"{writer[0]} at t={writer[2]})" + detail)
                self._report(
                    "stale-read", ("stale", line, cache, shadow.version),
                    time, tid, pc, effective, line, cache, epoch,
                    f"miss fill of line {line:#08x} into cache {cache} "
                    f"delivers memory version {shadow.mem_version}, older "
                    f"than the newest version {shadow.version}{detail}",
                    writer=shadow.writer,
                )
            copies[cache] = _Copy(shadow.mem_version)

    # ------------------------------------------------------------------
    # Cache-side observation (evictions, invalidates, flushes)
    # ------------------------------------------------------------------
    def on_evict(self, cache_id: int, line: int, dirty: bool) -> None:
        """A line left *cache_id* with writeback semantics (LRU victim
        or whole-cache flush): dirty data reaches the backing memory."""
        shadow = self._lines.get(line)
        if shadow is None:
            return
        copy = shadow.copies.pop(cache_id, None)
        if copy is not None and dirty and copy.version > shadow.mem_version:
            shadow.mem_version = copy.version

    def on_cache_invalidate(self, cache_id: int, line: int,
                            dirty: bool) -> None:
        """A line was dropped *without* writeback (``dcbi`` semantics):
        any dirty data in it is discarded, exactly as on hardware."""
        shadow = self._lines.get(line)
        if shadow is not None:
            shadow.copies.pop(cache_id, None)

    def on_flush_line(self, cache_id: int, line: int) -> None:
        """``dcbf``: the line is written back (if dirty) and dropped.

        Called by :meth:`MemorySubsystem.flush_line` *before* the cache
        invalidate, so the writeback is accounted before the copy goes.
        """
        shadow = self._lines.get(line)
        if shadow is None:
            return
        copy = shadow.copies.pop(cache_id, None)
        if copy is not None and copy.dirty \
                and copy.version > shadow.mem_version:
            shadow.mem_version = copy.version

    # ------------------------------------------------------------------
    # Barrier observation
    # ------------------------------------------------------------------
    def on_barrier_release(self, tids) -> None:
        """A barrier released: advance the epoch for every participant."""
        self._global_epoch += 1
        epoch = self._global_epoch
        tu_epoch = self._tu_epoch
        for tid in tids:
            tu_epoch[tid] = epoch

    def on_barrier_misuse(self, tid: int, barrier_id: int,
                          message: str) -> None:
        """The SPR file saw a protocol violation from *tid*."""
        self._report(
            "barrier-misuse", ("barrier", tid, barrier_id),
            None, tid, None, None, None, None,
            self._tu_epoch.get(tid, 0),
            f"barrier {barrier_id}: {message}",
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _report(self, kind, dedup_key, time, tid, pc, effective, line,
                cache, epoch, message, writer=None) -> None:
        self.occurrences += 1
        self.counts[kind] += 1
        if dedup_key in self._seen:
            return
        self._seen.add(dedup_key)
        chip = self.chip
        if chip is not None and chip.telemetry is not None:
            chip.telemetry.registry.counter(
                "sanitizer.findings", kind=kind).inc()
        if len(self.findings) >= self.MAX_FINDINGS:
            return
        self.findings.append(Finding(
            kind=kind, message=message, time=time, tid=tid, pc=pc,
            effective=effective, line=line, cache_id=cache, epoch=epoch,
            writer=_writer_dict(writer) if isinstance(writer, tuple)
            else writer,
        ))

    @property
    def global_epoch(self) -> int:
        """Completed barrier-release episodes observed."""
        return self._global_epoch

    def report(self) -> dict:
        """JSON-safe summary of everything this sanitizer saw."""
        return {
            "global_epoch": self._global_epoch,
            "lines_tracked": len(self._lines),
            "occurrences": self.occurrences,
            "counts": dict(self.counts),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def clear(self) -> None:
        """Drop findings and shadow state (keep the chip wiring)."""
        self.findings.clear()
        self.counts = {kind: 0 for kind in KINDS}
        self.occurrences = 0
        self._seen.clear()
        self._lines.clear()
        self._tu_epoch.clear()
        self._global_epoch = 0


def _writer_prov(copy: _Copy) -> dict:
    """Writer provenance of a conflicting shadow copy."""
    return {"tid": copy.write_tid, "pc": copy.write_pc,
            "time": copy.write_time, "cache": None,
            "epoch": copy.write_epoch}
