"""The Cyclops memory hierarchy.

Two on-chip levels (Section 2.1 of the paper):

* 16 banks of 512 KB embedded DRAM behind a uniform-latency memory
  switch, interleaved so a 64-byte cache-line fill is one 12-cycle burst
  (:mod:`repro.memory.bank`, :mod:`repro.memory.address`);
* 32 data caches of 16 KB (one per quad), shared chip-wide through a
  cache switch with non-uniform latency — 6 cycles to the local cache,
  17 to a remote one (:mod:`repro.memory.cache`,
  :mod:`repro.memory.switch`).

There is **no hardware cache coherence**. Software chooses where data
lives through the *interest group* byte in the top 8 bits of each 32-bit
effective address (:mod:`repro.memory.interest_groups`), from "my own
cache" (possibly replicated, software-managed) through fixed subsets up
to "one of all 32" — the default, which makes the 32 caches behave as a
single 512 KB coherent unit. :mod:`repro.memory.subsystem` composes the
pieces into the access paths of Figure 2 (a, b-g, d-e, f-c-f-e-d).

The consistency contract — what software must flush/invalidate, and
when — is documented in ``docs/memory-model.md``. The coherence
sanitizer (:mod:`repro.sanitizer`) maintains shadow line state through
three cold hook points in this package, all ``None`` and never tested
on the hot path:

* ``MemorySubsystem.sanitizer`` — set by ``CoherenceSanitizer.attach``;
  thread constructors consult it once to wrap their memory reference in
  an observing facade (the fast access paths are untouched);
* ``CacheUnit.observer`` — notified on evictions (writeback), bare
  invalidates (discard), and whole-cache flushes, the events that move
  dirty data to the backing memory or lose it;
* ``MemorySubsystem.flush_line`` reports each ``dcbf`` to the sanitizer
  before dropping the line, since unlike ``dcbi`` it writes dirty data
  back.
"""

from repro.memory.address import AddressMap, line_address, split_effective, make_effective
from repro.memory.backing import BackingStore
from repro.memory.bank import MemoryBank
from repro.memory.cache import CacheUnit
from repro.memory.interest_groups import (
    IG_ALL,
    IG_OWN,
    InterestGroup,
    Level,
)
from repro.memory.offchip import OffChipMemory
from repro.memory.subsystem import AccessKind, MemorySubsystem
from repro.memory.switch import CrossbarSwitch
from repro.memory.tracesim import (
    TraceAccess,
    TraceProfile,
    replay,
    retarget,
    strided_trace,
)

__all__ = [
    "AccessKind",
    "AddressMap",
    "BackingStore",
    "CacheUnit",
    "CrossbarSwitch",
    "IG_ALL",
    "IG_OWN",
    "InterestGroup",
    "Level",
    "MemoryBank",
    "MemorySubsystem",
    "OffChipMemory",
    "TraceAccess",
    "TraceProfile",
    "line_address",
    "make_effective",
    "replay",
    "retarget",
    "split_effective",
    "strided_trace",
]
