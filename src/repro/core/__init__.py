"""The Cyclops chip: the paper's primary contribution.

A hierarchical single-chip SMP (Figure 1): 128 simple in-order
single-issue thread units organized in 32 *quads* of four; each quad
shares one floating-point unit and one 16 KB data cache; each pair of
quads shares one 32 KB instruction cache; 16 banks of embedded DRAM are
shared chip-wide. Latency is tolerated not with out-of-order or
speculative execution but with massive parallelism: when one thread
stalls, 127 others can still issue.

:class:`repro.core.chip.Chip` assembles the whole hierarchy and is the
library's central object; everything else (kernel, workloads,
experiments) operates on a chip instance. ``Chip(sanitize=True)`` — or
a CLI's ``--sanitize`` — attaches the coherence sanitizer
(:mod:`repro.sanitizer`, contract in ``docs/memory-model.md``) at
construction. Its hook point in this
package is ``BarrierSPRFile.sanitizer``: the SPR file reports an
``arrive`` whose current-cycle bit is already clear (a missing
``participate``, or a double arrive) as barrier misuse, and the runtime
barriers report each release so the sanitizer can advance its
happens-before epoch per participating thread unit.
"""

from repro.core.chip import Chip
from repro.core.counters import ChipCounters, ThreadCounters
from repro.core.faults import FaultController
from repro.core.fpu import FPU
from repro.core.icache import InstructionCache, PrefetchBuffer
from repro.core.quad import Quad
from repro.core.spr import BarrierSPRFile
from repro.core.thread_unit import ThreadUnit

__all__ = [
    "BarrierSPRFile",
    "Chip",
    "ChipCounters",
    "FaultController",
    "FPU",
    "InstructionCache",
    "PrefetchBuffer",
    "Quad",
    "ThreadCounters",
    "ThreadUnit",
]
