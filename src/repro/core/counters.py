"""Cycle and event accounting.

Figure 7 of the paper decomposes execution into *run cycles* — "in which
the threads were busy computing" — and *stall cycles* — "in which threads
were stalled for resources". We track the same decomposition per thread:
every issued instruction contributes its execution cycles to the run
count, and any time the thread's issue clock jumps forward beyond that
(waiting for an operand, a shared FPU, a cache port, a memory bank, or a
barrier) is a stall.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ThreadCounters:
    """Per-thread-unit activity counters."""

    instructions: int = 0
    run_cycles: int = 0
    stall_cycles: int = 0
    flops: int = 0
    loads: int = 0
    stores: int = 0
    barriers: int = 0
    start_time: int = 0
    finish_time: int = 0
    #: Number of distinct stall episodes (stall_cycles / stall_events is
    #: the mean stall length — a bank conflict reads very differently
    #: from a barrier wait even at equal total cycles).
    stall_events: int = 0

    @property
    def total_cycles(self) -> int:
        """Wall-clock cycles between start and finish."""
        return max(0, self.finish_time - self.start_time)

    @property
    def idle_cycles(self) -> int:
        """Cycles neither running nor accounted as stall (pre-start slack)."""
        return max(0, self.total_cycles - self.run_cycles - self.stall_cycles)

    def merge(self, other: "ThreadCounters") -> None:
        """Accumulate *other* into this counter set (aggregation)."""
        self.instructions += other.instructions
        self.run_cycles += other.run_cycles
        self.stall_cycles += other.stall_cycles
        self.flops += other.flops
        self.loads += other.loads
        self.stores += other.stores
        self.barriers += other.barriers
        self.stall_events += other.stall_events


@dataclass
class ChipCounters:
    """Aggregate over all thread units, kept by the chip."""

    threads: dict[int, ThreadCounters] = field(default_factory=dict)

    def thread(self, tid: int) -> ThreadCounters:
        """The (auto-created) counter block for one thread unit."""
        counters = self.threads.get(tid)
        if counters is None:
            counters = ThreadCounters()
            self.threads[tid] = counters
        return counters

    def aggregate(self) -> ThreadCounters:
        """Sum of all per-thread counters."""
        total = ThreadCounters()
        for counters in self.threads.values():
            total.merge(counters)
        return total

    @property
    def total_run_cycles(self) -> int:
        """Chip-wide run cycles."""
        return sum(c.run_cycles for c in self.threads.values())

    @property
    def total_stall_cycles(self) -> int:
        """Chip-wide stall cycles."""
        return sum(c.stall_cycles for c in self.threads.values())

    @property
    def total_instructions(self) -> int:
        """Chip-wide instruction count."""
        return sum(c.instructions for c in self.threads.values())
