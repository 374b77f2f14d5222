"""Thread units: the simple in-order cores of Cyclops.

"Each thread unit behaves like a simple, single-issue, in-order processor"
with a 64-entry single-precision register file (pairable for double
precision), a program counter, a fixed-point ALU, and a sequencer. Most
instructions execute in one cycle; a thread issues at most one instruction
per cycle and stalls when an operand or a shared resource is unavailable,
while other threads keep the chip busy.

This class carries the timing state shared by both execution layers (the
ISA interpreter and the direct-execution runtime): the in-order issue
clock, the scoreboard-style run/stall accounting, and the thread's own
fixed-point ALU (integer multiplies and divides never contend across
threads — only FPU, cache, and memory resources are shared).
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.core.counters import ThreadCounters


class ThreadUnit:
    """One hardware thread: issue clock, counters, private ALU."""

    def __init__(self, tid: int, config: ChipConfig) -> None:
        self.tid = tid
        self.config = config
        self.quad_id = tid // config.threads_per_quad
        #: Index of this thread within its quad (0..3).
        self.lane = tid % config.threads_per_quad
        #: First cycle at which the next instruction may issue.
        self.issue_time = 0
        self.counters = ThreadCounters()
        self.failed = False

    # ------------------------------------------------------------------
    # In-order issue with run/stall accounting
    # ------------------------------------------------------------------
    def issue_at(self, earliest: int) -> int:
        """Advance the issue clock to *earliest*, counting the gap as stall.

        Returns the issue cycle. ``earliest`` already folds in operand
        readiness and any resource grant delay computed by the caller.
        """
        if earliest > self.issue_time:
            self.counters.stall_cycles += earliest - self.issue_time
            self.counters.stall_events += 1
            self.issue_time = earliest
        return self.issue_time

    def retire(self, execution_cycles: int) -> None:
        """Account one issued instruction occupying the thread."""
        self.counters.instructions += 1
        self.counters.run_cycles += execution_cycles
        self.issue_time += execution_cycles

    def execute_local(self, earliest: int, row: tuple[int, int]) -> int:
        """Issue an instruction on thread-private hardware (ALU, branch).

        Returns the time the result is ready. The private ALU never
        contends with other threads, so the only delays are in-order
        issue and operand readiness (already folded into *earliest*).
        """
        execution, latency = row
        issue = self.issue_at(earliest)
        self.retire(execution)
        return issue + execution + latency

    def spin_to(self, release: int) -> None:
        """Busy-spin at full speed until *release* (SPR barrier wait).

        "Because each thread spin-waits on its own register, there is no
        contention for other chip resources and all threads run at full
        speed" — so the wait is *run* cycles of cheap instructions (a
        read plus a branch per iteration), not stall cycles. This is what
        makes Figure 7's run-cycle count go *up* under hardware barriers
        while stalls collapse.
        """
        if release <= self.issue_time:
            return
        gap = release - self.issue_time
        # One SPR read (1 cycle) + one branch (2 cycles) per poll.
        self.counters.instructions += (gap // 3) * 2
        self.counters.run_cycles += gap
        self.issue_time = release

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the thread unit broken (fault-tolerance experiments)."""
        self.failed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ThreadUnit {self.tid} quad={self.quad_id} t={self.issue_time}>"
