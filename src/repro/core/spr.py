"""The wired-OR barrier special purpose register (Section 2.3).

Each thread owns an 8-bit SPR; a read returns the OR over *all* threads'
SPRs. Two bits serve each of 4 barriers: one bit holds the state of the
current barrier cycle, the other the state of the next. To use barrier
*b*:

1. while computing, a participating thread keeps its *current* bit at 1
   (non-participants keep both bits 0);
2. on arrival it atomically writes 0 to the current bit (withdrawing its
   contribution) and 1 to the next bit (initializing the following
   barrier cycle);
3. it then spins reading the ORed value until the current bit reads 0 —
   which happens exactly when every participant has arrived;
4. the roles of the two bits swap for the next use.

Because each thread spins on its own register there is no memory
contention — the key property behind Figure 7. This module is the
bit-level functional model; :mod:`repro.runtime.barrier_hw` couples it to
the scheduler for timing.
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.errors import BarrierError


class BarrierSPRFile:
    """All threads' barrier SPRs plus the wired-OR read path."""

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        self.n_threads = config.n_threads
        self.n_barriers = config.n_barriers
        self._spr = [0] * self.n_threads
        #: Per bit, how many registers have it set: a write updates only
        #: the bits it changes.
        self._set_counts = [0] * config.spr_bits
        #: Cached OR of all registers: bit *b* is set iff its count is
        #: nonzero.
        self._or_value = 0
        #: Optional coherence-sanitizer hook (repro.sanitizer): notified
        #: when a thread arrives without a matching participate.
        self.sanitizer = None
        #: Per-barrier phase: which of the two bits is "current" (0 or 1).
        self._phase = [0] * self.n_barriers

    # ------------------------------------------------------------------
    # Raw register access (what the ISA exposes)
    # ------------------------------------------------------------------
    def write(self, tid: int, value: int) -> None:
        """A thread writes its own SPR (independent, single cycle)."""
        self._check_tid(tid)
        if not 0 <= value < (1 << self.config.spr_bits):
            raise BarrierError(f"SPR value {value:#x} exceeds register width")
        changed = self._spr[tid] ^ value
        if not changed:
            return
        self._spr[tid] = value
        counts = self._set_counts
        or_value = self._or_value
        bit = 0
        while changed:
            if changed & 1:
                mask = 1 << bit
                if value & mask:
                    counts[bit] += 1
                    or_value |= mask
                else:
                    counts[bit] -= 1
                    if not counts[bit]:
                        or_value &= ~mask
            changed >>= 1
            bit += 1
        self._or_value = or_value

    def read_or(self) -> int:
        """The wired-OR of every thread's SPR (what a read returns)."""
        return self._or_value

    def _check_tid(self, tid: int) -> None:
        if not 0 <= tid < self.n_threads:
            raise BarrierError(f"thread id {tid} out of range")

    # ------------------------------------------------------------------
    # Barrier-protocol helpers (bit bookkeeping of Section 2.3)
    # ------------------------------------------------------------------
    def _bits(self, barrier_id: int) -> tuple[int, int]:
        """(current_bit_mask, next_bit_mask) for this barrier's phase."""
        if not 0 <= barrier_id < self.n_barriers:
            raise BarrierError(f"barrier id {barrier_id} out of range "
                               f"(chip has {self.n_barriers})")
        base = barrier_id * self.config.bits_per_barrier
        phase = self._phase[barrier_id]
        current = 1 << (base + phase)
        nxt = 1 << (base + (1 - phase))
        return current, nxt

    def participate(self, tid: int, barrier_id: int) -> None:
        """Initialize participation: set the current-cycle bit to 1."""
        current, _ = self._bits(barrier_id)
        self.write(tid, self._spr[tid] | current)

    def arrive(self, tid: int, barrier_id: int) -> None:
        """Atomically drop the current bit and raise the next bit."""
        current, nxt = self._bits(barrier_id)
        if self.sanitizer is not None and not (self._spr[tid] & current):
            self.sanitizer.on_barrier_misuse(
                tid, barrier_id,
                "arrive with the current-cycle bit already clear — the "
                "thread never ran participate() for this barrier cycle "
                "(or arrived twice)",
            )
        self.write(tid, (self._spr[tid] & ~current) | nxt)

    def current_clear(self, barrier_id: int) -> bool:
        """True when every participant has arrived (ORed current bit is 0)."""
        current, _ = self._bits(barrier_id)
        return not (self._or_value & current)

    def advance_phase(self, barrier_id: int) -> None:
        """Swap the roles of the two bits after a completed barrier."""
        if not 0 <= barrier_id < self.n_barriers:
            raise BarrierError(f"barrier id {barrier_id} out of range")
        self._phase[barrier_id] = 1 - self._phase[barrier_id]
