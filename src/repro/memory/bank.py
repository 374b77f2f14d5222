"""Embedded DRAM banks.

Each of the 16 banks holds 512 KB and is reached through the memory
switch, so latency to any bank is uniform; bandwidth is what
differentiates them. "The unit of access is a 32-byte block, and threads
accessing two consecutive blocks in the same bank will see a lower latency
in burst transfer mode" — the peak of 42 GB/s is "64 bytes every 12
cycles, 16 memory banks". Accordingly a 64-byte line fill or writeback is
a single 12-cycle burst, and an isolated 32-byte block costs 8 cycles
(less efficient per byte, which is the paper's point about bursts).
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.engine.resources import TimelineResource
from repro.errors import MemoryFault


class MemoryBank(TimelineResource):
    """One embedded-DRAM bank: a busy timeline plus traffic counters."""

    def __init__(self, bank_id: int, config: ChipConfig) -> None:
        super().__init__(f"bank{bank_id}")
        self.bank_id = bank_id
        self.config = config
        self.bytes_read = 0
        self.bytes_written = 0
        #: Cycles requests queued behind earlier ones (bank conflicts).
        self.conflict_cycles = 0
        self.failed = False
        # Burst constants hoisted from the (frozen) config.
        self._burst_cycles = config.burst_cycles
        self._burst_bytes = config.burst_bytes

    # ------------------------------------------------------------------
    def _require_healthy(self) -> None:
        if self.failed:
            raise MemoryFault(f"bank {self.bank_id} has failed")

    def burst(self, time: int, write: bool = False) -> int:
        """Service one 64-byte burst at or after *time*: a line fill, or
        a writeback if *write*. Returns its completion time.

        :meth:`_require_healthy` and :meth:`reserve`, inlined: every
        line fill and writeback of a run comes through here. *time* is
        a simulated time, never negative, so reserve's argument check
        cannot fire.
        """
        if self.failed:
            raise MemoryFault(f"bank {self.bank_id} has failed")
        if time < self._last_request:
            self.reorderings += 1
        else:
            self._last_request = time
        busy = self._burst_cycles
        next_free = self.next_free
        if time >= next_free:
            grant = time
        else:
            grant = next_free
            self.conflict_cycles += next_free - time
        self.next_free = grant + busy
        self.busy_cycles += busy
        self.n_requests += 1
        if write:
            self.bytes_written += self._burst_bytes
        else:
            self.bytes_read += self._burst_bytes
        return grant + busy

    def read_block(self, time: int) -> int:
        """Service one isolated 32-byte block read (non-burst)."""
        self._require_healthy()
        grant = self.reserve(time, self.config.block_cycles)
        self.bytes_read += self.config.mem_block_bytes
        if grant != time:
            self.conflict_cycles += grant - time
        return grant + self.config.block_cycles

    def write_block(self, time: int) -> int:
        """Service one isolated 32-byte block write (non-burst)."""
        self._require_healthy()
        grant = self.reserve(time, self.config.block_cycles)
        self.bytes_written += self.config.mem_block_bytes
        if grant != time:
            self.conflict_cycles += grant - time
        return grant + self.config.block_cycles

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Mark the bank as broken (fault-tolerance experiments)."""
        self.failed = True

    @property
    def bytes_total(self) -> int:
        """All traffic through this bank."""
        return self.bytes_read + self.bytes_written
