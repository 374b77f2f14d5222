"""Optional off-chip memory with block transfers.

"Some applications require more memory than is available on the Cyclops
chip. To support these applications, the design includes optional off-chip
memory ranging in size from 128 MB to 2 GB. In the current design the
off-chip memory is not directly addressable. Blocks of data, 1 KB in size,
are transferred between the external memory and the embedded memory much
like disk operations." (paper, Section 2.1)

The transfer engine is a single busy timeline (one DMA at a time) whose
per-block cost comes from :class:`~repro.config.ChipConfig`; destination
banks are additionally occupied so big staging transfers visibly steal
embedded-memory bandwidth from the threads.
"""

from __future__ import annotations

import numpy as np

from repro.config import ChipConfig
from repro.engine.resources import TimelineResource
from repro.errors import AddressError, MemoryFault
from repro.memory.address import AddressMap
from repro.memory.backing import BackingStore, zeroed_pages
from repro.memory.bank import MemoryBank


class OffChipMemory:
    """External DRAM reachable only through 1 KB block DMA."""

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        self.size = config.offchip_bytes
        self.block = config.offchip_block_bytes
        self._data = zeroed_pages(self.size)
        self.engine = TimelineResource("offchip-dma")
        self.blocks_in = 0
        self.blocks_out = 0

    # ------------------------------------------------------------------
    def _check(self, offset: int, n_blocks: int) -> None:
        if offset % self.block:
            raise AddressError(
                f"off-chip offset {offset:#x} not {self.block}-byte aligned"
            )
        if offset < 0 or offset + n_blocks * self.block > self.size:
            raise MemoryFault("off-chip transfer out of range")

    def _occupy_banks(self, time: int, physical: int, n_bytes: int,
                      banks: list[MemoryBank], address_map: AddressMap,
                      write: bool) -> None:
        """Charge the embedded banks for their side of the DMA."""
        step = self.config.burst_bytes
        for addr in range(physical, physical + n_bytes, step):
            bank = banks[address_map.bank_of(addr)]
            bank.burst(time, write)

    # ------------------------------------------------------------------
    def read_in(self, time: int, offchip_offset: int, physical: int,
                n_blocks: int, backing: BackingStore,
                banks: list[MemoryBank], address_map: AddressMap) -> int:
        """DMA *n_blocks* from off-chip into embedded memory.

        Returns the completion time; data lands in the backing store.
        """
        self._check(offchip_offset, n_blocks)
        n_bytes = n_blocks * self.block
        address_map.check(physical, n_bytes)
        grant = self.engine.reserve(time, n_blocks * self.config.offchip_block_cycles)
        done = grant + n_blocks * self.config.offchip_block_cycles
        data = self._data[offchip_offset:offchip_offset + n_bytes].tobytes()
        backing.write_block(physical, data)
        self._occupy_banks(grant, physical, n_bytes, banks, address_map, write=True)
        self.blocks_in += n_blocks
        return done

    def write_out(self, time: int, physical: int, offchip_offset: int,
                  n_blocks: int, backing: BackingStore,
                  banks: list[MemoryBank], address_map: AddressMap) -> int:
        """DMA *n_blocks* from embedded memory out to off-chip storage."""
        self._check(offchip_offset, n_blocks)
        n_bytes = n_blocks * self.block
        address_map.check(physical, n_bytes)
        grant = self.engine.reserve(time, n_blocks * self.config.offchip_block_cycles)
        done = grant + n_blocks * self.config.offchip_block_cycles
        data = backing.read_block(physical, n_bytes)
        self._data[offchip_offset:offchip_offset + n_bytes] = np.frombuffer(
            data, dtype=np.uint8
        )
        self._occupy_banks(grant, physical, n_bytes, banks, address_map, write=False)
        self.blocks_out += n_blocks
        return done

    # ------------------------------------------------------------------
    def poke(self, offset: int, data: bytes) -> None:
        """Host-side write (loading an input data set)."""
        if offset < 0 or offset + len(data) > self.size:
            raise MemoryFault("off-chip poke out of range")
        self._data[offset:offset + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def peek(self, offset: int, size: int) -> bytes:
        """Host-side read (retrieving results)."""
        if offset < 0 or offset + size > self.size:
            raise MemoryFault("off-chip peek out of range")
        return self._data[offset:offset + size].tobytes()
