"""Functional storage for the embedded DRAM.

The timing model and the functional model are deliberately separable: the
:class:`BackingStore` holds actual bytes so that workloads compute real
results (STREAM verifies its vectors, the FFT checks its spectrum), while
the caches and banks track only timing state. Values live at *physical*
addresses; cache-resident staleness under the non-coherent OWN interest
group is modeled separately by :class:`repro.memory.cache.CacheUnit` line
buffers in strict-incoherence mode.

Both simulated stores, this one and the off-chip memory, sit on
:func:`zeroed_pages`: a private anonymous mapping whose pages the OS
zero-fills on first touch, so a chip holds host memory only for the
pages its run writes.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.errors import AddressError, MemoryFault
from repro.memory.address import check_alignment


def zeroed_pages(size: int) -> np.ndarray:
    """A zero-filled ``uint8`` array of *size* bytes on its own mapping.

    The pages stay unmapped until first written and return to the OS
    when the array is dropped, whatever the heap allocator has recycled
    before. ``MAP_PRIVATE`` keeps a forked child's writes out of its
    parent's store (Python's default for an anonymous map is shared).
    """
    return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE),
                         dtype=np.uint8)


class BackingStore:
    """A flat byte array with typed aligned views.

    Doubles and 32-bit words are the two access grains the workloads use;
    both are served from reinterpreting views so single-element access is
    one numpy indexing operation.
    """

    def __init__(self, size_bytes: int) -> None:
        if size_bytes <= 0 or size_bytes % 8:
            raise AddressError("backing size must be a positive multiple of 8")
        self.size = size_bytes
        self._bytes = zeroed_pages(size_bytes)
        self._f64 = self._bytes.view(np.float64)
        # Memoryview casts over the same buffer: scalar loads/stores on a
        # memoryview return plain Python numbers, several times faster
        # than numpy scalar indexing plus float()/int() conversion — and
        # single-element access is the simulator's dominant pattern.
        self._mv_f64 = memoryview(self._bytes).cast("d")
        self._mv_u32 = memoryview(self._bytes).cast("I")

    # ------------------------------------------------------------------
    def _check(self, physical: int, size: int) -> None:
        check_alignment(physical, size)
        if physical < 0 or physical + size > self.size:
            raise MemoryFault(
                f"backing access at {physical:#x} (+{size}) out of range"
            )

    # ------------------------------------------------------------------
    # Doubles (STREAM's element type)
    # ------------------------------------------------------------------
    def load_f64(self, physical: int) -> float:
        """Read an aligned double."""
        if physical < 0 or physical & 7 or physical + 8 > self.size:
            self._check(physical, 8)
        return self._mv_f64[physical >> 3]

    def store_f64(self, physical: int, value: float) -> None:
        """Write an aligned double."""
        if physical < 0 or physical & 7 or physical + 8 > self.size:
            self._check(physical, 8)
        # memoryview stores are strict about type; float() is a no-op
        # for exact floats and converts ints/numpy scalars.
        self._mv_f64[physical >> 3] = float(value)

    def f64_view(self, physical: int, count: int) -> np.ndarray:
        """A mutable view of *count* doubles starting at *physical*.

        Used to initialize and verify vectors in bulk; simulated accesses
        still go element-by-element through the timing model.
        """
        self._check(physical, 8)
        if physical + 8 * count > self.size:
            raise MemoryFault("f64 view extends past end of memory")
        start = physical >> 3
        return self._f64[start:start + count]

    # ------------------------------------------------------------------
    # 32-bit words (the ISA's natural grain)
    # ------------------------------------------------------------------
    def load_u32(self, physical: int) -> int:
        """Read an aligned 32-bit word."""
        if physical < 0 or physical & 3 or physical + 4 > self.size:
            self._check(physical, 4)
        return self._mv_u32[physical >> 2]

    def store_u32(self, physical: int, value: int) -> None:
        """Write an aligned 32-bit word (value taken modulo 2**32)."""
        if physical < 0 or physical & 3 or physical + 4 > self.size:
            self._check(physical, 4)
        self._mv_u32[physical >> 2] = value & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # Raw bytes (off-chip DMA, line buffers)
    # ------------------------------------------------------------------
    def read_block(self, physical: int, size: int) -> bytes:
        """Copy *size* raw bytes out."""
        if physical < 0 or physical + size > self.size:
            raise MemoryFault("block read out of range")
        return self._bytes[physical:physical + size].tobytes()

    def write_block(self, physical: int, data: bytes) -> None:
        """Copy raw bytes in."""
        if physical < 0 or physical + len(data) > self.size:
            raise MemoryFault("block write out of range")
        self._bytes[physical:physical + len(data)] = np.frombuffer(
            data, dtype=np.uint8
        )
