"""Effective and physical addresses, interleaving, and bank remapping.

Cyclops addresses (Section 2.1):

* the **physical** address is 24 bits — at most 16 MB, of which the paper's
  chip populates 8 MB (16 x 512 KB banks);
* the **effective** address is 32 bits; its upper 8 bits carry the
  interest-group byte (cache-placement hint), its lower 24 bits the
  physical address;
* banks interleave at 64-byte granularity so that one cache-line fill is a
  single two-block burst in one bank.

:class:`AddressMap` also implements the fault-tolerance remap sketched in
the paper's future work: "if a memory bank fails, the hardware will set a
special register to specify the maximum amount of memory available on the
chip and will re-map all the addresses so that the address space is
contiguous".
"""

from __future__ import annotations

from repro.config import ChipConfig, PHYSICAL_ADDRESS_BITS
from repro.errors import AddressError, MemoryFault

PHYSICAL_MASK = (1 << PHYSICAL_ADDRESS_BITS) - 1
IG_SHIFT = PHYSICAL_ADDRESS_BITS


def make_effective(physical: int, ig_byte: int) -> int:
    """Compose a 32-bit effective address from physical and interest group."""
    if not 0 <= physical <= PHYSICAL_MASK:
        raise AddressError(f"physical address {physical:#x} exceeds 24 bits")
    if not 0 <= ig_byte <= 0xFF:
        raise AddressError(f"interest group byte {ig_byte:#x} exceeds 8 bits")
    return (ig_byte << IG_SHIFT) | physical


def split_effective(effective: int) -> tuple[int, int]:
    """Split a 32-bit effective address into ``(ig_byte, physical)``."""
    if not 0 <= effective < (1 << 32):
        raise AddressError(f"effective address {effective:#x} exceeds 32 bits")
    return effective >> IG_SHIFT, effective & PHYSICAL_MASK


def line_address(physical: int, line_bytes: int) -> int:
    """Align *physical* down to its cache line."""
    return physical & ~(line_bytes - 1)


def check_alignment(physical: int, size: int) -> None:
    """Raise :class:`AddressError` for a naturally misaligned access."""
    if size not in (1, 2, 4, 8):
        raise AddressError(f"unsupported access size {size}")
    if physical % size:
        raise AddressError(
            f"address {physical:#x} not aligned for {size}-byte access"
        )


class AddressMap:
    """Maps physical addresses to memory banks, with failure remapping.

    A healthy chip interleaves ``interleave_bytes`` units round-robin over
    all banks. When banks are disabled, the *logical* address space shrinks
    to stay contiguous (the special max-memory register) and interleaving
    continues over the surviving banks only.
    """

    def __init__(self, config: ChipConfig) -> None:
        self.config = config
        self._enabled = list(range(config.n_memory_banks))
        # The bounds check runs on every data access, so the special
        # register's value is cached and refreshed on bank failure.
        self._max_memory = len(self._enabled) * config.bank_bytes

    # ------------------------------------------------------------------
    @property
    def max_memory(self) -> int:
        """The fault-tolerance special register: usable contiguous bytes."""
        return self._max_memory

    def disable_bank(self, bank_id: int) -> None:
        """Take a failed bank out of service and shrink the address space."""
        if bank_id not in self._enabled:
            raise MemoryFault(f"bank {bank_id} is not enabled")
        if len(self._enabled) == 1:
            raise MemoryFault("cannot disable the last memory bank")
        self._enabled.remove(bank_id)
        self._max_memory = len(self._enabled) * self.config.bank_bytes

    # ------------------------------------------------------------------
    def check(self, physical: int, size: int = 1) -> None:
        """Validate that ``[physical, physical+size)`` is populated memory."""
        if physical < 0 or physical + size > self._max_memory:
            raise MemoryFault(
                f"access at {physical:#x} (+{size}) beyond populated memory "
                f"({self._max_memory:#x} bytes available)"
            )

    def bank_of(self, physical: int) -> int:
        """The bank that owns *physical* under the current interleave."""
        self.check(physical)
        unit = physical // self.config.interleave_bytes
        return self._enabled[unit % len(self._enabled)]
