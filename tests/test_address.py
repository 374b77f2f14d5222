"""Tests for effective/physical addressing, interleaving, bank remap."""

import pytest
from hypothesis import given, strategies as st

from repro.config import ChipConfig
from repro.errors import AddressError, MemoryFault
from repro.memory.address import (
    AddressMap,
    check_alignment,
    line_address,
    make_effective,
    split_effective,
)


class TestEffectiveAddresses:
    def test_roundtrip(self):
        ea = make_effective(0x123456, 0xAB)
        assert split_effective(ea) == (0xAB, 0x123456)

    def test_ig_byte_occupies_top_8_bits(self):
        assert make_effective(0, 0xFF) == 0xFF000000
        assert make_effective(0xFFFFFF, 0) == 0x00FFFFFF

    def test_physical_out_of_range(self):
        with pytest.raises(AddressError):
            make_effective(1 << 24, 0)

    def test_ig_out_of_range(self):
        with pytest.raises(AddressError):
            make_effective(0, 256)

    def test_split_rejects_wide_values(self):
        with pytest.raises(AddressError):
            split_effective(1 << 32)

    @given(st.integers(0, (1 << 24) - 1), st.integers(0, 255))
    def test_roundtrip_property(self, phys, ig):
        assert split_effective(make_effective(phys, ig)) == (ig, phys)


class TestLineAddress:
    def test_aligns_down(self):
        assert line_address(0x7F, 64) == 0x40
        assert line_address(0x40, 64) == 0x40
        assert line_address(0x3F, 64) == 0

    @given(st.integers(0, (1 << 24) - 1))
    def test_always_aligned(self, phys):
        assert line_address(phys, 64) % 64 == 0
        assert 0 <= phys - line_address(phys, 64) < 64


class TestAlignment:
    def test_accepts_natural_alignment(self):
        check_alignment(0, 8)
        check_alignment(8, 8)
        check_alignment(4, 4)

    def test_rejects_misaligned(self):
        with pytest.raises(AddressError):
            check_alignment(4, 8)

    def test_rejects_odd_sizes(self):
        with pytest.raises(AddressError):
            check_alignment(0, 3)


class TestAddressMap:
    def test_interleaves_at_64_bytes(self):
        amap = AddressMap(ChipConfig.paper())
        assert amap.bank_of(0) == 0
        assert amap.bank_of(63) == 0
        assert amap.bank_of(64) == 1
        assert amap.bank_of(64 * 16) == 0  # wraps around 16 banks

    def test_max_memory_is_8mb(self):
        amap = AddressMap(ChipConfig.paper())
        assert amap.max_memory == 8 * 1024 * 1024

    def test_all_banks_used_uniformly(self):
        amap = AddressMap(ChipConfig.paper())
        counts = {}
        for addr in range(0, 64 * 64, 64):
            counts[amap.bank_of(addr)] = counts.get(amap.bank_of(addr), 0) + 1
        assert all(c == 4 for c in counts.values())
        assert len(counts) == 16

    def test_out_of_range_access(self):
        amap = AddressMap(ChipConfig.paper())
        with pytest.raises(MemoryFault):
            amap.bank_of(8 * 1024 * 1024)


class TestBankFailureRemap:
    def test_disable_shrinks_contiguous_space(self):
        amap = AddressMap(ChipConfig.paper())
        amap.disable_bank(5)
        assert amap.max_memory == 15 * 512 * 1024

    def test_survivors_carry_interleave(self):
        amap = AddressMap(ChipConfig.paper())
        amap.disable_bank(0)
        banks = {amap.bank_of(addr) for addr in range(0, 64 * 32, 64)}
        assert banks == set(range(1, 16))

    def test_space_stays_contiguous(self):
        amap = AddressMap(ChipConfig.paper())
        amap.disable_bank(7)
        # Every address below the new max resolves without fault.
        step = 512 * 1024
        for addr in range(0, amap.max_memory, step):
            amap.bank_of(addr)
        with pytest.raises(MemoryFault):
            amap.bank_of(amap.max_memory)

    def test_cannot_disable_twice(self):
        amap = AddressMap(ChipConfig.paper())
        amap.disable_bank(3)
        with pytest.raises(MemoryFault):
            amap.disable_bank(3)

    def test_cannot_disable_last(self):
        amap = AddressMap(ChipConfig.small(n_memory_banks=1))
        with pytest.raises(MemoryFault):
            amap.disable_bank(0)
