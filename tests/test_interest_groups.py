"""Tests for the interest-group encoding (Table 1 semantics)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InterestGroupError
from repro.memory.interest_groups import (
    IG_ALL,
    IG_OWN,
    InterestGroup,
    Level,
)
from repro.memory.scramble import scramble64, scramble_pick

N_CACHES = 32


class TestLevels:
    def test_set_sizes_match_table_1(self):
        assert Level.OWN.set_size == 1
        assert Level.ONE.set_size == 1
        assert Level.PAIR.set_size == 2
        assert Level.FOUR.set_size == 4
        assert Level.EIGHT.set_size == 8
        assert Level.SIXTEEN.set_size == 16
        assert Level.ALL.set_size == 32


class TestEncoding:
    def test_own_is_byte_zero(self):
        assert IG_OWN == 0
        assert InterestGroup.decode(0).level is Level.OWN

    def test_roundtrip_every_group(self):
        for level in Level:
            if level is Level.OWN:
                groups = [InterestGroup(Level.OWN)]
            elif level is Level.ALL:
                groups = [InterestGroup(Level.ALL)]
            else:
                n_sets = N_CACHES // level.set_size
                groups = [InterestGroup(level, i) for i in range(n_sets)]
            for group in groups:
                assert InterestGroup.decode(group.encode()) == group

    def test_encodings_are_distinct(self):
        seen = set()
        for level in Level:
            n_sets = 1 if level in (Level.OWN, Level.ALL) \
                else N_CACHES // level.set_size
            for i in range(n_sets):
                byte = InterestGroup(level, 0 if level is Level.OWN else i).encode()
                assert byte not in seen
                seen.add(byte)

    def test_rejects_bad_level_bits(self):
        with pytest.raises(InterestGroupError):
            InterestGroup.decode(0b111_00000)

    def test_rejects_nonzero_own_index_bits(self):
        with pytest.raises(InterestGroupError):
            InterestGroup.decode(0b000_00001)

    def test_rejects_index_bits_below_boundary(self):
        # PAIR (level 2) indexes in steps of 2: odd low bits invalid.
        with pytest.raises(InterestGroupError):
            InterestGroup.decode((2 << 5) | 1)

    def test_rejects_out_of_range_byte(self):
        with pytest.raises(InterestGroupError):
            InterestGroup.decode(256)

    def test_index_out_of_field(self):
        with pytest.raises(InterestGroupError):
            InterestGroup(Level.ONE, 32).encode()


class TestCacheSets:
    def test_all_covers_every_cache(self):
        group = InterestGroup(Level.ALL)
        assert group.cache_set(N_CACHES) == tuple(range(32))

    def test_pair_sets_match_table_1(self):
        assert InterestGroup(Level.PAIR, 0).cache_set(N_CACHES) == (0, 1)
        assert InterestGroup(Level.PAIR, 15).cache_set(N_CACHES) == (30, 31)

    def test_eight_sets(self):
        assert InterestGroup(Level.EIGHT, 3).cache_set(N_CACHES) == \
            tuple(range(24, 32))

    def test_own_needs_requester(self):
        with pytest.raises(InterestGroupError):
            InterestGroup(Level.OWN).cache_set(N_CACHES)
        assert InterestGroup(Level.OWN).cache_set(N_CACHES, own_cache=7) == (7,)

    def test_small_chip_rejects_oversized_levels(self):
        with pytest.raises(InterestGroupError):
            InterestGroup(Level.SIXTEEN, 0).cache_set(4)

    def test_all_works_on_small_chips(self):
        assert InterestGroup(Level.ALL).cache_set(4) == (0, 1, 2, 3)

    def test_set_index_out_of_range(self):
        with pytest.raises(InterestGroupError):
            InterestGroup(Level.PAIR, 16).cache_set(N_CACHES)


class TestTargetCache:
    def test_single_member_is_fixed(self):
        group = InterestGroup(Level.ONE, 8)
        for line in range(100):
            assert group.target_cache(line, N_CACHES) == 8

    def test_own_follows_requester(self):
        group = InterestGroup(Level.OWN)
        assert group.target_cache(123, N_CACHES, own_cache=5) == 5
        assert group.target_cache(123, N_CACHES, own_cache=9) == 9

    def test_deterministic(self):
        group = InterestGroup(Level.ALL)
        for line in range(50):
            first = group.target_cache(line, N_CACHES)
            assert group.target_cache(line, N_CACHES) == first

    def test_stays_within_set(self):
        group = InterestGroup(Level.FOUR, 2)  # caches 8..11
        for line in range(200):
            assert group.target_cache(line, N_CACHES) in (8, 9, 10, 11)

    @given(st.integers(0, 10**6))
    def test_all_group_target_in_range(self, line):
        assert 0 <= InterestGroup(Level.ALL).target_cache(line, N_CACHES) < 32

    def test_uniform_utilization(self):
        """The paper: the scrambling function spreads uniformly."""
        group = InterestGroup(Level.ALL)
        counts = [0] * N_CACHES
        n_lines = 32 * 256
        for line in range(n_lines):
            counts[group.target_cache(line, N_CACHES)] += 1
        expected = n_lines / N_CACHES
        for count in counts:
            assert 0.6 * expected < count < 1.4 * expected


class TestScramble:
    def test_deterministic(self):
        assert scramble64(12345) == scramble64(12345)

    def test_pick_range(self):
        for size in (1, 2, 4, 8, 16, 32):
            for line in range(100):
                assert 0 <= scramble_pick(line, size) < size

    def test_pick_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            scramble_pick(0, 3)

    def test_decorrelates_strides(self):
        """Sequential lines (STREAM's pattern) must not hammer one cache."""
        picks = [scramble_pick(line, 32) for line in range(320)]
        busiest = max(picks.count(c) for c in range(32))
        assert busiest < 40  # uniform would be 10; allow slack but no hammering

    @given(st.integers(0, 2**62))
    def test_scramble_is_64_bit(self, v):
        assert 0 <= scramble64(v) < 2**64
