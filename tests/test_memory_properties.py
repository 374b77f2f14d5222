"""Property-based invariants of the composed memory subsystem."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ChipConfig
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, InterestGroup, Level
from repro.memory.subsystem import AccessKind, MemorySubsystem

CFG = ChipConfig.paper()

aligned_addrs = st.integers(0, (CFG.memory_bytes - 8) // 8).map(lambda i: i * 8)


@settings(max_examples=60, deadline=None)
@given(aligned_addrs, st.integers(0, 31), st.booleans())
def test_latency_never_below_table2_minimum(physical, quad, is_store):
    """No access completes faster than its Table 2 row allows."""
    memory = MemorySubsystem(CFG)
    issue_end, complete, kind, _ = memory.access(
        0, quad, make_effective(physical, IG_ALL), 8, is_store)
    lat = CFG.latency
    floor = {
        AccessKind.LOCAL_HIT: lat.mem_local_hit[1],
        AccessKind.REMOTE_HIT: lat.mem_remote_hit[1],
        AccessKind.LOCAL_MISS: 0 if is_store else lat.mem_local_miss[1],
        AccessKind.REMOTE_MISS: 0 if is_store else lat.mem_remote_miss[1],
    }[kind]
    assert complete - issue_end >= floor
    assert issue_end >= 1


@settings(max_examples=40, deadline=None)
@given(aligned_addrs)
def test_load_then_load_hits(physical):
    """Temporal locality always pays off under a unique-home group."""
    memory = MemorySubsystem(CFG)
    ea = make_effective(physical, IG_ALL)
    first_issue_end, first_complete, _, _ = memory.access(0, 0, ea, 8, False)
    issue_end, complete, kind, _ = memory.access(first_complete + 1, 0, ea,
                                                 8, False)
    assert kind in (AccessKind.LOCAL_HIT, AccessKind.REMOTE_HIT)
    assert complete - issue_end < first_complete - first_issue_end


@settings(max_examples=40, deadline=None)
@given(st.lists(aligned_addrs, min_size=1, max_size=60), st.integers(0, 31))
def test_traffic_conservation(addresses, quad):
    """Bank traffic equals fills x line size plus writebacks x line size,
    and every byte is accounted in exactly one bank."""
    memory = MemorySubsystem(CFG)
    time = 0
    for addr in addresses:
        _, complete, _, _ = memory.access(
            time, quad, make_effective(addr, IG_ALL), 8, False)
        time = complete + 1
    misses = memory.kind_counts[AccessKind.LOCAL_MISS] \
        + memory.kind_counts[AccessKind.REMOTE_MISS]
    assert memory.memory_traffic_bytes == misses * CFG.dcache_line_bytes
    per_bank = sum(b.bytes_total for b in memory.banks)
    assert per_bank == memory.memory_traffic_bytes


@settings(max_examples=30, deadline=None)
@given(st.integers(0, CFG.memory_bytes // CFG.interleave_bytes - 1))
def test_interleave_unit_maps_to_one_bank(unit):
    """All bytes of one interleave unit live in the same bank, and the
    neighbouring unit lives in the next bank round-robin."""
    memory = MemorySubsystem(CFG)
    base = unit * CFG.interleave_bytes
    bank = memory.address_map.bank_of(base)
    assert memory.address_map.bank_of(base + CFG.interleave_bytes - 1) \
        == bank
    if base + CFG.interleave_bytes < CFG.memory_bytes:
        neighbour = memory.address_map.bank_of(base + CFG.interleave_bytes)
        assert neighbour == (bank + 1) % CFG.n_memory_banks


@settings(max_examples=30, deadline=None)
@given(aligned_addrs, st.integers(0, 31))
def test_write_validate_saves_exactly_one_fill(physical, quad):
    """A store miss costs one line of traffic less than a load miss
    (the fetch), everything else equal."""
    load_side = MemorySubsystem(CFG)
    store_side = MemorySubsystem(CFG)
    ea = make_effective(physical, IG_ALL)
    load_side.access(0, quad, ea, 8, False)
    store_side.access(0, quad, ea, 8, True)
    assert load_side.memory_traffic_bytes \
        - store_side.memory_traffic_bytes == CFG.dcache_line_bytes


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 255))
def test_every_decodable_group_places_in_range(byte):
    """Any byte that decodes must place any line in a valid cache."""
    from repro.errors import InterestGroupError
    memory = MemorySubsystem(CFG)
    try:
        InterestGroup.decode(byte)
    except InterestGroupError:
        return
    target = memory.target_cache(byte, 0x1234 * 64, 5)
    assert 0 <= target < CFG.n_dcaches


def _scrambled_bytes(config):
    """Every interest-group byte whose group has several caches."""
    from repro.errors import InterestGroupError
    scrambled = []
    for byte in range(1, 256):
        try:
            group = InterestGroup.decode(byte)
            members = group.cache_set(config.n_dcaches)
        except InterestGroupError:
            continue
        if len(members) > 1:
            scrambled.append(byte)
    return scrambled


#: Chips at the widths' edge: 128 caches still fit one signed byte per
#: line, 256 take two.
_WIDE_CFGS = {n: ChipConfig(n_threads=4 * n, threads_per_quad=4)
              for n in (128, 256)}


@pytest.mark.parametrize("config", [CFG, *_WIDE_CFGS.values()],
                         ids=["paper", *map(str, _WIDE_CFGS)])
@settings(max_examples=15, deadline=None)
@given(physicals=st.lists(st.integers(0, (1 << 24) - 1), min_size=1,
                          max_size=8),
       quad=st.integers(0, 31), shift=st.integers(1, 31))
def test_placement_table_matches_scrambling_function(config, physicals,
                                                     quad, shift):
    """Each scrambled group's placement table answers as the group's own
    scrambling function, on first resolution and when read back, before
    and after a cache remap, and for lines at or beyond ``memory_bytes``
    (resolved but not kept)."""
    memory = MemorySubsystem(config)
    n = config.n_dcaches
    physicals = physicals + [config.memory_bytes, (1 << 24) - 1]
    line_shift = config.dcache_line_bytes.bit_length() - 1

    def check(remap):
        for byte in _scrambled_bytes(config):
            group = InterestGroup.decode(byte)
            for physical in physicals:
                expected = remap[group.target_cache(physical >> line_shift,
                                                    n)]
                for _ in range(2):  # resolved, then read back
                    assert memory.target_cache(byte, physical, quad) \
                        == expected
                if physical + 8 <= config.memory_bytes:
                    assert memory.access(
                        0, quad, make_effective(physical & ~7, byte), 8,
                        False)[3] == expected

    check(list(range(n)))
    # Fold the caches onto every other one: the kept tables must go.
    remap = [(cache + shift) % n // 2 * 2 for cache in range(n)]
    memory.remap_caches(remap)
    check(remap)
