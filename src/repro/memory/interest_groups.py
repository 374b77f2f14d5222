"""Interest-group encoding: software-controlled cache placement (Table 1).

Every 32-bit effective address carries an 8-bit interest-group byte that
selects the *set of caches* in which the addressed data may live:

===========  =======================  ==================================
level        selected caches           paper's comment
===========  =======================  ==================================
OWN          thread's own              may replicate; software-managed
ONE          {0}, {1}, ... {31}        exactly one
PAIR         {0,1}, {2,3}, ...         one of a pair
FOUR         {0..3}, {4..7}, ...       one of four
EIGHT        {0..7}, ... {24..31}      one of eight
SIXTEEN      {0..15}, {16..31}         one of sixteen
ALL          {0..31}                   one of all
===========  =======================  ==================================

When a set has several members, "the hardware will select one of the
caches in the set, utilizing a scrambling function so that all the caches
are uniformly utilized. The function is completely deterministic and
relies only on the address" — see :mod:`repro.memory.scramble`.

With the default ``ALL`` group the 32 caches behave as one coherent
512 KB unit: each physical line maps to exactly one cache. Every non-OWN
group likewise maps an address to exactly one cache, so no coherence
problem arises. ``OWN`` caches the line in the *accessing thread's* local
cache — the same physical address may then live in several caches at
once, and keeping that replication consistent is the software's job.

Bit-level note: the paper's Table 1 encodings are ambiguous in the
available text (its examples cannot be reconciled with its row
structure), so we fix a documented encoding that preserves the semantics:
bits 7-5 hold the level (0=OWN ... 6=ALL) and bits 4-0 hold the set index
shifted left by ``level - 1`` (i.e. the index occupies the high bits of
the 5-bit field, mirroring how a real implementation would borrow address
bits). DESIGN.md section 3 records this substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.errors import InterestGroupError
from repro.memory.scramble import scramble_pick

LEVEL_SHIFT = 5
INDEX_MASK = (1 << LEVEL_SHIFT) - 1


class Level(IntEnum):
    """Interest-group level: how many caches share the placement set."""

    OWN = 0
    ONE = 1
    PAIR = 2
    FOUR = 3
    EIGHT = 4
    SIXTEEN = 5
    ALL = 6

    @property
    def set_size(self) -> int:
        """Number of caches in one placement set (OWN behaves like 1)."""
        if self is Level.OWN:
            return 1
        return 1 << (self - 1)


@dataclass(frozen=True)
class InterestGroup:
    """A decoded interest group: a level plus a set index."""

    level: Level
    index: int = 0

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InterestGroupError(f"negative set index {self.index}")
        if self.level is Level.OWN and self.index:
            raise InterestGroupError("OWN takes no set index")

    # ------------------------------------------------------------------
    # Byte encoding
    # ------------------------------------------------------------------
    def encode(self) -> int:
        """The 8-bit interest-group byte for this group."""
        if self.level is Level.OWN:
            return 0
        shifted = self.index << (self.level - 1)
        if shifted > INDEX_MASK:
            raise InterestGroupError(
                f"set index {self.index} out of range for level {self.level.name}"
            )
        return (int(self.level) << LEVEL_SHIFT) | shifted

    @classmethod
    def decode(cls, byte: int) -> "InterestGroup":
        """Decode an 8-bit interest-group byte."""
        if not 0 <= byte <= 0xFF:
            raise InterestGroupError(f"interest group byte {byte:#x} out of range")
        level_bits = byte >> LEVEL_SHIFT
        if level_bits > Level.ALL:
            raise InterestGroupError(f"invalid level field {level_bits}")
        level = Level(level_bits)
        low = byte & INDEX_MASK
        if level is Level.OWN:
            if low:
                raise InterestGroupError(
                    f"byte {byte:#x}: OWN level must have zero index bits"
                )
            return cls(Level.OWN)
        shift = level - 1
        if low & ((1 << shift) - 1):
            raise InterestGroupError(
                f"byte {byte:#x}: index bits below the level boundary must be 0"
            )
        return cls(level, low >> shift)

    # ------------------------------------------------------------------
    # Cache-set semantics
    # ------------------------------------------------------------------
    def cache_set(self, n_caches: int, own_cache: int | None = None) -> tuple[int, ...]:
        """The concrete set of cache ids this group may place data in."""
        if self.level is Level.OWN:
            if own_cache is None:
                raise InterestGroupError("OWN group needs the requester's cache")
            return (own_cache,)
        size = self.level.set_size
        if self.level is Level.ALL:
            return tuple(range(n_caches))
        if size > n_caches:
            raise InterestGroupError(
                f"level {self.level.name} needs {size} caches; chip has {n_caches}"
            )
        n_sets = n_caches // size
        if self.index >= n_sets:
            raise InterestGroupError(
                f"set index {self.index} out of range (chip has {n_sets} "
                f"{self.level.name} sets)"
            )
        start = self.index * size
        return tuple(range(start, start + size))

    def target_cache(self, physical_line: int, n_caches: int,
                     own_cache: int | None = None) -> int:
        """The single cache that holds *physical_line* under this group.

        Multi-member sets are resolved by the deterministic scrambling
        function of the address, so repeated references to the same
        address always reach the same cache.
        """
        members = self.cache_set(n_caches, own_cache)
        if len(members) == 1:
            return members[0]
        return members[scramble_pick(physical_line, len(members))]


#: The byte software uses by default: all caches as one coherent unit.
IG_ALL = InterestGroup(Level.ALL).encode()

#: Interest group zero: the accessing thread's own cache (may replicate).
IG_OWN = InterestGroup(Level.OWN).encode()
