"""Sweep-able chip generator: :class:`ChipSpec`.

The paper evaluates one design point of a family — 128 thread units in
32 quads, 16 KB 8-way caches, 16 memory banks — and stresses that "the
architecture itself does not specify the number of components at each
level of the hierarchy". :class:`ChipSpec` is the exploration handle for
that family: five orthogonal knobs (thread units per quad, quad count,
data-cache size and associativity, memory-bank count, and the one-way
memory-switch traversal latency) that deterministically derive a full
:class:`~repro.config.ChipConfig` and build a runnable
:class:`~repro.core.chip.Chip`.

The derivation is *anchored* at the paper: ``ChipSpec()`` (all defaults)
produces a configuration equal field-for-field to
``ChipConfig.paper()``, so the chip it builds is byte-identical to
``Chip()`` — a differential test pins this. Every knob moves exactly the
derived fields it names and nothing else:

* ``tus_per_quad`` / ``n_quads`` set the processing hierarchy
  (``n_threads = tus_per_quad * n_quads``); an odd quad count drops to
  one quad per instruction cache, since the paper's pairing needs an
  even number of quads;
* ``dcache_kb`` / ``dcache_ways`` set the cache geometry, with the
  scratchpad-partition granularity re-derived as one way
  (``sets x line``) so any legal geometry stays partitionable;
* ``n_banks`` sets the embedded-DRAM bank count; total memory stays at
  the paper's 8 MB and each bank holds ``8 MB / n_banks``, so the knob
  varies bank *bandwidth* (and the interleave), never capacity;
* ``mem_switch_latency`` adjusts the Table-2 *miss* rows: a miss
  crosses the memory switch twice (cache -> bank -> cache), so the
  latency column of both miss rows moves by ``2 x (s - 9)`` cycles.
  Table 2's published 24/36-cycle misses correspond to the default
  one-way traversal of :data:`MEM_SWITCH_LATENCY` = 9 cycles.

Specs are frozen, hashable, validated at construction
(:class:`~repro.errors.ExploreError` on bad geometry), and round-trip
through JSON via :mod:`repro.configio` — which is what lets the
experiment families key the jobs-pool result cache on the chip shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Any, Iterable, Mapping

from repro.config import ChipConfig, LatencyTable
from repro.errors import ExploreError

#: The one-way memory-switch traversal implied by Table 2: the miss
#: latency rows exceed their hit counterparts by a bank access plus two
#: switch crossings, and 9 cycles per crossing reproduces the published
#: 24-cycle local (6 + 2x9) and 36-cycle remote miss latencies.
MEM_SWITCH_LATENCY = 9

#: Total embedded DRAM, fixed across the family at the paper's 8 MB
#: (16 banks x 512 KB): the bank knob trades bank size for bank count,
#: as a memory-controller study varies controllers, not capacity.
MEMORY_KB = 8 * 1024

#: The largest bank count the family admits: 32 banks of 256 KB, half
#: the paper's bank size.
MAX_BANKS = 32


@dataclass(frozen=True)
class ChipSpec:
    """One point of the Cyclops architecture family, as five knobs.

    The defaults are the paper's design point; :meth:`to_config` derives
    the full :class:`~repro.config.ChipConfig` and :meth:`build` returns
    a runnable chip. Use :func:`sweep` to enumerate a grid of specs.
    """

    #: Thread units sharing one FPU and one data cache.
    tus_per_quad: int = 4
    #: Number of quads (the paper: 32 -> 128 thread units).
    n_quads: int = 32
    #: Per-quad data-cache capacity in KB.
    dcache_kb: int = 16
    #: Data-cache associativity (ways).
    dcache_ways: int = 8
    #: Embedded-DRAM banks sharing the fixed :data:`MEMORY_KB`.
    n_banks: int = 16
    #: One-way memory-switch traversal in cycles (Table 2 implies 9).
    mem_switch_latency: int = MEM_SWITCH_LATENCY

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`~repro.errors.ExploreError` on bad geometry."""
        if self.tus_per_quad < 1:
            raise ExploreError(
                f"tus_per_quad must be >= 1, got {self.tus_per_quad}")
        if self.n_quads < 1:
            raise ExploreError(f"n_quads must be >= 1, got {self.n_quads}")
        if self.dcache_kb < 1:
            raise ExploreError(
                f"dcache_kb must be >= 1, got {self.dcache_kb}")
        if self.dcache_ways < 1:
            raise ExploreError(
                f"dcache_ways must be >= 1, got {self.dcache_ways}")
        line = ChipConfig.paper().dcache_line_bytes
        cache_bytes = self.dcache_kb * 1024
        if cache_bytes % (line * self.dcache_ways):
            raise ExploreError(
                f"a {self.dcache_kb} KB cache does not divide into "
                f"{self.dcache_ways} ways of {line} B lines")
        sets = cache_bytes // (line * self.dcache_ways)
        if sets & (sets - 1):
            raise ExploreError(
                f"{self.dcache_kb} KB / {self.dcache_ways}-way gives "
                f"{sets} sets; the set count must be a power of two")
        if self.n_banks < 1 or self.n_banks & (self.n_banks - 1):
            raise ExploreError(
                f"n_banks must be a positive power of two, got "
                f"{self.n_banks}")
        if self.n_banks > MAX_BANKS:
            raise ExploreError(
                f"{self.n_banks} banks exceed the family's {MAX_BANKS} "
                f"(banks of at least {MEMORY_KB // MAX_BANKS} KB)")
        if self.mem_switch_latency < 0:
            raise ExploreError(
                f"mem_switch_latency must be >= 0, got "
                f"{self.mem_switch_latency}")

    # ------------------------------------------------------------------
    # Derived geometry (pre-build conveniences)
    # ------------------------------------------------------------------
    @property
    def n_threads(self) -> int:
        """Total thread units on the chip."""
        return self.tus_per_quad * self.n_quads

    @property
    def bank_kb(self) -> int:
        """Size of one embedded-DRAM bank in KB."""
        return MEMORY_KB // self.n_banks

    def describe(self) -> str:
        """Compact human label, e.g. ``4t x 32q, 16KB/8w, 16 banks, s=9``."""
        return (f"{self.tus_per_quad}t x {self.n_quads}q, "
                f"{self.dcache_kb}KB/{self.dcache_ways}w, "
                f"{self.n_banks} banks, s={self.mem_switch_latency}")

    # ------------------------------------------------------------------
    # Derivation: spec -> config -> chip
    # ------------------------------------------------------------------
    def latency_table(self) -> LatencyTable:
        """Table 2 adjusted for this spec's memory-switch latency.

        A miss traverses the memory switch twice, so both miss rows'
        latency columns move by ``2 x (s - 9)``; every other row is
        switch-independent (Table 2's hit latencies are cache-switch
        paths). The default spec returns the published table unchanged.
        """
        base = LatencyTable()
        delta = 2 * (self.mem_switch_latency - MEM_SWITCH_LATENCY)
        if delta == 0:
            return base
        return replace(
            base,
            mem_local_miss=(base.mem_local_miss[0],
                            base.mem_local_miss[1] + delta),
            mem_remote_miss=(base.mem_remote_miss[0],
                             base.mem_remote_miss[1] + delta),
        )

    def to_config(self) -> ChipConfig:
        """Derive the full chip configuration for this spec."""
        base = ChipConfig.paper()
        cache_bytes = self.dcache_kb * 1024
        sets = cache_bytes // (base.dcache_line_bytes * self.dcache_ways)
        return replace(
            base,
            n_threads=self.n_threads,
            threads_per_quad=self.tus_per_quad,
            quads_per_icache=2 if self.n_quads % 2 == 0 else 1,
            dcache_bytes=cache_bytes,
            dcache_ways=self.dcache_ways,
            dcache_partition_bytes=sets * base.dcache_line_bytes,
            n_memory_banks=self.n_banks,
            bank_bytes=self.bank_kb * 1024,
            latency=self.latency_table(),
        )

    def build(self, **chip_kwargs: Any):
        """Instantiate a :class:`~repro.core.chip.Chip` for this spec.

        Keyword arguments pass straight through to the ``Chip``
        constructor (``tracer=``, ``sanitize=``, ...).
        """
        from repro.core.chip import Chip

        return Chip(self.to_config(), **chip_kwargs)

    # ------------------------------------------------------------------
    # Serialization (see also repro.configio.spec_to_json & friends)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, int]:
        """JSON-safe dictionary: one key per knob."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChipSpec":
        """Rebuild (and re-validate) a spec; unknown keys fail loudly."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ExploreError(f"unknown chip-spec keys: {sorted(unknown)}")
        try:
            kwargs = {key: int(value) for key, value in data.items()}
        except (TypeError, ValueError) as error:
            raise ExploreError(f"non-integer chip-spec value: {error}") \
                from None
        return cls(**kwargs)

    @classmethod
    def paper(cls) -> "ChipSpec":
        """The paper's design point (all defaults, made explicit)."""
        return cls()

    @classmethod
    def small(cls, n_quads: int = 4, n_banks: int = 4) -> "ChipSpec":
        """A reduced chip for fast tests and quick experiment modes."""
        return cls(n_quads=n_quads, n_banks=n_banks)


def sweep(**axes: Iterable[Any]) -> list[ChipSpec]:
    """Cartesian-product grid of specs over the named knobs.

    Each keyword names a :class:`ChipSpec` field and gives the values to
    sweep; unswept knobs stay at the paper's defaults. The grid is
    enumerated in sorted-key order with the last axis fastest, so the
    result is deterministic regardless of call-site ordering::

        sweep(n_banks=[4, 8, 16], tus_per_quad=[2, 4])   # 6 specs

    Invalid grid points raise :class:`~repro.errors.ExploreError` as
    each spec constructs, naming the offending combination.
    """
    known = {f.name for f in fields(ChipSpec)}
    unknown = set(axes) - known
    if unknown:
        raise ExploreError(f"unknown sweep axes: {sorted(unknown)}")
    names = sorted(axes)
    specs = []
    for values in itertools.product(*(list(axes[name]) for name in names)):
        specs.append(ChipSpec(**dict(zip(names, values))))
    return specs
