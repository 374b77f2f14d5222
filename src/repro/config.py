"""Chip configuration for the Cyclops architecture.

The paper (Section 2, Table 2) evaluates one design point of a family:
128 thread units in 32 quads of 4, one FPU and one 16 KB data cache per
quad, one 32 KB instruction cache per quad pair, and 16 banks of 512 KB
embedded DRAM behind a memory switch. "The architecture itself does not
specify the number of components at each level of the hierarchy", so
everything here is parametric; :func:`ChipConfig.paper` returns the exact
design point of the paper and is the default everywhere.

Latency numbers come verbatim from Table 2 of the paper and are grouped in
:class:`LatencyTable`. Bandwidth structure: a cache port moves 8 bytes per
cycle (32 caches -> 128 GB/s peak at 500 MHz); a memory bank delivers a
64-byte burst (two consecutive 32-byte blocks) in 12 cycles (16 banks ->
42.7 GB/s peak).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigError

#: Bytes per double-precision floating point element (STREAM unit).
DOUBLE_BYTES = 8

#: Physical addresses are 24 bits -> at most 16 MB addressable.
PHYSICAL_ADDRESS_BITS = 24

#: Effective addresses are 32 bits; the top 8 encode the interest group.
EFFECTIVE_ADDRESS_BITS = 32


@dataclass(frozen=True)
class LatencyTable:
    """Instruction timing from Table 2 of the paper.

    Each pair is ``(execution, latency)``: *execution* is the number of
    cycles the functional unit (or thread issue slot) is busy, *latency* is
    the additional cycles before the result becomes available to dependent
    instructions. Non-pipelined operations (divides, square root) have all
    their cost in the execution column, exactly as the paper presents them.
    """

    branch: tuple[int, int] = (2, 0)
    int_multiply: tuple[int, int] = (1, 5)
    int_divide: tuple[int, int] = (33, 0)
    fp_add: tuple[int, int] = (1, 5)
    fp_multiply: tuple[int, int] = (1, 5)
    fp_convert: tuple[int, int] = (1, 5)
    fp_divide: tuple[int, int] = (30, 0)
    fp_sqrt: tuple[int, int] = (56, 0)
    fp_multiply_add: tuple[int, int] = (1, 9)
    mem_local_hit: tuple[int, int] = (1, 6)
    mem_local_miss: tuple[int, int] = (1, 24)
    mem_remote_hit: tuple[int, int] = (1, 17)
    mem_remote_miss: tuple[int, int] = (1, 36)
    other: tuple[int, int] = (1, 0)

    def issue_to_use(self, name: str) -> int:
        """Total cycles from issue until a dependent op may use the result."""
        execution, latency = getattr(self, name)
        return execution + latency


@dataclass(frozen=True)
class ChipConfig:
    """Geometry and timing of one Cyclops chip.

    The defaults are the paper's design point; use :meth:`paper` to be
    explicit, or :func:`dataclasses.replace` / the ``with_*`` helpers to
    derive ablation configurations.
    """

    # --- processing hierarchy -------------------------------------------
    n_threads: int = 128
    threads_per_quad: int = 4
    #: Quads sharing one instruction cache (the paper: one I-cache per 2).
    quads_per_icache: int = 2

    # --- clocks and word sizes ------------------------------------------
    clock_hz: float = 500e6
    word_bytes: int = 4

    # --- data caches (one per quad) -------------------------------------
    dcache_bytes: int = 16 * 1024
    dcache_line_bytes: int = 64
    dcache_ways: int = 8
    #: Port width in bytes per cycle (peak 128 GB/s chip-wide).
    dcache_port_bytes_per_cycle: int = 8
    #: Granularity at which a cache can be carved into scratchpad.
    dcache_partition_bytes: int = 2 * 1024

    # --- instruction caches ----------------------------------------------
    icache_bytes: int = 32 * 1024
    icache_line_bytes: int = 64
    icache_ways: int = 8
    #: Prefetch Instruction Buffer entries per thread.
    pib_entries: int = 16

    # --- embedded DRAM ----------------------------------------------------
    n_memory_banks: int = 16
    bank_bytes: int = 512 * 1024
    #: Unit of access to a bank.
    mem_block_bytes: int = 32
    #: Two consecutive blocks in the same bank transfer in burst mode:
    #: 64 bytes every 12 cycles (paper's peak-bandwidth statement).
    burst_bytes: int = 64
    burst_cycles: int = 12
    #: A single 32-byte block (non-burst) occupies the bank this long.
    block_cycles: int = 8
    #: Banks interleave at burst granularity so one line fill is one burst.
    interleave_bytes: int = 64

    # --- off-chip memory (optional, not directly addressable) ------------
    offchip_bytes: int = 128 * 1024 * 1024
    offchip_block_bytes: int = 1024
    #: Cycles to move one 1 KB block between external and embedded memory.
    #: The paper gives only "much lower bandwidth ... like disk operations";
    #: we model 1 GB/s, i.e. ~2 cycles/byte at 500 MHz.
    offchip_block_cycles: int = 2048

    # --- communication links (Section 2.2; built but not benchmarked) ----
    link_width_bits: int = 16

    # --- synchronization ---------------------------------------------------
    #: SPR width: 8 bits, 2 bits per barrier -> 4 distinct barriers.
    spr_bits: int = 8
    bits_per_barrier: int = 2

    # --- kernel ------------------------------------------------------------
    #: Threads reserved by the resident system kernel (paper uses 2).
    reserved_threads: int = 2
    #: Default per-thread stack, selected at boot time in the paper.
    stack_bytes: int = 8 * 1024

    # --- timing -------------------------------------------------------------
    latency: LatencyTable = field(default_factory=LatencyTable)

    # --- store-miss policy ----------------------------------------------
    #: Write-validate (allocate without fetching) on store miss. See
    #: DESIGN.md: with fetch-on-store-miss STREAM cannot approach the
    #: paper's ~peak sustained bandwidth. The ablation bench flips this.
    store_miss_fetches_line: bool = False

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def n_quads(self) -> int:
        """Number of quads (thread groups sharing an FPU and a D-cache)."""
        return self.n_threads // self.threads_per_quad

    @property
    def n_dcaches(self) -> int:
        """One data cache per quad."""
        return self.n_quads

    @property
    def n_fpus(self) -> int:
        """One floating-point unit per quad."""
        return self.n_quads

    @property
    def n_icaches(self) -> int:
        """One instruction cache per ``quads_per_icache`` quads."""
        return self.n_quads // self.quads_per_icache

    @property
    def memory_bytes(self) -> int:
        """Total embedded DRAM."""
        return self.n_memory_banks * self.bank_bytes

    @property
    def dcache_sets(self) -> int:
        """Number of sets in each data cache."""
        return self.dcache_bytes // (self.dcache_line_bytes * self.dcache_ways)

    @property
    def dcache_total_bytes(self) -> int:
        """Combined capacity of all data caches (512 KB at the paper point)."""
        return self.n_dcaches * self.dcache_bytes

    @property
    def n_barriers(self) -> int:
        """Distinct hardware barriers provided by the SPR."""
        return self.spr_bits // self.bits_per_barrier

    # ------------------------------------------------------------------
    # Peak-rate book-keeping (used by analysis and tests)
    # ------------------------------------------------------------------
    @property
    def peak_memory_bandwidth(self) -> float:
        """Peak embedded-DRAM bandwidth in bytes/second (paper: 42 GB/s)."""
        per_bank = self.burst_bytes / self.burst_cycles
        return per_bank * self.n_memory_banks * self.clock_hz

    @property
    def peak_flops(self) -> float:
        """Peak chip FLOP rate: one FMA (2 flops) per FPU per cycle."""
        return 2.0 * self.n_fpus * self.clock_hz

    # ------------------------------------------------------------------
    # Validation and derivation helpers
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ConfigError` if the configuration is inconsistent."""
        if self.n_threads <= 0 or self.threads_per_quad <= 0:
            raise ConfigError("thread counts must be positive")
        if self.n_threads % self.threads_per_quad:
            raise ConfigError(
                f"n_threads={self.n_threads} is not a multiple of "
                f"threads_per_quad={self.threads_per_quad}"
            )
        if self.n_quads % self.quads_per_icache:
            raise ConfigError(
                f"n_quads={self.n_quads} is not a multiple of "
                f"quads_per_icache={self.quads_per_icache}"
            )
        line, ways = self.dcache_line_bytes, self.dcache_ways
        if line <= 0 or line & (line - 1):
            raise ConfigError(f"dcache_line_bytes={line} must be a power of two")
        if self.dcache_bytes % (line * ways):
            raise ConfigError("dcache_bytes must divide evenly into sets")
        sets = self.dcache_sets
        if sets & (sets - 1):
            raise ConfigError(f"dcache set count {sets} must be a power of two")
        if self.dcache_partition_bytes % (sets * line):
            raise ConfigError(
                "partition granularity must be a whole number of ways "
                f"({self.dcache_partition_bytes} % {sets * line})"
            )
        if self.memory_bytes > (1 << PHYSICAL_ADDRESS_BITS):
            raise ConfigError(
                f"memory {self.memory_bytes} exceeds the 24-bit physical space"
            )
        banks = self.n_memory_banks
        if banks & (banks - 1):
            raise ConfigError(f"n_memory_banks={banks} must be a power of two")
        if self.interleave_bytes % self.mem_block_bytes:
            raise ConfigError("interleave must be a multiple of the access block")
        if self.burst_bytes != 2 * self.mem_block_bytes:
            raise ConfigError("a burst is exactly two consecutive access blocks")
        if self.reserved_threads < 0 or self.reserved_threads >= self.n_threads:
            raise ConfigError("reserved_threads must leave usable threads")
        if self.spr_bits % self.bits_per_barrier:
            raise ConfigError("SPR bits must divide evenly into barriers")

    def with_store_miss_fetch(self, fetch: bool) -> "ChipConfig":
        """A copy flipping the store-miss policy (ablation)."""
        return replace(self, store_miss_fetches_line=fetch)

    @classmethod
    def paper(cls) -> "ChipConfig":
        """The exact design point evaluated by the paper."""
        return cls()

    @classmethod
    def small(cls, n_threads: int = 16, n_memory_banks: int = 4) -> "ChipConfig":
        """A reduced chip for fast tests: same structure, fewer units."""
        return cls(n_threads=n_threads, n_memory_banks=n_memory_banks)
