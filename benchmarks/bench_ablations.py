"""Ablation benches for the design choices DESIGN.md calls out.

These go beyond the paper's artifacts: each one flips a single modeling
or architecture knob and checks the direction of the effect.
"""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.memory.address import make_effective
from repro.memory.interest_groups import InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.stream import StreamParams, run_stream

THREADS = 64
PER_THREAD = 600


def _stream(config=None, **overrides) -> float:
    params = StreamParams(
        kernel=overrides.pop("kernel", "copy"),
        n_elements=overrides.pop("per_thread", PER_THREAD)
        * overrides.get("n_threads", THREADS),
        n_threads=overrides.pop("n_threads", THREADS),
        **overrides,
    )
    return run_stream(params, chip=Chip(config)).bandwidth_gb_s


@pytest.mark.figure("ablation")
def test_ablation_store_miss_policy(benchmark):
    """Write-validate vs fetch-on-store-miss (DESIGN.md section 3).

    Fetching lines that stores fully overwrite wastes a third of Copy's
    bank bandwidth, which is why the paper's ~peak sustained STREAM rules
    that policy out.
    """
    def both():
        # Full occupancy: only there are the banks the bottleneck.
        kwargs = dict(n_threads=126, per_thread=800)
        validate = _stream(ChipConfig.paper(), **kwargs)
        fetch = _stream(ChipConfig.paper().with_store_miss_fetch(True),
                        **kwargs)
        return validate, fetch

    validate, fetch = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nwrite-validate: {validate:.1f} GB/s, "
          f"fetch-on-store-miss: {fetch:.1f} GB/s")
    assert validate > fetch * 1.1


@pytest.mark.figure("ablation")
def test_ablation_fpu_sharing_degree(benchmark):
    """1/2/4/8 threads per FPU: Triad throughput under heavier sharing.

    The paper picked 4 threads per FPU from instruction mixes; an
    FMA-per-element kernel shows the cost of oversharing.
    """
    def sweep():
        out = {}
        for degree in (2, 4, 8):
            cfg = ChipConfig(n_threads=32, threads_per_quad=degree,
                             quads_per_icache=2 if degree < 8 else 1)
            out[degree] = _stream(cfg, kernel="triad", n_threads=16,
                                  per_thread=400)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nGB/s by threads-per-FPU: {results}")
    assert results[2] >= results[8]


@pytest.mark.figure("ablation")
def test_ablation_cache_associativity(benchmark):
    """Conflict misses: 8-way vs direct-mapped-ish caches.

    A strided pattern that lands in few sets thrashes a low-associativity
    cache; the paper's up-to-8-way design absorbs it.
    """
    def run_assoc(ways: int) -> int:
        # The partition grain is one way: recompute it for odd geometries.
        way_bytes = 16 * 1024 // ways
        cfg = ChipConfig(dcache_ways=ways, dcache_partition_bytes=way_bytes)
        chip = Chip(cfg)
        ig = InterestGroup(Level.ONE, 0).encode()
        # Four lines all mapping to set 0, touched round-robin twice:
        # they co-reside in an 8-way set but thrash a direct-mapped one.
        stride = cfg.dcache_sets * cfg.dcache_line_bytes
        t = 0
        for _ in range(2):
            for k in range(4):
                ea = make_effective(k * stride, ig)
                _, t, _, _ = chip.memory.access(t, 0, ea, 8, False)
        return chip.memory.caches[0].misses

    def both():
        return run_assoc(8), run_assoc(1)

    eight_way, one_way = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nmisses: 8-way={eight_way}, 1-way={one_way}")
    assert one_way > eight_way


@pytest.mark.figure("ablation")
def test_ablation_balanced_allocation_partial_occupancy(benchmark):
    """Balanced vs sequential allocation at partial occupancy.

    The paper: "the balanced policy improves results for local access
    mode when less than all threads are used" — spreading 32 threads
    over 32 quads gives each a private FPU and cache port.
    """
    def both():
        kwargs = dict(kernel="copy", n_threads=32, per_thread=PER_THREAD,
                      local_caches=True, partition="block")
        seq = _stream(policy=AllocationPolicy.SEQUENTIAL, **kwargs)
        bal = _stream(policy=AllocationPolicy.BALANCED, **kwargs)
        return seq, bal

    seq, bal = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nsequential: {seq:.1f} GB/s, balanced: {bal:.1f} GB/s")
    assert bal > seq


@pytest.mark.figure("ablation")
def test_ablation_burst_vs_block_transfers(benchmark):
    """Burst fills (64 B / 12 cycles) vs two isolated 32 B blocks.

    The interleave granularity makes every line fill a single burst; a
    non-burst design would spend 16 cycles per line instead of 12.
    """
    def both():
        from repro.memory.bank import MemoryBank
        cfg = ChipConfig.paper()
        bank = MemoryBank(0, cfg)
        t = 0
        for _ in range(100):
            t = bank.read_burst(t)
        burst_time = t
        bank2 = MemoryBank(1, cfg)
        t = 0
        for _ in range(100):
            t = bank2.read_block(t)
            t = bank2.read_block(t)
        return burst_time, t

    burst_time, block_time = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\n100 line fills: burst={burst_time} cycles, "
          f"2x32B blocks={block_time} cycles")
    assert burst_time < block_time
