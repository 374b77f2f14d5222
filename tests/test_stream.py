"""Tests for the STREAM workload: correctness of every mode plus the
paper's qualitative performance relationships."""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import AddressError, WorkloadError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy
from repro.workloads.common import block_ranges, cyclic_group_indices
from repro.workloads.stream import (
    BYTES_PER_ELEMENT,
    STREAM_KERNELS,
    StreamParams,
    _element_addresses,
    run_stream,
)


class TestPartitioning:
    def test_block_ranges_cover_everything(self):
        ranges = block_ranges(100, 7)
        covered = [i for r in ranges for i in r]
        assert covered == list(range(100))

    def test_block_alignment(self):
        ranges = block_ranges(1000, 7, align=8)
        for r in ranges[:-1]:
            assert r.stop % 8 == 0

    def test_cyclic_groups_cover_everything(self):
        indices = cyclic_group_indices(1000, 24)
        covered = sorted(i for lst in indices for i in lst)
        assert covered == list(range(1000))

    def test_cyclic_no_duplicates_ragged_group(self):
        indices = cyclic_group_indices(1024, 126)  # last group has 6 lanes
        covered = sorted(i for lst in indices for i in lst)
        assert covered == list(range(1024))

    def test_cyclic_neighbours_share_lines(self):
        """Lanes of one group interleave element-by-element."""
        indices = cyclic_group_indices(640, 16)
        assert indices[0][0] + 1 == indices[1][0]

    def test_zero_threads_rejected(self):
        with pytest.raises(WorkloadError):
            block_ranges(10, 0)


class TestParamValidation:
    def test_unknown_kernel(self):
        with pytest.raises(WorkloadError):
            StreamParams(kernel="sum")

    def test_local_requires_block(self):
        with pytest.raises(WorkloadError):
            StreamParams(partition="cyclic", local_caches=True)

    def test_bad_unroll(self):
        with pytest.raises(WorkloadError):
            StreamParams(unroll=0)

    def test_counted_bytes(self):
        assert StreamParams(kernel="copy", n_elements=100).counted_bytes \
            == 1600
        assert StreamParams(kernel="add", n_elements=100).counted_bytes \
            == 2400
        params = StreamParams(kernel="copy", n_elements=100, n_threads=4,
                              independent=True)
        assert params.counted_bytes == 6400


@pytest.mark.parametrize("kernel", STREAM_KERNELS)
class TestFunctionalCorrectness:
    def test_single_thread(self, kernel):
        result = run_stream(StreamParams(kernel=kernel, n_elements=512,
                                         n_threads=1))
        assert result.verified

    def test_multi_thread_block(self, kernel):
        result = run_stream(StreamParams(kernel=kernel, n_elements=1024,
                                         n_threads=16))
        assert result.verified

    def test_multi_thread_cyclic(self, kernel):
        result = run_stream(StreamParams(kernel=kernel, n_elements=1024,
                                         n_threads=16, partition="cyclic"))
        assert result.verified

    def test_local_caches(self, kernel):
        result = run_stream(StreamParams(kernel=kernel, n_elements=1024,
                                         n_threads=16, local_caches=True))
        assert result.verified

    def test_unrolled(self, kernel):
        result = run_stream(StreamParams(kernel=kernel, n_elements=1000,
                                         n_threads=16, unroll=4))
        assert result.verified

    def test_independent(self, kernel):
        result = run_stream(StreamParams(kernel=kernel, n_elements=256,
                                         n_threads=8, independent=True))
        assert result.verified


class TestAddressStreams:
    """Address streams are ranges; element for element they equal the
    per-element ``make_effective`` list they replace."""

    BASE = 0x12340

    @staticmethod
    def _partitions():
        yield "block", block_ranges(1001, 12)
        yield "block-aligned", block_ranges(1001, 12, align=8)
        yield "cyclic-ragged", cyclic_group_indices(1001, 12)  # 8 + 4 lanes
        yield "cyclic-126", cyclic_group_indices(1024, 126)  # 6-lane group
        yield "independent", [range(300)] * 3
        yield "more-threads-than-elements", block_ranges(5, 8)

    @pytest.mark.parametrize(
        "ig", [IG_ALL, InterestGroup(Level.ONE, 5).encode()])
    def test_range_equals_per_element_list(self, ig):
        for name, index_sets in self._partitions():
            for indices in index_sets:
                stream = _element_addresses(self.BASE, indices, ig)
                assert isinstance(stream, range), name
                assert list(stream) == [
                    make_effective(self.BASE + 8 * i, ig) for i in indices
                ], name

    def test_last_element_beyond_24_bits_rejected(self):
        base = (1 << 24) - 8 * 10
        fits = _element_addresses(base, range(10), IG_ALL)
        assert fits[-1] == make_effective((1 << 24) - 8, IG_ALL)
        with pytest.raises(AddressError):
            _element_addresses(base, range(11), IG_ALL)
        with pytest.raises(AddressError):
            _element_addresses(base, range(2, 11, 4), IG_ALL)


class TestRaggedSizes:
    def test_non_divisible_elements(self):
        result = run_stream(StreamParams(kernel="triad", n_elements=1021,
                                         n_threads=16))
        assert result.verified

    def test_unroll_tail(self):
        result = run_stream(StreamParams(kernel="copy", n_elements=1021,
                                         n_threads=16, unroll=4))
        assert result.verified


class TestPaperRelationships:
    """The qualitative orderings Section 3.2 reports."""

    THREADS = 32
    PER_THREAD = 600

    def _run(self, **overrides):
        params = StreamParams(
            kernel=overrides.pop("kernel", "copy"),
            n_elements=overrides.pop("n_elements",
                                     self.PER_THREAD * self.THREADS),
            n_threads=overrides.pop("n_threads", self.THREADS),
            **overrides,
        )
        return run_stream(params)

    def test_blocked_beats_cyclic(self):
        blocked = self._run(partition="block")
        cyclic = self._run(partition="cyclic")
        assert blocked.bandwidth > cyclic.bandwidth

    def test_local_beats_shared(self):
        shared = self._run(partition="block")
        local = self._run(partition="block", local_caches=True)
        assert local.bandwidth > shared.bandwidth

    def test_unrolling_helps_in_cache(self):
        plain = self._run(local_caches=True, n_elements=32 * 150,
                          warmup=True)
        unrolled = self._run(local_caches=True, unroll=4,
                             n_elements=32 * 150, warmup=True)
        assert unrolled.bandwidth > plain.bandwidth * 1.3

    def test_balanced_helps_partial_occupancy(self):
        sequential = self._run(local_caches=True,
                               policy=AllocationPolicy.SEQUENTIAL)
        balanced = self._run(local_caches=True,
                             policy=AllocationPolicy.BALANCED)
        assert balanced.bandwidth > sequential.bandwidth

    def test_out_of_cache_near_memory_peak(self):
        """126 threads, large vectors: plateau at ~the 42 GB/s bank peak."""
        result = run_stream(StreamParams(
            kernel="copy", n_elements=126 * 1000, n_threads=126,
        ))
        peak = ChipConfig.paper().peak_memory_bandwidth
        assert 0.6 * peak < result.bandwidth < 1.25 * peak

    def test_memory_traffic_accounted(self):
        result = self._run(kernel="copy", warmup=False)
        # Copy under write-validate moves ~counted bytes through banks
        # (line reads + writebacks), modulo lines still dirty at the end.
        assert result.memory_traffic_bytes > 0
        assert result.memory_traffic_bytes < 3 * result.total_bytes


class TestStoreMissAblation:
    def test_fetch_on_store_miss_saturates_banks_sooner(self):
        """At full occupancy the banks are the bottleneck; fetching lines
        that stores fully overwrite wastes a third of Copy's bank
        bandwidth (DESIGN.md section 3)."""
        base = ChipConfig.paper()
        fetch = base.with_store_miss_fetch(True)
        fast = run_stream(StreamParams(kernel="copy",
                                       n_elements=126 * 800,
                                       n_threads=126),
                          chip=Chip(base))
        slow = run_stream(StreamParams(kernel="copy",
                                       n_elements=126 * 800,
                                       n_threads=126),
                          chip=Chip(fetch))
        assert fast.bandwidth > slow.bandwidth * 1.1
        # The extra line fetches show up as real bank traffic.
        assert slow.memory_traffic_bytes > fast.memory_traffic_bytes * 1.3
