"""Tests for the sweep-able chip generator (repro.explore).

The load-bearing test is the differential one: the default ChipSpec
must derive a configuration equal field-for-field to the paper's, and
the chip it builds must behave byte-identically to ``Chip()`` on a
real workload. Everything else — validation, serialization, sweeps,
and the three exploration experiment families — hangs off that anchor.
"""

import dataclasses

import pytest

from repro import configio
from repro.config import ChipConfig, LatencyTable
from repro.core.chip import Chip
from repro.errors import ExploreError
from repro.explore import (
    MAX_BANKS,
    MEM_SWITCH_LATENCY,
    MEMORY_KB,
    ChipSpec,
    sweep,
)
from repro.workloads.stream import StreamParams, run_stream


class TestDifferential:
    """ChipSpec defaults must reproduce today's chip exactly."""

    def test_default_config_equals_paper(self):
        assert ChipSpec().to_config() == ChipConfig.paper()
        assert ChipSpec.paper().to_config() == ChipConfig.paper()

    def test_default_latency_table_is_published_table2(self):
        assert ChipSpec().latency_table() == LatencyTable()

    def test_default_build_matches_stock_chip_on_stream(self):
        params = StreamParams(kernel="triad", n_elements=512, n_threads=8)
        baseline = run_stream(params, chip=Chip())
        explored = run_stream(params, chip=ChipSpec().build())
        assert explored.cycles == baseline.cycles
        assert explored.bandwidth_gb_s == baseline.bandwidth_gb_s
        assert explored.memory_traffic_bytes == baseline.memory_traffic_bytes
        assert explored.verified and baseline.verified


class TestDerivation:
    def test_thread_and_memory_totals(self):
        spec = ChipSpec(tus_per_quad=2, n_quads=8, n_banks=4)
        assert spec.n_threads == 16
        # The bank knob moves bank size, not the paper's 8 MB total.
        assert MEMORY_KB == 8 * 1024
        assert spec.bank_kb == MEMORY_KB // 4
        assert spec.to_config().memory_bytes == MEMORY_KB * 1024

    def test_small_chip_builds_and_runs(self):
        chip = ChipSpec.small().build()
        assert chip.config.n_threads == 16
        result = run_stream(
            StreamParams(kernel="copy", n_elements=256, n_threads=4),
            chip=chip)
        assert result.verified

    def test_switch_latency_moves_only_miss_rows(self):
        table = ChipSpec(mem_switch_latency=12).latency_table()
        base = LatencyTable()
        assert table.mem_local_miss == (1, base.mem_local_miss[1] + 6)
        assert table.mem_remote_miss == (1, base.mem_remote_miss[1] + 6)
        assert table.mem_local_hit == base.mem_local_hit
        assert table.mem_remote_hit == base.mem_remote_hit

    def test_table2_implies_default_switch_latency(self):
        # 6-cycle local hit + two 9-cycle crossings = the published 24.
        base = LatencyTable()
        assert base.mem_local_miss[1] == (
            base.mem_local_hit[1] + 2 * MEM_SWITCH_LATENCY)

    def test_cache_geometry_rederives_partition(self):
        config = ChipSpec(dcache_kb=8, dcache_ways=4).to_config()
        line = config.dcache_line_bytes
        sets = config.dcache_bytes // (line * config.dcache_ways)
        assert config.dcache_partition_bytes == sets * line
        Chip(config)  # must pass ChipConfig's own validation

    def test_odd_quad_count_drops_icache_pairing(self):
        assert ChipSpec(n_quads=3).to_config().quads_per_icache == 1

    def test_describe_is_compact(self):
        assert ChipSpec().describe() == "4t x 32q, 16KB/8w, 16 banks, s=9"


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"tus_per_quad": 0},
        {"n_quads": 0},
        {"dcache_kb": 0},
        {"dcache_ways": 0},
        {"n_banks": 0},
        {"n_banks": 3},                 # not a power of two
        {"n_banks": 2 * MAX_BANKS},     # banks below the family's minimum
        {"dcache_kb": 3, "dcache_ways": 8},   # does not divide into ways
        {"dcache_kb": 12, "dcache_ways": 8},  # 24 sets: not a power of two
        {"mem_switch_latency": -1},
    ])
    def test_bad_geometry_raises(self, kwargs):
        with pytest.raises(ExploreError):
            ChipSpec(**kwargs)

    def test_specs_are_frozen_and_hashable(self):
        spec = ChipSpec()
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.n_banks = 8
        assert len({ChipSpec(), ChipSpec.paper(), ChipSpec.small()}) == 2


class TestSerialization:
    def test_dict_round_trip(self):
        spec = ChipSpec(tus_per_quad=2, n_quads=6, n_banks=8,
                        mem_switch_latency=4)
        assert ChipSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ExploreError, match="unknown chip-spec keys"):
            ChipSpec.from_dict({"n_banks": 8, "turbo": 1})

    def test_from_dict_rejects_non_integers(self):
        with pytest.raises(ExploreError, match="non-integer"):
            ChipSpec.from_dict({"n_banks": "eight"})

    def test_from_dict_revalidates(self):
        with pytest.raises(ExploreError):
            ChipSpec.from_dict({"n_banks": 5})

    def test_configio_json_round_trip(self):
        spec = ChipSpec(n_quads=8, dcache_kb=8)
        text = configio.spec_to_json(spec)
        assert configio.spec_from_json(text) == spec

    def test_configio_rejects_bad_json(self):
        with pytest.raises(ExploreError):
            configio.spec_from_json("{not json")
        with pytest.raises(ExploreError):
            configio.spec_from_json("[1, 2]")

    def test_configio_file_round_trip(self, tmp_path):
        spec = ChipSpec(n_banks=2, mem_switch_latency=20)
        path = tmp_path / "spec.json"
        configio.save_spec(spec, str(path))
        assert configio.load_spec(str(path)) == spec


class TestSweep:
    def test_grid_is_cartesian_and_deterministic(self):
        specs = sweep(n_banks=[4, 8, 16], tus_per_quad=[2, 4])
        assert len(specs) == 6
        # Sorted-key order: n_banks is the outer axis.
        assert [s.n_banks for s in specs] == [4, 4, 8, 8, 16, 16]
        assert [s.tus_per_quad for s in specs] == [2, 4] * 3
        assert specs == sweep(tus_per_quad=[2, 4], n_banks=[4, 8, 16])

    def test_unknown_axis_raises(self):
        with pytest.raises(ExploreError, match="unknown sweep axes"):
            sweep(banks=[4, 8])

    def test_invalid_grid_point_raises(self):
        with pytest.raises(ExploreError):
            sweep(n_banks=[4, 6])

    def test_unswept_knobs_stay_at_paper_defaults(self):
        (spec,) = sweep(n_quads=[8])
        assert spec == ChipSpec(n_quads=8)


class TestFamilies:
    """The three exploration experiment drivers in quick mode."""

    def test_saturation_quick(self):
        from repro.experiments import get_experiment

        report = get_experiment("saturation")(quick=True)
        assert report.series[0].y[-1] > report.series[0].y[0]  # it ramps
        assert report.measurements["saturated_bank_utilization"] > 0.8
        assert report.measurements["per_thread_dilution"] > 1.0
        assert len(report.tables) == 1

    def test_bandwidth_quick(self):
        from repro.experiments import get_experiment

        report = get_experiment("bandwidth")(quick=True)
        assert {s.label for s in report.series} == {"scrambled", "local"}
        assert report.measurements["local_scaling_x"] > 1.0
        assert report.measurements["local_over_scrambled_at_max_banks"] > 1.0

    def test_contention_quick(self):
        from repro.experiments import get_experiment

        report = get_experiment("contention")(quick=True)
        assert report.measurements["slowdown_in_cache"] < \
            report.measurements["slowdown_worst"]
        assert report.measurements["slowdown_worst"] > 1.05
        assert report.measurements["hit_rate_gap_at_capacity"] > 0.0

    def test_families_are_pool_deterministic(self):
        """Fanning a family through a 2-worker pool changes nothing."""
        from repro.experiments import get_experiment
        from repro.jobs.pool import JobRunner

        driver = get_experiment("contention")
        inline = driver(quick=True).to_dict()
        pooled = driver(quick=True, runner=JobRunner(n_workers=2)).to_dict()
        inline.pop("elapsed_s", None)
        pooled.pop("elapsed_s", None)
        assert inline == pooled

    def test_custom_spec_threads_through_payloads(self):
        """Family points carry the chip spec for shape-keyed caching."""
        from repro.experiments import saturation

        spec = ChipSpec.small(n_quads=8, n_banks=2)
        jobs = saturation.points(quick=True)
        assert all(job.payload["spec"] == spec.to_dict() for job in jobs)
        assert [job.payload["threads"] for job in jobs] \
            == [1, 4, 8, 16, spec.n_threads - 2]
        assert all(job.payload["elements"] == 300 * job.payload["threads"]
                   for job in jobs)


class TestFullSizePlan:
    """Every full-size point of the Triad families fits its chip.

    Each point's chip is built and its kernel boots (126 stacks) and
    allocates the three shared vectors — the whole set-up that failed
    for the 2- and 4-bank ``bandwidth`` points with ``stacks do not
    fit`` when capacity scaled with the bank count — without
    simulating a cycle.
    """

    @pytest.mark.parametrize("family", ["bandwidth", "saturation"])
    def test_points_hold_stacks_and_vectors(self, family):
        from repro.experiments import REGISTRY
        from repro.runtime.kernel import Kernel

        points, _ = REGISTRY[family]
        jobs = points(quick=False)
        assert jobs
        for job in jobs:
            chip = ChipSpec.from_dict(job.payload["spec"]).build()
            kernel = Kernel(chip)
            assert kernel.max_software_threads >= job.payload["threads"]
            for _ in range(3):
                kernel.heap.alloc_f64_array(job.payload["elements"])
