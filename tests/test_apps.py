"""Tests for the target-application workloads the paper's conclusion
names: linear algebra (DGEMM + scratchpad), molecular dynamics,
raytracing."""

import pytest

from repro.errors import WorkloadError
from repro.workloads.dgemm import DgemmParams, run_dgemm
from repro.workloads.md import MDParams, run_md
from repro.workloads.raytrace import RayTraceParams, run_raytrace


class TestDgemm:
    @pytest.mark.parametrize("n_threads", [1, 4, 8])
    def test_product_correct(self, n_threads):
        result = run_dgemm(DgemmParams(n=16, block=8, n_threads=n_threads))
        assert result.verified

    def test_without_scratchpad_also_correct(self):
        result = run_dgemm(DgemmParams(n=16, block=8, n_threads=4,
                                       use_scratchpad=False))
        assert result.verified

    def test_scratchpad_staging_is_faster(self):
        """The paper's fast-memory claim: explicit staging beats the
        'dynamic, and often hard to control, cache behavior'."""
        cached = run_dgemm(DgemmParams(n=32, block=8, n_threads=8,
                                       use_scratchpad=False))
        staged = run_dgemm(DgemmParams(n=32, block=8, n_threads=8,
                                       use_scratchpad=True))
        assert staged.cycles < cached.cycles

    def test_block_must_divide(self):
        with pytest.raises(WorkloadError):
            DgemmParams(n=30, block=8)

    def test_tiles_must_fit_lane_region(self):
        with pytest.raises(WorkloadError):
            DgemmParams(n=32, block=16, use_scratchpad=True)

    def test_quad_mates_do_not_corrupt_each_other(self):
        """Four threads on one quad share the scratchpad; per-lane
        regions keep their tiles separate."""
        from repro.runtime.kernel import AllocationPolicy
        result = run_dgemm(DgemmParams(
            n=16, block=8, n_threads=4,
            policy=AllocationPolicy.SEQUENTIAL,  # all in quad 0
        ))
        assert result.verified


class TestMD:
    @pytest.mark.parametrize("n_threads", [1, 4, 8])
    def test_forces_match_direct(self, n_threads):
        result = run_md(MDParams(n_particles=64, n_threads=n_threads))
        assert result.verified

    def test_cutoff_bounds(self):
        with pytest.raises(WorkloadError):
            MDParams(cutoff=0.0)
        with pytest.raises(WorkloadError):
            MDParams(cutoff=10.0, box=16.0)

    def test_scales(self):
        serial = run_md(MDParams(n_particles=128, n_threads=1,
                                 verify=False))
        parallel = run_md(MDParams(n_particles=128, n_threads=16,
                                   verify=False))
        assert serial.cycles / parallel.cycles > 6.0


class TestRayTrace:
    def test_pixel_exact(self):
        result = run_raytrace(RayTraceParams(width=16, height=12,
                                             n_threads=4))
        assert result.verified

    def test_single_thread(self):
        result = run_raytrace(RayTraceParams(width=8, height=8,
                                             n_threads=1))
        assert result.verified

    def test_image_bounds(self):
        with pytest.raises(WorkloadError):
            RayTraceParams(width=0)
        with pytest.raises(WorkloadError):
            RayTraceParams(width=2, height=2, n_threads=8)

    def test_scales_across_quads(self):
        """Balanced threads get private div/sqrt units: near-linear."""
        serial = run_raytrace(RayTraceParams(width=24, height=16,
                                             n_threads=1, verify=False))
        parallel = run_raytrace(RayTraceParams(width=24, height=16,
                                               n_threads=8, verify=False))
        assert serial.cycles / parallel.cycles > 5.0

    def test_div_sqrt_unit_limits_in_quad_scaling(self):
        """Sequential packing: four pixels' sqrt/div serialize on one
        non-pipelined unit, so in-quad speedup is visibly sublinear."""
        from repro.runtime.kernel import AllocationPolicy
        serial = run_raytrace(RayTraceParams(width=24, height=16,
                                             n_threads=1, verify=False))
        packed = run_raytrace(RayTraceParams(
            width=24, height=16, n_threads=4, verify=False,
            policy=AllocationPolicy.SEQUENTIAL,
        ))
        speedup = serial.cycles / packed.cycles
        assert speedup < 3.0
