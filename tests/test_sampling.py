"""Tests for repro.sampling: config, statistics, and sampled runs.

The load-bearing assertions are the differential ones: functional
fast-forward must leave *byte-identical* architectural state to the
exact engine (sampling approximates time, never data), and the default
path must be untouched by the feature — exact runs neither import the
package nor change cycle counts (see ``docs/sampled-sim.md``).
"""

import pytest

from repro.core.chip import Chip
from repro.core.faults import FaultController
from repro.errors import ConfigError, MemoryFault
from repro.isa import Interpreter
from repro.isa.assembler import assemble
from repro.isa.kernels import stream_kernel_program, stream_register_setup
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.sampling import (SamplingConfig, build_estimate, mean_ci,
                            resolve_config)
from repro.sampling.validate import (_build_fft, _build_stream,
                                     validate_workload)

#: Small enough to keep the suite fast, large enough to span several
#: sampling units under TINY below (~5.4k insns per thread).
TINY_PARAMS = {"n_threads": 4, "n_per_thread": 600}
TINY = SamplingConfig(warmup_insns=64, measure_insns=64,
                      period_insns=512, chunk_insns=256)


def _stream_interp(n_threads: int = 4, n_per_thread: int = 600):
    """A small ISA STREAM triad run; returns (chip, interp, dst bases)."""
    chip = Chip()
    interp = Interpreter(chip, model_fetch=False)
    program = stream_kernel_program("triad", 1)
    dsts = []
    for t in range(n_threads):
        src = 0x10000 + t * 0x4000
        src2 = 0x100000 + t * 0x4000
        dst = 0x200000 + t * 0x4000
        chip.memory.backing.f64_view(src, n_per_thread)[:] = 2.0
        chip.memory.backing.f64_view(src2, n_per_thread)[:] = 5.0
        init_regs, init_doubles = stream_register_setup(
            "triad", make_effective(src, IG_ALL),
            make_effective(src2, IG_ALL), make_effective(dst, IG_ALL),
            n_per_thread)
        interp.add_thread(t, program, init_regs, init_doubles)
        dsts.append(dst)
    return chip, interp, dsts


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
class TestConfig:
    def test_period_must_leave_room_to_fast_forward(self):
        with pytest.raises(ConfigError, match="period_insns must exceed"):
            SamplingConfig(warmup_insns=512, measure_insns=256,
                           period_insns=768)

    def test_jitter_and_horizon_validation(self):
        with pytest.raises(ConfigError, match="jitter_insns"):
            SamplingConfig(jitter_insns=-1)
        with pytest.raises(ConfigError, match="horizon_insns"):
            SamplingConfig(horizon_insns=-5)

    def test_resolved_jitter(self):
        # Auto: min(1024, half the fast-forward span).
        assert SamplingConfig().resolved_jitter == 1024
        assert TINY.resolved_jitter == (512 - 128) // 2
        # Explicit: clamped below the span so budgets stay positive.
        assert SamplingConfig(jitter_insns=50000).resolved_jitter \
            == 8192 - 512 - 256 - 1
        assert SamplingConfig(jitter_insns=0).resolved_jitter == 0

    def test_resolved_horizon(self):
        assert SamplingConfig().resolved_horizon == 4096
        assert SamplingConfig(horizon_insns=128).resolved_horizon == 128

    def test_resolve_config(self):
        assert resolve_config(None) is None
        assert resolve_config(False) is None
        assert resolve_config(True) == SamplingConfig()
        assert resolve_config(TINY) is TINY
        with pytest.raises(ConfigError, match="sampled="):
            resolve_config(42)
        with pytest.raises(ConfigError, match="sampled="):
            resolve_config("period=16384")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
class TestStats:
    def test_single_value_has_no_interval(self):
        mean, half = mean_ci([0.5])
        assert mean == 0.5 and half == 0.0

    def test_known_interval(self):
        mean, half = mean_ci([1.0, 2.0, 3.0], 0.95)
        assert mean == pytest.approx(2.0)
        # t(0.95, df=2) = 4.303; s = 1, n = 3.
        assert half == pytest.approx(4.303 / 3 ** 0.5, rel=1e-3)

    def test_weighted_mean_matches_manual(self):
        mean, _ = mean_ci([1.0, 3.0], weights=[1, 3])
        assert mean == pytest.approx(2.5)

    def test_zero_weight_unit_is_excluded(self):
        # The drain-unit case: a wild CPI with weight 0 cannot move the
        # mean, and it does not count toward the degrees of freedom.
        mean, half = mean_ci([1.0, 100.0], weights=[5, 0])
        assert mean == pytest.approx(1.0)
        assert half == 0.0  # one effective unit: no interval

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            mean_ci([1.0, 2.0], weights=[1])
        with pytest.raises(ConfigError):
            mean_ci([1.0, 2.0], weights=[1, -1])
        with pytest.raises(ConfigError):
            mean_ci([1.0, 2.0], weights=[0, 0])


# ---------------------------------------------------------------------------
# Estimate assembly
# ---------------------------------------------------------------------------
class TestBuildEstimate:
    def test_fully_detailed_run_is_exact(self):
        estimate = build_estimate([0.2], total_insns=768,
                                  measured_insns=256, warmup_insns=512,
                                  detailed_cycles=1000, config=TINY)
        assert estimate.exact
        assert estimate.estimated_cycles == 1000
        assert estimate.ci_halfwidth == 0.0
        assert estimate.ff_insns == 0

    def test_extrapolation_prices_ff_at_mean_cpi(self):
        estimate = build_estimate([0.5, 0.5], total_insns=2000,
                                  measured_insns=500, warmup_insns=500,
                                  detailed_cycles=600, config=TINY)
        assert not estimate.exact
        assert estimate.ff_insns == 1000
        assert estimate.estimated_cycles == 600 + 500
        assert estimate.ci_low <= estimate.estimated_cycles \
            <= estimate.ci_high

    def test_no_units_with_ff_remaining_is_an_error(self):
        with pytest.raises(ConfigError, match="cannot extrapolate"):
            build_estimate([], total_insns=100, measured_insns=0,
                           warmup_insns=0, detailed_cycles=0, config=TINY)

    def test_broken_accounting_is_an_error(self):
        with pytest.raises(ConfigError, match="accounting"):
            build_estimate([0.5], total_insns=10, measured_insns=20,
                           warmup_insns=0, detailed_cycles=0, config=TINY)

    def test_to_dict_records_resolved_knobs(self):
        data = build_estimate([0.5, 0.6], total_insns=2000,
                              measured_insns=500, warmup_insns=500,
                              detailed_cycles=600, config=TINY).to_dict()
        assert data["config"]["jitter_insns"] == TINY.resolved_jitter
        assert data["config"]["horizon_insns"] == TINY.resolved_horizon
        assert data["ci_low"] <= data["estimated_cycles"] <= data["ci_high"]


# ---------------------------------------------------------------------------
# Sampled runs: exactness, accounting, opt-in gating
# ---------------------------------------------------------------------------
class TestSampledRun:
    def test_state_byte_identical_and_estimate_reasonable(self):
        result = validate_workload("stream", TINY, params=TINY_PARAMS)
        assert result.state_matches
        assert result.estimate.n_units > 2
        assert abs(result.error) < 0.10
        assert result.estimate.ci_low <= result.estimate.estimated_cycles \
            <= result.estimate.ci_high

    def test_total_instructions_match_exact_run(self):
        _, exact_interp, _ = _stream_interp()
        exact_interp.run()
        exact_insns = sum(s.tu.counters.instructions
                          for s in exact_interp.states.values())

        _, interp, _ = _stream_interp()
        interp.run(sampled=TINY)
        estimate = interp.sampling
        assert estimate.total_insns == exact_insns
        assert estimate.total_insns == (estimate.measured_insns
                                        + estimate.warmup_insns
                                        + estimate.ff_insns)

    def test_jitter_zero_and_horizon_zero_still_exact_state(self):
        config = SamplingConfig(warmup_insns=64, measure_insns=64,
                                period_insns=512, chunk_insns=256,
                                jitter_insns=0, horizon_insns=0)
        result = validate_workload("stream", config, params=TINY_PARAMS)
        assert result.state_matches

    def test_horizon_inside_the_budget_spread_still_exact_state(self):
        # Drift spreads TINY's fast-forward budgets over 192..576, so a
        # 384-instruction horizon gives some threads a far span and
        # others none; each fast-forwards its own share.
        config = SamplingConfig(warmup_insns=64, measure_insns=64,
                                period_insns=512, chunk_insns=256,
                                horizon_insns=384)
        result = validate_workload("stream", config, params=TINY_PARAMS)
        assert result.state_matches
        assert abs(result.error) < 0.10

    def test_run_returns_estimate_and_sets_sampling(self):
        _, interp, _ = _stream_interp()
        cycles = interp.run(sampled=TINY)
        assert interp.sampling is not None
        assert cycles == interp.sampling.estimated_cycles

    def test_exact_run_leaves_sampling_unset(self):
        _, interp, _ = _stream_interp()
        interp.run()
        assert interp.sampling is None

    def test_shared_program_unpolluted_by_sampled_run(self):
        # The block compiler caches tables on the Program; a sampled
        # run over the same object must not perturb later exact runs.
        _, golden, _ = _stream_interp()
        golden_cycles = golden.run()
        _, sampled, _ = _stream_interp()
        sampled.run(sampled=TINY)
        _, again, _ = _stream_interp()
        assert again.run() == golden_cycles

    def test_sampled_false_runs_byte_identical_to_default(self):
        chip_a, interp_a, dsts = _stream_interp()
        cycles_a = interp_a.run()
        chip_b, interp_b, _ = _stream_interp()
        assert interp_b.run(sampled=False) == cycles_a
        assert interp_b.sampling is None
        n = TINY_PARAMS["n_per_thread"]
        for dst in dsts:
            assert bytes(chip_b.memory.backing.f64_view(dst, n)) \
                == bytes(chip_a.memory.backing.f64_view(dst, n))

    def test_sampled_until_rejected(self):
        _, interp, _ = _stream_interp()
        with pytest.raises(ConfigError, match="until"):
            interp.run(until=1000, sampled=TINY)

    def test_sampled_under_sanitizer_rejected(self):
        _, interp, _ = _stream_interp()
        interp.chip.memory.sanitizer = object()
        with pytest.raises(ConfigError, match="sanitizer"):
            interp.run(sampled=TINY)

    def test_run_without_threads_rejected(self):
        interp = Interpreter(Chip(), model_fetch=False)
        with pytest.raises(ConfigError, match="add_thread"):
            interp.run(sampled=TINY)

    @pytest.mark.parametrize("build,kwargs", [
        (_build_stream, {"n_threads": 4, "n_per_thread": 64}),
        (_build_fft, {"n_threads": 4, "n": 64}),
    ], ids=["stream", "fft"])
    def test_one_window_covering_the_run_matches_exact(self, build, kwargs):
        # Detailed windows run the exact dispatch loop itself: a first
        # window that spans the whole program leaves exactly the exact
        # run's clocks, counters, registers and memory.
        whole = SamplingConfig(warmup_insns=10**7, measure_insns=10**7,
                               period_insns=3 * 10**7)
        exact, sampled = build(**kwargs), build(**kwargs)
        assert sampled.interp.run(sampled=whole) == exact.interp.run()
        assert sampled.interp.sampling.exact
        for tid, state in exact.interp.states.items():
            other = sampled.interp.states[tid]
            assert other.tu.issue_time == state.tu.issue_time
            assert vars(other.tu.counters) == vars(state.tu.counters)
            assert bytes(other.regs._regs) == bytes(state.regs._regs)
        assert bytes(sampled.chip.memory.backing._bytes) \
            == bytes(exact.chip.memory.backing._bytes)

    def test_fast_forward_faults_past_max_memory_like_exact(self):
        # A failed bank lowers max-memory to 0x780000; the load past it
        # comes after 3,000 loop iterations, deep in a fast-forward span.
        program = assemble(
            "addi r3, r0, 3000\n"
            "loop:\n"
            "addi r3, r3, -1\n"
            "bne r3, r0, loop\n"
            "ld r12, 0(r4)\n"
            "halt\n")
        config = SamplingConfig(warmup_insns=16, measure_insns=16,
                                period_insns=4096)
        faults = []
        for sampled in (False, config):
            chip = Chip()
            assert FaultController(chip).fail_bank(0) == 0x780000
            interp = Interpreter(chip, model_fetch=False)
            interp.add_thread(0, program, init_regs={4: 0x780040})
            with pytest.raises(MemoryFault) as info:
                interp.run(sampled=sampled)
            faults.append((type(info.value), str(info.value)))
        assert faults[0] == faults[1]


# ---------------------------------------------------------------------------
# Functional warming plumbing
# ---------------------------------------------------------------------------
class TestWarming:
    def test_thread_state_warming_hooks(self):
        _, interp, _ = _stream_interp(n_threads=1, n_per_thread=8)
        state = interp.states[0]
        assert state.warm_fn == state.memory.warm_access
        assert state.warm_memo == {}

    def test_warm_memo_populated_only_by_sampled_runs(self):
        _, exact, _ = _stream_interp(n_threads=1, n_per_thread=64)
        exact.run()
        assert all(not s.warm_memo for s in exact.states.values())

        _, sampled, _ = _stream_interp()
        sampled.run(sampled=TINY)
        assert any(s.warm_memo for s in sampled.states.values())

    def test_warm_access_counts_as_untimed_touch(self):
        chip = Chip()
        cache = chip.memory.caches[0]
        before_hits, before_misses = cache.hits, cache.misses
        effective = make_effective(0x10000, 0)  # ig 0 -> local quad 0
        chip.memory.warm_access(0, effective, False)
        chip.memory.warm_access(0, effective, False)
        # First touch misses (allocates the line), second hits — all
        # without advancing any clock.
        assert cache.hits == before_hits + 1
        assert cache.misses == before_misses + 1
