"""Tests for the repro.telemetry subsystem.

Covers registry semantics, histogram percentiles, Chrome-trace JSON
validity, RunReport round-tripping, live probes (scheduler, barriers),
host profiling, the CLI, and the zero-overhead guarantee of the
disabled path.
"""

import json

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import TelemetryError
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.telemetry.chrome_trace import (
    CHIP_PID,
    TRACE_PID,
    chrome_trace,
    to_json,
    write_chrome_trace,
)
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.instrument import ChipInstrumentation, instrument
from repro.telemetry.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    format_labels,
)
from repro.telemetry.report import RunReport, build_report, chip_counters
from repro.workloads.stream import StreamParams, run_stream


def small_config() -> ChipConfig:
    return ChipConfig.paper()


def run_small_stream(chip: Chip, threads: int = 8) -> object:
    return run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=threads,
        verify=False, warmup=False,
    ), chip=chip)


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        c1 = reg.counter("hits", cache=3)
        c2 = reg.counter("hits", cache=3)
        assert c1 is c2
        assert len(reg) == 1

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        a = reg.counter("hits", cache=0)
        b = reg.counter("hits", cache=1)
        assert a is not b
        a.inc(5)
        assert b.value == 0

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.gauge("depth", a=1, b=2)
        b = reg.gauge("depth", b=2, a=1)
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")

    def test_counter_is_monotonic(self):
        reg = MetricsRegistry()
        counter = reg.counter("ops")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value == 7

    def test_snapshot_structure_and_keys(self):
        reg = MetricsRegistry()
        reg.counter("c", cache=1).inc(2)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert snap["counters"] == {'c{cache="1"}': 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["count"] == 1
        # snapshot must be JSON-serializable as-is
        json.loads(json.dumps(snap))

    def test_clear(self):
        reg = MetricsRegistry()
        reg.counter("c")
        reg.clear()
        assert len(reg) == 0

    def test_format_labels(self):
        assert format_labels({}) == ""
        assert format_labels({"b": 2, "a": 1}) == '{a="1",b="2"}'


# ---------------------------------------------------------------------------
# Histogram percentiles
# ---------------------------------------------------------------------------
class TestHistogram:
    def test_percentiles_exact(self):
        hist = Histogram("h", {})
        for v in range(1, 101):  # 1..100
            hist.observe(v)
        assert hist.count == 100
        assert hist.min == 1 and hist.max == 100
        assert hist.mean == pytest.approx(50.5)
        assert hist.percentile(50) == 50
        assert hist.percentile(90) == 90
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100

    def test_percentile_bounds_checked(self):
        hist = Histogram("h", {})
        with pytest.raises(TelemetryError):
            hist.percentile(101)

    def test_empty_histogram(self):
        hist = Histogram("h", {})
        assert hist.percentile(50) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["mean"] == 0.0

    def test_sample_cap_keeps_exact_aggregates(self):
        hist = Histogram("h", {}, sample_cap=10)
        for v in range(100):
            hist.observe(v)
        assert hist.count == 100
        assert hist.max == 99
        assert hist.total == sum(range(100))

    def test_snapshot_has_percentile_ladder(self):
        hist = Histogram("h", {})
        hist.observe(2.0)
        snap = hist.snapshot()
        assert set(snap) == {"count", "mean", "min", "max",
                             "p50", "p90", "p99"}


# ---------------------------------------------------------------------------
# Null objects: the disabled path
# ---------------------------------------------------------------------------
class TestDisabledPath:
    def test_null_registry_shares_instruments(self):
        a = NULL_METRICS.counter("anything", x=1)
        b = NULL_METRICS.counter("other")
        assert a is b
        a.inc(100)
        assert a.value == 0
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(5)
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_disabled_run_allocates_nothing(self):
        """Overhead guard: a default run records no metrics, no traces."""
        chip = Chip()
        result = run_small_stream(chip)
        assert result.cycles > 0
        assert chip.telemetry is None
        assert not NULL_TRACER.records
        assert len(NULL_METRICS) == 0
        # harvest into a disabled registry is a no-op too
        inst = ChipInstrumentation(chip, NULL_METRICS)
        inst.harvest(elapsed=result.cycles)
        assert len(NULL_METRICS) == 0

    def test_scheduler_probe_not_attached_when_disabled(self):
        chip = Chip()
        inst = ChipInstrumentation(chip, NULL_METRICS)
        chip.telemetry = inst
        kernel = Kernel(chip)
        assert kernel.scheduler.probe is None


# ---------------------------------------------------------------------------
# Instrumentation harvest + live probes
# ---------------------------------------------------------------------------
class TestInstrumentation:
    def test_harvest_matches_chip_counters(self):
        chip = Chip()
        inst = instrument(chip)
        result = run_small_stream(chip)
        inst.harvest(elapsed=result.cycles)
        snap = inst.registry.snapshot()
        aggregate = chip_counters(chip).aggregate()
        assert snap["gauges"]["chip.run_cycles"] == aggregate.run_cycles
        assert snap["gauges"]["chip.stall_cycles"] == aggregate.stall_cycles
        assert snap["gauges"]["chip.instructions"] == aggregate.instructions
        assert snap["gauges"]["chip.flops"] == aggregate.flops

    def test_scheduler_probe_samples_queue_depth(self):
        chip = Chip()
        inst = instrument(chip)
        run_small_stream(chip)
        assert inst.kernel is not None
        assert inst.kernel.scheduler.steps > 0
        depth = inst.registry.histogram("engine.queue_depth")
        assert depth.count > 0

    def test_hw_barrier_spread_histogram(self):
        chip = Chip()
        inst = instrument(chip)
        kernel = Kernel(chip, AllocationPolicy.BALANCED)
        barrier = kernel.hardware_barrier(0, 8)

        def body(ctx, reps):
            yield from ctx.fp_stream(reps)
            yield from barrier.wait(ctx)

        for i in range(8):
            kernel.spawn(body, 10 * (i + 1))
        kernel.run()
        hist = inst.registry.histogram("barrier.arrival_spread", kind="hw")
        assert hist.count == 1
        assert hist.max > 0  # imbalanced bodies arrive spread out

    def test_sw_barrier_spread_histogram(self):
        chip = Chip()
        inst = instrument(chip)
        kernel = Kernel(chip)
        barrier = kernel.tree_barrier(4)

        def body(ctx):
            yield from barrier.wait(ctx)

        for _ in range(4):
            kernel.spawn(body)
        kernel.run()
        hist = inst.registry.histogram("barrier.arrival_spread", kind="sw")
        assert hist.count == 1

    def test_component_contention_counters(self):
        chip = Chip()
        run_small_stream(chip)
        # STREAM traffic must have moved bytes through switch and banks.
        assert chip.memory.cache_switch.transfers > 0
        assert chip.memory.cache_switch.bytes_moved > 0
        assert sum(b.conflict_cycles for b in chip.memory.banks) >= 0
        assert any(tu.counters.stall_events for tu in chip.threads)

    def test_fpu_contention_counted_under_quad_sharing(self):
        chip = Chip()
        kernel = Kernel(chip)  # sequential: 4 threads share quad 0's FPU

        def body(ctx):
            yield from ctx.fp_stream(50)

        for _ in range(4):
            kernel.spawn(body)
        kernel.run()
        assert chip.fpus[0].contention_cycles > 0


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
class TestChromeTrace:
    def test_json_validity_and_thread_rows(self, tmp_path):
        tracer = Tracer(capacity=10_000)
        chip = Chip(tracer=tracer)
        run_small_stream(chip, threads=8)
        path = tmp_path / "trace.json"
        n_events = write_chrome_trace(path, chip=chip, tracer=tracer)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n_events
        spans = [e for e in doc["traceEvents"]
                 if e.get("pid") == CHIP_PID and e.get("ph") == "X"]
        # one span per active thread unit
        active = [tu for tu in chip.threads if tu.counters.instructions]
        assert len(spans) == len(active) == 8
        for span in spans:
            assert span["dur"] >= 1
            assert span["args"]["instructions"] > 0

    def test_tracer_rows_grouped_by_source(self):
        tracer = Tracer()
        tracer.emit(1, "cache0", "local_hit")
        tracer.emit(2, "cache1", "local_miss", "phys=0x40")
        tracer.emit(3, "cache0", "local_hit")
        doc = chrome_trace(tracer=tracer)
        instants = [e for e in doc["traceEvents"] if e.get("ph") == "i"]
        assert len(instants) == 3
        assert all(e["pid"] == TRACE_PID for e in instants)
        assert len({e["tid"] for e in instants}) == 2
        json.loads(to_json(tracer=tracer))

    def test_empty_trace_is_valid(self):
        doc = chrome_trace()
        assert doc["traceEvents"] == []
        json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# RunReport
# ---------------------------------------------------------------------------
class TestRunReport:
    def test_round_trip(self):
        chip = Chip()
        inst = instrument(chip)
        result = run_small_stream(chip)
        inst.harvest(elapsed=result.cycles)
        report = build_report(chip, "stream", params={"threads": 8},
                              registry=inst.registry,
                              results={"cycles": result.cycles})
        clone = RunReport.from_dict(json.loads(report.to_json()))
        assert clone.to_dict() == report.to_dict()

    def test_aggregate_matches_chip_counters(self):
        chip = Chip()
        run_small_stream(chip)
        report = build_report(chip, "stream")
        aggregate = chip_counters(chip).aggregate()
        assert report.aggregate["run_cycles"] == aggregate.run_cycles
        assert report.aggregate["stall_cycles"] == aggregate.stall_cycles
        assert report.aggregate["instructions"] == aggregate.instructions
        # per-thread blocks sum to the aggregate
        assert sum(t["run_cycles"] for t in report.threads.values()) \
            == aggregate.run_cycles

    def test_write_and_json_loads(self, tmp_path):
        chip = Chip()
        run_small_stream(chip)
        report = build_report(chip, "stream")
        path = tmp_path / "report.json"
        report.write(path)
        data = json.loads(path.read_text())
        assert data["workload"] == "stream"
        assert data["elapsed_cycles"] > 0

    def test_from_dict_ignores_unknown_keys(self):
        report = RunReport.from_dict({"workload": "x", "bogus": 1})
        assert report.workload == "x"


# ---------------------------------------------------------------------------
# Host profiler
# ---------------------------------------------------------------------------
class TestHostProfiler:
    def test_phases_accumulate(self):
        ticks = iter(range(100))
        prof = HostProfiler(clock=lambda: next(ticks))
        with prof.phase("run"):
            pass
        with prof.phase("run"):
            pass
        timing = prof["run"]
        assert timing.entries == 2
        assert timing.seconds == 2.0  # two 1-tick spans

    def test_rates(self):
        ticks = iter([0.0, 2.0])
        prof = HostProfiler(clock=lambda: next(ticks))
        with prof.phase("sim"):
            pass
        prof.set_work("sim", cycles=1000, events=500)
        summary = prof.summary()["sim"]
        assert summary["cycles_per_sec"] == pytest.approx(500.0)
        assert summary["events_per_sec"] == pytest.approx(250.0)

    def test_reentrancy_guard(self):
        prof = HostProfiler()
        with pytest.raises(TelemetryError):
            with prof.phase("a"):
                with prof.phase("a"):
                    pass

    def test_unknown_phase_errors(self):
        prof = HostProfiler()
        with pytest.raises(TelemetryError):
            prof.set_work("nope", cycles=1)
        with pytest.raises(TelemetryError):
            prof["nope"]


# ---------------------------------------------------------------------------
# Tracer capacity (deque bound)
# ---------------------------------------------------------------------------
class TestTracerCapacity:
    def test_capacity_drops_oldest(self):
        tracer = Tracer(capacity=3)
        for i in range(10):
            tracer.emit(i, "s", "e")
        assert len(tracer.records) == 3
        assert [r.time for r in tracer.records] == [7, 8, 9]
        assert tracer.capacity == 3

    def test_unbounded_by_default(self):
        tracer = Tracer()
        assert tracer.capacity is None
        for i in range(100):
            tracer.emit(i, "s", "e")
        assert len(tracer.records) == 100
        assert tracer.records[0].time == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_stream_with_trace_and_report(self, tmp_path):
        from repro.telemetry.__main__ import main

        trace = tmp_path / "out.trace.json"
        report = tmp_path / "out.report.json"
        code = main(["--workload", "stream", "--threads", "8",
                     "--size", "512", "--trace", str(trace),
                     "--report", str(report)])
        assert code == 0
        trace_doc = json.loads(trace.read_text())
        spans = [e for e in trace_doc["traceEvents"]
                 if e.get("pid") == CHIP_PID and e.get("ph") == "X"]
        assert len(spans) == 8
        report_doc = json.loads(report.read_text())
        assert report_doc["aggregate"]["run_cycles"] > 0
        assert report_doc["metrics"]["gauges"]["chip.run_cycles"] \
            == report_doc["aggregate"]["run_cycles"]
        assert "simulate" in report_doc["host"]

    def test_no_metrics_flag(self, tmp_path, capsys):
        from repro.telemetry.__main__ import main

        code = main(["--workload", "stream", "--threads", "4",
                     "--size", "256", "--no-metrics"])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["metrics"] == {}

    def test_fft_workload(self, capsys):
        from repro.telemetry.__main__ import main

        code = main(["--workload", "fft", "--threads", "4",
                     "--size", "64"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["verified"] is True
        assert doc["workload"] == "fft"


# ---------------------------------------------------------------------------
# Experiments runner --json
# ---------------------------------------------------------------------------
class TestExperimentsJson:
    def test_run_json_output(self, tmp_path, capsys):
        from repro.experiments.runner import main

        path = tmp_path / "results.json"
        code = main(["run", "table2", "--quick", "--json", str(path)])
        assert code == 0
        capsys.readouterr()  # swallow the text report
        data = json.loads(path.read_text())
        assert "table2" in data
        entry = data["table2"]
        assert entry["experiment_id"] == "table2"
        assert entry["quick"] is True
        assert isinstance(entry["measurements"], dict)


# ---------------------------------------------------------------------------
# System reports: pdes/sampling blocks and partially-idle chips
# ---------------------------------------------------------------------------
class TestSystemReport:
    def _system(self, n_chips: int = 2):
        from repro.system.multichip import MultiChipSystem
        from repro.system.topology import Topology

        return MultiChipSystem(Topology(n_chips, 1, 1))

    def test_no_pdes_stats_builds_clean_report(self):
        from repro.telemetry.report import build_system_report

        system = self._system()
        assert getattr(system, "pdes_stats", None) is None
        report = build_system_report(system, "idle")
        assert report.workload == "idle"
        assert "sampling" not in report.results
        assert not any(k.startswith("pdes.")
                       for k in report.metrics.get("counters", {}))

    def test_empty_sampling_stats_leave_report_untouched(self):
        from repro.telemetry.report import build_system_report

        system = self._system()
        system.sampling_stats = {}
        report = build_system_report(system, "idle")
        assert "sampling" not in report.results
        assert "sampling.units" not in report.metrics.get("gauges", {})

    def test_populated_sampling_stats_publish_metrics(self):
        from repro.telemetry.report import build_system_report

        system = self._system()
        system.sampling_stats = {
            "n_units": 3, "estimated_cycles": 9000, "ci_halfwidth": 120.0,
            "cpi_mean": 0.25, "detailed_cycles": 2000,
            "warmup_insns": 512, "measured_insns": 256, "ff_insns": 7000,
            "measured_error": -0.004,
        }
        report = build_system_report(system, "sampled-harness")
        assert report.results["sampling"]["estimated_cycles"] == 9000
        gauges = report.metrics["gauges"]
        assert gauges["sampling.units"] == 3
        assert gauges["sampling.measured_error"] == pytest.approx(-0.004)
        counters = report.metrics["counters"]
        assert counters["sampling.fastforward_insns"] == 7000

    def test_mixed_chips_with_and_without_harvested_counters(self):
        from repro.telemetry.report import build_system_report

        system = self._system(n_chips=2)
        tu = system.chips[0].threads[0]
        tu.counters.instructions = 7
        tu.counters.run_cycles = 3
        report = build_system_report(system, "mixed")
        # Only the chip that actually ran contributes thread rows, keyed
        # chip:tid; the idle chip's all-zero threads are skipped.
        assert set(report.threads) == {"0:0"}
        assert report.aggregate["instructions"] == 7
        assert report.aggregate["run_cycles"] == 3


# ---------------------------------------------------------------------------
# Chip reports for sampled runs
# ---------------------------------------------------------------------------
class TestSampledChipReport:
    def _sampled_interp(self):
        from repro.isa import Interpreter
        from repro.isa.kernels import (stream_kernel_program,
                                       stream_register_setup)
        from repro.memory.address import make_effective
        from repro.memory.interest_groups import IG_ALL
        from repro.sampling import SamplingConfig

        chip = Chip()
        interp = Interpreter(chip, model_fetch=False)
        program = stream_kernel_program("triad", 1)
        n = 600
        for t in range(4):
            src, src2, dst = (0x10000 + t * 0x4000, 0x100000 + t * 0x4000,
                              0x200000 + t * 0x4000)
            chip.memory.backing.f64_view(src, n)[:] = 1.0
            chip.memory.backing.f64_view(src2, n)[:] = 3.0
            regs, doubles = stream_register_setup(
                "triad", make_effective(src, IG_ALL),
                make_effective(src2, IG_ALL), make_effective(dst, IG_ALL),
                n)
            interp.add_thread(t, program, regs, doubles)
        config = SamplingConfig(warmup_insns=64, measure_insns=64,
                                period_insns=512, chunk_insns=256)
        interp.run(sampled=config)
        return chip, interp, interp.sampling

    def test_build_report_records_estimate_and_measured_error(self):
        from repro.telemetry.report import build_report

        chip, interp, estimate = self._sampled_interp()
        registry = MetricsRegistry()
        report = build_report(chip, "stream-sampled", registry=registry,
                              sampling=estimate, golden_cycles=10000)
        assert report.elapsed_cycles == estimate.estimated_cycles
        stats = report.results["sampling"]
        assert stats["golden_cycles"] == 10000
        assert stats["measured_error"] == pytest.approx(
            (estimate.estimated_cycles - 10000) / 10000)
        assert report.metrics["gauges"]["sampling.estimated_cycles"] \
            == estimate.estimated_cycles

    def test_build_report_without_golden_has_no_measured_error(self):
        from repro.telemetry.report import build_report

        chip, interp, estimate = self._sampled_interp()
        report = build_report(chip, "stream-sampled", sampling=estimate)
        stats = report.results["sampling"]
        assert "measured_error" not in stats
        assert "golden_cycles" not in stats
        assert stats["n_units"] == estimate.n_units
