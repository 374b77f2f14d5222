"""Structured run reports: one JSON artifact per instrumented run.

A :class:`RunReport` merges everything the other telemetry pieces know —
chip counters (the Figure 7 run/stall decomposition), a metrics registry
snapshot, the utilization breakdown, and host-side profiling — into one
dataclass that round-trips through JSON. Experiments, the workload CLI's
``--report``, and CI smoke checks all emit and consume this shape.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.chip import Chip
from repro.core.counters import ChipCounters, ThreadCounters


def chip_counters(chip: Chip) -> ChipCounters:
    """The chip's per-thread counters gathered into a :class:`ChipCounters`.

    The returned object *references* the live ``ThreadCounters`` blocks
    (no copies), so ``aggregate()`` always reflects current state.
    """
    counters = ChipCounters()
    for tu in chip.threads:
        counters.threads[tu.tid] = tu.counters
    return counters


def _sampling_dict(sampling, golden_cycles: int | None = None
                   ) -> dict[str, Any]:
    """Normalize a sampling estimate for a report's ``results`` block.

    *sampling* is a :class:`~repro.sampling.SamplingEstimate` or an
    equivalent dict (``to_dict()`` shape). With *golden_cycles* from an
    exact run of the same workload, the measured relative error is
    recorded alongside the statistical interval.
    """
    stats = dict(sampling.to_dict() if hasattr(sampling, "to_dict")
                 else sampling)
    if golden_cycles:
        stats["golden_cycles"] = golden_cycles
        stats["measured_error"] = (
            (stats["estimated_cycles"] - golden_cycles) / golden_cycles
        )
    return stats


def publish_sampling_metrics(registry, stats: dict[str, Any]) -> None:
    """Publish ``sampling.*`` metrics from a normalized stats dict.

    Mirrors what the ISA interpreter publishes to its chip's own
    registry after a sampled run, so reports built from either side
    carry the same metric names.
    """
    registry.gauge("sampling.units").set(stats.get("n_units", 0))
    registry.gauge("sampling.estimated_cycles").set(
        stats.get("estimated_cycles", 0))
    registry.gauge("sampling.ci_halfwidth_cycles").set(
        stats.get("ci_halfwidth", 0.0))
    registry.gauge("sampling.cpi_mean").set(stats.get("cpi_mean", 0.0))
    registry.gauge("sampling.detailed_cycles").set(
        stats.get("detailed_cycles", 0))
    registry.counter("sampling.warmup_insns").inc(
        stats.get("warmup_insns", 0))
    registry.counter("sampling.measured_insns").inc(
        stats.get("measured_insns", 0))
    registry.counter("sampling.fastforward_insns").inc(
        stats.get("ff_insns", 0))
    if "measured_error" in stats:
        registry.gauge("sampling.measured_error").set(
            stats["measured_error"])


def _counters_dict(c: ThreadCounters) -> dict[str, int]:
    return {
        "instructions": c.instructions,
        "run_cycles": c.run_cycles,
        "stall_cycles": c.stall_cycles,
        "stall_events": c.stall_events,
        "flops": c.flops,
        "loads": c.loads,
        "stores": c.stores,
        "barriers": c.barriers,
    }


@dataclass
class RunReport:
    """One instrumented run, serialized as a single JSON document."""

    workload: str
    params: dict[str, Any] = field(default_factory=dict)
    config: dict[str, Any] = field(default_factory=dict)
    elapsed_cycles: int = 0
    #: Chip-wide totals — matches ``ChipCounters.aggregate()`` by
    #: construction (see :func:`build_report`).
    aggregate: dict[str, int] = field(default_factory=dict)
    #: Per-thread-unit counters for units that did any work.
    threads: dict[str, dict[str, int]] = field(default_factory=dict)
    utilization: dict[str, Any] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)
    host: dict[str, Any] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A plain JSON-safe dictionary."""
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path) -> None:
        """Write the report to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output."""
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


def build_report(chip: Chip, workload: str,
                 params: dict[str, Any] | None = None,
                 registry=None, profiler=None,
                 elapsed: int | None = None,
                 results: dict[str, Any] | None = None,
                 sampling=None,
                 golden_cycles: int | None = None) -> RunReport:
    """Assemble a :class:`RunReport` from a finished run on *chip*.

    The ``aggregate`` block is taken from
    ``chip_counters(chip).aggregate()`` so the report's run/stall totals
    are the chip counters' by construction, never a re-derivation.

    For a sampled run pass the interpreter's ``SamplingEstimate`` as
    *sampling* (optionally with the exact run's *golden_cycles* to
    record the measured error): ``elapsed_cycles`` becomes the
    estimate, the normalized stats land in ``results["sampling"]``,
    and ``sampling.*`` metrics are published to *registry*.
    """
    from repro.analysis.utilization import chip_elapsed, utilization

    sampling_stats = None
    if sampling is not None:
        sampling_stats = _sampling_dict(sampling, golden_cycles)
        if elapsed is None:
            # Counters only accrued cycles in the detailed windows;
            # the estimate is the run's cycle count.
            elapsed = sampling_stats["estimated_cycles"]
    if elapsed is None:
        elapsed = chip_elapsed(chip)
    aggregate = chip_counters(chip).aggregate()
    threads = {
        str(tu.tid): _counters_dict(tu.counters)
        for tu in chip.threads
        if tu.counters.instructions or tu.counters.run_cycles
        or tu.counters.stall_cycles
    }
    util = utilization(chip, elapsed)
    cfg = chip.config
    report = RunReport(
        workload=workload,
        params=dict(params or {}),
        config={
            "n_threads": cfg.n_threads,
            "n_quads": cfg.n_quads,
            "n_banks": cfg.n_memory_banks,
            "clock_hz": cfg.clock_hz,
        },
        elapsed_cycles=elapsed,
        aggregate=_counters_dict(aggregate),
        threads=threads,
        utilization={
            "ipc": util.ipc,
            "flops_per_cycle": util.flops_per_cycle,
            "fpu_add": util.fpu_add,
            "fpu_mul": util.fpu_mul,
            "fpu_div": util.fpu_div,
            "cache_ports": util.cache_ports,
            "banks": util.banks,
            "bank_peak": util.bank_peak,
            "access_kinds": {k: v for k, v in util.kind_counts.items() if v},
        },
        results=dict(results or {}),
    )
    if sampling_stats is not None:
        report.results["sampling"] = sampling_stats
        if registry is not None and registry.enabled:
            publish_sampling_metrics(registry, sampling_stats)
    if registry is not None and registry.enabled:
        report.metrics = registry.snapshot()
    if profiler is not None:
        report.host = profiler.summary()
    return report


def build_system_report(system, workload: str,
                        params: dict[str, Any] | None = None,
                        registry=None) -> RunReport:
    """One :class:`RunReport` for a whole :class:`MultiChipSystem` run.

    Counters aggregate across every chip (threads are keyed
    ``"chip:tid"``), and when the run executed under :mod:`repro.pdes`
    the per-domain synchronization totals land in the registry as
    ``pdes.*`` counters — so a parallel run and its serial twin produce
    the same report apart from that block. A harness that drove
    per-chip ISA interpreters under sampled simulation can likewise
    attach a normalized estimate dict as ``system.sampling_stats``; a
    non-empty one is published as ``sampling.*`` metrics and recorded
    in ``results["sampling"]`` (empty or absent stats leave the report
    untouched — :class:`~repro.system.multichip.MultiChipSystem` itself
    never samples).
    """
    from repro.telemetry.metrics import MetricsRegistry

    if registry is None:
        registry = MetricsRegistry()
    aggregate = ThreadCounters()
    threads: dict[str, dict[str, int]] = {}
    for index, chip in enumerate(system.chips):
        for tu in chip.threads:
            if not (tu.counters.instructions or tu.counters.run_cycles
                    or tu.counters.stall_cycles):
                continue
            aggregate.merge(tu.counters)
            threads[f"{index}:{tu.tid}"] = _counters_dict(tu.counters)
    stats = getattr(system, "pdes_stats", None)
    if stats:
        registry.counter("pdes.null_messages").inc(stats["null_messages"])
        registry.counter("pdes.blocked_time").inc(
            stats["blocked_seconds"])
        registry.counter("pdes.messages").inc(stats["messages"])
        registry.gauge("pdes.domains").set(stats["domains"])
        for domain, dstats in stats.get("per_domain", {}).items():
            registry.counter(
                "pdes.null_messages", domain=domain
            ).inc(dstats["null_messages"])
            registry.counter(
                "pdes.blocked_time", domain=domain
            ).inc(dstats["blocked_seconds"])
    sampling_stats = getattr(system, "sampling_stats", None)
    if sampling_stats:
        publish_sampling_metrics(registry, sampling_stats)
    cfg = system.config
    report = RunReport(
        workload=workload,
        params=dict(params or {}),
        config={
            "n_chips": len(system.chips),
            "n_threads": cfg.n_threads,
            "n_quads": cfg.n_quads,
            "n_banks": cfg.n_memory_banks,
            "clock_hz": cfg.clock_hz,
        },
        elapsed_cycles=system.scheduler.now,
        aggregate=_counters_dict(aggregate),
        threads=threads,
        results={"link_bytes": system.fabric.total_bytes},
    )
    if sampling_stats:
        report.results["sampling"] = dict(sampling_stats)
    if registry.enabled:
        report.metrics = registry.snapshot()
    return report


__all__ = ["RunReport", "build_report", "build_system_report",
           "chip_counters", "publish_sampling_metrics"]
