"""Unified metrics, tracing, and profiling for the Cyclops reproduction.

The paper's entire evaluation is counter-driven: Figure 7's run/stall
decomposition, Table 1's interest-group hit rates, and the STREAM
bandwidth curves all come from hardware-counter-style instrumentation of
the simulator. This package gathers those scattered counters behind one
front door:

* :mod:`repro.telemetry.metrics` — a labeled Counter/Gauge/Histogram
  registry with a do-nothing :data:`~repro.telemetry.metrics.NULL_METRICS`
  for the disabled path (same NULL-object pattern as ``NULL_TRACER``);
* :mod:`repro.telemetry.instrument` — harvests every chip component
  (thread units, FPUs, caches, banks, switches, scheduler, barriers)
  into the registry;
* :mod:`repro.telemetry.chrome_trace` — exports tracer streams and
  per-thread-unit run spans as Chrome Trace Event Format JSON
  (``chrome://tracing`` / Perfetto);
* :mod:`repro.telemetry.hostprof` — wall-clock profiling of the
  *simulator itself* (simulated cycles/sec, events/sec);
* :mod:`repro.telemetry.report` — a :class:`RunReport` merging chip
  counters, metrics snapshots, and utilization into one JSON artifact.

``python -m repro.workloads <name> --report PATH --trace PATH`` runs any
workload with instrumentation on and writes both.
"""

from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.instrument import ChipInstrumentation
from repro.telemetry.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report import (RunReport, build_report,
                                    build_system_report, chip_counters,
                                    publish_sampling_metrics)

__all__ = [
    "ChipInstrumentation",
    "Counter",
    "Gauge",
    "Histogram",
    "HostProfiler",
    "MetricsRegistry",
    "NULL_METRICS",
    "RunReport",
    "build_report",
    "build_system_report",
    "chip_counters",
    "publish_sampling_metrics",
]
