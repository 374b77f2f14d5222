"""Wiring between chip components and the metrics registry.

Two complementary mechanisms, chosen per component by hot-path cost:

* **Harvest** — the simulator's hot paths already keep cheap integer
  counters (thread-unit run/stall, FPU operations and contention, cache
  hits/misses, bank traffic and conflict cycles, switch transfers).
  :meth:`ChipInstrumentation.harvest` pulls them all into the registry
  after (or during) a run, so instrumented runs cost nothing extra while
  simulating.
* **Live probes** — quantities with no resting counter (event-queue
  depth, barrier arrival spread) are observed as they happen through
  opt-in hooks: :class:`SchedulerProbe` samples the queue, and barriers
  accept a ``spread_histogram``. Both default to off and cost one branch
  when disabled.
"""

from __future__ import annotations

from repro.core.chip import Chip
from repro.telemetry.metrics import MetricsRegistry, NULL_METRICS


class SchedulerProbe:
    """Samples event-queue depth once every *interval* process steps."""

    def __init__(self, registry: MetricsRegistry, interval: int = 32) -> None:
        self.depth = registry.histogram("engine.queue_depth")
        self.interval = max(1, interval)
        self._tick = 0

    def __call__(self, queue_depth: int, now: int) -> None:
        self._tick += 1
        if self._tick % self.interval == 0:
            self.depth.observe(queue_depth)


class ChipInstrumentation:
    """Binds one chip (and optionally its kernel) to a metrics registry."""

    def __init__(self, chip: Chip,
                 registry: MetricsRegistry | None = None) -> None:
        self.chip = chip
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The most recently attached kernel (for scheduler harvest).
        self.kernel = None

    # ------------------------------------------------------------------
    # Live probes
    # ------------------------------------------------------------------
    def attach_scheduler(self, scheduler, interval: int = 32) -> None:
        """Start sampling *scheduler*'s queue depth into the registry."""
        if self.registry.enabled:
            scheduler.probe = SchedulerProbe(self.registry, interval)

    def attach_kernel(self, kernel) -> None:
        """Attach every live probe a kernel offers (its scheduler)."""
        self.kernel = kernel
        self.attach_scheduler(kernel.scheduler)

    def attach_barrier(self, barrier, kind: str) -> None:
        """Observe *barrier*'s per-episode arrival spread.

        Works for both :class:`~repro.runtime.barrier_hw.HardwareBarrier`
        and :class:`~repro.runtime.barrier_sw.TreeBarrier`; *kind* labels
        the histogram (conventionally ``"hw"`` or ``"sw"``).
        """
        if self.registry.enabled:
            barrier.spread_histogram = self.registry.histogram(
                "barrier.arrival_spread", kind=kind
            )

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def harvest(self, elapsed: int | None = None,
                scheduler=None) -> MetricsRegistry:
        """Pull every component counter into the registry.

        Safe to call repeatedly (totals are gauges: last call wins).
        With *elapsed* the busy fractions of shared resources are also
        recorded; with *scheduler* the engine's host-work counters are.
        """
        registry = self.registry
        if not registry.enabled:
            return registry
        self._harvest_threads(registry)
        self._harvest_fpus(registry, elapsed)
        self._harvest_memory(registry, elapsed)
        if scheduler is None and self.kernel is not None:
            scheduler = self.kernel.scheduler
        if scheduler is not None:
            registry.gauge("engine.steps").set(scheduler.steps)
            registry.gauge("engine.now").set(scheduler.now)
        if elapsed is not None:
            registry.gauge("chip.elapsed_cycles").set(elapsed)
        return registry

    def _harvest_threads(self, registry: MetricsRegistry) -> None:
        chip = self.chip
        totals = {"instructions": 0, "run_cycles": 0, "stall_cycles": 0,
                  "stall_events": 0, "flops": 0, "loads": 0, "stores": 0,
                  "barriers": 0}
        stall_fraction = registry.histogram("tu.stall_fraction")
        per_tu_instructions = registry.histogram("tu.instructions")
        for tu in chip.threads:
            c = tu.counters
            totals["instructions"] += c.instructions
            totals["run_cycles"] += c.run_cycles
            totals["stall_cycles"] += c.stall_cycles
            totals["stall_events"] += c.stall_events
            totals["flops"] += c.flops
            totals["loads"] += c.loads
            totals["stores"] += c.stores
            totals["barriers"] += c.barriers
            busy = c.run_cycles + c.stall_cycles
            if busy:
                stall_fraction.observe(c.stall_cycles / busy)
                per_tu_instructions.observe(c.instructions)
        for name, value in totals.items():
            registry.gauge(f"chip.{name}").set(value)

    def _harvest_fpus(self, registry: MetricsRegistry,
                      elapsed: int | None) -> None:
        chip = self.chip
        operations = sum(f.operations for f in chip.fpus)
        contention = sum(f.contention_cycles for f in chip.fpus)
        registry.gauge("fpu.operations").set(operations)
        registry.gauge("fpu.contention_cycles").set(contention)
        per_fpu = registry.histogram("fpu.operations_per_unit")
        for fpu in chip.fpus:
            if fpu.operations:
                per_fpu.observe(fpu.operations)
        if elapsed:
            for pipe in ("adder", "multiplier", "divider"):
                busy = sum(getattr(f, pipe).utilization(elapsed)
                           for f in chip.fpus) / max(1, len(chip.fpus))
                registry.gauge("fpu.busy_fraction", pipe=pipe).set(busy)

    def _harvest_memory(self, registry: MetricsRegistry,
                        elapsed: int | None) -> None:
        memory = self.chip.memory

        hits = misses = store_hits = store_misses = 0
        evictions = writebacks = 0
        hit_rate = registry.histogram("cache.hit_rate")
        for cache in memory.caches:
            cache_hits = memory.cache_hits(cache.cache_id)
            hits += cache_hits[0]
            misses += cache.misses
            store_hits += cache_hits[1]
            store_misses += cache.store_misses
            evictions += cache.evictions
            writebacks += cache.writebacks
            if sum(cache_hits) + cache.misses + cache.store_misses:
                hit_rate.observe(memory.cache_hit_rate(cache.cache_id))
        registry.gauge("cache.hits").set(hits)
        registry.gauge("cache.misses").set(misses)
        registry.gauge("cache.store_hits").set(store_hits)
        registry.gauge("cache.store_misses").set(store_misses)
        registry.gauge("cache.evictions").set(evictions)
        registry.gauge("cache.writebacks").set(writebacks)

        bytes_read = sum(b.bytes_read for b in memory.banks)
        bytes_written = sum(b.bytes_written for b in memory.banks)
        conflicts = sum(b.conflict_cycles for b in memory.banks)
        registry.gauge("bank.bytes_read").set(bytes_read)
        registry.gauge("bank.bytes_written").set(bytes_written)
        registry.gauge("bank.conflict_cycles").set(conflicts)
        per_bank = registry.histogram("bank.bytes_per_bank")
        for bank in memory.banks:
            if bank.bytes_total:
                per_bank.observe(bank.bytes_total)
        if elapsed:
            utils = [b.utilization(elapsed) for b in memory.banks]
            registry.gauge("bank.busy_fraction").set(
                sum(utils) / max(1, len(utils))
            )
            registry.gauge("bank.busy_fraction_peak").set(
                max(utils, default=0.0)
            )

        switch = memory.cache_switch
        registry.gauge("switch.transfers", name=switch.name).set(
            switch.transfers
        )
        registry.gauge("switch.bytes_moved", name=switch.name).set(
            switch.bytes_moved
        )
        registry.gauge("switch.contention_cycles", name=switch.name).set(
            switch.contention_cycles
        )
        if elapsed:
            port_utils = [p.utilization(elapsed) for p in switch.ports]
            registry.gauge("switch.busy_fraction", name=switch.name).set(
                sum(port_utils) / max(1, len(port_utils))
            )

        for kind, count in memory.kind_counts.items():
            if count:
                registry.gauge("mem.accesses", kind=kind.value).set(count)


def instrument(chip: Chip, kernel=None,
               registry: MetricsRegistry | None = None) -> ChipInstrumentation:
    """One-call setup: bind *chip* (and *kernel*'s scheduler) to a registry.

    Also parks the instrumentation on ``chip.telemetry`` so kernels
    booted later (e.g. inside a workload's ``run_*`` driver) attach
    their scheduler probes and barrier histograms automatically.
    """
    inst = ChipInstrumentation(chip, registry)
    chip.telemetry = inst
    if kernel is not None:
        inst.attach_kernel(kernel)
    return inst


__all__ = ["ChipInstrumentation", "SchedulerProbe", "instrument",
           "NULL_METRICS"]
