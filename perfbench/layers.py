"""Per-layer metrics of a traced rep, and the attribution of its run loop.

Layer names follow the ``repro`` packages: ``engine`` (scheduler and event
queue), ``memory`` (the access path, banks and switch), ``runtime``
(``ThreadCtx`` operations) and ``runtime.barrier``, ``core`` (the shared
FPUs) and ``isa`` (the interpreter's dispatch). ``workload.body_self_s`` is
the host time inside the direct-execution thread bodies that no layer
below covers.

The attribution multiplies each layer's counts from the traced rep by its
unit cost from :mod:`perfbench.micro` and reports what the sum leaves
unexplained of the *untraced* run-loop time:

* engine: ``engine.steps`` x ``engine.push_pop_ns.tie``. This overcounts:
  ``Scheduler.run`` resumes a process that reschedules itself before the
  next queued event directly, with no heap round-trip, yet that
  resumption is still a step. The residual therefore reads low, and can
  go negative;
* memory: hits x ``memory.hit_ns``, and misses x ``memory.miss_ns``;
* runtime: split-phase ``*_finish`` calls x (``runtime.split_load_ns`` -
  ``memory.hit_ns``) + generator-op calls x (``runtime.gen_load_ns`` -
  ``memory.hit_ns``), the op's cost beyond the access it makes;
* runtime.barrier: waits x ``runtime.barrier.hw_ns`` or ``.sw_ns``; the
  software barrier's unit cost includes its flag loads, which memory also
  counts, so ``fft_fig7``'s residual reads low by that overlap;
* isa: ``isa.insns`` x ``isa.block_insn_ns`` (measured on the same
  program, net of its memory accesses).

``attrib.residual_s`` and ``attrib.residual_frac`` are magnitudes, so that
lower is better whichever way the parts miss; the signed residual is in
the attribution parts of the full report.
"""

from __future__ import annotations

from repro.memory.subsystem import AccessKind
from repro.telemetry.instrument import ChipInstrumentation
from repro.telemetry.metrics import MetricsRegistry

KINDS = ("local_hit", "remote_hit", "local_miss", "remote_miss")


class PooledRegistry(MetricsRegistry):
    """One registry for all chips of a rep; barrier arrival spreads of
    both kinds pool into one histogram, so ``spread_p50`` covers every
    episode of the rep."""

    def histogram(self, name: str, /, **labels):
        if name == "barrier.arrival_spread":
            labels = {}
        return super().histogram(name, **labels)


def _gauge_sum(sims, prefix: str) -> float:
    return sum(v for s in sims for k, v in s.counters.items()
               if k == prefix or k.startswith(prefix + "{"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced, tracer, registry: PooledRegistry,
                  micro: dict[str, float], untraced_loop_s: float,
                  untraced_compile_s: float) -> tuple[dict, dict]:
    """``(metrics, attribution parts)`` for one traced rep."""
    sims = traced.sims
    m: dict[str, float] = dict(micro)

    steps = sum(s.scheduler.steps for s in sims)
    m["engine.steps"] = steps
    m["engine.queue_depth_p50"] = \
        registry.histogram("engine.queue_depth").percentile(50)
    m["engine.run_self_s"] = tracer.layer_self_s("engine.")
    m["engine.ns_per_step"] = _ratio(m["engine.run_self_s"] * 1e9, steps)

    calls = tracer.calls("memory.access")
    m["memory.access_calls"] = calls
    m["memory.access_self_s"] = tracer.layer_self_s("memory.")
    m["memory.access_ns"] = _ratio(m["memory.access_self_s"] * 1e9, calls)
    for kind in KINDS:
        m[f"memory.{kind}"] = sum(
            s.chip.memory.kind_counts[AccessKind(kind)] for s in sims)
    m["memory.bank_conflict_cycles"] = _gauge_sum(sims, "bank.conflict_cycles")
    elapsed = [s.scheduler.now for s in sims]
    busy = sum(
        ChipInstrumentation(s.chip).harvest(elapsed=t)
        .gauge("bank.busy_fraction").value * t
        for s, t in zip(sims, elapsed))
    m["memory.bank_busy_frac"] = _ratio(busy, sum(elapsed))
    m["memory.switch_contention_cycles"] = \
        _gauge_sum(sims, "switch.contention_cycles")

    m["runtime.ctx_calls"] = tracer.layer_calls("runtime.ctx.")
    m["runtime.ctx_self_s"] = tracer.layer_self_s("runtime.ctx.")
    stall = _gauge_sum(sims, "chip.stall_cycles")
    m["runtime.stall_cycles"] = stall
    m["runtime.stall_frac"] = _ratio(
        stall, stall + _gauge_sum(sims, "chip.run_cycles"))

    spread = registry.histogram("barrier.arrival_spread")
    m["runtime.barrier.episodes"] = spread.count
    m["runtime.barrier.wait_self_s"] = tracer.layer_self_s("runtime.barrier.")
    m["runtime.barrier.spread_p50"] = spread.percentile(50)

    m["core.fpu_ops"] = _gauge_sum(sims, "fpu.operations")
    m["core.fpu_contention_cycles"] = _gauge_sum(sims, "fpu.contention_cycles")

    insns = sum(s.insns for s in sims if s.interp is not None)
    m["isa.dispatches"] = registry.counter("engine.blocks.dispatches").value
    m["isa.blocks_compiled"] = registry.counter("engine.blocks.compiled").value
    m["isa.insns"] = insns
    m["isa.run_self_s"] = tracer.layer_self_s("isa.")
    m["isa.ns_per_insn"] = _ratio(m["isa.run_self_s"] * 1e9, insns)
    m["isa.compile_s"] = untraced_compile_s

    m["workload.body_self_s"] = tracer.layer_self_s("workload.")

    hits = m["memory.local_hit"] + m["memory.remote_hit"]
    misses = m["memory.local_miss"] + m["memory.remote_miss"]
    ctx_names = [n for n in tracer.agg if n.startswith("runtime.ctx.")]
    n_split = sum(tracer.calls(n) for n in ctx_names if n.endswith("_finish"))
    n_gen = sum(tracer.calls(n) for n in ctx_names if n in tracer.generators)
    hit_ns = micro["memory.hit_ns"]
    parts = {
        "engine": steps * micro["engine.push_pop_ns.tie"],
        "memory.hit": hits * hit_ns,
        "memory.miss": misses * micro["memory.miss_ns"],
        "runtime": (n_split * max(0.0, micro["runtime.split_load_ns"] - hit_ns)
                    + n_gen * max(0.0, micro["runtime.gen_load_ns"] - hit_ns)),
        "runtime.barrier": (
            tracer.calls("runtime.barrier.hw_wait")
            * micro["runtime.barrier.hw_ns"]
            + tracer.calls("runtime.barrier.sw_wait")
            * micro["runtime.barrier.sw_ns"]),
        "isa": insns * micro["isa.block_insn_ns"],
    }
    parts = {k: v / 1e9 for k, v in parts.items()}
    residual = untraced_loop_s - sum(parts.values())
    m["attrib.residual_s"] = abs(residual)
    m["attrib.residual_frac"] = _ratio(abs(residual), untraced_loop_s)
    parts["run_loop"] = untraced_loop_s
    parts["residual"] = residual
    return m, parts
