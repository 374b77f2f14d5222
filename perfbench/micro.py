"""Unit-cost microbenchmarks: each shared layer timed in isolation.

Every function returns host nanoseconds per operation, the median of
``BATCHES`` batches, measured on fresh simulator objects through their
public entry points with no tracing installed. The attribution in
:mod:`perfbench.layers` multiplies these costs by the traced run's counts.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.engine.events import EventQueue
from repro.isa import Interpreter
from repro.isa.kernels import stream_kernel_program, stream_register_setup
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.memory.subsystem import AccessKind
from repro.runtime.context import ThreadCtx
from repro.runtime.kernel import Kernel

BATCHES = 5

#: Same-cycle group size: one event per application thread of the chip.
TIE_GROUP = 126

#: Groups pushed and popped per queue batch.
ROUNDS = 200

#: Operations per batch of the access and load microbenchmarks.
OPS = 20_000

#: Participants and episodes per barrier batch.
BARRIER_THREADS = 16
BARRIER_EPISODES = 40

#: Triad elements of the one-thread block-dispatch run.
BLOCK_ELEMENTS = 2_048


def _median_ns(batch, ops: int) -> float:
    """Median over batches of ns per op; *batch()* performs *ops* ops."""
    batch()  # warm caches and lazy set-up
    samples = []
    for _ in range(BATCHES):
        start = perf_counter_ns()
        batch()
        samples.append((perf_counter_ns() - start) / ops)
    return statistics.median(samples)


def push_pop_ns(tie: bool) -> float:
    """One ``EventQueue`` push plus one pop, in a 126-event group that is
    either tied at one cycle or spread over distinct cycles."""
    queue = EventQueue()
    # Distinct times pushed out of order, so the heap really sifts.
    offsets = [0] * TIE_GROUP if tie else \
        [(i * 53) % TIE_GROUP for i in range(TIE_GROUP)]
    clock = [0]

    def batch():
        push, pop = queue.push, queue.pop
        t = clock[0]
        for _ in range(ROUNDS):
            for i, off in enumerate(offsets):
                push(t + off, i)
            for _ in offsets:
                pop()
            t += TIE_GROUP
        clock[0] = t

    return _median_ns(batch, ROUNDS * TIE_GROUP)


def _ctx() -> ThreadCtx:
    chip = Chip()
    return ThreadCtx(Kernel(chip), chip.thread(0))


def access_ns(hit: bool) -> float:
    """``MemorySubsystem.access``: a load that hits, or one that misses
    (distinct lines over 4 MB, eight times the total data cache)."""
    chip = Chip()
    memory = chip.memory
    line = chip.config.dcache_line_bytes
    if hit:
        addrs = [make_effective(0x1000 + line * i, IG_ALL) for i in range(8)]
        for ea in addrs:
            memory.access(0, 0, ea, 8, False)
    else:
        span = 4 << 20
        addrs = [make_effective(a, IG_ALL) for a in range(0, span, line)]
    state = {"t": 1, "i": 0}

    def batch():
        access = memory.access
        t, i, n = state["t"], state["i"], len(addrs)
        for _ in range(OPS):
            access(t, 0, addrs[i], 8, False)
            t += 40
            i = i + 1 if i + 1 < n else 0
        state["t"], state["i"] = t, i

    return _median_ns(batch, OPS)


def split_load_ns() -> float:
    """A hitting load in split-phase form: ``op_begin`` then
    ``load_f64_finish``."""
    ctx = _ctx()
    ea = make_effective(0x1000, IG_ALL)
    ctx.load_f64_finish(ctx.op_begin(), ea)

    def batch():
        begin, finish = ctx.op_begin, ctx.load_f64_finish
        for _ in range(OPS):
            finish(begin(), ea)

    return _median_ns(batch, OPS)


def gen_load_ns() -> float:
    """A hitting load in generator form: ``load_f64`` driven as the
    scheduler drives it (one ``send`` to grant the issue time)."""
    ctx = _ctx()
    ea = make_effective(0x1000, IG_ALL)
    ctx.load_f64_finish(ctx.op_begin(), ea)

    def batch():
        load = ctx.load_f64
        for _ in range(OPS):
            gen = load(ea)
            try:
                gen.send(next(gen))
            except StopIteration:
                pass

    return _median_ns(batch, OPS)


def barrier_ns(kind: str) -> float:
    """One barrier episode per participant, scheduler included: each of
    ``BARRIER_THREADS`` threads passes ``BARRIER_EPISODES`` barriers of
    *kind* (``hw`` or ``sw``)."""
    def body(ctx, barrier):
        for _ in range(BARRIER_EPISODES):
            yield from barrier.wait(ctx)

    def batch():
        kernel = Kernel(Chip())
        barrier = kernel.hardware_barrier(0, BARRIER_THREADS) \
            if kind == "hw" else kernel.tree_barrier(BARRIER_THREADS)
        for _ in range(BARRIER_THREADS):
            kernel.spawn(body, barrier)
        start = perf_counter_ns()
        kernel.run()
        return perf_counter_ns() - start

    batch()
    return statistics.median(batch() / (BARRIER_THREADS * BARRIER_EPISODES)
                             for _ in range(BATCHES))


def block_insn_ns(hit_ns: float, miss_ns: float) -> float:
    """One block-dispatched instruction of ``isa_triad``'s loop, less the
    memory access it may make: one thread runs the program, and each
    access's unit cost (*hit_ns* or *miss_ns*) is taken off."""
    config = ChipConfig.paper()  # one latency table: compile once
    program = stream_kernel_program("triad", 4)
    regs, doubles = stream_register_setup(
        "triad", *(make_effective(base, IG_ALL)
                   for base in (0x10000, 0x20000, 0x30000)), BLOCK_ELEMENTS)

    def run():
        chip = Chip(config)
        interp = Interpreter(chip)
        state = interp.add_thread(0, program, regs, doubles)
        start = perf_counter_ns()
        interp.run(sampled=False)
        elapsed = perf_counter_ns() - start
        kinds = chip.memory.kind_counts
        misses = kinds[AccessKind.LOCAL_MISS] + kinds[AccessKind.REMOTE_MISS]
        hits = sum(kinds.values()) - misses
        memory_ns = hits * hit_ns + misses * miss_ns
        return (elapsed - memory_ns) / state.tu.counters.instructions

    run()
    return statistics.median(run() for _ in range(BATCHES))


def measure_all() -> dict[str, float]:
    """Every unit cost, keyed by its per-layer metric name."""
    hit, miss = access_ns(hit=True), access_ns(hit=False)
    return {
        "engine.push_pop_ns.tie": push_pop_ns(tie=True),
        "engine.push_pop_ns.spread": push_pop_ns(tie=False),
        "memory.hit_ns": hit,
        "memory.miss_ns": miss,
        "runtime.split_load_ns": split_load_ns(),
        "runtime.gen_load_ns": gen_load_ns(),
        "runtime.barrier.hw_ns": barrier_ns("hw"),
        "runtime.barrier.sw_ns": barrier_ns("sw"),
        "isa.block_insn_ns": block_insn_ns(hit, miss),
    }
