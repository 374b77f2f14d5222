"""The ISA interpreter: functional + timed execution on a chip.

Each thread is a scheduler process executing its program in order:

* **fetch** — straight-line fetch inside the current 16-instruction PIB
  window is free; leaving the window consults the quad pair's I-cache
  (one cycle on a hit, a memory burst on a miss);
* **issue** — in-order, single issue: the instruction waits for its
  source registers (a per-register scoreboard of ready times) and for
  its unit (private ALU always free; FPU pipes and memory ports are the
  shared chip resources);
* **complete** — possibly out of order: the destination register's ready
  time is set to issue + execution + latency per Table 2.

What each instruction does is defined once, by the block compiler
(:mod:`repro.isa.blocks`): every basic block compiles into one fused
closure, so the dispatch loop runs once per block and register and
scoreboard traffic collapses into locals. Instructions that touch
shared hardware keep their exact scheduler yield points inside the
block, so cycle counts are those of in-order, one-at-a-time execution.
Indices inside a block (reachable through ``jr``) compile into
one-instruction blocks on first dispatch. The tables are cached on the
:class:`Program` keyed by the latency table, so re-running or sharing a
program across threads compiles nothing. See ``docs/performance.md``.

The same :class:`~repro.core.chip.Chip` hardware backs this layer and
the direct-execution runtime, so Table 2 microbenchmarks written in
assembly validate the timing model the workloads run on.
"""

from __future__ import annotations

from repro.core.chip import Chip
from repro.core.icache import PrefetchBuffer
from repro.core.thread_unit import ThreadUnit
from repro.engine.scheduler import Scheduler
from repro.errors import ConfigError, ExecutionError
from repro.isa.blocks import (
    compile_blocks,
    compile_functional,
    compile_program,
)
from repro.isa.program import Program
from repro.isa.registers import RegisterFile


class ThreadExit(Exception):
    """Raised internally when a thread executes ``halt``."""


class _ThreadState:
    """Interpreter-side state of one hardware thread.

    Carries direct references to the shared hardware an instruction
    touches (memory, backing store, this quad's FPU, the barrier SPR
    file) so compiled blocks reach them in one attribute load.
    """

    __slots__ = ("tu", "regs", "ready", "pc", "pib", "program", "halted",
                 "memory", "backing", "fpu", "spr", "warm_memo", "warm_fn")

    def __init__(self, tu: ThreadUnit, program: Program,
                 chip: Chip) -> None:
        self.tu = tu
        self.regs = RegisterFile()
        #: Scoreboard: cycle at which each register's value is ready.
        self.ready = [0] * 64
        self.pc = 0
        self.pib = PrefetchBuffer(tu.config)
        self.program = program
        self.halted = False
        memory = chip.memory
        # With a coherence sanitizer attached, route this thread's
        # accesses through an observing facade. Compiled blocks look
        # ``memory`` up per access and store the instruction's index in
        # ``pc`` before each memory or atomic yield, so the facade
        # reports the faulting instruction address.
        sanitizer = memory.sanitizer
        if sanitizer is not None:
            base = program.base
            memory = sanitizer.thread_view(
                memory, tu.tid,
                pc_of=lambda state=self: base + 4 * state.pc,
            )
        self.memory = memory
        self.backing = chip.memory.backing
        self.fpu = chip.fpu_of(tu.tid)
        self.spr = chip.barrier_spr
        #: Functional-warming memo: static op index -> last line-
        #: aligned address it warmed (see blocks emit_memory). Only
        #: sampled runs populate it; exact runs never touch it.
        self.warm_memo: dict[int, int] = {}
        #: What functional closures call on a line transition — the
        #: real warm_access near a detailed window, a no-op in the far
        #: fast-forward span (see repro.sampling.run's warm horizon).
        self.warm_fn = chip.memory.warm_access


class Interpreter:
    """Runs assembled programs on a chip with full timing."""

    def __init__(self, chip: Chip, model_fetch: bool = True) -> None:
        # Compiled blocks move data through the backing store directly,
        # so per-cache line buffers would silently go unused.
        if chip.memory.strict:
            raise ConfigError(
                "the ISA interpreter does not model strict incoherence: "
                "its blocks read and write the backing store directly; "
                "run strict-mode kernels on the direct-execution runtime"
            )
        self.chip = chip
        self.scheduler = Scheduler()
        self.model_fetch = model_fetch
        self.states: dict[int, _ThreadState] = {}
        #: Block tables in use, block dispatches since the last publish,
        #: and tables already counted — telemetry, harvested by run().
        self._block_tables: dict[int, "object"] = {}
        self._dispatches = 0
        self._published_tables: set[int] = set()
        #: The :class:`repro.sampling.SamplingEstimate` of the last
        #: sampled run; ``None`` after exact runs.
        self.sampling = None

    # ------------------------------------------------------------------
    def add_thread(self, tid: int, program: Program,
                   init_regs: dict[int, int] | None = None,
                   init_doubles: dict[int, float] | None = None) -> _ThreadState:
        """Bind *program* to hardware thread *tid* and schedule it."""
        if tid in self.states:
            raise ExecutionError(f"thread {tid} already has a program")
        tu = self.chip.thread(tid)
        state = _ThreadState(tu, program, self.chip)
        for reg, value in (init_regs or {}).items():
            state.regs.write(reg, value)
        for reg, value in (init_doubles or {}).items():
            state.regs.write_double(reg, value)
        self.states[tid] = state
        self.scheduler.spawn(self._thread_proc(state), name=f"isa-t{tid}")
        return state

    def run(self, until: int | None = None, *, sampled=None) -> int:
        """Run all threads to completion; returns the final cycle.

        ``sampled`` opts into SMARTS-style sampled simulation (see
        :mod:`repro.sampling` and ``docs/sampled-sim.md``): pass a
        ``SamplingConfig``, or ``True`` for defaults; ``None`` and
        ``False`` run exact. A sampled run returns the *estimated*
        cycle count (the full estimate with error bars lands on
        ``self.sampling``); the default path is untouched — not even an
        import.
        """
        if sampled is not None and sampled is not False:
            from repro.sampling import resolve_config

            config = resolve_config(sampled)
            if until is not None:
                raise ConfigError(
                    "sampled runs estimate whole-run cycles and "
                    "cannot stop at an exact 'until' time; run "
                    "exact instead"
                )
            return self.run_sampled(config).estimated_cycles
        final = self.scheduler.run(until)
        self._publish_block_metrics()
        return final

    def run_sampled(self, config=None):
        """Run under sampled simulation; returns a ``SamplingEstimate``.

        Replaces this interpreter's scheduler (the exact-mode thread
        processes are discarded unstarted), so an interpreter runs
        either exact or sampled, not both.
        """
        from repro.sampling import SamplingConfig
        from repro.sampling.run import sample_run

        if config is None:
            config = SamplingConfig()
        if self.chip.memory.sanitizer is not None:
            raise ConfigError(
                "sampled simulation cannot run under the coherence "
                "sanitizer: functional fast-forward moves data through "
                "the backing store directly, bypassing the timed memory "
                "system the sanitizer observes"
            )
        estimate = sample_run(self, config)
        self.sampling = estimate
        self._publish_block_metrics()
        self._publish_sampling_metrics(estimate)
        return estimate

    def _publish_sampling_metrics(self, estimate) -> None:
        """Cold-path ``sampling.*`` harvest into the chip's telemetry."""
        inst = getattr(self.chip, "telemetry", None)
        if inst is None:
            return
        registry = inst.registry
        registry.gauge("sampling.units").set(estimate.n_units)
        registry.gauge("sampling.estimated_cycles").set(
            estimate.estimated_cycles)
        registry.gauge("sampling.ci_halfwidth_cycles").set(
            estimate.ci_halfwidth)
        registry.gauge("sampling.cpi_mean").set(estimate.cpi_mean)
        registry.gauge("sampling.detailed_cycles").set(
            estimate.detailed_cycles)
        registry.counter("sampling.warmup_insns").inc(
            estimate.warmup_insns)
        registry.counter("sampling.measured_insns").inc(
            estimate.measured_insns)
        registry.counter("sampling.fastforward_insns").inc(
            estimate.ff_insns)

    def _publish_block_metrics(self) -> None:
        """Cold-path harvest of block-dispatch counters into telemetry.

        Publishes ``engine.blocks.compiled`` / ``engine.blocks.dispatches``
        counters and the ``engine.blocks.length`` histogram when the chip
        carries a :class:`~repro.telemetry.instrument.ChipInstrumentation`;
        costs one attribute check per :meth:`run` otherwise.
        """
        inst = getattr(self.chip, "telemetry", None)
        if inst is None:
            return
        registry = inst.registry
        if self._dispatches:
            registry.counter("engine.blocks.dispatches").inc(
                self._dispatches
            )
            self._dispatches = 0
        for table in self._block_tables.values():
            if id(table) in self._published_tables:
                continue
            self._published_tables.add(id(table))
            registry.counter("engine.blocks.compiled").inc(table.n_fused)
            histogram = registry.histogram("engine.blocks.length")
            for length in table.lengths:
                histogram.observe(length)

    # ------------------------------------------------------------------
    # The per-thread process
    # ------------------------------------------------------------------
    def _dispatch_table(self, state: _ThreadState) -> tuple[list, int]:
        """``(entries, n)`` block table for *state*'s program.

        Shared by the exact thread process and the sampled bounded
        windows.
        """
        program = state.program
        lat = self.chip.config.latency
        # Blocks never span a PIB window (a formation rule), so the
        # per-iteration fetch check in the dispatch loops stays exact:
        # entering a fused block can fetch at most once, at its first
        # address.
        window = state.tu.config.pib_entries * state.tu.config.word_bytes
        table = compile_blocks(program, lat, window,
                               compile_program(program, lat))
        self._block_tables[id(table)] = table
        return table.entries, len(table.entries)

    def _thread_proc(self, state: _ThreadState):
        tu = state.tu
        program = state.program
        entries, n = self._dispatch_table(state)
        model_fetch = self.model_fetch
        pib = state.pib
        base = program.base
        dispatched = 0
        while not state.halted:
            pc = state.pc
            if pc < 0 or pc >= n:
                raise ExecutionError(
                    f"thread {tu.tid}: pc {pc} outside program"
                )
            if model_fetch:
                address = base + 4 * pc
                if not pib.holds(address):
                    now = yield tu.issue_time
                    icache = self.chip.icache_of(tu.tid)
                    ready, _ = icache.fetch(
                        now, address, self.chip.memory.banks,
                        self.chip.memory.address_map,
                    )
                    tu.issue_at(ready)
                    pib.refill(address)
            dispatched += 1
            is_gen, block = entries[pc]
            if is_gen:
                yield from block(state)
            else:
                block(state)
        self._dispatches += dispatched
        # Sync the process clock to the architectural finish time, so
        # run() reports real cycles even for programs that never touch
        # shared resources (pure ALU work advances only the local clock).
        yield tu.issue_time

    # ------------------------------------------------------------------
    # Sampled-simulation primitives (see repro.sampling)
    # ------------------------------------------------------------------
    def _sampled_detail_proc(self, state: _ThreadState, entries: list,
                             n: int, warm_target: int, stop_target: int,
                             unit):
        """One bounded detailed window of *state*: the exact dispatch
        loop of :meth:`_thread_proc`, stopping once the thread's
        instruction counter reaches *stop_target* (block closures may
        overshoot by one block; the overshoot is counted, not lost).
        Crossing *warm_target* snapshots the warm-up boundary; the
        window's measurements land in *unit*.
        """
        tu = state.tu
        counters = tu.counters
        start_insns = counters.instructions
        model_fetch = self.model_fetch
        pib = state.pib
        base = state.program.base
        dispatched = 0
        warm_clock: int | None = None
        warm_insns = 0
        while not state.halted and counters.instructions < stop_target:
            if warm_clock is None and counters.instructions >= warm_target:
                warm_clock = tu.issue_time
                warm_insns = counters.instructions
            pc = state.pc
            if pc < 0 or pc >= n:
                raise ExecutionError(
                    f"thread {tu.tid}: pc {pc} outside program"
                )
            if model_fetch:
                address = base + 4 * pc
                if not pib.holds(address):
                    now = yield tu.issue_time
                    icache = self.chip.icache_of(tu.tid)
                    ready, _ = icache.fetch(
                        now, address, self.chip.memory.banks,
                        self.chip.memory.address_map,
                    )
                    tu.issue_at(ready)
                    pib.refill(address)
            dispatched += 1
            is_gen, block = entries[pc]
            if is_gen:
                yield from block(state)
            else:
                block(state)
        self._dispatches += dispatched
        # Sync the process clock to the architectural one (same reason
        # as _thread_proc) *before* recording, so the unit's end clock
        # and the scheduler's window end agree.
        yield tu.issue_time
        if warm_clock is None:
            # The thread halted inside warm-up: the whole window is
            # warm-up and the unit records zero measured instructions.
            warm_clock = tu.issue_time
            warm_insns = counters.instructions
        unit.record(start_insns, warm_insns, warm_clock,
                    counters.instructions, tu.issue_time)

    def _run_functional(self, state: _ThreadState, budget: int) -> None:
        """Fast-forward *state* by about *budget* instructions.

        Plain closure dispatch over the program's functional table
        (:func:`repro.isa.blocks.compile_functional`, cached on the
        program): architecturally exact, no clock, no scheduler. Fused
        closures may overshoot the budget by one basic block.
        """
        entries = compile_functional(state.program).entries
        n = len(entries)
        counters = state.tu.counters
        target = counters.instructions + budget
        tid = state.tu.tid
        while not state.halted and counters.instructions < target:
            pc = state.pc
            if pc < 0 or pc >= n:
                raise ExecutionError(
                    f"thread {tid}: pc {pc} outside program"
                )
            entries[pc](state)
