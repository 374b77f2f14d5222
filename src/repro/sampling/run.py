"""Drive one sampled run of the ISA interpreter.

:func:`sample_run` owns the unit loop — align, detailed window
(warm-up + measurement), functional fast-forward, repeat until every
thread halts — and folds the per-unit measurements into a
:class:`~repro.sampling.SamplingEstimate`. Detailed windows run the
interpreter's own dispatch loop (``Interpreter._thread_proc``) with
instruction bounds; fast-forward runs its functional closures
(``Interpreter._run_functional``) with no clock and no scheduler.
"""

from __future__ import annotations

from repro.engine.scheduler import Scheduler
from repro.errors import ConfigError
from repro.sampling import SamplingConfig, SamplingEstimate, build_estimate


class UnitSample:
    """Measurements of one sampling unit across its thread windows.

    Each thread window reports its warm-up crossing and end; the unit's
    cycle cost is the *mean* per-thread measured interval (the threads
    run concurrently, so wall cycles per unit are an interval, not a
    sum) and its instruction count is the aggregate over threads — the
    quotient is a chip-level CPI for the unit.
    """

    __slots__ = ("warmup_insns", "measured_insns", "thread_cycles")

    def __init__(self) -> None:
        self.warmup_insns = 0
        self.measured_insns = 0
        self.thread_cycles: list[int] = []

    def record(self, start_insns: int, warm_insns: int, warm_clock: int,
               end_insns: int, end_clock: int) -> None:
        self.warmup_insns += warm_insns - start_insns
        measured = end_insns - warm_insns
        if measured > 0:
            self.measured_insns += measured
            self.thread_cycles.append(end_clock - warm_clock)

    @property
    def cpi(self) -> float:
        cycles = sum(self.thread_cycles) / len(self.thread_cycles)
        return cycles / self.measured_insns


def _warm_noop(quad_id: int, effective: int, is_store: bool) -> None:
    """Far-span stand-in for warm_access: outside the warm horizon a
    line transition needs no tag work (it would be churned out of the
    finite tag arrays before the next window anyway)."""
    return None


def _spread(values: list[int]) -> float:
    """Population standard deviation; 0.0 for fewer than two values."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    return (sum((v - mean) ** 2 for v in values) / n) ** 0.5


def _fast_forward(interp, budgets: dict, chunk: int) -> None:
    """Run each thread of *budgets* functionally for its instruction
    budget (closures may overshoot by one basic block).

    Round-robin in chunks of *chunk* so threads spinning on shared
    state (barrier SPRs, atomics) see each other progress; a spin
    burns its own budget, so the phase always terminates.
    """
    pending = {state: left for state, left in budgets.items()
               if left > 0 and not state.halted}
    while pending:
        progressed = False
        for state, left in list(pending.items()):
            before = state.tu.counters.instructions
            interp._run_functional(state, left if left < chunk else chunk)
            used = state.tu.counters.instructions - before
            left -= used
            if used:
                progressed = True
            if state.halted or left <= 0:
                del pending[state]
            else:
                pending[state] = left
        if not progressed:
            # Defensive: a functional step that makes no progress
            # would spin the host forever; no ISA closure does this,
            # but a broken table must not hang the run.
            break


def sample_run(interp, config: SamplingConfig) -> SamplingEstimate:
    """Run *interp*'s threads to completion under sampled simulation.

    The run alternates two regimes over the threads' architectural
    states: bounded detailed windows on the scheduler, and functional
    fast-forward with no scheduler at all. The interpreter's scheduler
    is replaced with a fresh one: the unbounded exact-mode processes
    ``add_thread`` spawned are orphaned unstarted (generators that
    never ran have no side effects).

    **Why each window gets a fresh scheduler.** Thread clocks only
    advance inside detailed windows; a functional phase moves
    instructions, not time. At a window boundary each thread therefore
    carries the absolute issue time it reached in the *previous*
    window — and those times differ, because contention skews threads
    apart. That skew is real timing signal: collapsing every thread
    onto a common start (the obvious alternative) re-synchronizes
    their loop phases and manufactures thundering-herd contention the
    continuous run does not have, which measurably biases per-unit CPI
    upward (worst with shared read-only data, where aligned threads
    hammer one bank in lockstep). So each window spawns every live
    thread at its own preserved issue time — on a fresh
    :class:`~repro.engine.scheduler.Scheduler`, because the previous
    window's instance has already advanced its clock past the
    laggards and correctly refuses to spawn into its past. Absolute
    times stay monotonic per thread, so the final window's clock
    still reads as total simulated-detailed time.

    **Why scoreboards are clamped.** Scoreboard entries, unlike
    clocks, do *not* survive a functional phase: a pending ready-time
    refers to a producing instruction that the fast-forward long
    since retired architecturally. Window entry clamps any entry
    beyond the thread's own clock down to it; the warm-up prefix
    rebuilds real in-flight latencies along with cache and FPU pipe
    state.
    """
    states = list(interp.states.values())
    if not states:
        raise ConfigError("sampled run has no threads; add_thread first")
    # Discard the exact-mode scheduler right away: its thread processes
    # are orphaned unstarted (never-run generators have no effects).
    interp.scheduler = Scheduler()

    warmup = config.warmup_insns
    measure = config.measure_insns
    ff_budget = config.period_insns - warmup - measure
    drift_cap = config.resolved_jitter
    # Clock skew only accumulates while threads run detailed — the
    # window share of each period. A continuous run walks apart over
    # the whole period, and random-walk variance grows linearly with
    # span, so the measured skew understates the real spread by
    # sqrt(window / period); scale deviations back up accordingly.
    skew_scale = (config.period_insns / (warmup + measure)) ** 0.5
    horizon = config.resolved_horizon

    def total_instructions() -> int:
        return sum(s.tu.counters.instructions for s in states)

    unit_cpis: list[float] = []
    unit_weights: list[int] = []
    total_measured = 0
    total_warmup = 0
    # Instruction-bounded windows would re-align every thread to the
    # same position each unit; real runs drift positions apart (or keep
    # them synchronized) by their own contention dynamics. The window
    # itself classifies which regime holds: clock skew that *grows*
    # across a window (exit spread > entry spread) marks a divergent
    # random walk whose measured skew should become position drift;
    # skew that *shrinks* marks mean-reverting dynamics (shared data
    # acts as a synchronizer) where reality would erase any offsets —
    # so applied drift unwinds toward zero instead. Track the position
    # offset already granted per thread and adjust it each unit.
    applied_offset: dict = {}
    # Latched workload classification: once any window shows growing
    # skew the run is treated as divergent for good. Decorrelated
    # windows of a divergent workload measure *less* fresh skew (the
    # very contention that generated it is gone), so an instantaneous
    # classifier flip-flops — unwinding offsets, re-locking threads,
    # re-diverging — and every other window measures lockstep bias.
    divergent = False
    # Counters are cumulative per thread unit; measure this run only.
    initial_insns = total_instructions()
    live = [s for s in states if not s.halted]
    while live:
        # Detailed window: every live thread runs the exact dispatch
        # loop for warmup + measure instructions from its own clock,
        # on a fresh scheduler, with stale scoreboard entries clamped.
        entry_clocks = {s: s.tu.issue_time for s in live}
        unit = UnitSample()
        scheduler = interp.scheduler = Scheduler()
        for state in live:
            clock = state.tu.issue_time
            ready = state.ready
            for reg, t in enumerate(ready):
                if t > clock:
                    ready[reg] = clock
            done = state.tu.counters.instructions
            scheduler.spawn(
                interp._thread_proc(state, done + warmup,
                                    done + warmup + measure, unit),
                start_time=clock,
                name=f"sample-t{state.tu.tid}",
            )
        scheduler.run()
        total_warmup += unit.warmup_insns
        total_measured += unit.measured_insns
        measured = unit.measured_insns > 0
        if measured:
            unit_cpis.append(unit.cpi)
            unit_weights.append(0)
        live = [s for s in live if not s.halted]
        if not live:
            break
        # Per-thread CPI of this unit converts clock skew (cycles) into
        # position offsets (instructions).
        cpi_pt = (sum(unit.thread_cycles) / unit.measured_insns
                  if measured and unit.thread_cycles else 0.0)
        entry_sd = _spread([entry_clocks[s] for s in live])
        exit_sd = _spread([s.tu.issue_time for s in live])
        # Classify only once there is prior skew to compare against:
        # the first window enters fully aligned (as the real run does),
        # so it cannot judge the dynamics yet.
        if entry_sd > 0.0 and exit_sd > 0.95 * entry_sd:
            divergent = True
        durations = {s: s.tu.issue_time - entry_clocks[s] for s in live}
        mean_dur = sum(durations.values()) / len(durations)
        budgets: dict = {}
        for state in live:
            drift = 0
            if cpi_pt > 0.0 and drift_cap > 0:
                if divergent:
                    # Accumulate this window's *fresh* duration
                    # deviation — the walk's new increment. Never
                    # unwind here: decorrelated windows measure less
                    # fresh skew, and tracking a cumulative target
                    # would pull threads back into lockstep.
                    delta = ((mean_dur - durations[state])
                             / cpi_pt) * skew_scale
                else:
                    delta = -applied_offset.get(state, 0.0)
                drift = int(delta)
                if drift > drift_cap:
                    drift = drift_cap
                elif drift < -drift_cap:
                    drift = -drift_cap
                applied_offset[state] = (
                    applied_offset.get(state, 0.0) + drift)
            budgets[state] = max(1, ff_budget + drift)
        before_ff = total_instructions()
        # Split the fast-forward at the warm horizon: the far span runs
        # with warming stubbed out, the near span (what the next window
        # will actually see) warms for real. The memo is cleared at the
        # boundary — far-span transitions recorded lines as warmed that
        # the stub never touched. Budgets are skewed per thread to
        # reconstruct position drift (above): identical positions would
        # put regularly-strided workloads into lockstep line crossings
        # that pile onto single memory banks, a contention pattern the
        # continuous run decorrelates away.
        far = {s: b - horizon for s, b in budgets.items() if b > horizon}
        if far:
            for state in live:
                state.warm_fn = _warm_noop
            _fast_forward(interp, far, config.chunk_insns)
            for state in live:
                state.warm_fn = state.memory.warm_access
                state.warm_memo.clear()
        near = {s: b - far.get(s, 0) for s, b in budgets.items()}
        _fast_forward(interp, near, config.chunk_insns)
        if measured:
            # This unit's CPI prices exactly the instructions that
            # fast-forwarded after its window (stratified estimator).
            unit_weights[-1] = total_instructions() - before_ff
        live = [s for s in live if not s.halted]

    return build_estimate(
        unit_cpis,
        total_insns=total_instructions() - initial_insns,
        measured_insns=total_measured,
        warmup_insns=total_warmup,
        detailed_cycles=interp.scheduler.now,
        config=config,
        unit_weights=unit_weights or None,
    )


__all__ = ["UnitSample", "sample_run"]
