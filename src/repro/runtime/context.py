"""Direct-execution thread contexts.

Workload thread bodies are Python generator functions over a
:class:`ThreadCtx`. Every architectural operation charges the Table 2
cost on the thread's in-order issue clock and contends for the real
shared hardware (FPU pipes, cache ports, memory banks), so timing comes
out of the same machinery as the ISA interpreter — this is the classic
*direct execution* simulation style, and is what makes STREAM-scale runs
feasible in Python (DESIGN.md section 3).

Conventions:

* operations that touch **shared** hardware are generators — call them
  with ``yield from``; they synchronize with the global event order
  before reserving anything;
* operations on **thread-private** hardware (the fixed-point ALU, the
  sequencer) are plain methods — they only advance the local clock;
* every operation takes ``deps``, a tuple of *ready times* of the values
  it consumes, and returns the ready time of its result — this is how
  workloads express dependence chains vs unrolled independent chains,
  which is exactly the distinction the paper's unrolling experiment is
  about (Section 3.2.2).
"""

from __future__ import annotations

from repro.memory.address import IG_SHIFT, PHYSICAL_MASK, make_effective
from repro.memory.interest_groups import IG_ALL

#: Effective-address bits that send a double past the finishers' own hit
#: path to ``MemorySubsystem.access``: any above the 32-bit effective
#: address, or any below 8-byte alignment.
_MISFIT = -(1 << 32) | 7


class ThreadCtx:
    """The programming interface of one running software thread."""

    __slots__ = ("kernel", "chip", "memory", "tu", "tid", "quad_id",
                 "fpu", "lat", "process", "software_index",
                 "_strict", "_access", "_backing", "_branch_cycles",
                 "_mv_f64", "_bload_u32", "_bstore_u32",
                 "_fused", "_line_mask", "_line_shift", "_set_mask",
                 "_cache_sets", "_ports", "_switch",
                 "_local_hit_extra", "_remote_hit_extra")

    def __init__(self, kernel, tu) -> None:
        self.kernel = kernel
        self.chip = kernel.chip
        memory = chip_memory = kernel.chip.memory
        # With a coherence sanitizer attached, this thread's accesses
        # flow through a per-thread observing facade; the swap happens
        # here, once, so the per-operation paths below stay identical.
        sanitizer = memory.sanitizer
        if sanitizer is not None:
            memory = sanitizer.thread_view(memory, tu.tid)
        self.memory = memory
        self.tu = tu
        self.tid = tu.tid
        self.quad_id = tu.quad_id
        self.fpu = kernel.chip.fpu_of(tu.tid)
        self.lat = kernel.chip.config.latency
        #: The scheduler process, set by the kernel at spawn time.
        self.process = None
        #: The software thread index (0..n-1), set by the kernel.
        self.software_index = 0
        # Hot-path bindings: in the default (non-strict) mode the load/
        # store wrappers on MemorySubsystem reduce to a timed access plus
        # a backing-store value access, so the context calls those two
        # directly and skips one wrapper frame per memory operation. The
        # double paths go one further and inline the backing store's
        # guarded memoryview access (its ``load_f64``/``store_f64``).
        self._strict = memory.strict
        self._access = memory.access
        backing = memory.backing
        self._backing = backing
        self._mv_f64 = backing._mv_f64
        self._bload_u32 = backing.load_u32
        self._bstore_u32 = backing.store_u32
        self._branch_cycles = self.lat.branch[0]
        # The double finishers make a hit themselves (see
        # ``load_f64_finish``) on a chip whose every access is plain:
        # not strict, not sanitized, not memory-traced, and one port
        # beat per double. Banks of whole doubles keep max-memory a
        # multiple of 8, so an aligned double is in range iff it starts
        # below max-memory. The caches, their tag sets and the switch
        # ports are created once per chip and never replaced; the
        # placement (``_ig_target``, ``_placement``) is replaced by
        # ``remap_caches``, so the finishers read it through the
        # subsystem on every access. A hit counts once, on its port.
        self._fused = (sanitizer is None and not chip_memory.strict
                       and not chip_memory.tracer.enabled
                       and chip_memory._switch_bpc >= 8
                       and chip_memory.config.bank_bytes % 8 == 0)
        self._line_mask = chip_memory._line_mask
        self._line_shift = chip_memory._line_shift  # = the set index shift
        self._set_mask = chip_memory._cset_mask
        self._cache_sets = chip_memory._cache_sets
        self._ports = chip_memory._switch_ports
        self._switch = chip_memory.cache_switch
        self._local_hit_extra = chip_memory._local_hit_extra
        self._remote_hit_extra = chip_memory._remote_hit_extra

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def ea(self, physical: int, ig_byte: int = IG_ALL) -> int:
        """An effective address with the given interest-group byte."""
        return make_effective(physical, ig_byte)

    @property
    def time(self) -> int:
        """The thread's current issue clock."""
        return self.tu.issue_time

    # ------------------------------------------------------------------
    # Memory operations (shared: generators, plus a split-phase form)
    #
    # The split-phase pairs (``op_begin`` + ``<op>_finish``) let a hot
    # workload loop synchronize with the scheduler through its *own*
    # yield instead of delegating into a context generator: the event
    # sequence is identical, but nothing allocates a generator object
    # per memory operation. The generator methods below are thin
    # wrappers over the same phases, so there is one copy of the logic.
    #
    # Finishers only do timing: the access or FPU reservation, the value,
    # the stall counters and the issue clock. They leave ``instructions``,
    # ``run_cycles``, ``loads``, ``stores`` and ``flops`` alone; a split-
    # phase loop adds those once per iteration with ``count_iteration``,
    # and each generator form counts its own op after its finisher.
    # ------------------------------------------------------------------
    def op_begin(self, deps: tuple = ()) -> int:
        """Phase 1 of any shared-resource op: the earliest issue cycle.

        Yield the returned value to the scheduler; pass the granted time
        into the matching ``*_finish`` method.
        """
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        return earliest

    # The double finishers make the access themselves when they can: an
    # aligned in-range double on a plain chip (``_fused``). This is
    # ``MemorySubsystem.access`` inlined: address split, target lookup,
    # tag probe, and on a hit the port grant and the one count on the
    # port, one frame per op instead of two. A hit re-inserts its line at
    # the set's most recently used end, as ``access`` does. A miss hands
    # the target and the probed set to ``access``, which continues at
    # its miss path, so nothing is looked up twice. Anything unusual
    # (misaligned, out of range, wider than 32 bits, or a strict,
    # sanitized or traced chip) goes to ``_f64_slow`` and so through
    # ``access`` or the strict wrappers, which raise the same error after
    # the same state change.
    def load_f64_finish(self, now: int, effective: int):
        """Phase 2 of a double load; returns ``(ready_time, value)``."""
        physical = effective & PHYSICAL_MASK
        memory = self.memory
        if (not self._fused or effective & _MISFIT
                or physical >= memory.address_map._max_memory):
            return self._f64_slow(now, effective, False, 0.0)
        quad = self.quad_id
        line = physical & self._line_mask
        ig_byte = effective >> IG_SHIFT
        if ig_byte:
            target = memory._ig_target[ig_byte]
            if target is None:
                target = memory._placement[ig_byte][line >> self._line_shift]
                if target < 0:
                    target = memory.target_cache(ig_byte, physical, quad)
        else:
            target = quad
        lines = self._cache_sets[target][
            (line >> self._line_shift) & self._set_mask]
        state = lines.pop(line, None)
        if state is None:
            issue_end, complete, _, _ = self._access(
                now, quad, effective, 8, False, target, lines)
        else:
            lines[line] = state
            port = self._ports[target]
            next_free = port.next_free
            if now >= next_free:
                port.next_free = issue_end = now + 1
            else:
                port.next_free = issue_end = next_free + 1
                self._switch.contention_cycles += next_free - now
            complete = state.ready
            if complete < issue_end:
                complete = issue_end
            if target == quad:
                port.local_loads += 1
                complete += self._local_hit_extra
            else:
                port.remote_loads += 1
                complete += self._remote_hit_extra
        # Inlined ThreadUnit.issue_at(issue_end - 1) and the clock half of
        # retire(1): the access stalled the thread iff it issues past the
        # cycle after the thread's clock.
        tu = self.tu
        clock = tu.issue_time + 1
        if issue_end > clock:
            counters = tu.counters
            counters.stall_cycles += issue_end - clock
            counters.stall_events += 1
            tu.issue_time = issue_end
        else:
            tu.issue_time = clock
        return complete, self._mv_f64[physical >> 3]

    def store_f64_finish(self, now: int, effective: int, value: float) -> int:
        """Phase 2 of a double store; returns the completion time."""
        physical = effective & PHYSICAL_MASK
        memory = self.memory
        if (not self._fused or effective & _MISFIT
                or physical >= memory.address_map._max_memory):
            return self._f64_slow(now, effective, True, value)[0]
        quad = self.quad_id
        line = physical & self._line_mask
        ig_byte = effective >> IG_SHIFT
        if ig_byte:
            target = memory._ig_target[ig_byte]
            if target is None:
                target = memory._placement[ig_byte][line >> self._line_shift]
                if target < 0:
                    target = memory.target_cache(ig_byte, physical, quad)
        else:
            target = quad
        lines = self._cache_sets[target][
            (line >> self._line_shift) & self._set_mask]
        state = lines.pop(line, None)
        if state is None:
            issue_end, complete, _, _ = self._access(
                now, quad, effective, 8, True, target, lines)
        else:
            lines[line] = state
            state.dirty = True
            port = self._ports[target]
            next_free = port.next_free
            if now >= next_free:
                port.next_free = issue_end = now + 1
            else:
                port.next_free = issue_end = next_free + 1
                self._switch.contention_cycles += next_free - now
            complete = state.ready
            if complete < issue_end:
                complete = issue_end
            if target == quad:
                port.local_stores += 1
                complete += self._local_hit_extra
            else:
                port.remote_stores += 1
                complete += self._remote_hit_extra
        # memoryview stores are strict about type; float() is a no-op
        # for exact floats and converts ints/numpy scalars.
        self._mv_f64[physical >> 3] = float(value)
        tu = self.tu
        clock = tu.issue_time + 1
        if issue_end > clock:
            counters = tu.counters
            counters.stall_cycles += issue_end - clock
            counters.stall_events += 1
            tu.issue_time = issue_end
        else:
            tu.issue_time = clock
        return complete

    def _f64_slow(self, now: int, effective: int, is_store: bool,
                  value: float):
        """A double access off the finishers' own path; returns
        ``(ready_time, value)``."""
        memory = self.memory
        if self._strict:
            if is_store:
                issue_end, complete, _, _ = memory.store_f64(
                    now, self.quad_id, effective, value)
            else:
                (issue_end, complete, _, _), value = memory.load_f64(
                    now, self.quad_id, effective)
        else:
            issue_end, complete, _, _ = self._access(
                now, self.quad_id, effective, 8, is_store)
            # ``access`` has already raised unless the double lies below
            # the max-memory register, which never exceeds the backing
            # store; only the alignment half of its guard is left.
            physical = effective & PHYSICAL_MASK
            if physical & 7:
                self._backing._check(physical, 8)  # raises
            if is_store:
                self._mv_f64[physical >> 3] = float(value)
            else:
                value = self._mv_f64[physical >> 3]
        tu = self.tu
        tu.issue_at(issue_end - 1)
        tu.issue_time += 1
        return complete, value

    # The generator forms compute ``op_begin``'s earliest issue cycle
    # inline: one frame fewer per operation.
    def load_f64(self, effective: int, deps: tuple = ()):
        """Load a double; returns ``(ready_time, value)``."""
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        now = yield earliest
        result = self.load_f64_finish(now, effective)
        counters = self.tu.counters
        counters.instructions += 1
        counters.run_cycles += 1
        counters.loads += 1
        return result

    def store_f64(self, effective: int, value: float, deps: tuple = ()):
        """Store a double; returns the store's completion time.

        The thread does not wait for completion (stores retire through a
        write buffer); dependents that *must* observe the store (e.g. a
        flag protocol) can depend on the returned time.
        """
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        now = yield earliest
        done = self.store_f64_finish(now, effective, value)
        counters = self.tu.counters
        counters.instructions += 1
        counters.run_cycles += 1
        counters.stores += 1
        return done

    def load_u32(self, effective: int, deps: tuple = ()):
        """Load a 32-bit word; returns ``(ready_time, value)``."""
        tu = self.tu
        earliest = tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        earliest = yield earliest
        if self._strict:
            (issue_end, complete, _, _), value = self.memory.load_u32(
                earliest, self.quad_id, effective
            )
        else:
            issue_end, complete, _, _ = self._access(
                earliest, self.quad_id, effective, 4, False
            )
            value = self._bload_u32(effective & PHYSICAL_MASK)
        counters = tu.counters
        issue = issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.loads += 1
        return complete, value

    def store_u32(self, effective: int, value: int, deps: tuple = ()):
        """Store a 32-bit word; returns the completion time."""
        tu = self.tu
        earliest = tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        earliest = yield earliest
        if self._strict:
            issue_end, complete, _, _ = self.memory.store_u32(
                earliest, self.quad_id, effective, value
            )
        else:
            issue_end, complete, _, _ = self._access(
                earliest, self.quad_id, effective, 4, True
            )
            self._bstore_u32(effective & PHYSICAL_MASK, value)
        counters = tu.counters
        issue = issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.stores += 1
        return complete

    def atomic_rmw_u32(self, effective: int, op: str, operand: int,
                       deps: tuple = ()):
        """Atomic read-modify-write; returns ``(ready_time, old_value)``."""
        earliest = yield self.op_begin(deps)
        (issue_end, complete, _, _), old = self.memory.atomic_rmw_u32(
            earliest, self.quad_id, effective, op, operand
        )
        tu = self.tu
        tu.issue_at(issue_end - 1)
        tu.retire(1)
        tu.counters.loads += 1
        tu.counters.stores += 1
        return complete, old

    def scratchpad_f64(self, cache_id: int, offset: int, is_store: bool,
                       value: float = 0.0, deps: tuple = ()):
        """Access the partitioned fast memory of a cache.

        Returns ``(ready_time, value)`` for a read, ``(done, None)`` for a
        write. Offsets index the scratchpad region directly.
        """
        import struct

        earliest = yield self.op_begin(deps)
        issue_end, complete, _, _ = self.memory.scratchpad_access(
            earliest, self.quad_id, cache_id, 8
        )
        tu = self.tu
        tu.issue_at(issue_end - 1)
        tu.retire(1)
        cache = self.memory.caches[cache_id]
        if is_store:
            cache.scratchpad_write(offset, struct.pack("<d", value))
            tu.counters.stores += 1
            return complete, None
        tu.counters.loads += 1
        raw = cache.scratchpad_read(offset, 8)
        return complete, struct.unpack("<d", raw)[0]

    # ------------------------------------------------------------------
    # Floating point (shared FPU: generators)
    # ------------------------------------------------------------------
    def _fpu_pipelined(self, issue_fn, deps: tuple, exec_cycles: int,
                       flops: int):
        tu = self.tu
        earliest = tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        earliest = yield earliest
        issue_end, ready = issue_fn(earliest)
        # Inlined ThreadUnit.issue_at(issue_end - exec) + retire(exec).
        counters = tu.counters
        issue = issue_end - exec_cycles
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + exec_cycles
        counters.instructions += 1
        counters.run_cycles += exec_cycles
        counters.flops += flops
        return ready

    # The single-issue FPU finishers inline the pipe reservation of
    # ``FPU.add``, ``FPU.multiply`` and ``FPU.fma`` (each counts its own
    # kind once, as those do), then ThreadUnit.issue_at(issue_end - 1)
    # and the issue-clock half of retire(1): one frame per op instead of
    # two.
    def fp_add_finish(self, now: int) -> int:
        """Phase 2 of an FP add (pairs with ``op_begin``)."""
        fpu = self.fpu
        adder = fpu.adder
        if now < adder._last_request:
            adder.reorderings += 1
        else:
            adder._last_request = now
        grant = adder.next_free
        if now >= grant:
            grant = now
        else:
            fpu.contention_cycles += grant - now
        adder.next_free = grant + 1
        fpu.n_add += 1
        issue_end = grant + fpu._add_execution
        tu = self.tu
        issue = issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters = tu.counters
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        return issue_end + fpu._add_latency

    def fp_mul_finish(self, now: int) -> int:
        """Phase 2 of an FP multiply (pairs with ``op_begin``)."""
        fpu = self.fpu
        multiplier = fpu.multiplier
        if now < multiplier._last_request:
            multiplier.reorderings += 1
        else:
            multiplier._last_request = now
        grant = multiplier.next_free
        if now >= grant:
            grant = now
        else:
            fpu.contention_cycles += grant - now
        multiplier.next_free = grant + 1
        fpu.n_mul += 1
        issue_end = grant + fpu._mul_execution
        tu = self.tu
        issue = issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters = tu.counters
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        return issue_end + fpu._mul_latency

    def fp_fma_finish(self, now: int) -> int:
        """Phase 2 of a fused multiply-add (pairs with ``op_begin``)."""
        fpu = self.fpu
        adder = fpu.adder
        multiplier = fpu.multiplier
        grant = now
        if adder.next_free > grant:
            grant = adder.next_free
        if multiplier.next_free > grant:
            grant = multiplier.next_free
        issue_end = grant + fpu._fma_execution
        adder._last_request = grant
        adder.next_free = issue_end
        multiplier._last_request = grant
        multiplier.next_free = issue_end
        fpu.n_fma += 1
        if grant != now:
            fpu.contention_cycles += grant - now
        tu = self.tu
        issue = issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters = tu.counters
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        return issue_end + fpu._fma_latency

    def fp_add(self, deps: tuple = ()):
        """FP add/subtract/compare; returns the result's ready time."""
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        now = yield earliest
        ready = self.fp_add_finish(now)
        counters = self.tu.counters
        counters.instructions += 1
        counters.run_cycles += 1
        counters.flops += 1
        return ready

    def fp_mul(self, deps: tuple = ()):
        """FP multiply; returns the result's ready time."""
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        now = yield earliest
        ready = self.fp_mul_finish(now)
        counters = self.tu.counters
        counters.instructions += 1
        counters.run_cycles += 1
        counters.flops += 1
        return ready

    def fp_fma(self, deps: tuple = ()):
        """Fused multiply-add (two flops, one issue)."""
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        now = yield earliest
        ready = self.fp_fma_finish(now)
        counters = self.tu.counters
        counters.instructions += 1
        counters.run_cycles += 1
        counters.flops += 2
        return ready

    def fp_div(self, deps: tuple = ()):
        """Double-precision divide (non-pipelined)."""
        exec_cycles = self.lat.fp_divide[0]
        return self._fpu_pipelined(self.fpu.divide, deps, exec_cycles, 1)

    def fp_sqrt(self, deps: tuple = ()):
        """Double-precision square root (non-pipelined)."""
        exec_cycles = self.lat.fp_sqrt[0]
        return self._fpu_pipelined(self.fpu.sqrt, deps, exec_cycles, 1)

    def flush_line(self, effective: int, deps: tuple = ()):
        """Write back and drop the line holding *effective* (``dcbf``).

        The writer-side software-coherence primitive for OWN-group data;
        returns the completion time (dirty lines burst onto their bank).
        """
        earliest = yield self.op_begin(deps)
        issue_end, complete, _, _ = self.memory.flush_line(
            earliest, self.quad_id, effective
        )
        tu = self.tu
        tu.issue_at(issue_end - 1)
        tu.retire(1)
        return complete

    def invalidate_line(self, effective: int, deps: tuple = ()):
        """Drop the line holding *effective* without writeback (``dcbi``).

        The reader-side primitive: the next load re-fetches from memory.
        """
        earliest = yield self.op_begin(deps)
        issue_end, complete, _, _ = self.memory.invalidate_line(
            earliest, self.quad_id, effective
        )
        tu = self.tu
        tu.issue_at(issue_end - 1)
        tu.retire(1)
        return complete

    def fp_stream(self, count: int, op: str = "fma", deps: tuple = ()):
        """Issue *count* back-to-back dependent ops of one FPU kind.

        One scheduler synchronization covers the whole stream (the ops
        form a contiguous dependence chain, so nothing could interleave
        usefully anyway); each op still reserves a real FPU issue slot,
        so quad-mates contend cycle-accurately. Returns the last result's
        ready time. ``op`` is ``"fma"``, ``"add"``, or ``"mul"``.
        """
        if count <= 0:
            return self.op_begin(deps)
        earliest = yield self.op_begin(deps)
        if op == "fma":
            issue_fn, flops = self.fpu.fma, 2
        elif op == "add":
            issue_fn, flops = self.fpu.add, 1
        elif op == "mul":
            issue_fn, flops = self.fpu.multiply, 1
        else:
            raise ValueError(f"unknown FPU stream op {op!r}")
        tu = self.tu
        ready = earliest
        for _ in range(count):
            issue = tu.issue_time
            if earliest > issue:
                issue = earliest
            issue_end, ready = issue_fn(issue)
            tu.issue_at(issue_end - 1)
            tu.retire(1)
            tu.counters.flops += flops
        return ready

    # ------------------------------------------------------------------
    # Thread-private operations (plain methods)
    # ------------------------------------------------------------------
    def branch(self, deps: tuple = ()) -> int:
        """A (conditional) branch: two cycles in the sequencer."""
        return self.tu.execute_local(self.op_begin(deps), self.lat.branch)

    def charge_ops(self, count: int) -> int:
        """Charge *count* independent one-cycle private ops in bulk.

        Loop bodies use this for address arithmetic that would be tedious
        to spell out op-by-op; it is exactly equivalent to ``count``
        one-cycle ``execute_local`` ops (latency row ``other``) with no
        dependences.
        """
        counters = self.tu.counters
        counters.instructions += count
        counters.run_cycles += count
        self.tu.issue_time += count
        return self.tu.issue_time

    def count_iteration(self, ops: int, loads: int, stores: int, flops: int,
                        int_ops: int, branches: int) -> None:
        """Count one split-phase loop iteration, then charge its tail.

        The ``*_finish`` calls of the iteration did the timing; this adds
        what they leave out: *ops* instructions of one run cycle each, of
        which *loads* loads and *stores* stores, and *flops* flops. It
        then charges *int_ops* one-cycle private ops and *branches*
        branches with no dependences, exactly as ``charge_ops(int_ops)``
        followed by *branches* ``branch()`` calls would.
        """
        tu = self.tu
        counters = tu.counters
        tail = int_ops + branches * self._branch_cycles
        counters.instructions += ops + int_ops + branches
        counters.run_cycles += ops + tail
        counters.loads += loads
        counters.stores += stores
        counters.flops += flops
        tu.issue_time += tail

    # ------------------------------------------------------------------
    # Spin-waiting (shared: generator)
    # ------------------------------------------------------------------
    def spin_until(self, effective: int, predicate, deps: tuple = ()):
        """Poll a memory word until *predicate(value)* holds.

        Each poll is a real load plus a branch, so spinning threads
        genuinely contend for the flag's cache port — the effect that
        motivated the hardware barrier (Section 2.3).
        """
        ready, value = yield from self.load_u32(effective, deps)
        while not predicate(value):
            self.branch(deps=(ready,))
            ready, value = yield from self.load_u32(effective)
        return ready, value
