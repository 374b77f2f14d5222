"""Host-time spans recorded at the simulator's layer boundaries, from outside.

:func:`install` wraps public functions of the simulator (the scheduler run
loop, the memory access path, every public ``ThreadCtx`` operation, both
barrier kinds, and the thread processes spawned by ``Kernel.spawn`` and
``Interpreter.add_thread``) and returns the function that undoes it.
Nothing under ``src/`` changes.

Two facts about the simulator decide where and when the wrappers go:

* ``ThreadCtx.__init__`` binds ``memory.access`` once per thread, so the
  wrappers must be in place before a workload spawns its threads;
* ``Scheduler.run`` copies ``queue.pop``/``queue.push`` into locals, so
  the event queue cannot be wrapped at all; its cost comes from a
  microbenchmark times ``engine.steps`` (see :mod:`perfbench.micro`).

Generator operations are timed per resumption: a span pauses while its
generator is suspended in the scheduler, so a span's *self* time is the
host time spent executing it minus the time of the spans it caused.
Calls nested inside the same layer (``load_f64`` calling ``op_begin``) are
that layer's own work and get no span of their own.
"""

from __future__ import annotations

import inspect
import itertools
import json
from time import perf_counter_ns as _now
from types import GeneratorType

# Span fields (a span is a list, mutated in place while it is open).
ID, PARENT, NAME, LAYER, START, END, DUR, CHILD, SEG = range(9)

#: Span names whose every span is kept; other names keep the first
#: ``KEEP_PER_NAME`` (aggregates stay exact either way).
COARSE = frozenset({
    "engine.run", "workload.body", "isa.run",
    "runtime.barrier.hw_wait", "runtime.barrier.sw_wait",
})

KEEP_PER_NAME = 1000


class Tracer:
    """Spans kept in memory plus exact per-name aggregates."""

    def __init__(self) -> None:
        #: Identifies the simulation a span belongs to (set per sub-run).
        self.run_id = ""
        self.stack: list[list] = []
        #: name -> [calls, total_ns, self_ns, kept spans]
        self.agg: dict[str, list[int]] = {}
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        #: Span name given to processes spawned while it is set.
        self.spawn_kind: tuple[str, str] | None = None
        #: Names of spans that ran as generators (suspendable operations).
        self.generators: set[str] = set()

    # ------------------------------------------------------------------
    def _finish(self, span: list) -> None:
        name = span[NAME]
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0, 0, 0]
        agg[0] += 1
        agg[1] += span[DUR]
        agg[2] += span[DUR] - span[CHILD]
        if agg[3] < KEEP_PER_NAME or name in COARSE:
            agg[3] += 1
            self.spans.append((span[ID], span[PARENT], name, span[START],
                               span[END], self.run_id))

    def _drive(self, span: list, gen):
        """Run *gen* as a generator, timing only its execution segments."""
        stack = self.stack
        send = gen.send
        value = None
        while True:
            if span[PARENT] is None and stack:
                span[PARENT] = stack[-1][ID]
            stack.append(span)
            start = span[SEG] = _now()
            if not span[START]:
                span[START] = start
            done = False
            try:
                request = send(value)
            except StopIteration as stop:
                done, result = True, stop.value
            finally:
                t = _now()
                d = t - span[SEG]
                span[DUR] += d
                span[END] = t
                stack.pop()
                if stack:
                    stack[-1][CHILD] += d
            if done:
                self._finish(span)
                self.generators.add(span[NAME])
                return result
            value = yield request

    def wrap(self, name: str, layer: str, fn):
        """*fn* with a span around each call (and each generator segment)."""
        stack = self.stack
        ids = self._ids
        finish = self._finish
        drive = self._drive

        def traced(*args, **kwargs):
            if stack and stack[-1][LAYER] == layer:
                return fn(*args, **kwargs)
            span = [next(ids), stack[-1][ID] if stack else None, name, layer,
                    0, 0, 0, 0, 0]
            stack.append(span)
            span[START] = span[SEG] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t = _now()
                d = t - span[SEG]
                span[DUR] += d
                span[END] = t
                stack.pop()
                if stack:
                    stack[-1][CHILD] += d
            if type(result) is GeneratorType:
                return drive(span, result)
            finish(span)
            return result

        return traced

    def process(self, gen):
        """Wrap a spawned process generator in a span of ``spawn_kind``."""
        name, layer = self.spawn_kind
        span = [next(self._ids), None, name, layer, 0, 0, 0, 0, 0]
        return self._drive(span, gen)

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.agg.get(name, (0,))[0]

    def layer_self_s(self, prefix: str) -> float:
        """Self seconds summed over span names starting with *prefix*."""
        return sum(a[2] for n, a in self.agg.items()
                   if n.startswith(prefix)) / 1e9

    def layer_calls(self, prefix: str) -> int:
        return sum(a[0] for n, a in self.agg.items() if n.startswith(prefix))

    def dump(self, path) -> None:
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "fields": ["id", "parent", "name", "start_ns", "end_ns", "run"],
            "spans": self.spans,
            "aggregates": {n: {"calls": a[0], "total_ns": a[1],
                               "self_ns": a[2]}
                           for n, a in sorted(self.agg.items())},
        }
        path.write_text(json.dumps(doc))


def install(tracer: Tracer):
    """Wrap every traced boundary; returns a callable that restores them."""
    from repro.engine.scheduler import Scheduler
    from repro.isa.interpreter import Interpreter
    from repro.memory.subsystem import MemorySubsystem
    from repro.runtime.barrier_hw import HardwareBarrier
    from repro.runtime.barrier_sw import TreeBarrier
    from repro.runtime.context import ThreadCtx
    from repro.runtime.kernel import Kernel

    saved = []

    def patch(cls, attr, replacement):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def traced(cls, attr, name, layer):
        patch(cls, attr, tracer.wrap(name, layer, cls.__dict__[attr]))

    traced(Scheduler, "run", "engine.run", "engine")
    traced(MemorySubsystem, "access", "memory.access", "memory")
    for op, fn in list(vars(ThreadCtx).items()):
        if not op.startswith("_") and inspect.isfunction(fn):
            traced(ThreadCtx, op, f"runtime.ctx.{op}", "runtime")
    traced(HardwareBarrier, "wait", "runtime.barrier.hw_wait",
           "runtime.barrier")
    traced(TreeBarrier, "wait", "runtime.barrier.sw_wait", "runtime.barrier")

    spawn = Scheduler.spawn

    def traced_spawn(scheduler, gen, start_time=None, name=""):
        if tracer.spawn_kind is not None:
            gen = tracer.process(gen)
        return spawn(scheduler, gen, start_time, name)

    def spawning(fn, kind):
        def wrapper(*args, **kwargs):
            tracer.spawn_kind = kind
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.spawn_kind = None
        return wrapper

    patch(Scheduler, "spawn", traced_spawn)
    patch(Kernel, "spawn",
          spawning(Kernel.spawn, ("workload.body", "workload")))
    patch(Interpreter, "add_thread",
          spawning(Interpreter.add_thread, ("isa.run", "isa")))

    def uninstall() -> None:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)

    return uninstall
