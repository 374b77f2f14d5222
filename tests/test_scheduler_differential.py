"""Scheduler differential: the fused run loop against a pure-heap model.

:meth:`Scheduler.run` inlines the calendar queue's pop and push, drains
a cycle's events in place and resumes a process directly when it is the
earliest. None of that may be observable. Random process scripts
(reschedules 0-3 cycles ahead, parking, ``wake(front=...)``, a
cooperative ``stop`` from inside a tie group) run on both the real
scheduler and the pure-heap :class:`ReferenceScheduler` below, under a
series of ``run(until=...)`` windows. After every return the resume
trace, ``now``, and the queue's ``n`` and ``next_time`` (which
:mod:`repro.pdes` reads between windows) must agree.
"""

from heapq import heappop, heappush
from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.scheduler import BLOCK, Scheduler


class ReferenceScheduler:
    """One ``(time, seq, process)`` heap, one resumption per pop."""

    def __init__(self) -> None:
        self.heap = []
        self.seq = count(1)
        self.now = 0
        self.stop = False

    def _push(self, time, process, front=False) -> None:
        seq = next(self.seq)
        heappush(self.heap, (time, -seq if front else seq, process))

    def spawn(self, gen, start_time):
        process = {"gen": gen, "started": False}
        self._push(start_time, process)
        return process

    def wake(self, process, time, *, front=False) -> None:
        self._push(time, process, front)

    def run(self, until=None, *, allow_parked=False) -> int:
        try:
            while self.heap and not self.stop:
                if until is not None and self.heap[0][0] > until:
                    self.now = until
                    return until
                time, _, process = heappop(self.heap)
                self.now = time
                value = time if process["started"] else None
                process["started"] = True
                try:
                    request = process["gen"].send(value)
                except StopIteration:
                    continue
                if request is not BLOCK:
                    self._push(request, process)
        finally:
            self.stop = False
        return self.now


def _body(pid, script, sched, handles, parked, trace):
    """Run *script*; every resumption is logged as ``(pid, now)``."""
    trace.append((pid, sched.now))
    for action, arg, front in script:
        if action == "delay":
            yield sched.now + arg
        elif action in ("block", "stop"):
            if action == "stop":
                sched.stop = True  # end the window; the contract: park
            parked.append(pid)
            yield BLOCK
        elif parked:  # wake the longest-parked process
            sched.wake(handles[parked.pop(0)], sched.now + arg, front=front)
            continue
        else:
            continue
        trace.append((pid, sched.now))


def _simulate(make, scripts, starts, windows):
    sched = make()
    handles, parked, trace = {}, [], []
    for pid, (script, start) in enumerate(zip(scripts, starts)):
        gen = _body(pid, script, sched, handles, parked, trace)
        handles[pid] = sched.spawn(gen, start_time=start)
    observed = []
    for until in windows:
        # A window may end early at a stop; rerun it until it is spent.
        for _ in range(len(trace) + 50):
            before = len(trace)
            now = sched.run(until, allow_parked=True)
            queue = getattr(sched, "queue", None)
            n = len(queue) if queue is not None else len(sched.heap)
            head = (queue.next_time if queue is not None
                    else sched.heap[0][0]) if n else None
            observed.append((list(trace), now, n, head))
            if len(trace) == before and (not n or until is None
                                         or head > until):
                break
    return observed


_ACTION = st.one_of(
    st.tuples(st.just("delay"), st.integers(0, 3), st.just(False)),
    st.tuples(st.just("block"), st.just(0), st.just(False)),
    st.tuples(st.just("wake"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("stop"), st.just(0), st.just(False)),
)


@settings(max_examples=300, deadline=None)
@given(
    scripts=st.lists(st.lists(_ACTION, max_size=12), min_size=1, max_size=6),
    starts=st.lists(st.integers(0, 3), min_size=6, max_size=6),
    windows=st.lists(st.integers(0, 40), max_size=4),
)
def test_run_matches_reference_scheduler(scripts, starts, windows):
    windows = sorted(windows) + [None]
    fast = _simulate(Scheduler, scripts, starts, windows)
    reference = _simulate(ReferenceScheduler, scripts, starts, windows)
    assert fast == reference


def test_stop_inside_a_tie_group_leaves_the_rest_queued():
    sched = Scheduler()
    trace = []

    def stopper():
        trace.append("stopper")
        sched.stop = True
        yield BLOCK

    def peer(name):
        trace.append(name)
        yield sched.now + 1

    sched.spawn(peer("a"), start_time=5)
    stopper_process = sched.spawn(stopper(), start_time=5)
    sched.spawn(peer("b"), start_time=5)
    assert sched.run(allow_parked=True) == 5
    assert trace == ["a", "stopper"]
    assert (sched.queue.n, sched.queue.next_time) == (2, 5)
    sched.wake(stopper_process, 5, front=True)
    sched.run(allow_parked=True)
    assert trace == ["a", "stopper", "b"]
    assert sched.now == 6 and sched.queue.n == 0
