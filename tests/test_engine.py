"""Tests for the event-driven simulation engine."""

import pytest

from repro.engine.events import EventQueue, Waiter
from repro.engine.resources import (
    NonPipelinedUnit,
    TimelineResource,
)
from repro.engine.scheduler import BLOCK, Scheduler
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import DeadlockError, SimulationError


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        q.push(5, "b")
        q.push(1, "a")
        q.push(9, "c")
        assert [q.pop() for _ in range(3)] == [(1, "a"), (5, "b"), (9, "c")]

    def test_fifo_tie_break(self):
        q = EventQueue()
        q.push(3, "first")
        q.push(3, "second")
        assert q.pop() == (3, "first")
        assert q.pop() == (3, "second")

    def test_len_and_bool(self):
        q = EventQueue()
        assert not q
        q.push(0, None)
        assert len(q) == 1 and q

    def test_peek_time(self):
        q = EventQueue()
        q.push(7, "x")
        assert q.next_time == 7
        assert len(q) == 1

    def test_drain(self):
        q = EventQueue()
        for t in (3, 1, 2):
            q.push(t, t)
        assert [t for t, _ in q.drain()] == [1, 2, 3]


class TestWaiter:
    def test_fifo_wake_all(self):
        w = Waiter()
        w.park("a")
        w.park("b")
        assert w.wake_all() == ["a", "b"]
        assert len(w) == 0


class TestTimelineResource:
    def test_grants_at_request_time_when_free(self):
        r = TimelineResource("r")
        assert r.reserve(10, 5) == 10
        assert r.next_free == 15

    def test_queues_behind_busy(self):
        r = TimelineResource("r")
        r.reserve(0, 10)
        assert r.reserve(3, 5) == 10
        assert r.next_free == 15

    def test_utilization(self):
        r = TimelineResource("r")
        r.reserve(0, 10)
        r.reserve(50, 10)
        assert r.utilization(100) == pytest.approx(0.2)
        assert r.utilization(0) == 0.0

    def test_counts_reorderings(self):
        r = TimelineResource("r")
        r.reserve(10, 1)
        r.reserve(5, 1)
        assert r.reorderings == 1

    def test_rejects_negative(self):
        r = TimelineResource("r")
        with pytest.raises(SimulationError):
            r.reserve(-1, 1)


class TestUnits:
    def test_non_pipelined_occupies_fully(self):
        d = NonPipelinedUnit("d")
        assert d.execute(0, 30) == 0
        assert d.execute(1, 30) == 30


class TestScheduler:
    def test_runs_single_process(self):
        s = Scheduler()
        trace = []

        def body():
            t = yield 5
            trace.append(t)
            t = yield 12
            trace.append(t)

        s.spawn(body())
        assert s.run() == 12
        assert trace == [5, 12]

    def test_interleaves_by_time(self):
        s = Scheduler()
        order = []

        def body(name, times):
            for t in times:
                now = yield t
                order.append((now, name))

        s.spawn(body("a", [2, 10]))
        s.spawn(body("b", [5, 6]))
        s.run()
        assert order == [(2, "a"), (5, "b"), (6, "b"), (10, "a")]

    def test_block_and_wake(self):
        s = Scheduler()
        log = []

        def sleeper():
            t = yield BLOCK
            log.append(("woke", t))

        def waker(target):
            yield 100
            s.wake(target, 150)
            log.append("sent")

        proc = s.spawn(sleeper())
        s.spawn(waker(proc))
        s.run()
        assert log == ["sent", ("woke", 150)]

    def test_deadlock_detection(self):
        s = Scheduler()

        def stuck():
            yield BLOCK

        s.spawn(stuck())
        with pytest.raises(DeadlockError):
            s.run()

    def test_deadlock_names_the_culprits(self):
        s = Scheduler()

        def stuck():
            yield BLOCK

        s.spawn(stuck(), name="waiter-a")
        s.spawn(stuck(), name="waiter-b")
        with pytest.raises(DeadlockError) as excinfo:
            s.run()
        assert "waiter-a" in str(excinfo.value)
        assert "waiter-b" in str(excinfo.value)

    def test_exit_callbacks_fire(self):
        s = Scheduler()
        finished = []

        def body():
            yield 42

        p = s.spawn(body())
        p.on_exit(finished.append)
        s.run()
        assert finished == [42]

    def test_exit_callback_after_done_fires_immediately(self):
        s = Scheduler()

        def body():
            yield 1

        p = s.spawn(body())
        s.run()
        seen = []
        p.on_exit(seen.append)
        assert seen == [1]

    def test_rejects_yield_into_past(self):
        s = Scheduler()

        def body():
            yield 10
            yield 5

        s.spawn(body())
        with pytest.raises(SimulationError):
            s.run()

    def test_rejects_garbage_yield(self):
        s = Scheduler()

        def body():
            yield "nonsense"

        s.spawn(body())
        with pytest.raises(SimulationError):
            s.run()

    def test_until_bound(self):
        s = Scheduler()

        def body():
            yield 10
            yield 10**9

        s.spawn(body())
        assert s.run(until=100) == 100

    def test_spawn_in_past_rejected(self):
        s = Scheduler()

        def mk():
            yield 10

        def spawner():
            yield 50
            with pytest.raises(SimulationError):
                s.spawn(mk(), start_time=10)

        s.spawn(spawner())
        s.run()


class TestTracer:
    def test_collects_and_filters(self):
        t = Tracer()
        t.emit(1, "cache0", "miss")
        t.emit(2, "cache0", "hit")
        t.emit(3, "cache1", "miss")
        assert t.count("miss") == 2
        assert len(list(t.events())) == 3

    def test_capacity_bound(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.emit(i, "s", "e")
        assert len(t.records) == 2
        assert t.records[0].time == 3

    def test_null_tracer_discards(self):
        NULL_TRACER.emit(0, "s", "e")
        assert not NULL_TRACER.records
        assert not NULL_TRACER.enabled

    def test_clear(self):
        t = Tracer()
        t.emit(0, "s", "e")
        t.clear()
        assert not t.records
