"""EventQueue unit tests and a reference-model property test.

The calendar queue must be *observably identical* to a plain
``(time, seq)`` heap: same pop order (FIFO within a tie group, front
pushes ahead of it), same lengths, same peek times. The unit tests pin
each behaviour; the Hypothesis tests drive random interleavings of
push/push_front/pop against the pure-heap reference implementation.
"""

from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import NEVER, EventQueue, Waiter


class ReferenceQueue:
    """The obviously-correct implementation: one heap, no fast path."""

    def __init__(self) -> None:
        self._heap = []
        self._seq = count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time, payload) -> None:
        heappush(self._heap, (time, next(self._seq), payload))

    def push_front(self, time, payload) -> None:
        # A negative sequence number sorts ahead of every normal push at
        # the same time; later front pushes sort further ahead (LIFO).
        heappush(self._heap, (time, -next(self._seq), payload))

    def pop(self):
        time, _, payload = heappop(self._heap)
        return time, payload

    def peek_time(self):
        if not self._heap:
            raise IndexError("peek into an empty event queue")
        return self._heap[0][0]

    def peek_time_or(self, default):
        return self._heap[0][0] if self._heap else default


# ---------------------------------------------------------------------------
# Unit tests
# ---------------------------------------------------------------------------
def test_fifo_tie_breaking():
    queue = EventQueue()
    for i in range(5):
        queue.push(7, f"p{i}")
    assert [queue.pop() for _ in range(5)] == \
        [(7, f"p{i}") for i in range(5)]


def test_tie_group_pops_in_push_order():
    queue = EventQueue()
    for i in range(4):
        queue.push(3, i)
    queue.push(9, "later")
    # The tie group pops in FIFO order, with next_time staying on the
    # group until its last event is gone.
    assert queue.pop() == (3, 0)
    assert queue.next_time == 3
    assert queue.pop() == (3, 1)
    assert queue.pop() == (3, 2)
    assert queue.pop() == (3, 3)
    assert queue.next_time == 9
    assert queue.pop() == (9, "later")
    assert len(queue) == 0


def test_same_cycle_push_queues_behind_tie_group():
    queue = EventQueue()
    queue.push(5, "a")
    queue.push(5, "b")
    queue.push(5, "c")
    assert queue.pop() == (5, "a")  # b, c still queued at 5
    queue.push(5, "d")  # same-cycle push: behind the existing tie group
    assert queue.pop() == (5, "b")
    assert queue.pop() == (5, "c")
    assert queue.pop() == (5, "d")


def test_push_earlier_than_head_pops_first():
    queue = EventQueue()
    queue.push(10, "x")
    queue.push(10, "y")
    assert queue.pop() == (10, "x")  # "y" still queued at 10
    queue.push(4, "early")  # earlier than the current head
    assert queue.next_time == 4
    assert queue.pop() == (4, "early")
    assert queue.next_time == 10
    assert queue.pop() == (10, "y")


def test_len_bool_and_empty_peek():
    queue = EventQueue()
    assert len(queue) == 0 and not queue
    assert queue.next_time == NEVER
    queue.push(1, "a")
    assert len(queue) == 1 and queue
    queue.pop()
    assert queue.next_time == NEVER


def test_next_time_tracks_earliest_push():
    queue = EventQueue()
    queue.push(8, "a")
    assert queue.next_time == 8
    queue.push(3, "b")
    assert queue.next_time == 3
    queue.push(5, "c")
    assert queue.next_time == 3
    assert [queue.pop() for _ in range(3)] == \
        [(3, "b"), (5, "c"), (8, "a")]


def test_push_front_goes_ahead_of_ties_lifo():
    queue = EventQueue()
    queue.push(5, "a")
    queue.push(5, "b")
    assert queue.pop() == (5, "a")
    queue.push_front(5, "f1")
    queue.push_front(5, "f2")
    queue.push(5, "c")
    queue.push_front(3, "early")  # no events at 3 yet: a plain push
    assert list(queue.drain()) == \
        [(3, "early"), (5, "f2"), (5, "f1"), (5, "b"), (5, "c")]


def test_peek_time_or_default_when_empty():
    queue = EventQueue()
    assert queue.peek_time_or(-1) == -1
    queue.push(6, "a")
    assert queue.peek_time_or(-1) == 6
    queue.pop()
    assert queue.peek_time_or(99) == 99
    with pytest.raises(IndexError):
        queue.pop()


def test_drain_yields_sorted_fifo_order():
    queue = EventQueue()
    pushes = [(4, "a"), (1, "b"), (4, "c"), (1, "d"), (2, "e")]
    for time, payload in pushes:
        queue.push(time, payload)
    assert list(queue.drain()) == \
        [(1, "b"), (1, "d"), (2, "e"), (4, "a"), (4, "c")]


# ---------------------------------------------------------------------------
# Property test: any interleaving matches the reference heap
# ---------------------------------------------------------------------------
#: Ops: push or push_front at a small time (ties are the interesting
#: case), or pop.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("push_front"),
                  st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=200,
)


def _check_same(fast, reference):
    assert len(fast) == len(reference)
    assert fast.n == len(reference)
    assert fast.peek_time_or(-1) == reference.peek_time_or(-1)
    if len(reference):
        assert fast.next_time == reference.peek_time()


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_matches_reference_heap(ops):
    """Arbitrary times: pushes land before, at and after the head."""
    fast = EventQueue()
    reference = ReferenceQueue()
    for serial, (op, time) in enumerate(ops):
        if op == "pop":
            if len(reference):
                assert fast.pop() == reference.pop()
        else:
            getattr(fast, op)(time, serial)
            getattr(reference, op)(time, serial)
        _check_same(fast, reference)


@settings(max_examples=50, deadline=None)
@given(ops=_OPS)
def test_scheduler_like_interleaving_matches_reference(ops):
    """Monotone-time interleavings (what the scheduler actually does).

    Pushes land at ``now + delta`` for the last popped ``now``, so most
    of them join a cycle that already has events.
    """
    fast = EventQueue()
    reference = ReferenceQueue()
    now = 0
    for serial, (op, delta) in enumerate(ops):
        if op == "pop":
            if len(reference):
                expected = reference.pop()
                assert fast.pop() == expected
                now = expected[0]
        else:
            getattr(fast, op)(now + delta, serial)
            getattr(reference, op)(now + delta, serial)
        _check_same(fast, reference)


# ---------------------------------------------------------------------------
# Waiter
# ---------------------------------------------------------------------------
def test_waiter_fifo():
    waiter = Waiter()
    for i in range(3):
        waiter.park(i)
    assert len(waiter) == 3
    assert waiter.wake_all() == [0, 1, 2]
    assert len(waiter) == 0
