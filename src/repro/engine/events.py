"""Time-ordered event queue primitives.

:class:`EventQueue` is a *calendar queue*: one FIFO deque of payloads
per occupied cycle (a ``dict`` keyed by time) plus a heap of the
distinct occupied times. Pushing at a cycle that already has events is
one ``dict`` probe and a deque append; only the first event of a cycle
touches the heap, and only the last event popped from it pops the heap. The engine's common case — many processes resuming at
the same cycles — therefore costs one heap operation per distinct cycle
instead of two per event. Events at one time pop in push order, except
that :meth:`EventQueue.push_front` puts one ahead of them.

:class:`Waiter` is a parking lot for processes blocked on a condition
(barrier arrival, thread join, lock release): it holds them outside the
scheduler queue until another process wakes them at an explicit time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Iterator


class EventQueue:
    """Events keyed by integer time, FIFO within one time.

    Invariant: ``_slots`` holds exactly the times in the ``_times`` heap
    and every slot is non-empty, so ``_times[0]`` is always the earliest
    event's time. :meth:`Scheduler.run <repro.engine.scheduler.Scheduler.run>`
    drains the head slot in place and keeps the invariant itself.
    """

    __slots__ = ("n", "next_time", "_slots", "_times")

    def __init__(self) -> None:
        #: Number of queued events. A plain attribute so the scheduler's
        #: inner loop can test emptiness without a ``__bool__`` call.
        self.n = 0
        #: Earliest queued time (``_times[0]``), maintained on every
        #: push/pop so hot callers read an attribute instead of calling
        #: :meth:`peek_time`. Meaningless while the queue is empty.
        self.next_time = 0
        #: time -> deque of the payloads queued at that time, in order.
        self._slots: dict[int, deque[Any]] = {}
        #: Min-heap of the distinct times present in ``_slots``.
        self._times: list[int] = []

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0

    def push(self, time: int, payload: Any) -> None:
        """Schedule *payload* at *time* (ties pop in push order)."""
        slot = self._slots.get(time)
        if slot is None:
            self._slots[time] = deque((payload,))
            heappush(self._times, time)
            if self.n == 0 or time < self.next_time:
                self.next_time = time
        else:
            slot.append(payload)
        self.n += 1

    def push_front(self, time: int, payload: Any) -> None:
        """Schedule *payload* at *time*, ahead of every event already
        queued at that time.

        The one sanctioned exception to FIFO tie-breaking: a parallel-DES
        domain re-queues a gated mailbox poll exactly where it was popped
        from, so same-cycle events that originally sat behind it still
        run after it (see :meth:`Scheduler.wake`). Two front pushes at
        one time pop last-pushed first.
        """
        slot = self._slots.get(time)
        if slot is None:
            self.push(time, payload)
        else:
            slot.appendleft(payload)
            self.n += 1

    def pop(self) -> tuple[int, Any]:
        """Remove and return the earliest ``(time, payload)``."""
        if not self.n:
            raise IndexError("pop from an empty event queue")
        time = self.next_time
        slot = self._slots[time]
        payload = slot.popleft()
        self.n -= 1
        if not slot:
            del self._slots[time]
            times = self._times
            heappop(times)
            if times:
                self.next_time = times[0]
        return time, payload

    def peek_time(self) -> int:
        """Earliest scheduled time without removing it."""
        if self.n == 0:
            raise IndexError("peek into an empty event queue")
        return self.next_time

    def peek_time_or(self, default: int) -> int:
        """Earliest scheduled time, or *default* when the queue is empty.

        The safe-time horizon computation of :mod:`repro.pdes` calls
        this every synchronization round; the explicit default avoids an
        exception-driven control flow on the empty-domain path.
        """
        return self.next_time if self.n else default

    def drain(self) -> Iterator[tuple[int, Any]]:
        """Pop everything in time order (useful in tests)."""
        while self:
            yield self.pop()


class Waiter:
    """A FIFO parking lot for blocked processes.

    Processes park here while blocked; :meth:`wake_all` / :meth:`wake_one`
    hand them back to the caller (typically to be rescheduled at the
    waking time). The waiter itself is policy-free.
    """

    __slots__ = ("_parked",)

    def __init__(self) -> None:
        self._parked: deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._parked)

    def park(self, process: Any) -> None:
        """Add *process* to the parking lot."""
        self._parked.append(process)

    def wake_all(self) -> list[Any]:
        """Remove and return every parked process in FIFO order."""
        woken = list(self._parked)
        self._parked.clear()
        return woken

    def wake_one(self) -> Any | None:
        """Remove and return the earliest-parked process, or ``None``."""
        if not self._parked:
            return None
        return self._parked.popleft()
