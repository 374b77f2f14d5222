"""Generator-process scheduler.

A *process* is a Python generator. The protocol has two yield forms:

``granted = yield t`` (``t`` an ``int``)
    Reschedule me at absolute cycle ``t``; I will touch shared state only
    after resuming. The scheduler resumes the globally earliest process
    first, so shared-state operations happen in nondecreasing simulated
    time. ``granted`` is the resume time (always ``t``).

``granted = yield BLOCK``
    Park me; some other process will call :meth:`Scheduler.wake` with a
    wake-up time, which becomes ``granted``.

Returning from the generator ends the process; exit callbacks registered
with :meth:`Process.on_exit` run at the process's final time (used for
thread join).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.engine.events import NEVER, EventQueue
from repro.errors import DeadlockError, SimulationError

#: Sentinel yielded by a process that parks itself until woken. The
#: sentinels are negative ints, below every simulated time, so one
#: comparison tells a reschedule (``request >= time``) from either.
BLOCK = -1

#: Internal sentinel: a process's generator raised ``StopIteration``.
_FINISHED = -2

ProcessBody = Generator[Any, int, None]


class Process:
    """A schedulable generator with bookkeeping for joins and accounting."""

    __slots__ = ("pid", "name", "gen", "send", "time", "done", "blocked",
                 "_exit_callbacks")

    def __init__(self, pid: int, gen: ProcessBody, name: str = "") -> None:
        self.pid = pid
        self.name = name or f"process-{pid}"
        self.gen = gen
        #: Resume with a granted time: ``gen.send``, bound once, after a
        #: first call that starts the generator (see :meth:`_first_send`).
        self.send: Callable[[int], Any] = self._first_send
        #: The process's local clock: last known simulated time.
        self.time = 0
        self.done = False
        self.blocked = False
        self._exit_callbacks: list[Callable[[int], None]] = []

    def _first_send(self, granted: int) -> Any:
        """Start the generator (``send(None)``: it has no yield to
        receive *granted* yet) and bind ``gen.send`` for every later
        resume."""
        send = self.send = self.gen.send
        return send(None)

    def on_exit(self, callback: Callable[[int], None]) -> None:
        """Run *callback(final_time)* when the process finishes."""
        if self.done:
            callback(self.time)
        else:
            self._exit_callbacks.append(callback)

    def _finish(self) -> None:
        self.done = True
        callbacks, self._exit_callbacks = self._exit_callbacks, []
        for callback in callbacks:
            callback(self.time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("blocked" if self.blocked else "ready")
        return f"<Process {self.name} t={self.time} {state}>"


class Scheduler:
    """Runs processes in global simulated-time order until quiescence."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0
        self._next_pid = 0
        self._n_live = 0
        self._n_parked = 0
        self._parked_processes: set[Process] = set()
        #: Total process resumptions (the engine's unit of host work).
        self.steps = 0
        #: Optional telemetry hook ``probe(queue_depth, now)`` called once
        #: per resumption; ``None`` (the default) costs one branch.
        self.probe: Callable[[int, int], None] | None = None
        #: Cooperative window stop: a process may set this (and then
        #: park) to make :meth:`run` return before popping the next
        #: event. Used by the parallel-DES layer to end a domain window
        #: at a gated mailbox poll without disturbing time order —
        #: everything already run stays run, everything queued stays
        #: queued. Always cleared when :meth:`run` returns.
        self.stop = False

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def spawn(self, gen: ProcessBody, start_time: int | None = None,
              name: str = "") -> Process:
        """Create a process from *gen* and schedule its first step."""
        process = Process(self._next_pid, gen, name)
        self._next_pid += 1
        process.time = self.now if start_time is None else start_time
        if process.time < self.now:
            raise SimulationError(
                f"cannot spawn {process.name} in the past "
                f"(t={process.time} < now={self.now})"
            )
        self._n_live += 1
        self.queue.push(process.time, process)
        return process

    def wake(self, process: Process, time: int, *,
             front: bool = False) -> None:
        """Unpark *process* and schedule it at *time*.

        ``front=True`` re-queues it ahead of every event already queued
        at *time* — used by the parallel-DES layer to resume a gated
        mailbox poll in its original position relative to same-cycle
        peers (it was popped first; it must still run first).
        """
        if not process.blocked:
            raise SimulationError(f"{process.name} is not blocked")
        if time < self.now:
            raise SimulationError(
                f"cannot wake {process.name} in the past (t={time} < {self.now})"
            )
        process.blocked = False
        process.time = time
        self._n_parked -= 1
        self._parked_processes.discard(process)
        if front:
            self.queue.push_front(time, process)
        else:
            self.queue.push(time, process)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: int | None = None, *,
            allow_parked: bool = False) -> int:
        """Run until no runnable process remains (or past *until* cycles).

        Returns the final simulated time. Raises :class:`DeadlockError`
        if live processes remain parked with nothing left to wake them —
        unless ``allow_parked`` is set, which is how a parallel-DES
        domain runs a bounded window: its queue may legitimately drain
        while threads are parked waiting on messages from *other*
        domains, and only the coordinator can tell that apart from a
        real deadlock (see :mod:`repro.pdes`).
        """
        queue = self.queue
        slots = queue._slots
        times = queue._times
        probe = self.probe  # hoisted: attach probes before run(), not during
        steps = 0
        # The queue's pop and push are inlined into the resume loop: one
        # Python frame per process resumption is measurable at the
        # millions-of-events scale (see docs/performance.md). The head
        # cycle's slot is drained in place, so a tie group costs one
        # heap pop in all.
        try:
            while queue.n:
                if self.stop:
                    break
                time = queue.next_time
                if until is not None and time > until:
                    self.now = until
                    return self.now
                if time < self.now:
                    raise SimulationError(
                        f"time went backwards: {time} < {self.now}"
                    )
                self.now = time
                slot = slots[time]
                while True:
                    process = slot.popleft()
                    queue.n -= 1
                    if not slot:
                        # The cycle's last event: retire its slot now, so
                        # the queue is consistent while the process runs
                        # (a push at this cycle opens a fresh slot).
                        del slots[time]
                        heappop(times)
                        queue.next_time = times[0] if times else NEVER
                    # process.time is already *time*: every push, wake
                    # and spawn sets it before queueing the process.
                    while True:
                        try:
                            request = process.send(time)
                        except StopIteration:
                            request = _FINISHED
                        steps += 1
                        if probe is not None:
                            probe(queue.n, time)
                        try:
                            if request >= time:
                                process.time = request
                                # Fast path: the process rescheduled
                                # itself at a time strictly before every
                                # queued event (it would pop next anyway;
                                # an empty queue's next_time is NEVER), so
                                # resume it directly and skip the queue
                                # round-trip. Ties must go through the
                                # queue — FIFO order says earlier-pushed
                                # events run first — and so must anything
                                # past the `until` horizon.
                                if request >= queue.next_time or (
                                        until is not None
                                        and request > until):
                                    # EventQueue.push, inlined.
                                    later = slots.get(request)
                                    if later is None:
                                        slots[request] = deque((process,))
                                        heappush(times, request)
                                        if request < queue.next_time:
                                            queue.next_time = request
                                    else:
                                        later.append(process)
                                    queue.n += 1
                                    break
                                if request != time:
                                    time = request
                                    self.now = request
                                continue
                        except TypeError:
                            # Not comparable with an int: not a time.
                            raise SimulationError(
                                f"{process.name} yielded {request!r}; "
                                f"expected int time or BLOCK"
                            ) from None
                        if request == BLOCK:
                            process.blocked = True
                            self._n_parked += 1
                            self._parked_processes.add(process)
                            break
                        if request == _FINISHED:
                            self._n_live -= 1
                            process._finish()
                            break
                        raise SimulationError(
                            f"{process.name} rescheduled into the past "
                            f"({request} < {time})"
                        )
                    # Next event of the same cycle, unless the slot is
                    # spent (a fast-path resume always spends it) or a
                    # process asked the window to stop.
                    if not slot or self.stop:
                        break
        finally:
            self.stop = False
            self.steps += steps
        if self._n_parked and self._n_live and not allow_parked:
            names = sorted(p.name for p in self._parked_processes)
            shown = ", ".join(names[:8])
            if len(names) > 8:
                shown += f", ... (+{len(names) - 8} more)"
            raise DeadlockError(
                f"{self._n_parked} process(es) blocked with no runnable "
                f"work at t={self.now}: {shown}"
            )
        return self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        """Processes spawned and not yet finished."""
        return self._n_live

    @property
    def n_parked(self) -> int:
        """Processes currently blocked."""
        return self._n_parked
