"""Shared-hardware resource models.

Cyclops shares expensive units — FPUs, cache ports, memory banks — between
thread units. "If two threads try to issue instructions using the same
shared resource, one thread is selected as winner in a round-robin scheme
to prevent starvation" (paper, Section 2). The engine services requests in
nondecreasing simulated time, so each resource only needs a busy timeline:

* :class:`TimelineResource` — a single server; a request at time *t* for
  *busy* cycles is granted at ``max(t, next_free)``.
* :class:`PipelinedUnit` — issue-limited pipeline (e.g. the FPU adder can
  accept one operation per cycle; results appear after a fixed latency
  without occupying the unit).
* :class:`NonPipelinedUnit` — occupies the unit for the full execution
  time (integer divide, FP divide, square root).

Contenders are served FIFO in simulated time, which is starvation-free
and aggregate-equivalent to the hardware's per-cycle round-robin.
"""

from __future__ import annotations

from repro.errors import SimulationError


class TimelineResource:
    """A single-server resource with a busy-until timeline.

    Service is first-come-first-served in *request submission* order.
    The scheduler submits requests in nondecreasing process time, but a
    request's effective arrival can carry a small derived offset (e.g. a
    bank fill arrives one cache-port grant after the process's own time),
    so submissions may be locally out of order by a few cycles; the
    timeline still only moves forward and total bandwidth is conserved.
    ``reorderings`` counts how often this happened (diagnostics).
    """

    __slots__ = ("name", "next_free", "busy_cycles", "n_requests",
                 "reorderings", "_last_request")

    def __init__(self, name: str) -> None:
        self.name = name
        self.next_free = 0
        #: Total cycles this resource spent busy (utilization accounting).
        self.busy_cycles = 0
        self.n_requests = 0
        #: Requests that arrived timestamped before a previous request.
        self.reorderings = 0
        self._last_request = 0

    def reserve(self, time: int, busy: int) -> int:
        """Reserve *busy* cycles starting no earlier than *time*.

        Returns the grant time. The resource is busy in
        ``[grant, grant + busy)``.
        """
        if time < 0 or busy < 0:
            raise SimulationError(
                f"{self.name}: bad reservation t={time} busy={busy}"
            )
        if time < self._last_request:
            self.reorderings += 1
        else:
            self._last_request = time
        grant = time if time >= self.next_free else self.next_free
        self.next_free = grant + busy
        self.busy_cycles += busy
        self.n_requests += 1
        return grant

    def utilization(self, elapsed: int) -> float:
        """Fraction of *elapsed* cycles the resource was busy."""
        if elapsed <= 0:
            return 0.0
        return self.busy_cycles / elapsed


class PipelinedUnit(TimelineResource):
    """A fully pipelined unit: accepts one issue per cycle.

    ``issue(t)`` grants an issue slot (1 busy cycle); the caller adds the
    result latency itself, because latency does not occupy the pipeline.
    """

    def issue(self, time: int) -> int:
        """Grant the next free issue slot at or after *time*."""
        return self.reserve(time, 1)


class NonPipelinedUnit(TimelineResource):
    """A unit occupied for the whole execution time of each operation."""

    def execute(self, time: int, cycles: int) -> int:
        """Occupy the unit for *cycles*; returns the start time."""
        return self.reserve(time, cycles)

