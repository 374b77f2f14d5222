"""Conservative event-driven simulation engine at cycle resolution.

The engine runs *processes* (Python generators) ordered by their local
simulated time from a min-heap. A process may advance its local clock
freely while it only touches private state; before it touches any shared
resource or shared simulation state it yields, which reinserts it into the
heap — so shared-state operations always execute in nondecreasing global
time order. Shared hardware (cache ports, memory banks, FPU issue slots)
is modeled by busy timelines (:mod:`repro.engine.resources`):
first-come-first-served in simulated time, with same-cycle ties served
in arrival order. That is starvation-free and aggregate-equivalent to
the paper's round-robin winner selection.
"""

from repro.engine.events import EventQueue, Waiter
from repro.engine.resources import (
    NonPipelinedUnit,
    PipelinedUnit,
    TimelineResource,
)
from repro.engine.scheduler import BLOCK, Process, Scheduler

__all__ = [
    "BLOCK",
    "EventQueue",
    "NonPipelinedUnit",
    "PipelinedUnit",
    "Process",
    "Scheduler",
    "TimelineResource",
    "Waiter",
]
