"""Host-side wall-clock profiling of the simulator itself.

The figure benches measure *simulated* outcomes; this module measures
the *simulator*: how many simulated cycles and engine events the host
retires per wall-clock second. Perf PRs use these numbers as the
baseline to beat (ROADMAP: every PR measurably faster).

Usage::

    prof = HostProfiler()
    with prof.phase("build"):
        chip = Chip(); kernel = Kernel(chip)
    with prof.phase("run"):
        kernel.run()
    prof.set_work("run", cycles=kernel.scheduler.now,
                  events=kernel.scheduler.steps)
    print(prof.summary())

Phases may be re-entered; wall time accumulates. The profiler never
touches simulated time — it is pure host observation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.errors import TelemetryError


@dataclass
class PhaseTiming:
    """Accumulated wall-clock and work counts for one named phase."""

    name: str
    seconds: float = 0.0
    entries: int = 0
    #: Optional work denominators attached via :meth:`HostProfiler.set_work`.
    work: dict[str, int] = field(default_factory=dict)

    def rates(self) -> dict[str, float]:
        """Work units per wall-clock second, one entry per denominator."""
        if self.seconds <= 0:
            return {}
        return {f"{unit}_per_sec": count / self.seconds
                for unit, count in self.work.items()}

    def to_dict(self) -> dict:
        out = {"seconds": self.seconds, "entries": self.entries}
        out.update(self.work)
        out.update(self.rates())
        return out


class HostProfiler:
    """Named wall-clock phase timers with throughput summaries."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._phases: dict[str, PhaseTiming] = {}
        self._open: set[str] = set()

    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Context manager timing one (re-enterable) phase."""
        if name in self._open:
            raise TelemetryError(f"phase {name!r} is already running")
        timing = self._phases.setdefault(name, PhaseTiming(name))
        self._open.add(name)
        started = self._clock()
        try:
            yield timing
        finally:
            timing.seconds += self._clock() - started
            timing.entries += 1
            self._open.discard(name)

    def record(self, name: str, seconds: float) -> None:
        """Add externally measured wall time to a phase."""
        timing = self._phases.setdefault(name, PhaseTiming(name))
        timing.seconds += seconds
        timing.entries += 1

    def set_work(self, name: str, **work: int) -> None:
        """Attach work denominators (``cycles=...``, ``events=...``).

        The summary reports each as a ``<unit>_per_sec`` rate.
        """
        timing = self._phases.get(name)
        if timing is None:
            raise TelemetryError(f"unknown phase {name!r}")
        timing.work.update(work)

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._phases

    def __getitem__(self, name: str) -> PhaseTiming:
        try:
            return self._phases[name]
        except KeyError:
            raise TelemetryError(f"unknown phase {name!r}") from None

    def summary(self) -> dict[str, dict]:
        """JSON-safe dump: phase name -> seconds, entries, work, rates."""
        return {name: timing.to_dict()
                for name, timing in self._phases.items()}


__all__ = ["HostProfiler", "PhaseTiming"]
