"""Trace-driven memory exploration.

A light harness for studying the memory hierarchy in isolation: replay
a sequence of accesses through a fresh :class:`MemorySubsystem` and get
the hit/miss/latency/traffic profile back. The interest-group rewriting
helpers make placement studies one-liners — the question Table 1 poses
("where should this data live?") answered empirically for any access
pattern, without writing a workload.

    trace = strided_trace(base=0, stride=8, count=4096, quad=0)
    for level in (Level.OWN, Level.ONE, Level.ALL):
        profile = replay(retarget(trace, InterestGroup(level, 0)))
        print(level.name, profile.mean_load_latency)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ChipConfig
from repro.errors import WorkloadError
from repro.memory.address import make_effective, split_effective
from repro.memory.interest_groups import InterestGroup
from repro.memory.subsystem import AccessKind, MemorySubsystem


@dataclass(frozen=True)
class TraceAccess:
    """One access: who, where, and read or write."""

    quad: int
    effective: int
    is_store: bool = False


@dataclass
class TraceProfile:
    """Aggregate outcome of a replayed trace."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    local: int = 0
    remote: int = 0
    total_latency: int = 0
    finish_time: int = 0
    memory_traffic_bytes: int = 0
    kind_counts: dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def mean_load_latency(self) -> float:
        """Average issue-to-complete cycles over all accesses."""
        return self.total_latency / self.accesses if self.accesses else 0.0


def replay(trace: list[TraceAccess],
           config: ChipConfig | None = None,
           memory: MemorySubsystem | None = None,
           issue_interval: int = 1) -> TraceProfile:
    """Run *trace* through a memory subsystem, one access per interval.

    Accesses issue back to back (*issue_interval* cycles apart) — a
    bandwidth probe rather than a dependence chain; raise the interval
    to emulate a compute-bound requester.
    """
    if issue_interval < 1:
        raise WorkloadError("issue interval must be >= 1")
    memory = memory or MemorySubsystem(config or ChipConfig.paper())
    profile = TraceProfile()
    time = 0
    for access in trace:
        _, complete, kind, _ = memory.access(
            time, access.quad, access.effective, 8, access.is_store)
        profile.accesses += 1
        if kind in (AccessKind.LOCAL_HIT, AccessKind.REMOTE_HIT):
            profile.hits += 1
        else:
            profile.misses += 1
        if kind in (AccessKind.LOCAL_HIT, AccessKind.LOCAL_MISS):
            profile.local += 1
        elif kind in (AccessKind.REMOTE_HIT, AccessKind.REMOTE_MISS):
            profile.remote += 1
        profile.total_latency += complete - time
        profile.finish_time = max(profile.finish_time, complete)
        time += issue_interval
    profile.memory_traffic_bytes = memory.memory_traffic_bytes
    profile.kind_counts = {
        kind.value: count
        for kind, count in memory.kind_counts.items() if count
    }
    return profile


# ---------------------------------------------------------------------------
# Trace constructors and rewriters
# ---------------------------------------------------------------------------
def strided_trace(base: int, stride: int, count: int, quad: int = 0,
                  ig_byte: int = 0, is_store: bool = False
                  ) -> list[TraceAccess]:
    """A strided sweep: the STREAM/array pattern."""
    return [
        TraceAccess(quad, make_effective(base + i * stride, ig_byte),
                    is_store)
        for i in range(count)
    ]


def pointer_chase_trace(addresses: list[int], quad: int = 0,
                        ig_byte: int = 0) -> list[TraceAccess]:
    """Dependent-looking chain over explicit addresses (linked lists)."""
    return [
        TraceAccess(quad, make_effective(addr, ig_byte))
        for addr in addresses
    ]


def retarget(trace: list[TraceAccess],
             group: InterestGroup) -> list[TraceAccess]:
    """The same physical accesses under a different interest group."""
    byte = group.encode()
    out = []
    for access in trace:
        _, physical = split_effective(access.effective)
        out.append(TraceAccess(access.quad,
                               make_effective(physical, byte),
                               access.is_store))
    return out
