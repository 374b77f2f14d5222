"""Shared workload plumbing: partitioning, timed sections, verification."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError


def block_ranges(n: int, n_threads: int, align: int = 1) -> list[range]:
    """Split ``range(n)`` into *n_threads* balanced contiguous blocks.

    Block sizes differ by at most one *align*-unit (leftover units go to
    the earliest threads; sub-unit remainder elements go to the last
    block). With ``align > 1`` every block boundary except possibly the
    last falls on a multiple of *align* — the paper aligns STREAM blocks
    to cache-line boundaries (8 doubles) to avoid false sharing.
    """
    if n_threads <= 0:
        raise WorkloadError("need at least one thread")
    if align <= 0:
        raise WorkloadError("alignment must be positive")
    units = n // align
    tail = n % align
    per, extra = divmod(units, n_threads)
    sizes = [(per + (1 if t < extra else 0)) * align
             for t in range(n_threads)]
    sizes[-1] += tail
    ranges = []
    start = 0
    for size in sizes:
        ranges.append(range(start, start + size))
        start += size
    return ranges


def cyclic_group_indices(n: int, n_threads: int,
                         group_size: int = 8) -> list[range]:
    """The paper's cyclic partitioning: groups of 8 threads, one region each.

    "In the cyclic mode threads were combined in groups of eight, and each
    group started execution from a different region of the iteration
    space" — the 8 threads of a group interleave element-by-element within
    their region, so all 8 share each cache line (8 doubles).
    """
    if n_threads <= 0:
        raise WorkloadError("need at least one thread")
    group_size = min(group_size, n_threads)
    n_groups = (n_threads + group_size - 1) // group_size
    regions = block_ranges(n, n_groups, align=group_size)
    indices: list[range] = []
    for t in range(n_threads):
        group, lane = divmod(t, group_size)
        region = regions[group]
        # A ragged last group strides by however many lanes it really has,
        # so coverage of its region stays complete.
        lanes = min(group_size, n_threads - group * group_size)
        indices.append(range(region.start + lane, region.stop, lanes))
    return indices


@dataclass
class TimedSection:
    """Per-thread timestamps around the measured loop."""

    start: dict[int, int]
    finish: dict[int, int]

    @classmethod
    def empty(cls) -> "TimedSection":
        return cls({}, {})

    def record_start(self, index: int, time: int) -> None:
        self.start[index] = time

    def record_finish(self, index: int, time: int) -> None:
        self.finish[index] = time

    @property
    def elapsed(self) -> int:
        """Cycles from the earliest start to the latest finish."""
        if not self.start or not self.finish:
            return 0
        return max(self.finish.values()) - min(self.start.values())

    def thread_elapsed(self, index: int) -> int:
        """One thread's own measured cycles."""
        return self.finish[index] - self.start[index]
