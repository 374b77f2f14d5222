"""The resident system kernel.

Boot-time layout (no paging, no virtualization — Section 3.1):

* the top of embedded memory holds one fixed-size stack per hardware
  thread ("preallocated ... selected at boot time");
* everything below is the application heap, handed out by a bump
  allocator;
* the last ``reserved_threads`` hardware threads belong to the kernel
  ("two of them are reserved for the system"), leaving 126 for
  applications at the paper's design point.

Software threads map 1:1 onto hardware threads, chosen by the allocation
policy the STREAM experiments compare (Section 3.2.2):

* **sequential** — "threads 0 through 3 are allocated in quad 0, threads
  4 through 7 are allocated in quad 1 and so on";
* **balanced** — "threads are allocated cyclically on the quads: threads
  0, 32, 64, and 96 in quad 0, threads 1, 33, 65, and 97 in quad 1, and
  so on".
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from repro.core.chip import Chip
from repro.engine.events import Waiter
from repro.engine.scheduler import BLOCK, Process, Scheduler
from repro.errors import KernelError
from repro.runtime.barrier_hw import HardwareBarrier
from repro.runtime.barrier_sw import TreeBarrier
from repro.runtime.context import ThreadCtx
from repro.runtime.heap import BumpHeap


class AllocationPolicy(Enum):
    """How software threads map onto hardware thread units."""

    SEQUENTIAL = "sequential"
    BALANCED = "balanced"


class SoftwareThread:
    """One spawned application thread: body, hardware binding, result."""

    def __init__(self, index: int, hw_tid: int, ctx: ThreadCtx,
                 process: Process, name: str) -> None:
        self.index = index
        self.hw_tid = hw_tid
        self.ctx = ctx
        self.process = process
        self.name = name
        self.result = None
        self.finish_time: int | None = None

    @property
    def done(self) -> bool:
        """True once the thread body has returned."""
        return self.process.done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SoftwareThread {self.name} hw={self.hw_tid}>"


class Kernel:
    """Boots a chip and runs a single multithreaded application on it."""

    def __init__(self, chip: Chip,
                 policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL) -> None:
        self.chip = chip
        self.config = chip.config
        self.policy = policy
        self.scheduler = Scheduler()
        if chip.telemetry is not None:
            chip.telemetry.attach_kernel(self)
        stack_area = self.config.stack_bytes * self.config.n_threads
        usable_memory = chip.memory.address_map.max_memory
        if stack_area >= usable_memory:
            raise KernelError("stacks do not fit in populated memory")
        #: Application heap: everything below the stack area.
        self.heap = BumpHeap(0, usable_memory - stack_area,
                             default_align=self.config.dcache_line_bytes)
        self._threads: list[SoftwareThread] = []
        self._hw_order = self._hardware_order()
        self._next_slot = 0
        self._joiners: dict[int, Waiter] = {}

    # ------------------------------------------------------------------
    # Hardware thread selection
    # ------------------------------------------------------------------
    def _hardware_order(self) -> list[int]:
        """Usable hardware tids in policy order, skipping failed units."""
        usable = [
            tid for tid in self.chip.enabled_threads
            if tid < self.config.n_threads - self.config.reserved_threads
        ]
        if self.policy is AllocationPolicy.SEQUENTIAL:
            return usable
        per_quad = self.config.threads_per_quad
        # Balanced: lane-major — one thread per quad before doubling up.
        return sorted(usable, key=lambda tid: (tid % per_quad, tid // per_quad))

    @property
    def max_software_threads(self) -> int:
        """How many application threads this kernel can run (126 on paper)."""
        return len(self._hw_order)

    def hw_tid_for_slot(self, index: int) -> int:
        """The hardware thread the *index*-th spawned thread will get."""
        if not 0 <= index < len(self._hw_order):
            raise KernelError(f"software thread slot {index} out of range")
        return self._hw_order[index]

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def spawn(self, body: Callable, *args, name: str = "") -> SoftwareThread:
        """Start a software thread running ``body(ctx, *args)``.

        *body* must be a generator function over a :class:`ThreadCtx`.
        Thread creation is cheap (the paper's fixed-stack design); the
        body begins at the current simulation time.
        """
        if self._next_slot >= len(self._hw_order):
            raise KernelError(
                f"out of hardware threads ({self.max_software_threads} usable)"
            )
        index = self._next_slot
        hw_tid = self._hw_order[index]
        self._next_slot += 1
        tu = self.chip.thread(hw_tid)
        ctx = ThreadCtx(self, tu)
        ctx.software_index = index
        thread_name = name or f"t{index}"
        tu.issue_time = max(tu.issue_time, self.scheduler.now)
        tu.counters.start_time = tu.issue_time
        process = self.scheduler.spawn(
            self._trampoline(body, ctx, args), start_time=tu.issue_time,
            name=thread_name,
        )
        ctx.process = process
        thread = SoftwareThread(index, hw_tid, ctx, process, thread_name)
        self._threads.append(thread)
        process.on_exit(lambda t, th=thread: self._on_exit(th, t))
        return thread

    def _trampoline(self, body: Callable, ctx: ThreadCtx, args: tuple):
        """Wrap the body so its return value is captured."""
        result = yield from body(ctx, *args)
        ctx.tu.counters.finish_time = ctx.tu.issue_time
        thread = self._threads[ctx.software_index]
        thread.result = result
        # Sync the process clock to the thread's final issue time so exit
        # callbacks (joins) observe when the thread *architecturally*
        # finished, not merely when it last touched shared state.
        yield ctx.tu.issue_time

    def _on_exit(self, thread: SoftwareThread, finish_time: int) -> None:
        thread.finish_time = finish_time
        waiter = self._joiners.pop(thread.index, None)
        if waiter is not None:
            for joining_ctx in waiter.wake_all():
                self.scheduler.wake(joining_ctx.process, finish_time)

    def join(self, thread: SoftwareThread, ctx: ThreadCtx):
        """Generator: block *ctx* until *thread* finishes (worker-side join)."""
        if thread.done:
            return thread.result
        waiter = self._joiners.setdefault(thread.index, Waiter())
        waiter.park(ctx)
        finish = yield BLOCK
        ctx.tu.issue_at(finish)
        return thread.result

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def hardware_barrier(self, barrier_id: int,
                         n_participants: int) -> HardwareBarrier:
        """Create (and pre-register nothing for) a wired-OR barrier."""
        return HardwareBarrier(self, barrier_id, n_participants)

    def tree_barrier(self, n_participants: int, ig_byte=None) -> TreeBarrier:
        """Create a software combining-tree barrier in application memory."""
        if ig_byte is None:
            return TreeBarrier(self, n_participants)
        return TreeBarrier(self, n_participants, ig_byte)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> int:
        """Run the simulation to quiescence; returns the final cycle."""
        final = self.scheduler.run(until)
        return final

    @property
    def threads(self) -> list[SoftwareThread]:
        """All spawned software threads, in spawn order."""
        return list(self._threads)

    def elapsed_cycles(self) -> int:
        """Cycles from the earliest thread start to the latest finish."""
        if not self._threads:
            return 0
        starts = [t.ctx.tu.counters.start_time for t in self._threads]
        ends = [t.finish_time or t.ctx.tu.issue_time for t in self._threads]
        return max(ends) - min(starts)

    def seconds(self, cycles: int) -> float:
        """Convert cycles to seconds at the chip clock."""
        return cycles / self.config.clock_hz
