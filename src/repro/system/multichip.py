"""Multi-chip Cyclops systems: the cellular approach.

"Large, scalable systems can be built with a cellular approach using the
Cyclops chip as a building block. The chip is viewed as a cell that can
be replicated as many times as necessary, with the cells interconnected
in a regular pattern through communication links provided in each chip."

:class:`MultiChipSystem` instantiates one full :class:`Chip` (and one
resident kernel) per cell plus the link fabric between them, and runs a
distributed workload: per-cell thread programs that compute locally and
exchange messages over the links. Messages are memory-to-memory — the
payload is read from the sender's embedded DRAM and lands in the
receiver's, charged on every link of the route.

By default every cell simulates under one global scheduler, so
cross-chip timing is exact with respect to the link model. A system
built from a :class:`~repro.pdes.program.CellProgram` can instead run
partitioned across host processes — ``run(domains=N)`` — through the
conservative parallel-DES layer in :mod:`repro.pdes`, which validates
byte-identical against this serial path. When no program is attached
(the system was populated with live closures) or the partition is
rejected, ``run`` falls back to the serial engine and records why in
:attr:`pdes_fallback_reason`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.engine.scheduler import BLOCK
from repro.engine.events import Waiter
from repro.errors import ConfigError
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.system.links import LinkFabric
from repro.system.topology import Coord, Topology


class _Message:
    """One link message at (or on its way to) a destination mailbox."""

    __slots__ = ("arrival", "send_time", "src_index", "seq", "src", "payload")

    def __init__(self, arrival: int, send_time: int, src_index: int,
                 seq: int, src: Coord, payload: bytes) -> None:
        self.arrival = arrival
        self.send_time = send_time
        self.src_index = src_index
        self.seq = seq
        self.src = src
        self.payload = payload

    @property
    def key(self) -> tuple[int, int, int, int]:
        """The deterministic drain order (see :class:`_Mailbox`)."""
        return (self.arrival, self.send_time, self.src_index, self.seq)


class _Mailbox:
    """Per-chip arrival queue for link messages.

    Drain order is *deterministic*: among deliverable messages, a
    receive always takes the smallest ``(arrival, send time, sender
    coord index, per-channel sequence)`` — never the host-side arrival
    interleaving. This is what makes a domain-partitioned replay
    (:mod:`repro.pdes`) reproduce the serial engine's choices exactly:
    the same message wins no matter which order the transport delivered
    the candidates in.
    """

    def __init__(self) -> None:
        self.messages: list[_Message] = []
        self.waiters = Waiter()

    def post(self, message: _Message) -> None:
        self.messages.append(message)

    def select(self, now: int, from_index: int | None) -> _Message | None:
        """The deliverable message a receive at *now* must take."""
        best: _Message | None = None
        for message in self.messages:
            if from_index is not None and message.src_index != from_index:
                continue
            if message.arrival > now:
                continue
            if best is None or message.key < best.key:
                best = message
        return best

    def earliest_matching_arrival(self, from_index: int | None) -> int | None:
        """Earliest arrival among matching messages (any arrival time)."""
        times = [m.arrival for m in self.messages
                 if from_index is None or m.src_index == from_index]
        return min(times) if times else None


class MultiChipSystem:
    """A mesh/torus of Cyclops cells sharing one simulation clock."""

    def __init__(self, topology: Topology,
                 config: ChipConfig | None = None,
                 policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL,
                 routing: str = "store_and_forward") -> None:
        self.topology = topology
        self.config = config or ChipConfig.paper()
        self.chips = [Chip(self.config) for _ in range(topology.n_chips)]
        self.fabric = LinkFabric(topology, self.config, routing=routing)
        self.routing = routing
        self.policy = policy
        # One kernel per cell, all sharing the first kernel's scheduler
        # so that the whole system advances on one clock.
        self.kernels: list[Kernel] = []
        shared_scheduler = None
        for chip in self.chips:
            kernel = Kernel(chip, policy)
            if shared_scheduler is None:
                shared_scheduler = kernel.scheduler
            else:
                kernel.scheduler = shared_scheduler
            self.kernels.append(kernel)
        self.scheduler = shared_scheduler
        self._mailboxes = {
            topology.coord(i): _Mailbox() for i in range(topology.n_chips)
        }
        #: Per-(src, dst) message sequence numbers. Assigned at the
        #: *sender*, so a partitioned run numbers messages identically
        #: to the serial one (the sender's execution is the same).
        self._send_seq: dict[tuple[Coord, Coord], int] = {}
        #: Results area for program threads: JSON-safe values written by
        #: thread bodies (timings, final pointers). In a partitioned run
        #: each domain's blackboard is merged back into the parent's.
        self.blackboard: dict[str, Any] = {}
        #: The :class:`~repro.pdes.program.CellProgram` this system was
        #: built from, when it was built from one (see :meth:`build`).
        self.program = None
        #: Domain runtime hook installed by :mod:`repro.pdes` inside a
        #: domain process; ``None`` in the ordinary serial system.
        self._pdes = None
        #: Why the last ``run(domains=N)`` fell back to serial (if it did).
        self.pdes_fallback_reason: str | None = None
        #: Merged ``pdes.*`` statistics of the last parallel run.
        self.pdes_stats: dict[str, Any] | None = None

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, program, pdes_runtime=None) -> "MultiChipSystem":
        """Construct a system from a :class:`~repro.pdes.program.CellProgram`.

        The program's setup task runs immediately (allocations, initial
        data, thread spawns), exactly as it would inside each domain
        process of a partitioned run — which is what makes the serial
        parent and the parallel domains bit-compatible. When
        *pdes_runtime* is given it is installed before setup so spawns
        and host loads are filtered to the runtime's owned cells.
        """
        system = cls(program.make_topology(), program.chip_config(),
                     policy=program.allocation_policy(),
                     routing=program.routing)
        system.program = program
        if pdes_runtime is not None:
            system._pdes = pdes_runtime
            pdes_runtime.attach(system)
        program.run_setup(system)
        return system

    # ------------------------------------------------------------------
    def kernel_at(self, coord: Coord) -> Kernel:
        """The resident kernel of the cell at *coord*."""
        return self.kernels[self.topology.index(coord)]

    def chip_at(self, coord: Coord) -> Chip:
        """The chip at *coord*."""
        return self.chips[self.topology.index(coord)]

    def owns(self, coord: Coord) -> bool:
        """True when this process simulates the cell at *coord*."""
        return self._pdes is None or self._pdes.owns(coord)

    # ------------------------------------------------------------------
    # Message passing between cells
    # ------------------------------------------------------------------
    def _next_seq(self, src: Coord, dst: Coord) -> int:
        seq = self._send_seq.get((src, dst), 0)
        self._send_seq[(src, dst)] = seq + 1
        return seq

    def send(self, ctx, dst: Coord, physical: int, n_bytes: int):
        """Generator: send *n_bytes* from this cell's memory to *dst*.

        The payload is read out of the sender's embedded DRAM (bulk, via
        the communication interface — the thread only pays the send
        setup), routed over the fabric, and enqueued at the destination
        mailbox with its arrival time.
        """
        src = self._coord_of_ctx(ctx)
        start = yield ctx.tu.issue_time
        ctx.tu.issue_at(start)
        ctx.tu.retire(1)  # the send instruction
        if self._pdes is not None:
            # Every link the route reserves must be this domain's: a
            # foreign link's local replica carries none of its owner's
            # traffic, so its timing would be wrong. Raising here aborts
            # the parallel attempt and the run falls back to serial.
            self._pdes.check_route(src, dst)
        payload = self.chip_at(src).memory.backing.read_block(
            physical, n_bytes)
        arrival = self.fabric.send(start, src, dst, n_bytes)
        message = _Message(arrival, start, self.topology.index(src),
                           self._next_seq(src, dst), src, payload)
        if self._pdes is not None and not self._pdes.owns(dst):
            # Cross-domain: the destination mailbox lives in another
            # process. The route's links were just checked to be ours;
            # the runtime ships the message and the owning domain
            # applies it once its safe horizon passes `arrival`.
            self._pdes.export_message(dst, message)
            return arrival
        self.deliver(dst, message)
        return arrival

    def deliver(self, dst: Coord, message: _Message) -> None:
        """Land *message* in the mailbox at *dst* and wake its waiters.

        In the serial system this happens inline at send time; in a
        partitioned run the owning domain calls it when its safe horizon
        passes the message's arrival, which is why waiters wake at
        ``max(arrival, now)`` in both cases — the arrival is always in
        the local future of the send (link latency > 0).
        """
        mailbox = self._mailboxes[dst]
        mailbox.post(message)
        for waiting in mailbox.waiters.wake_all():
            self.scheduler.wake(waiting.process,
                                max(message.arrival, self.scheduler.now))

    def receive(self, ctx, physical: int, from_coord: Coord | None = None):
        """Generator: block until a message arrives; returns (src, size).

        The payload is written into this cell's memory at *physical*.
        With *from_coord* only messages from that cell match (needed when
        exchanges with several neighbours are in flight at once).
        """
        coord = self._coord_of_ctx(ctx)
        mailbox = self._mailboxes[coord]
        from_index = None if from_coord is None \
            else self.topology.index(from_coord)
        # A receive filtered to a sender this domain owns can never
        # match a cross-domain message: its whole life is in-domain and
        # it needs no synchronization. Only *exposed* polls — unfiltered
        # or filtered to a foreign cell — must respect the safe horizon.
        exposed = self._pdes is not None and (
            from_coord is None or not self._pdes.owns(from_coord))
        while True:
            now = yield ctx.tu.issue_time
            if exposed and now >= self._pdes.safe:
                # A mailbox poll is the only event kind that can observe
                # cross-domain state, so it alone must wait for the safe
                # horizon: unknown messages could still arrive at or
                # before `now`. Gating stops the domain window right
                # here (nothing later runs), and the domain loop wakes
                # us at this same cycle once the mailbox is provably
                # complete up to it.
                self._pdes.gate(ctx, now)
                woke = yield BLOCK
                ctx.tu.issue_at(woke)
                continue
            message = mailbox.select(now, from_index)
            if message is not None:
                mailbox.messages.remove(message)
                self.chip_at(coord).memory.backing.write_block(
                    physical, message.payload)
                ctx.tu.issue_at(max(now, message.arrival))
                ctx.tu.retire(1)
                return message.src, len(message.payload)
            in_flight = mailbox.earliest_matching_arrival(from_index)
            if in_flight is not None:
                # The matching message is in flight: wait for it to land.
                ctx.tu.issue_at(in_flight)
                continue
            mailbox.waiters.park(ctx)
            if exposed:
                # An exposed parked waiter is woken at a message's
                # arrival time, so while any exist the domain window
                # must clamp to the safe horizon (an unknown arrival
                # could be the earliest wake).
                self._pdes.note_parked()
            woke = yield BLOCK
            if exposed:
                self._pdes.waiter_resumed()
            ctx.tu.issue_at(woke)

    def _coord_of_ctx(self, ctx) -> Coord:
        for i, kernel in enumerate(self.kernels):
            if ctx.kernel is kernel:
                return self.topology.coord(i)
        raise ConfigError("context does not belong to any cell")

    # ------------------------------------------------------------------
    def spawn_on(self, coord: Coord, body: Callable, *args,
                 name: str = ""):
        """Spawn a software thread on the cell at *coord*.

        Inside a domain process, spawns on cells owned by *other*
        domains return ``None`` without creating a thread: the setup
        task runs identically everywhere, but each cell executes in
        exactly one process.
        """
        if not self.owns(coord):
            return None
        return self.kernel_at(coord).spawn(body, *args, name=name)

    # ------------------------------------------------------------------
    def run(self, until: int | None = None,
            domains: int | None = None) -> int:
        """Run the whole system to quiescence.

        ``domains=N`` opts in to conservative parallel simulation with
        N host processes; it requires the system to have been built
        from a :class:`~repro.pdes.program.CellProgram` (see
        :meth:`build`) and falls back to the serial engine — recording
        the reason — when N <= 1, the partition is rejected, or the
        parallel run degrades.
        """
        if domains is not None and domains > 1:
            if until is not None:
                self.pdes_fallback_reason = \
                    "bounded runs (until=...) are serial-only"
            elif self.program is None:
                self.pdes_fallback_reason = (
                    "system carries live closures, not a CellProgram; "
                    "build it with MultiChipSystem.build() to partition"
                )
            else:
                from repro.pdes import run_system_parallel

                final = run_system_parallel(self, domains)
                if final is not None:
                    return final
                # run_system_parallel set pdes_fallback_reason and left
                # the system untouched: finish the job serially.
        return self.scheduler.run(until)
