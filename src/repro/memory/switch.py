"""The two on-chip switches of Figure 2.

The **cache switch** connects every thread unit to every data cache; local
accesses bypass it (path *a* in the figure), remote ones traverse it twice
(paths *d*-*e*). The **memory switch** connects the caches to the banks
(paths *b*-*g*, *f*-*c*), making bank latency uniform.

Table 2's end-to-end latencies already include switch traversal, so the
switches primarily contribute *bandwidth* constraints here: each switch
output port is a busy timeline moving ``port_bytes_per_cycle``. The cache
switch's output ports are the caches' access ports — the 8 B/cycle that
caps chip cache bandwidth at 128 GB/s — and the memory switch's output
ports are the banks themselves (modeled in :mod:`repro.memory.bank`), so
:class:`CrossbarSwitch` instances own the cache-side ports and expose
latency constants derived from Table 2.
"""

from __future__ import annotations

from repro.config import DOUBLE_BYTES, ChipConfig


class SwitchPort:
    """One output port of a crossbar: a busy timeline, one beat per cycle.

    Ports are reserved only at scheduler grant times, which never
    decrease, so a port keeps no request order test (a
    :class:`~repro.engine.resources.TimelineResource`'s
    ``reorderings``). It counts each transfer once. A cache hit by a
    single-beat access, the dominant event, increments exactly one of
    four counters, chosen by load or store and by whether the
    requester's quad owns the cache (``local_loads``, ``local_stores``,
    ``remote_loads``, ``remote_stores``); every other transfer (misses,
    multi-beat hits, flushes, invalidates, scratchpad) counts in
    ``other_requests``. ``n_requests`` and ``busy_cycles`` are derived:
    one cycle per transfer plus the extra beats of the multi-beat ones
    (``extra_beats``).
    """

    __slots__ = ("name", "next_free", "local_loads", "local_stores",
                 "remote_loads", "remote_stores", "other_requests",
                 "extra_beats")

    def __init__(self, name: str) -> None:
        self.name = name
        self.next_free = 0
        self.local_loads = self.local_stores = 0
        self.remote_loads = self.remote_stores = 0
        self.other_requests = 0
        self.extra_beats = 0

    @property
    def n_requests(self) -> int:
        """Transfers through this port."""
        return (self.local_loads + self.local_stores + self.remote_loads
                + self.remote_stores + self.other_requests)

    @property
    def busy_cycles(self) -> int:
        """Total cycles this port spent busy."""
        return self.n_requests + self.extra_beats

    def utilization(self, elapsed: int) -> float:
        """Fraction of *elapsed* cycles the port was busy."""
        if elapsed <= 0:
            return 0.0
        return self.busy_cycles / elapsed


class CrossbarSwitch:
    """A crossbar with one busy timeline per output port."""

    def __init__(self, name: str, n_ports: int, bytes_per_cycle: int) -> None:
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.ports = [SwitchPort(f"{name}.port{i}") for i in range(n_ports)]
        #: Bytes moved beyond one double per transfer (negative for a
        #: narrower one): ``bytes_moved`` is a double per transfer plus
        #: these, so a double's transfer adds nothing here.
        self.extra_bytes = 0
        #: Cycles transfers waited for a busy output port.
        self.contention_cycles = 0

    def transfer(self, port: int, time: int, n_bytes: int) -> int:
        """Occupy *port* long enough to move *n_bytes*; returns grant time."""
        timeline = self.ports[port]
        grant = timeline.next_free
        if time >= grant:
            grant = time
        else:
            self.contention_cycles += grant - time
        if n_bytes <= self.bytes_per_cycle:  # single-word fast path
            timeline.next_free = grant + 1
        else:
            cycles = -(-n_bytes // self.bytes_per_cycle)  # ceil division
            timeline.next_free = grant + cycles
            timeline.extra_beats += cycles - 1
        timeline.other_requests += 1
        self.extra_bytes += n_bytes - DOUBLE_BYTES
        return grant

    @property
    def transfers(self) -> int:
        """Transfers through the switch: each reserves one output port
        once, so this is the ports' request count."""
        return sum(port.n_requests for port in self.ports)

    @property
    def bytes_moved(self) -> int:
        """Bytes through the switch."""
        return DOUBLE_BYTES * self.transfers + self.extra_bytes

    def utilization(self, port: int, elapsed: int) -> float:
        """Busy fraction of one output port."""
        return self.ports[port].utilization(elapsed)


def build_cache_switch(config: ChipConfig) -> CrossbarSwitch:
    """The A/B cache switch: one 8 B/cycle port per data cache."""
    return CrossbarSwitch(
        "cache-switch", config.n_dcaches, config.dcache_port_bytes_per_cycle
    )
