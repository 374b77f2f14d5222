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

from repro.config import ChipConfig
from repro.engine.resources import TimelineResource


class CrossbarSwitch:
    """A crossbar with one busy timeline per output port."""

    def __init__(self, name: str, n_ports: int, bytes_per_cycle: int) -> None:
        self.name = name
        self.bytes_per_cycle = bytes_per_cycle
        self.ports = [
            TimelineResource(f"{name}.port{i}") for i in range(n_ports)
        ]
        # Bound reserve methods, indexed by port — one lookup on the
        # transfer fast path (ports are never replaced, only reset).
        self._reserve = [port.reserve for port in self.ports]
        self.bytes_moved = 0
        #: Cycles transfers waited for a busy output port.
        self.contention_cycles = 0

    def transfer(self, port: int, time: int, n_bytes: int) -> int:
        """Occupy *port* long enough to move *n_bytes*; returns grant time."""
        if n_bytes <= self.bytes_per_cycle:  # single-word fast path
            cycles = 1
        else:
            cycles = -(-n_bytes // self.bytes_per_cycle)  # ceil division
        grant = self._reserve[port](time, cycles)
        self.bytes_moved += n_bytes
        if grant != time:
            self.contention_cycles += grant - time
        return grant

    @property
    def transfers(self) -> int:
        """Transfers through the switch: each reserves one output port
        once, so this is the ports' request count."""
        return sum(port.n_requests for port in self.ports)

    def utilization(self, port: int, elapsed: int) -> float:
        """Busy fraction of one output port."""
        return self.ports[port].utilization(elapsed)


def build_cache_switch(config: ChipConfig) -> CrossbarSwitch:
    """The A/B cache switch: one 8 B/cycle port per data cache."""
    return CrossbarSwitch(
        "cache-switch", config.n_dcaches, config.dcache_port_bytes_per_cycle
    )
