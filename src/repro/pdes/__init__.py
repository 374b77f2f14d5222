"""repro.pdes — conservative parallel discrete-event simulation.

The serial engine runs an entire :class:`MultiChipSystem` — every cell,
every thread unit — under one scheduler on one host core. This package
partitions that simulation at its natural decoupling points into
*domains*, each running the unmodified serial engine in its own host
process, synchronized conservatively (null messages + lookahead from
the Table 2 link model) so that the parallel run is **cycle-exact**:
byte-identical memory images, identical per-thread counters, identical
final time. See ``docs/parallel-sim.md``.

The partitioning axis is the chip: :func:`run_system_parallel`, reached
through ``MultiChipSystem.run(domains=N)`` or ``CYCLOPS_PDES=N``. Chips
only interact through the link fabric, whose minimum hop latency
provides the lookahead.

The entry point returns ``None`` — after recording
``system.pdes_fallback_reason`` — whenever the parallel path cannot or
should not run; the caller then falls back to the serial engine, whose
result is identical by construction.
"""

from __future__ import annotations

import os
from typing import Any

from repro.errors import (ConfigError, DeadlockError, PdesCrashError,
                          PdesError)
from repro.pdes.coordinator import Coordinator
from repro.pdes.partition import PartitionMap
from repro.pdes.program import CellProgram

__all__ = [
    "CellProgram",
    "Coordinator",
    "PartitionMap",
    "PdesCrashError",
    "PdesError",
    "run_system_parallel",
]

#: Wall-clock cap (seconds) on one parallel attempt before it is killed
#: and the run degrades; protocol bugs must never hang a caller.
TIMEOUT_ENV = "CYCLOPS_PDES_TIMEOUT"
DEFAULT_TIMEOUT = 600.0


def run_system_parallel(system, domains: int) -> int | None:
    """Run *system* partitioned into *domains* processes.

    Returns the final simulated time with the parent system updated in
    place (memory images, counters, link traffic, blackboard) so that
    downstream verification code sees exactly what a serial run would
    have left behind. Returns ``None`` — with
    ``system.pdes_fallback_reason`` set and the parent system untouched
    — when the partition is rejected or the parallel run degrades; a
    single crash is retried once first, since the protocol is
    deterministic. A malformed :data:`TIMEOUT_ENV` raises
    :class:`~repro.errors.ConfigError`.
    """
    raw_timeout = os.environ.get(TIMEOUT_ENV, DEFAULT_TIMEOUT)
    try:
        timeout = float(raw_timeout)
    except ValueError:
        raise ConfigError(
            f"{TIMEOUT_ENV}={raw_timeout!r} is not a number of seconds")
    system.pdes_fallback_reason = None
    system.pdes_stats = None
    try:
        partition = PartitionMap(system.topology, domains,
                                 system.fabric.min_hop_latency_cycles())
    except PdesError as error:
        system.pdes_fallback_reason = str(error)
        return None
    crashes: list[str] = []
    results = None
    for _attempt in range(2):
        coordinator = Coordinator(system.program, partition,
                                  timeout=timeout)
        try:
            results = coordinator.run()
            break
        except PdesCrashError as error:
            crashes.append(str(error))
        except PdesError as error:
            system.pdes_fallback_reason = str(error)
            return None
    if results is None:
        system.pdes_fallback_reason = (
            f"parallel run degraded to serial after {len(crashes)} "
            f"failed attempt(s): {crashes[-1]}"
        )
        return None
    return _merge(system, partition, results, retries=len(crashes))


def _merge(system, partition: PartitionMap,
           results: dict[int, dict], retries: int) -> int:
    """Fold every domain's slab state back into the parent system."""
    final = 0
    parked: list[str] = []
    stats: dict[str, Any] = {
        "domains": partition.n_domains,
        "lookahead": partition.lookahead,
        "retries": retries,
        "null_messages": 0,
        "null_requests": 0,
        "windows": 0,
        "messages": 0,
        "blocked_seconds": 0.0,
        #: Longest per-domain CPU time: the wall-clock lower bound on a
        #: host with at least one core per domain (see bench_pdes).
        "critical_path_seconds": 0.0,
        "per_domain": {},
    }
    for domain, result in sorted(results.items()):
        final = max(final, result["final_time"])
        parked.extend(result["parked"])
        for index_str, cdata in result["chips"].items():
            chip = system.chips[int(index_str)]
            chip.memory.backing.write_block(0, cdata["memory"])
            for tid_str, fields in cdata["counters"].items():
                counters = chip.threads[int(tid_str)].counters
                for name, value in fields.items():
                    setattr(counters, name, value)
            for tid_str, issue_time in cdata["issue_times"].items():
                chip.threads[int(tid_str)].issue_time = issue_time
        for key, bytes_sent in result["links"].items():
            coord_text, direction = key.split("|")
            coord = tuple(int(v) for v in coord_text.split(","))
            system.fabric._links[(coord, direction)].bytes_sent = bytes_sent
        system.blackboard.update(result["blackboard"])
        dstats = result["stats"]
        stats["null_messages"] += dstats["null_messages"]
        stats["null_requests"] += dstats["null_requests"]
        stats["windows"] += dstats["windows"]
        stats["messages"] += dstats["messages_received"]
        stats["blocked_seconds"] += dstats["blocked_seconds"]
        stats["critical_path_seconds"] = max(
            stats["critical_path_seconds"], dstats["cpu_seconds"])
        stats["per_domain"][domain] = dict(dstats,
                                           steps=result["steps"])
    system.pdes_stats = stats
    system.scheduler.now = final
    if parked:
        # Every domain proved quiescent with these processes still
        # parked: nothing will ever wake them. The serial engine raises
        # in this exact situation, so the parallel path must too.
        names = sorted(parked)
        shown = ", ".join(names[:8])
        if len(names) > 8:
            shown += f", ... (+{len(names) - 8} more)"
        raise DeadlockError(
            f"{len(names)} process(es) blocked with no runnable "
            f"work at t={final}: {shown}"
        )
    return final
