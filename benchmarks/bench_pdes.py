"""Bench: conservative parallel-DES speedup vs domain count.

Runs the mesh halo-exchange workload (the canonical cellular
communication pattern) on a 2x2 and a 4x4 multichip mesh, serially and
partitioned into 2 and 4 :mod:`repro.pdes` domains, and writes
``results/BENCH_pdes.json``. Every parallel run is checked cycle-exact
against its serial twin before any timing is reported — a fast wrong
simulator is worthless.

Two speedup figures per point:

* ``speedup_wall`` — plain wall-clock ratio. Honest only when the host
  has at least one core per domain; with fewer, the domain processes
  timeshare and the ratio measures the host, not the partition.
* ``speedup_critical`` — serial CPU time over the slowest domain's CPU
  time (its critical path). This is the wall-clock an adequately
  provisioned host would see, and is meaningful at any core count.

``--check-regression`` requires whichever of the two the recording host
can support (wall when ``host_cores >= domains``, critical path
otherwise) to be >= 1.5x at 4 domains on the 4x4 mesh, plus exactness
everywhere. See docs/parallel-sim.md.

Run directly::

    PYTHONPATH=src python benchmarks/bench_pdes.py             # full
    PYTHONPATH=src python benchmarks/bench_pdes.py --quick     # CI sizes
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from dataclasses import replace

from repro.config import ChipConfig
from repro.system.halo import HaloParams, run_halo

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
PDES_PATH = RESULTS_DIR / "BENCH_pdes.json"

#: The regression floor --check-regression enforces at 4 domains on the
#: 4x4 mesh (the ISSUE acceptance criterion).
SPEEDUP_FLOOR = 1.5

#: Mesh points: (label, n_chips, mesh_ny, domain counts).
MESHES = [
    ("2x2", 4, 2, [2]),
    ("4x4", 16, 4, [2, 4]),
]


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _params(n_chips: int, mesh_ny: int, quick: bool) -> HaloParams:
    return HaloParams(
        n_chips=n_chips,
        band_elements=1024 if quick else 2048,
        iterations=6 if quick else 12,
        threads_per_chip=4,
        mesh_ny=mesh_ny,
    )


def _config() -> ChipConfig:
    # Small chips keep the focus on scheduling throughput, and modest
    # banks keep the per-domain memory images (shipped back at merge
    # time) cheap to serialize.
    return replace(ChipConfig.small(), bank_bytes=64 * 1024)


def run_bench(quick: bool) -> dict:
    cores = _host_cores()
    config = _config()
    meshes = []
    for label, n_chips, mesh_ny, domain_counts in MESHES:
        params = _params(n_chips, mesh_ny, quick)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        serial = run_halo(params, config)
        serial_cpu = time.process_time() - cpu0
        serial_wall = time.perf_counter() - wall0
        runs = []
        for domains in domain_counts:
            wall0 = time.perf_counter()
            parallel = run_halo(params, config, domains=domains)
            wall = time.perf_counter() - wall0
            stats = parallel.system.pdes_stats or {}
            exact = (parallel.system.pdes_fallback_reason is None
                     and parallel.cycles == serial.cycles
                     and parallel.verified)
            critical = stats.get("critical_path_seconds", 0.0) or wall
            speedup_wall = serial_wall / max(wall, 1e-9)
            speedup_critical = serial_cpu / max(critical, 1e-9)
            runs.append({
                "domains": domains,
                "exact": exact,
                "fallback_reason": parallel.system.pdes_fallback_reason,
                "wall_seconds": round(wall, 3),
                "critical_path_seconds": round(critical, 3),
                "speedup_wall": round(speedup_wall, 3),
                "speedup_critical": round(speedup_critical, 3),
                "null_messages": stats.get("null_messages"),
                "blocked_seconds": round(
                    stats.get("blocked_seconds", 0.0), 3),
                "messages": stats.get("messages"),
            })
        meshes.append({
            "mesh": label,
            "n_chips": n_chips,
            "cycles": serial.cycles,
            "serial_wall_seconds": round(serial_wall, 3),
            "serial_cpu_seconds": round(serial_cpu, 3),
            "runs": runs,
        })
    return {
        "workload": "halo-exchange",
        "quick": quick,
        "host_cores": cores,
        "params": {
            "band_elements": _params(4, 2, quick).band_elements,
            "iterations": _params(4, 2, quick).iterations,
            "threads_per_chip": 4,
        },
        "meshes": meshes,
    }


def check_regression(payload: dict) -> list[str]:
    """The invariants CI enforces; returns human-readable violations."""
    problems = []
    for mesh in payload["meshes"]:
        for run in mesh["runs"]:
            if not run["exact"]:
                problems.append(
                    f"{mesh['mesh']} at {run['domains']} domains is not "
                    f"cycle-exact (fallback: {run['fallback_reason']})")
    target = next(
        (run for mesh in payload["meshes"] if mesh["mesh"] == "4x4"
         for run in mesh["runs"] if run["domains"] == 4), None)
    if target is None:
        problems.append("no 4-domain run on the 4x4 mesh")
    else:
        kind = ("wall" if payload["host_cores"] >= target["domains"]
                else "critical")
        speedup = target[f"speedup_{kind}"]
        if speedup < SPEEDUP_FLOOR:
            problems.append(
                f"4x4 at 4 domains: {kind} speedup {speedup}x below the "
                f"{SPEEDUP_FLOOR}x floor")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes (CI smoke)")
    parser.add_argument("--check-regression", action="store_true",
                        help="fail unless exact everywhere and the 4x4 "
                             f"4-domain speedup is >= {SPEEDUP_FLOOR}x")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help=f"artifact path (default {PDES_PATH})")
    args = parser.parse_args(argv)

    payload = run_bench(quick=args.quick)
    print(f"host cores: {payload['host_cores']}")
    for mesh in payload["meshes"]:
        print(f"{mesh['mesh']}: serial {mesh['serial_wall_seconds']:.2f}s "
              f"({mesh['cycles']} cycles)")
        for run in mesh["runs"]:
            print(f"  domains={run['domains']}: "
                  f"wall {run['wall_seconds']:.2f}s "
                  f"({run['speedup_wall']:.2f}x), critical path "
                  f"{run['critical_path_seconds']:.2f}s "
                  f"({run['speedup_critical']:.2f}x), "
                  f"exact={run['exact']}, "
                  f"nulls={run['null_messages']}")

    path = pathlib.Path(args.output) if args.output else PDES_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")

    if args.check_regression:
        problems = check_regression(payload)
        if problems:
            for problem in problems:
                print(f"FAILED: {problem}")
            return 1
        print(f"regression check ok: >= {SPEEDUP_FLOOR}x at 4 domains "
              "on 4x4, cycle-exact everywhere")
    return 0


if __name__ == "__main__":
    sys.exit(main())
