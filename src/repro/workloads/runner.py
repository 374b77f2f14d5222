"""Command-line workload runner: ``python -m repro.workloads``.

Runs any single workload with chosen parameters and prints its result
line — the quickest way to poke at the simulator without writing a
script. Every workload offers the same views of its run: the chip
utilization breakdown, the coherence sanitizer, and a JSON run report
plus a Chrome trace (docs/observability.md)::

    python -m repro.workloads stream --kernel triad --threads 126 \
        --elements 126000 --local-caches --unroll 4
    python -m repro.workloads fft --points 1024 --threads 16 --barrier sw
    python -m repro.workloads md --particles 256 --threads 32 \
        --report md.report.json --trace md.trace.json

One table, :data:`WORKLOADS`, holds everything that differs between
workloads. The runner builds the chip itself and passes it to the
driver, so every option works the same for all of them.
"""

from __future__ import annotations

import argparse
import pathlib
import string
import sys
from dataclasses import dataclass
from typing import Callable

from repro.analysis.utilization import chip_elapsed, utilization
from repro.core.chip import Chip
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import CyclopsError
from repro.runtime.kernel import AllocationPolicy
from repro.telemetry.chrome_trace import write_chrome_trace
from repro.telemetry.hostprof import HostProfiler
from repro.telemetry.instrument import instrument
from repro.telemetry.report import build_report
from repro.workloads.barnes import BarnesParams, run_barnes
from repro.workloads.dgemm import DgemmParams, run_dgemm
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.fmm import FMMParams, run_fmm
from repro.workloads.lu import LUParams, run_lu
from repro.workloads.md import MDParams, run_md
from repro.workloads.ocean import OceanParams, run_ocean
from repro.workloads.radix import RadixParams, run_radix
from repro.workloads.raytrace import RayTraceParams, run_raytrace
from repro.workloads.stream import StreamParams, run_stream


def _opt(flag: str, field: str | None = None, **kwargs) -> tuple[str, dict]:
    """A subcommand option that sets the ``*Params`` field *field*
    (default: the flag's own name)."""
    kwargs["dest"] = field or flag[2:].replace("-", "_")
    return flag, kwargs


@dataclass(frozen=True)
class Workload:
    """One subcommand: its options, its driver and its result line."""

    help: str
    params: type
    run: Callable
    #: ``(flag, argparse keywords)`` pairs; each ``dest`` is a Params field.
    options: tuple[tuple[str, dict], ...]
    #: The printed result line, formatted with the driver's result as
    #: ``r``. The result fields it names are also the run report's
    #: ``results`` block.
    summary: str = "{r.cycles} cycles, verified={r.verified}"

    def result_fields(self) -> list[str]:
        return [name.split(".", 1)[1]
                for _, name, _, _ in string.Formatter().parse(self.summary)
                if name]


WORKLOADS = {
    "stream": Workload(
        "STREAM kernel", StreamParams, run_stream,
        (_opt("--kernel", default="triad",
              choices=["copy", "scale", "add", "triad"]),
         _opt("--elements", "n_elements", type=int, default=32 * 400),
         _opt("--partition", choices=["block", "cyclic"], default="block"),
         _opt("--local-caches", action="store_true"),
         _opt("--unroll", type=int, default=1)),
        "{r.bandwidth_gb_s:.2f} GB/s aggregate, "
        "{r.mean_thread_bandwidth_mb_s:.1f} MB/s/thread, "
        "{r.cycles} cycles, verified={r.verified}"),
    "fft": Workload(
        "Splash-2 FFT", FFTParams, run_fft,
        (_opt("--points", "n_points", type=int, default=1024),
         _opt("--barrier", choices=["hw", "sw"], default="hw")),
        "{r.total_cycles} cycles (run {r.run_cycles}, "
        "stall {r.stall_cycles}), verified={r.verified}"),
    "lu": Workload(
        "blocked LU", LUParams, run_lu,
        (_opt("--n", type=int, default=48),
         _opt("--block", type=int, default=8))),
    "radix": Workload(
        "radix sort", RadixParams, run_radix,
        (_opt("--keys", "n_keys", type=int, default=4096),)),
    "ocean": Workload(
        "red-black SOR", OceanParams, run_ocean,
        (_opt("--grid", type=int, default=66),
         _opt("--iterations", type=int, default=2))),
    "barnes": Workload(
        "Barnes-Hut N-body", BarnesParams, run_barnes,
        (_opt("--bodies", "n_bodies", type=int, default=256),)),
    "fmm": Workload(
        "fast multipole method", FMMParams, run_fmm,
        (_opt("--bodies", "n_bodies", type=int, default=256),
         _opt("--levels", type=int, default=3))),
    "md": Workload(
        "Lennard-Jones molecular dynamics", MDParams, run_md,
        (_opt("--particles", "n_particles", type=int, default=256),)),
    "raytrace": Workload(
        "Whitted raytracer", RayTraceParams, run_raytrace,
        (_opt("--width", type=int, default=32),
         _opt("--height", type=int, default=24))),
    "dgemm": Workload(
        "blocked matrix multiply", DgemmParams, run_dgemm,
        (_opt("--n", type=int, default=32),
         _opt("--block", type=int, default=8),
         _opt("--no-scratchpad", "use_scratchpad", action="store_false"))),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=16)
    parser.add_argument("--policy", choices=[p.value for p in AllocationPolicy],
                        default="sequential")
    parser.add_argument("--utilization", action="store_true",
                        help="print the chip utilization breakdown")
    parser.add_argument("--sanitize", action="store_true",
                        help="run under the coherence sanitizer (see "
                             "docs/memory-model.md); prints findings and "
                             "exits 1 if any were found")
    parser.add_argument("--sanitize-report", default=None, metavar="PATH",
                        help="with --sanitize: also write the findings "
                             "as JSON to PATH")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the instrumented run's RunReport JSON "
                             "to PATH")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Chrome Trace Event JSON to PATH")
    parser.add_argument("--trace-capacity", type=int, default=200_000,
                        help="max retained tracer records (deque bound)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Run one Cyclops workload.",
    )
    sub = parser.add_subparsers(dest="workload", required=True)
    for name, workload in WORKLOADS.items():
        p = sub.add_parser(name, help=workload.help)
        for flag, kwargs in workload.options:
            p.add_argument(flag, **kwargs)
        _add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    workload = WORKLOADS[args.workload]
    fields = {kwargs["dest"]: getattr(args, kwargs["dest"])
              for _, kwargs in workload.options}
    profiler = HostProfiler()
    if args.sanitize:
        from repro.sanitizer import session
        session.reset()

    with profiler.phase("setup"):
        tracer = Tracer(capacity=args.trace_capacity) if args.trace \
            else NULL_TRACER
        chip = Chip(tracer=tracer, sanitize=args.sanitize)
        inst = instrument(chip) if args.report or args.trace else None
    try:
        with profiler.phase("simulate"):
            result = workload.run(workload.params(
                n_threads=args.threads, policy=AllocationPolicy(args.policy),
                **fields), chip=chip)
    except CyclopsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(workload.summary.format(r=result))

    if inst is not None:
        scheduler = inst.kernel.scheduler
        profiler.set_work("simulate", cycles=scheduler.now,
                          events=scheduler.steps)
        inst.harvest(elapsed=chip_elapsed(chip))
        for out in (args.report, args.trace):
            if out:
                pathlib.Path(out).parent.mkdir(parents=True, exist_ok=True)
        if args.report:
            build_report(
                chip, args.workload, registry=inst.registry,
                params={**fields, "n_threads": args.threads,
                        "policy": args.policy},
                profiler=profiler,
                results={name: getattr(result, name)
                         for name in workload.result_fields()},
            ).write(args.report)
            print(f"wrote report to {args.report}", file=sys.stderr)
        if args.trace:
            n_events = write_chrome_trace(
                args.trace, chip=chip, tracer=tracer,
                metadata={"workload": args.workload})
            print(f"wrote {n_events} trace events to {args.trace}",
                  file=sys.stderr)
    if args.utilization:
        print()
        print(utilization(chip, chip_elapsed(chip)).render())
    if args.sanitize:
        from repro.sanitizer.report import (
            render_report,
            session_report,
            write_json,
        )
        report = session_report()
        print()
        print(render_report(report))
        if args.sanitize_report:
            write_json(args.sanitize_report, report)
        if report["total_findings"]:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
