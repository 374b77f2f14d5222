"""Command-line entry point: ``python -m repro.experiments``.

Subcommands::

    list                 show every registered experiment
    run <id> [--quick]   run one experiment (or ``all``) and print it
    run all -o out/      also write one report file per experiment
    run <id> --json f    also write machine-readable results as JSON
    run all -j 4         run the simulation points on 4 worker processes

Every run goes one way, in three steps. Each selected experiment lists
its simulation points (:class:`~repro.jobs.spec.JobSpec`) without
simulating any; all the points, in id order and then point order, go
to one :meth:`~repro.jobs.pool.JobRunner.run` call; and each
experiment assembles its report from its own slice of the results.
Without ``-j`` that runner is inline and uncached, so the points
simulate one after another in this process. With ``-j N`` it is the
:mod:`repro.jobs` pool: one pool of N workers serves the points of every
experiment, results are cached by content so a re-run only simulates
what changed, and a crashing or hanging point no longer takes ``run
all`` down with it. Under ``-j`` the first SIGINT or SIGTERM drains the
pool: points already on a worker finish, and every experiment left with
an undispatched point is reported as a cancelled failure; a second
signal kills the in-flight points too. Failures are collected and
reported at the end, each with the traceback of the point (or the
``points``/``assemble`` call) that raised; the exit code is 0 on
success, 1 when any experiment failed or was cancelled, and 2 for usage
errors such as an unknown experiment id or a flag that does not apply
to the chosen mode (``--sanitize`` and ``-j`` exclude each other).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
import traceback

from repro.experiments.registry import REGISTRY, ExperimentReport
from repro.jobs.cache import ResultCache
from repro.jobs.pool import (
    CANCELLED,
    JobEvent,
    JobRunner,
    failure_text,
    install_signal_handlers,
)
from repro.jobs.spec import JobSpec, jsonify

#: Pool attempts after a crash or timeout when ``-j`` is given without
#: ``--retries``.
DEFAULT_RETRIES = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the tables and figures of the Cyclops "
                    "HPCA 2002 paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    run_cmd = sub.add_parser("run", help="run experiments")
    run_cmd.add_argument("experiment", help="experiment id or 'all'")
    run_cmd.add_argument("--quick", action="store_true",
                         help="tiny problem sizes (smoke test)")
    run_cmd.add_argument("-o", "--output-dir", default=None,
                         help="also write one .txt report per experiment")
    run_cmd.add_argument("--json", default=None, metavar="PATH",
                         help="write all results as one JSON document "
                              "(experiment id -> report dict)")
    run_cmd.add_argument("-j", "--jobs", type=int, default=None, metavar="N",
                         help="run through the repro.jobs pool with N "
                              "workers (enables result caching; N=1 "
                              "executes inline)")
    run_cmd.add_argument("--no-cache", action="store_true",
                         help="with -j: skip the result cache")
    run_cmd.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="with -j: cache location (default "
                              "$REPRO_JOBS_CACHE_DIR or .repro-cache/jobs)")
    run_cmd.add_argument("--job-timeout", type=float, default=None,
                         metavar="S",
                         help="with -j: per-point timeout in seconds")
    run_cmd.add_argument("--retries", type=int, default=None,
                         help="with -j: attempts after a crash/timeout "
                              f"(default {DEFAULT_RETRIES})")
    run_cmd.add_argument("--sanitize", action="store_true",
                         help="run under the coherence sanitizer (see "
                              "docs/memory-model.md); incompatible with "
                              "-j, prints findings and exits 1 if any")
    run_cmd.add_argument("--sanitize-report", default=None, metavar="PATH",
                         help="with --sanitize: also write the findings "
                              "as JSON to PATH")
    return parser


def _progress(event: JobEvent) -> None:
    """Surface the pool's failure-path events on stderr."""
    if event.kind in ("retry", "respawn", "timeout", "degrade"):
        what = event.spec.describe() if event.spec else "pool"
        detail = event.detail.strip().splitlines()[-1] if event.detail else ""
        print(f"[jobs] {event.kind}: {what} {detail}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(REGISTRY):
            print(experiment_id)
        return 0

    if args.experiment == "all":
        ids = sorted(REGISTRY)
    elif args.experiment in REGISTRY:
        ids = [args.experiment]
    else:
        known = ", ".join(sorted(REGISTRY))
        print(f"error: unknown experiment {args.experiment!r}\n"
              f"known experiments: {known}, all", file=sys.stderr)
        return 2
    use_jobs = args.jobs is not None
    usage_errors = (
        (use_jobs and args.jobs < 1, f"-j must be >= 1, got {args.jobs}"),
        # Worker processes would collect findings in their own session
        # rosters and silently drop them; refuse rather than mislead.
        (use_jobs and args.sanitize,
         "--sanitize requires serial execution (drop -j)"),
        (args.sanitize_report is not None and not args.sanitize,
         "--sanitize-report requires --sanitize"),
        (not use_jobs and args.no_cache, "--no-cache requires -j"),
        (not use_jobs and args.cache_dir is not None,
         "--cache-dir requires -j"),
        (not use_jobs and args.job_timeout is not None,
         "--job-timeout requires -j"),
        (not use_jobs and args.retries is not None, "--retries requires -j"),
    )
    for failed, message in usage_errors:
        if failed:
            print(f"error: {message}", file=sys.stderr)
            return 2
    if args.sanitize:
        from repro.sanitizer import session as sanitizer_session
        sanitizer_session.reset()
        sanitizer_session.force(True)

    out_dir = pathlib.Path(args.output_dir) if args.output_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    json_reports: dict[str, dict] = {}

    def emit(experiment_id: str, report: ExperimentReport,
             elapsed: float) -> None:
        text = report.render() + f"\n\n(completed in {elapsed:.1f}s)\n"
        print(text)
        if out_dir:
            (out_dir / f"{experiment_id}.txt").write_text(text)
        if args.json:
            entry = jsonify(report.to_dict())
            # Host wall-clock is noisy; --quick output stays diffable.
            if args.quick:
                for name in report.host_timed:
                    entry["measurements"].pop(name, None)
            else:
                entry["elapsed_seconds"] = round(elapsed, 3)
            entry["quick"] = bool(args.quick)
            json_reports[experiment_id] = entry

    cache = None
    if use_jobs and not args.no_cache:
        cache = ResultCache(args.cache_dir) if args.cache_dir \
            else ResultCache.default()
    runner = JobRunner(
        n_workers=args.jobs or 1,
        cache=cache,
        timeout=args.job_timeout,
        retries=DEFAULT_RETRIES if args.retries is None else args.retries,
        on_event=_progress,
    )
    failures: dict[str, str] = {}
    # Serial runs keep Ctrl-C as KeyboardInterrupt: an inline point
    # cannot be killed, so a drain would leave the second signal inert.
    restore_signals = install_signal_handlers(runner) if use_jobs \
        else (lambda: None)
    try:
        batches: dict[str, list[JobSpec]] = {}
        for experiment_id in ids:
            points, _ = REGISTRY[experiment_id]
            try:
                batches[experiment_id] = points(args.quick)
            except Exception:
                failures[experiment_id] = traceback.format_exc(limit=20)
        # One call, so one pool serves every experiment's points.
        results = runner.run(
            [spec for specs in batches.values() for spec in specs])
        start = 0
        for experiment_id, specs in batches.items():
            mine = results[start:start + len(specs)]
            start += len(specs)
            error = failure_text(mine)
            if error is not None:
                failures[experiment_id] = CANCELLED \
                    if error.endswith(CANCELLED) else error
                continue
            if not specs and runner.stopping:
                # A point-less experiment simulates in its assemble:
                # after a stop, that would be new simulation.
                failures[experiment_id] = CANCELLED
                continue
            _, assemble = REGISTRY[experiment_id]
            started = time.perf_counter()
            try:
                report = assemble(args.quick, [r.value for r in mine])
            except Exception:
                failures[experiment_id] = traceback.format_exc(limit=20)
                continue
            # Points share the pool, so an experiment has no wall time
            # of its own: report the task time it actually spent.
            elapsed = time.perf_counter() - started + sum(
                r.elapsed for r in mine if not r.cached)
            emit(experiment_id, report, elapsed)
    finally:
        restore_signals()

    sanitizer_failed = False
    if args.sanitize:
        from repro.sanitizer import session as sanitizer_session
        from repro.sanitizer.report import (
            render_report,
            session_report,
            write_json,
        )
        sanitizer_session.force(False)
        sanitizer_findings = session_report()
        print(render_report(sanitizer_findings))
        if args.sanitize_report:
            write_json(args.sanitize_report, sanitizer_findings)
        if args.json:
            json_reports["_sanitizer"] = sanitizer_findings
        sanitizer_failed = bool(sanitizer_findings["total_findings"])

    if args.json:
        json_reports["_jobs"] = dict(runner.stats)
        path = pathlib.Path(args.json)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(json_reports, indent=2, sort_keys=True))

    if failures:
        print(f"{len(failures)} of {len(ids)} experiments FAILED:",
              file=sys.stderr)
        for experiment_id in sorted(failures):
            last = failures[experiment_id].strip().splitlines()[-1]
            print(f"  {experiment_id}: {last}", file=sys.stderr)
        # A one-line failure (a cancellation) is all in its summary line;
        # only a traceback gets a detail block.
        for experiment_id in sorted(failures):
            if "\n" in failures[experiment_id].strip():
                print(f"\n--- {experiment_id} ---\n{failures[experiment_id]}",
                      file=sys.stderr)
        return 1
    return 1 if sanitizer_failed else 0


if __name__ == "__main__":
    sys.exit(main())
