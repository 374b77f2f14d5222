"""Command-line entry point: ``python -m repro.jobs``.

Subcommands::

    submit <task> [--payload JSON] [-j N] [...]   run one job through the pool
    status                                        cache footprint + last run
    cache ls                                      list cached entries
    cache --json                                  machine-readable stats
    cache clear                                   drop every cached entry

``submit`` is the low-level door — it runs any importable task, e.g.::

    python -m repro.jobs submit repro.experiments.fig7_barriers:point \\
        --payload '{"n_points": 256, "n_threads": 4, "barrier": "hw"}'
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import JobError
from repro.jobs.cache import ResultCache
from repro.jobs.pool import JobRunner
from repro.jobs.spec import JobSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.jobs",
        description="Submit simulation jobs and inspect the result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="run one job spec")
    submit.add_argument("task", help="task reference 'module:function'")
    submit.add_argument("--payload", default="{}", metavar="JSON",
                        help="task payload as a JSON object")
    submit.add_argument("--config", default=None, metavar="PATH",
                        help="chip configuration JSON file "
                             "(repro.configio format)")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="worker processes (1 = inline)")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job timeout in seconds (workers only)")
    submit.add_argument("--retries", type=int, default=2,
                        help="attempts after the first failure (default 2)")
    submit.add_argument("--no-cache", action="store_true",
                        help="skip the result cache entirely")
    submit.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="cache location (default: "
                             "$REPRO_JOBS_CACHE_DIR or .repro-cache/jobs)")

    status = sub.add_parser("status", help="cache footprint and last run")
    status.add_argument("--cache-dir", default=None, metavar="DIR")

    cache = sub.add_parser("cache", help="inspect or clear the cache")
    cache.add_argument("action", nargs="?", choices=["ls", "clear"],
                       default="ls")
    cache.add_argument("--json", action="store_true",
                       help="emit machine-readable stats (entries, bytes, "
                            "hit/miss counters) instead of a listing")
    cache.add_argument("--cache-dir", default=None, metavar="DIR")
    return parser


def _cache_for(args) -> ResultCache:
    if getattr(args, "cache_dir", None):
        return ResultCache(args.cache_dir)
    return ResultCache.default()


def _cmd_submit(args) -> int:
    try:
        payload = json.loads(args.payload)
    except json.JSONDecodeError as error:
        print(f"error: --payload is not valid JSON: {error}",
              file=sys.stderr)
        return 2
    if not isinstance(payload, dict):
        print("error: --payload must be a JSON object", file=sys.stderr)
        return 2
    config = None
    if args.config:
        from repro.configio import load_config, config_to_dict

        config = config_to_dict(load_config(args.config))
    spec = JobSpec(task=args.task, payload=payload, config=config,
                   seed=args.seed)
    runner = JobRunner(
        n_workers=args.jobs,
        cache=None if args.no_cache else _cache_for(args),
        timeout=args.timeout,
        retries=args.retries,
    )
    result = runner.run([spec])[0]
    document = {
        "task": spec.task,
        "fingerprint": spec.fingerprint(),
        "cached": result.cached,
        "attempts": result.attempts,
        "ok": result.ok,
    }
    if result.ok:
        document["result"] = result.value
    else:
        document["error"] = result.error
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _cmd_status(args) -> int:
    cache = _cache_for(args)
    document = {"cache": cache.stats()}
    state_path = cache.root / "last_run.state"
    try:
        document["last_run"] = json.loads(state_path.read_text())
    except (OSError, json.JSONDecodeError):
        document["last_run"] = None
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_cache(args) -> int:
    cache = _cache_for(args)
    if args.json:
        from repro.jobs.cache import stats_document

        print(json.dumps(stats_document(cache), indent=2, sort_keys=True))
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    entries = cache.entries()
    if not entries:
        print(f"(cache at {cache.root} is empty)")
        return 0
    for entry in entries:
        spec = entry.get("spec", {})
        meta = entry.get("meta", {})
        task = str(spec.get("task", "?")).rsplit(":", 1)[-1]
        print(f"{entry['key'][:16]}  {task:<24} "
              f"elapsed={meta.get('elapsed_seconds', '?')}s")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "status":
            return _cmd_status(args)
        return _cmd_cache(args)
    except JobError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
