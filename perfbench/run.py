"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload stream_fig6 --seed 1 --trace 0
    python3 perfbench/run.py --workload fft_fig7 --seed 1 --trace 1
    python3 perfbench/run.py --list
    python3 perfbench/run.py --write-goldens

``--trace 0`` repeats the workload for ``--seconds`` (at least
``MIN_REPS`` times) with tracing off and reports the end-to-end metrics,
each the best over the repetitions: other load on a shared host only ever
adds time, so the fastest repetition is the least disturbed one (the
median across runs is then a median of best-of-N, as in
``benchmarks/bench_engine_suite.py``). ``--trace 1`` measures the same
untraced baseline, then the unit-cost microbenchmarks, then one traced
repetition, and reports the per-layer metrics. Everything runs in this
one single-threaded process.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A repetition whose output checks fail counts in ``failed``. The full
report (provenance, every repetition's raw values, quartiles, the
attribution parts) is printed above it and written to
``.perfbench/<workload>-seed<seed>-trace<t>.json``; a traced run also
writes its spans next to it.

``--list`` prints every metric with its unit, better direction, layer,
and the end-to-end metric and workload it should move, read from
``BENCHMARK.json`` and ``perfbench/targets.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

#: Repetitions per run at least: a rep of any workload takes 6-12 s, so
#: a best-of-N over a shorter minimum would follow host drift too closely.
MIN_REPS = 4


def _load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _targets() -> dict:
    return json.loads((BENCH_DIR / "targets.json").read_text())


# ----------------------------------------------------------------------
# Provenance and statistics
# ----------------------------------------------------------------------
def _git(*args: str) -> str | None:
    # The ceiling keeps git from adopting a repository above this checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    """Host and source facts shared by every result."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "seed": seed,
    }


def summary(values: list[float]) -> dict:
    """Raw values with their median and quartiles."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _timed_reps(harness, spec, inputs, golden, seconds: float):
    """Untraced repetitions for *seconds*; returns per-rep records."""
    records = []
    start = perf_counter()
    while len(records) < MIN_REPS or perf_counter() - start < seconds:
        gc.collect()
        rep = harness.run_rep(spec, inputs, golden)
        records.append({
            "ok": rep.ok, "checks": rep.checks,
            "wall_s": rep.wall_s, "cpu_s": rep.cpu_s,
            "setup_s": rep.setup_s, "loop_s": rep.loop_s,
            "sim_insns_per_s": rep.insns / rep.loop_s,
            "compile_s": sum(s.compile_s for s in rep.sims),
            "counters": {s.label: s.counters for s in rep.sims},
            "cycles": {s.label: s.cycles for s in rep.sims},
        })
    return records


def run_untraced(harness, spec, inputs, golden, seconds, bench) -> tuple:
    records = _timed_reps(harness, spec, inputs, golden, seconds)
    series = {name: [r[name] for r in records]
              for name in ("wall_s", "cpu_s", "setup_s", "sim_insns_per_s")}
    series["peak_rss_mb"] = [_peak_rss_mb()]
    metrics = {}
    for entry in bench["end_to_end"]:
        best = min if entry["better"] == "lower" else max
        metrics[entry["name"]] = {"value": best(series[entry["name"]]),
                                  "unit": entry["unit"]}
    detail = {"reps": records,
              "metrics": {k: summary(v) for k, v in series.items()}}
    return records, metrics, detail


def run_traced(harness, spec, inputs, golden, seconds, bench, seed):
    from perfbench import layers, micro
    from perfbench.tracer import Tracer, install

    records = _timed_reps(harness, spec, inputs, golden, seconds)
    untraced_wall = min(r["wall_s"] for r in records)
    unit_costs = micro.measure_all()

    gc.collect()
    tracer = Tracer()
    tracer.run_id = f"{spec.workload}-seed{seed}"
    registry = layers.PooledRegistry()
    uninstall = install(tracer)
    try:
        traced = harness.run_rep(spec, inputs, golden, registry=registry)
    finally:
        uninstall()
    # Tracing must not move a single simulated statistic.
    traced.checks["same_as_untraced"] = all(
        {s.label: s.counters for s in traced.sims} == r["counters"]
        for r in records)
    values, parts = layers.layer_metrics(
        traced, tracer, registry, unit_costs,
        untraced_loop_s=min(r["loop_s"] for r in records),
        untraced_compile_s=min(r["compile_s"] for r in records),
    )
    values["trace.overhead_s"] = traced.wall_s - untraced_wall
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{spec.workload}-seed{seed}.spans.json")

    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in bench["per_layer"]}
    trace_record = {"ok": traced.ok, "checks": traced.checks,
                    "wall_s": traced.wall_s,
                    "span_aggregates": {
                        n: a[:3] for n, a in sorted(tracer.agg.items())}}
    detail = {"reps": records, "traced": trace_record,
              "attribution_s": parts}
    return records + [trace_record], metrics, detail


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def print_table(bench: dict) -> None:
    """Every metric with its unit, direction, layer and predicted effect."""
    targets = _targets()
    rows = [("metric", "unit", "better", "layer", "should move")]
    for entry in bench["end_to_end"]:
        rows.append((entry["name"], entry["unit"], entry["better"],
                     "end-to-end", f"regression bound {entry['bound']:.0%}"))
    for entry in bench["per_layer"]:
        target = targets[entry["name"]]
        rows.append((entry["name"], entry["unit"], entry["better"],
                     target["layer"], ", ".join(target["moves"]) or "-"))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
              + "  " + row[4])
    print()
    for workload in bench["workloads"]:
        print(f"{workload['name']}: {workload['why']}")


def write_goldens(harness) -> None:
    """Record the current simulator's cycles and counters at both sizes."""
    goldens = {}
    for size, specs in (("full", harness.FULL), ("tiny", harness.TINY)):
        goldens[size] = {}
        for name, spec in specs.items():
            rep = harness.run_rep(spec, harness.make_inputs(spec, 1), None)
            if not rep.ok:
                raise SystemExit(f"{size} {name}: checks failed {rep.checks}")
            goldens[size][name] = harness.golden_of(spec, rep.sims)
    harness.GOLDENS_PATH.write_text(json.dumps(goldens, indent=1,
                                               sort_keys=True) + "\n")
    print(f"wrote {harness.GOLDENS_PATH}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test sizes (seconds, no paper-shape checks)")
    parser.add_argument("--list", action="store_true",
                        help="print every metric and exit")
    parser.add_argument("--write-goldens", action="store_true",
                        help="record the current cycles and counters")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    bench = _load_spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.list:
        print_table(bench)
        return 0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    if args.write_goldens:
        write_goldens(harness)
        return 0
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")

    size = "tiny" if args.tiny else "full"
    spec = (harness.TINY if args.tiny else harness.FULL)[args.workload]
    golden = harness.load_goldens()[size][args.workload]
    inputs = harness.make_inputs(spec, args.seed)
    report = {"workload": args.workload, "size": size, "spec": vars(spec),
              "trace": args.trace, "provenance": provenance(args.seed),
              "seed_effect": harness.SEED_EFFECT[args.workload],
              "inputs_sha256": harness.digest(inputs)}
    # Warm imports and lazily built tables at test size before timing.
    tiny = harness.TINY[args.workload]
    harness.run_rep(tiny, harness.make_inputs(tiny, args.seed), None)

    if args.trace:
        records, metrics, detail = run_traced(
            harness, spec, inputs, golden, args.seconds, bench, args.seed)
    else:
        records, metrics, detail = run_untraced(
            harness, spec, inputs, golden, args.seconds, bench)
    report["provenance"]["loadavg_after"] = list(os.getloadavg())
    report["provenance"]["runs"] = len(records)
    report.update(detail)
    failed = sum(not r["ok"] for r in records)
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    report["result"] = result
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({k: v for k, v in report.items() if k != "reps"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
