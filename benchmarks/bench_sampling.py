"""Bench: sampled simulation vs the exact engine (STREAM + FFT).

Runs the :mod:`repro.sampling.validate` differential harness — each
workload once exact, once sampled — and writes
``results/BENCH_sampling.json`` with per-workload cycle error, 95%
confidence interval, and wall-clock speedup. Two gates guard the
tentpole claims:

* **error**: |estimate − exact| / exact must stay within
  :data:`repro.sampling.validate.ERROR_TOLERANCE` (±2%) on both
  workloads;
* **speedup**: the sampled STREAM run must be at least
  :data:`MIN_SPEEDUP` (5x) faster than the exact run under the bench
  configuration (``period=16384, measure=256`` — the sparse-sampling
  setting ``docs/sampled-sim.md`` documents).

Cycle counts on both sides are deterministic, so the error is identical
every round; only wall-clock moves. Each workload therefore runs
``rounds`` times and the **best** speedup is the statistic (constant
work per round, so the fastest round is the one least disturbed by
background load).

Run directly for the full bench::

    PYTHONPATH=src python benchmarks/bench_sampling.py

``--quick`` switches to the CI smoke shape (reduced problem sizes,
default sampling config, :data:`QUICK_MIN_SPEEDUP` floor) and skips the
JSON rewrite — the same invocation the ``sampling-smoke`` CI job uses.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.sampling import SamplingConfig
from repro.sampling.validate import (ERROR_TOLERANCE, WORKLOADS,
                                     validate_workload)

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
SAMPLING_PATH = RESULTS_DIR / "BENCH_sampling.json"

#: Required wall-clock speedup of the sampled STREAM run over the exact
#: run under BENCH_CONFIG (measured ~6x on an idle machine; 5x is the
#: acceptance floor).
MIN_SPEEDUP = 5.0

#: Floor for --quick runs: smaller programs amortize fast-forward less
#: and shared CI runners are noisy, so the quick gate is conservative
#: (measured ~5x under the default config; speedup is a same-host
#: ratio, so runner speed largely cancels out).
QUICK_MIN_SPEEDUP = 2.5

#: The full-size bench configuration: a sparser period than the default
#: 8192 so fast-forward dominates; measurement windows stay 512+256.
BENCH_CONFIG = SamplingConfig(period_insns=16384, measure_insns=256)


def bench_config(quick: bool) -> SamplingConfig:
    """Quick runs keep the default (denser) period: the reduced-size
    programs only span a few 16k periods, which would leave too few
    units for a meaningful interval."""
    return SamplingConfig() if quick else BENCH_CONFIG


def run_bench(rounds: int = 3, quick: bool = False) -> dict:
    """Run both workloads and return the BENCH_sampling.json payload."""
    config = bench_config(quick)
    workloads = {}
    for name in WORKLOADS:
        best = None
        for _ in range(rounds):
            result = validate_workload(name, config, quick=quick)
            if best is not None and result.estimate.estimated_cycles \
                    != best.estimate.estimated_cycles:
                raise AssertionError(
                    f"non-deterministic estimate for {name}: "
                    f"{result.estimate.estimated_cycles} != "
                    f"{best.estimate.estimated_cycles}"
                )
            if best is None or result.speedup > best.speedup:
                best = result
        entry = best.to_dict()
        entry["rounds"] = rounds
        workloads[name] = entry
    return {
        "suite": "sampled_simulation",
        "quick": quick,
        "statistic": "best_of_rounds_speedup",
        "error_tolerance": ERROR_TOLERANCE,
        "min_speedup": QUICK_MIN_SPEEDUP if quick else MIN_SPEEDUP,
        "speedup_gate_workload": "stream",
        "workloads": workloads,
    }


def check_gates(payload: dict) -> list[str]:
    """Failures against the error and speedup gates."""
    failures = []
    tolerance = payload["error_tolerance"]
    for name, entry in payload["workloads"].items():
        if abs(entry["error"]) > tolerance:
            failures.append(
                f"{name}: cycle error {entry['error'] * 100:+.2f}% "
                f"exceeds the ±{tolerance:.0%} gate"
            )
        if not entry["state_matches"]:
            failures.append(
                f"{name}: sampled memory diverged from the exact run"
            )
    gate = payload["speedup_gate_workload"]
    speedup = payload["workloads"][gate]["speedup"]
    if speedup < payload["min_speedup"]:
        failures.append(
            f"{gate}: speedup {speedup:.2f}x is below the required "
            f"{payload['min_speedup']:.1f}x"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3,
                        help="runs per workload; best speedup is kept")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke shape: reduced sizes, default "
                             "config, conservative speedup floor, no "
                             "JSON rewrite")
    args = parser.parse_args(argv)

    payload = run_bench(rounds=args.rounds, quick=args.quick)
    for name, entry in payload["workloads"].items():
        est = entry["estimate"]
        print(f"{name}: exact {entry['exact_cycles']} cycles, "
              f"estimate {est['estimated_cycles']} "
              f"[{est['ci_low']}, {est['ci_high']}] "
              f"({entry['error'] * 100:+.2f}% error, "
              f"{entry['speedup']:.2f}x speedup, "
              f"{est['n_units']} units, "
              f"state {'ok' if entry['state_matches'] else 'DIVERGED'})")

    failures = check_gates(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1

    if not args.quick:
        SAMPLING_PATH.parent.mkdir(parents=True, exist_ok=True)
        SAMPLING_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {SAMPLING_PATH}")
    else:
        print("gates passed (quick; artifact not rewritten)")
    return 0


def test_sampling_bench_quick():
    """Pytest hook: quick bench runs and both gates hold."""
    payload = run_bench(rounds=1, quick=True)
    assert not check_gates(payload)
    for entry in payload["workloads"].values():
        assert entry["ci_covers_golden"]


if __name__ == "__main__":
    sys.exit(main())
