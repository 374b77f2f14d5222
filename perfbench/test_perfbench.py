"""Tests of the benchmark itself, at test sizes.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run  # noqa: E402
from perfbench.tracer import Tracer, install  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _result(capsys, *argv) -> dict:
    assert run.main(["--tiny", "--seconds", "0", "--seed", "3", *argv]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_workloads_match_harness():
    assert set(WORKLOADS) == set(harness.FULL) == set(harness.TINY)
    assert set(harness.SEED_EFFECT) == set(WORKLOADS)


def test_targets_cover_every_per_layer_metric():
    names = [m["name"] for m in BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert set(run._targets()) == set(names)
    for target in run._targets().values():
        for move in target["moves"]:
            metric, workload = move.split("@")
            assert workload in WORKLOADS
            assert metric in {m["name"] for m in BENCH["end_to_end"]}


def test_list_prints_every_metric(capsys):
    assert run.main(["--list"]) == 0
    out = capsys.readouterr().out
    for entry in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert entry["name"] in out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    result = _result(capsys, "--workload", workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(result["metrics"]) == names
    for name in names:
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(capsys, workload):
    result = _result(capsys, "--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    isa = ("isa.dispatches", "isa.blocks_compiled", "isa.insns",
           "isa.run_self_s")
    if workload == "isa_triad":
        assert all(metrics[name] > 0 for name in isa)
        assert metrics["runtime.ctx_calls"] == 0
    else:
        assert all(metrics[name] == 0 for name in isa)
        assert metrics["runtime.ctx_calls"] > 0
        assert metrics["runtime.barrier.episodes"] > 0
    assert metrics["engine.steps"] > 0
    assert metrics["memory.access_calls"] > 0


def test_altered_golden_fails_the_check():
    spec = harness.TINY["stream_fig6"]
    golden = harness.load_goldens()["tiny"]["stream_fig6"]
    inputs = harness.make_inputs(spec, 1)
    assert harness.run_rep(spec, inputs, golden).ok
    altered = copy.deepcopy(golden)
    altered["sims"]["stream"]["cycles"]["cycles"] += 1
    rep = harness.run_rep(spec, inputs, altered)
    assert not rep.checks["goldens"] and not rep.ok


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_simulation_identical(workload):
    spec = harness.TINY[workload]
    inputs = harness.make_inputs(spec, 5)
    plain = harness.run_rep(spec, inputs, None)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        traced = harness.run_rep(spec, inputs, None)
    finally:
        uninstall()
    assert [(s.cycles, s.counters) for s in traced.sims] == \
        [(s.cycles, s.counters) for s in plain.sims]
    assert tracer.calls("engine.run") == len(traced.sims)


def test_seed_changes_inputs_not_goldens():
    spec = harness.TINY["isa_triad"]
    a, b = harness.make_inputs(spec, 1), harness.make_inputs(spec, 2)
    assert harness.digest(a) != harness.digest(b)
    golden = harness.load_goldens()["tiny"]["isa_triad"]
    assert harness.run_rep(spec, b, golden).ok


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_fig6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
