"""Committed bench artifacts, the numbers the docs cite, and CI's scripts.

Three promises, checked without running a simulation:

* every tracked ``results/BENCH_*.json`` passes the gate function of
  the bench that writes it, on the committed payload;
* every ``BENCH_*.json`` the docs name is tracked, and the pdes
  speedups that README and ``docs/parallel-sim.md`` cite equal the
  artifact at the precision cited;
* every repo-relative script a ``run:`` step of the CI workflow
  executes exists, so deleting a bench cannot leave a job behind.

"Tracked" means present in ``results/`` and whitelisted by a
``!results/...`` line in ``.gitignore``.
"""

from __future__ import annotations

import fnmatch
import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"

#: Artifact -> (bench script that writes it, its gate function).
GATES = {
    "BENCH_pdes.json": ("bench_pdes.py", "check_regression"),
}

#: Where artifacts are cited.
DOCS = [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md")),
        *sorted(ROOT.glob(".claude/skills/*/SKILL.md"))]

#: "4x4 at 4 domains: 1.07x wall, 2.49x modeled" (modeled optional).
PDES_CITATION = re.compile(
    r"(\d+x\d+) at (\d+) domains: (\d+\.\d+)x wall"
    r"(?:, (\d+\.\d+)x modeled)?")
SPEEDUP = re.compile(r"\b\d+(?:\.\d+)?x\b")

#: Top-level directories whose paths a CI step may execute.
SCRIPT_ROOTS = ("benchmarks", "perfbench", "tools", "examples", "tests")


def _whitelist() -> list[str]:
    lines = (ROOT / ".gitignore").read_text(encoding="utf-8").splitlines()
    return [line[1:] for line in lines if line.startswith("!results/")]


def tracked_artifacts() -> list[str]:
    patterns = _whitelist()
    return sorted(
        path.name for path in RESULTS.glob("BENCH_*.json")
        if any(fnmatch.fnmatch(f"results/{path.name}", pattern)
               for pattern in patterns))


def _gate(artifact: str):
    script, function = GATES[artifact]
    path = ROOT / "benchmarks" / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, function)


def _payload(artifact: str) -> dict:
    return json.loads((RESULTS / artifact).read_text(encoding="utf-8"))


@pytest.mark.parametrize("artifact", tracked_artifacts())
def test_artifact_passes_its_own_gate(artifact):
    assert artifact in GATES, f"{artifact} is tracked but has no gate"
    assert _gate(artifact)(_payload(artifact)) == []


def test_cited_artifacts_are_tracked():
    tracked = set(tracked_artifacts())
    for doc in DOCS:
        cited = set(re.findall(r"BENCH_\w+\.json", doc.read_text("utf-8")))
        untracked = sorted(cited - tracked)
        assert not untracked, \
            f"{doc.relative_to(ROOT)} cites untracked {untracked}"


def _section(text: str, heading: str | None) -> str:
    """*text* from *heading* to the next level-2 heading (all of it
    when *heading* is None)."""
    if heading is None:
        return text
    start = text.index(heading)
    end = text.find("\n## ", start + len(heading))
    return text[start:end if end >= 0 else None]


def _pdes_runs() -> dict[tuple[str, int], dict]:
    return {(mesh["mesh"], run["domains"]): run
            for mesh in _payload("BENCH_pdes.json")["meshes"]
            for run in mesh["runs"]}


def _same(value: float, cited: str) -> bool:
    decimals = len(cited.partition(".")[2])
    return f"{value:.{decimals}f}" == cited


@pytest.mark.parametrize("doc,heading", [
    ("README.md", "## Parallel simulation"),
    ("docs/parallel-sim.md", None),
])
def test_pdes_speedups_cited_match_artifact(doc, heading):
    text = " ".join(
        _section((ROOT / doc).read_text("utf-8"), heading).split())
    runs = _pdes_runs()
    spans = []
    for match in PDES_CITATION.finditer(text):
        mesh, domains, wall, modeled = match.groups()
        run = runs[(mesh, int(domains))]
        assert _same(run["speedup_wall"], wall), (doc, match[0], run)
        if modeled is not None:
            assert _same(run["speedup_critical"], modeled), \
                (doc, match[0], run)
        spans.append(match.span())
    assert spans, f"{doc} cites no pdes speedup"
    for match in SPEEDUP.finditer(text):
        assert any(lo <= match.start() < hi for lo, hi in spans), \
            f"{doc}: speedup {match[0]!r} is not a checked citation"


def ci_run_steps(workflow: str) -> list[str]:
    """The shell text of every ``run:`` step in a workflow file."""
    steps = []
    lines = workflow.splitlines()
    for i, line in enumerate(lines):
        key = re.match(r"(\s*)(?:- )?run:\s*(.*)$", line)
        if key is None:
            continue
        indent, value = len(key[1]), key[2]
        if value not in (">", "|"):
            steps.append(value)
            continue
        block = []
        for follow in lines[i + 1:]:
            if follow.strip() and \
                    len(follow) - len(follow.lstrip()) <= indent:
                break
            block.append(follow)
        steps.append("\n".join(block))
    return steps


def missing_scripts(workflow: str) -> list[str]:
    missing = []
    for step in ci_run_steps(workflow):
        for token in step.split():
            path = token.strip("\"'`,;()")
            if path.split("/")[0] in SCRIPT_ROOTS \
                    and not (ROOT / path).exists():
                missing.append(path)
    return missing


def test_ci_steps_execute_existing_scripts():
    workflow = (ROOT / ".github/workflows/ci.yml").read_text("utf-8")
    assert "perfbench" in "".join(ci_run_steps(workflow))
    assert missing_scripts(workflow) == []


def test_ci_check_catches_a_job_whose_script_is_gone():
    job = """
  removed-bench-smoke:
    steps:
      - name: Run a bench that no longer exists
        run: >
          PYTHONPATH=src python benchmarks/bench_removed.py
          --quick --check-regression
"""
    assert missing_scripts(job) == ["benchmarks/bench_removed.py"]
