"""Every experiment's quick-mode report against a committed golden.

``results/QUICK_all.json`` is ``python -m repro.experiments run all
--quick --json`` with what varies from host to host stripped: the
runner's ``_jobs`` counters, any ``elapsed_seconds`` and each report's
``host_timed`` measurements. Everything left is simulated, so a change
that is meant to move no figure (a speed change, a refactor) must leave
it byte for byte as it is. A failure names the experiments and keys
that moved.

When a change is meant to move figures, regenerate the golden with
``PYTHONPATH=src python tests/test_quick_golden.py`` and say in the
change which experiments moved and why.
"""

from __future__ import annotations

import json
import pathlib
import sys

from repro.experiments.runner import main

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "results" \
    / "QUICK_all.json"


def strip_host(reports: dict) -> dict:
    """*reports* (a ``run --json`` mapping) without host-dependent fields."""
    stripped = {}
    for experiment_id, entry in reports.items():
        if experiment_id.startswith("_"):
            continue
        entry = dict(entry)
        entry.pop("elapsed_seconds", None)
        entry["measurements"] = {
            name: value for name, value in entry["measurements"].items()
            if name not in entry["host_timed"]}
        stripped[experiment_id] = entry
    return stripped


def run_quick_all(path: pathlib.Path) -> dict:
    """Run every experiment in quick mode; returns the stripped reports."""
    assert main(["run", "all", "--quick", "--json", str(path)]) == 0
    return strip_host(json.loads(path.read_text(encoding="utf-8")))


def moved(golden: dict, current: dict) -> list[str]:
    """``experiment: keys`` lines for every difference."""
    lines = []
    for experiment_id in sorted(golden.keys() | current.keys()):
        old = golden.get(experiment_id)
        new = current.get(experiment_id)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{experiment_id}: "
                         f"{'added' if old is None else 'missing'}")
            continue
        keys = sorted(k for k in old.keys() | new.keys()
                      if old.get(k) != new.get(k))
        if "measurements" in keys:
            a, b = old["measurements"], new["measurements"]
            names = sorted(n for n in a.keys() | b.keys()
                           if a.get(n) != b.get(n))
            keys[keys.index("measurements")] = \
                f"measurements[{', '.join(names)}]"
        lines.append(f"{experiment_id}: {', '.join(keys)}")
    return lines


def test_quick_reports_match_the_golden(tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    current = run_quick_all(tmp_path / "quick.json")
    capsys.readouterr()
    diff = moved(golden, current)
    assert not diff, "quick reports moved:\n  " + "\n  ".join(diff)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        reports = run_quick_all(pathlib.Path(scratch) / "quick.json")
    GOLDEN.write_text(json.dumps(reports, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
