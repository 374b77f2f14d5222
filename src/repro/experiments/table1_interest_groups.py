"""Table 1: the interest-group encoding and its placement semantics."""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.spec import JobSpec
from repro.memory.address import make_effective
from repro.memory.interest_groups import InterestGroup, Level


def points(quick: bool) -> list[JobSpec]:
    """None: :func:`assemble` runs the sub-second microbenchmarks."""
    return []


def assemble(quick: bool, values: list) -> ExperimentReport:
    """Reproduce Table 1: every level's cache sets, plus measured behaviour."""
    chip = Chip(ChipConfig.paper())
    n_caches = chip.config.n_dcaches

    rows = []
    for level in Level:
        group = InterestGroup(level, 0)
        if level is Level.OWN:
            selected = "thread's own cache"
            comment = "may replicate (software-managed coherence)"
        else:
            size = level.set_size
            n_sets = n_caches // size
            first = group.cache_set(n_caches)
            selected = (f"{n_sets} set(s) of {size}: "
                        f"{{{first[0]}..{first[-1]}}}, ...")
            comment = {
                Level.ONE: "exactly one",
                Level.PAIR: "one of a pair",
                Level.FOUR: "one of four",
                Level.EIGHT: "one of eight",
                Level.SIXTEEN: "one of sixteen",
                Level.ALL: "one of all (default: one 512 KB unit)",
            }[level]
        rows.append([level.name, f"0b{group.encode():08b}", selected, comment])
    encoding_table = format_table(
        ["level", "byte", "selected caches", "comment"], rows,
        title="Interest group encoding (semantics of the paper's Table 1)",
    )

    # Measured placement behaviour: uniform spread of the ALL group, and
    # the latency difference between own-cache and chip-wide placement.
    spread = [0] * n_caches
    lines = 2048 if quick else 16384
    all_group = InterestGroup(Level.ALL)
    for line in range(lines):
        spread[all_group.target_cache(line, n_caches)] += 1
    imbalance = max(spread) / (lines / n_caches)

    probe = 0x4000
    _, _, own_kind, _ = chip.memory.access(
        0, 5, make_effective(probe, 0), 8, False)
    hit_issue_end, hit_complete, hit_kind, _ = chip.memory.access(
        100, 5, make_effective(probe, 0), 8, False)
    chipwide_kinds = set()
    for quad in (0, 9, 31):
        _, _, kind, _ = chip.memory.access(
            1000 + quad, quad,
            make_effective(probe, InterestGroup(Level.ALL).encode()), 8, False)
        chipwide_kinds.add(kind.value)

    behaviour = format_table(
        ["property", "measured"],
        [
            ["ALL-group max/mean cache utilization", f"{imbalance:.3f}"],
            ["OWN group first access", own_kind.value],
            ["OWN group second access (local hit, 6+1 cycles)",
             f"{hit_kind.value}, {hit_complete - hit_issue_end} "
             f"extra cycles"],
            ["ALL group single home (kinds from 3 quads)",
             ", ".join(sorted(chipwide_kinds))],
        ],
        title="Measured placement behaviour",
    )

    return ExperimentReport(
        experiment_id="table1",
        title="Interest group encoding",
        paper=("Table 1: 7 placement levels from thread's-own through "
               "pairs/fours/eights/sixteens to one-of-all-32, with a "
               "deterministic scrambling function spreading multi-cache "
               "sets uniformly."),
        tables=[encoding_table, behaviour],
        notes=["Bit-level encodings are ours (the paper's exact bits are "
               "ambiguous in the available text); semantics match. "
               "See DESIGN.md section 3."],
        measurements={"all_group_imbalance": imbalance},
    )


register("table1", points, assemble)
