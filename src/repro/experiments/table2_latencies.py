"""Table 2: instruction latencies validated by ISA microbenchmarks.

Each row of the paper's Table 2 is measured by a small assembly program:
a dependence chain of the instruction under test, timed on the
interpreter, minus the loop scaffolding — the measured issue-to-use
distance must equal execution + latency.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.experiments.registry import ExperimentReport, register
from repro.jobs.spec import JobSpec
from repro.isa import Interpreter, assemble as assemble_program
from repro.memory.interest_groups import IG_OWN, InterestGroup, Level


def _final_ready(body: str, reps: int, setup: str) -> int:
    """Ready time of the chain register after *reps* chained copies."""
    chip = Chip(ChipConfig.paper())
    source = setup + "\n" + (body + "\n") * reps + "halt\n"
    program = assemble_program(source)
    interp = Interpreter(chip, model_fetch=False)
    state = interp.add_thread(0, program)
    interp.run()
    return max(state.ready)


def _chain_cycles(body: str, reps: int = 8, setup: str = "") -> float:
    """Issue-to-use distance of one instruction in a dependence chain.

    Measured as a slope — the difference between a ``2*reps`` chain and
    a ``reps`` chain divided by ``reps`` — so setup latency and chain
    warm-up cancel exactly.
    """
    long = _final_ready(body, 2 * reps, setup)
    short = _final_ready(body, reps, setup)
    return (long - short) / reps


def points(quick: bool) -> list[JobSpec]:
    """None: :func:`assemble` runs the sub-second microbenchmarks."""
    return []


def assemble(quick: bool, values: list) -> ExperimentReport:
    """Measure every Table 2 row with an assembly microbenchmark."""
    cfg = ChipConfig.paper()
    lat = cfg.latency
    reps = 4 if quick else 8
    own = IG_OWN  # high byte 0: thread's own cache

    rows = []

    def check(name: str, measured: float, row: tuple[int, int]) -> None:
        expected = row[0] + row[1]
        rows.append([name, row[0], row[1], expected, measured,
                     "ok" if abs(measured - expected) < 0.51 else "MISMATCH"])

    # Integer multiply: chain of muls.
    check("integer multiply",
          _chain_cycles("mul r3, r3, r4", reps,
                        setup="addi r3, r0, 3\naddi r4, r0, 1"),
          lat.int_multiply)
    # Integer divide.
    check("integer divide",
          _chain_cycles("div r3, r3, r4", reps,
                        setup="addi r3, r0, 1000\naddi r4, r0, 1"),
          lat.int_divide)
    # FP add / multiply / FMA / divide / sqrt.
    check("fp add",
          _chain_cycles("fadd r10, r10, r12", reps), lat.fp_add)
    check("fp multiply",
          _chain_cycles("fmul r10, r10, r12", reps), lat.fp_multiply)
    check("fp multiply-add",
          _chain_cycles("fmadd r10, r10, r12", reps), lat.fp_multiply_add)
    check("fp divide",
          _chain_cycles("fdiv r10, r10, r12", reps,
                        setup="addi r3, r0, 1\ncvtif r12, r3\nfmov r10, r12"),
          lat.fp_divide)
    check("fp square root",
          _chain_cycles("fsqrt r10, r10", reps,
                        setup="addi r3, r0, 1\ncvtif r10, r3"), lat.fp_sqrt)
    # All other operations (plain ALU chain).
    check("all other operations",
          _chain_cycles("add r3, r3, r4", reps), lat.other)

    # Memory rows: measured through a pointer-chasing chain where each
    # load's address depends on the previous load's value. The whole
    # chain sits inside one cache line of the thread's own cache
    # (interest group 0), so the first load misses and the rest hit.
    chip = Chip(cfg)
    stride = 4
    base = 0x800
    for i in range(reps + 1):
        chip.memory.backing.store_u32(base + i * stride,
                                      base + (i + 1) * stride)
    source = f"addi r5, r0, {base}\n" + "lw r5, 0(r5)\n" * (reps + 1) \
        + "halt\n"
    program = assemble_program(source)
    interp = Interpreter(chip, model_fetch=False)
    state = interp.add_thread(0, program)
    interp.run()
    # The first load issues right after the addi (cycle 1) and completes
    # a local miss later; every subsequent hit adds exactly its
    # issue-to-use distance to the chain.
    first_ready = 1 + lat.issue_to_use("mem_local_miss")
    per_hit = (max(state.ready) - first_ready) / reps
    check("memory local cache hit", per_hit, lat.mem_local_hit)

    # Remote cache hit: the same chain pinned to another quad's cache
    # (interest group ONE, cache 9) accessed from quad 0.
    from repro.memory.address import make_effective

    chip = Chip(cfg)
    remote_ig = InterestGroup(Level.ONE, 9).encode()
    for i in range(reps + 1):
        chip.memory.backing.store_u32(
            base + i * stride,
            make_effective(base + (i + 1) * stride, remote_ig),
        )
    first_ea = make_effective(base, remote_ig)
    # A full 32-bit EA is easiest materialized from memory: park the
    # first pointer in a scratch word and bootstrap with a local load.
    chip.memory.backing.store_u32(0x400, first_ea)
    source = ("addi r5, r0, 0x400\nlw r5, 0(r5)\n"
              + "lw r5, 0(r5)\n" * (reps + 1) + "halt\n")
    program = assemble_program(source)
    interp = Interpreter(chip, model_fetch=False)
    state = interp.add_thread(0, program)
    interp.run()
    # addi (1) + bootstrap local miss load + remote first miss, then hits.
    bootstrap = 1 + lat.issue_to_use("mem_local_miss")
    first_remote = bootstrap + lat.issue_to_use("mem_remote_miss")
    per_remote_hit = (max(state.ready) - first_remote) / reps
    check("memory remote cache hit", per_remote_hit, lat.mem_remote_hit)

    table = format_table(
        ["instruction type", "execution", "latency", "expected", "measured",
         "verdict"],
        rows,
        title="Table 2 latencies: paper parameters vs ISA microbenchmarks",
    )
    mismatches = sum(1 for r in rows if r[-1] != "ok")
    return ExperimentReport(
        experiment_id="table2",
        title="Simulation parameters (instruction latencies)",
        paper=("Table 2: branch 2+0, int mul 1+5, int div 33+0, fp "
               "add/mul 1+5, fp div 30+0, sqrt 56+0, FMA 1+9, memory "
               "7/25/18/37 issue-to-use for local/remote hit/miss."),
        tables=[table],
        measurements={"rows_checked": float(len(rows)),
                      "mismatches": float(mismatches)},
    )


register("table2", points, assemble)
