"""The three workloads, one timed run of each, and its output checks.

A *rep* is one workload run: set-up (chip, kernel or interpreter, vector
init, address streams, program compile), the run loop, and the output
checks. Host time is split at the run loop's entry and exit by wrapping
``Kernel.run`` from outside (the direct-execution drivers build their
kernel internally) or by timing ``Interpreter.run`` directly.

Every rep checks its outputs three ways: the workload's own verification,
simulated cycles and harvested telemetry counters against the goldens in
``perfbench/goldens.json`` (a speed-only change must leave every simulated
statistic identical), and the paper's shape at the chosen size.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import dataclass, field
from time import perf_counter, process_time

import numpy as np

from repro.core.chip import Chip
from repro.isa import Interpreter
from repro.isa.blocks import compile_blocks
from repro.isa.interpreter import compile_program
from repro.isa.kernels import stream_kernel_program, stream_register_setup
from repro.memory.address import make_effective
from repro.memory.interest_groups import InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.telemetry.instrument import ChipInstrumentation, instrument
from repro.workloads.common import block_ranges
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.stream import StreamParams, run_stream

GOLDENS_PATH = pathlib.Path(__file__).with_name("goldens.json")

#: Figure 6's 126-thread band in GB/s (EXPERIMENTS.md: the Origin
#: reference reaches 41-47 GB/s; our best-tuned Cyclops 43-45 GB/s).
STREAM_BAND_GBS = (41.0, 47.0)

#: Figure 6's best configuration: 4-way unrolled, local caches, balanced.
UNROLL = 4


@dataclass(frozen=True)
class Spec:
    """A workload at one size. ``shape`` enables the paper-shape checks,
    which only hold at the figure sizes."""

    workload: str
    n: int
    threads: int
    shape: bool = True


#: Figure sizes. ``stream_fig6`` and ``isa_triad`` use the paper's
#: out-of-cache vector (249 984 elements, 1 984 per thread). ``fft_fig7``
#: keeps Figure 7's 64 threads at 4 096 points, the largest input with
#: sqrt(n) points per thread whose hw+sw pair runs several times in one
#: benchmark run (16 384 points take ~30 s per pair).
FULL = {
    "stream_fig6": Spec("stream_fig6", 249_984, 126),
    "fft_fig7": Spec("fft_fig7", 4096, 64),
    "isa_triad": Spec("isa_triad", 249_984, 126),
}

#: Test sizes: seconds for all three, no shape checks.
TINY = {
    "stream_fig6": Spec("stream_fig6", 512, 8, shape=False),
    "fft_fig7": Spec("fft_fig7", 256, 16, shape=False),
    "isa_triad": Spec("isa_triad", 512, 8, shape=False),
}

#: What the seed changes, recorded with every result.
SEED_EFFECT = {
    "stream_fig6": "none: run_stream fixes its vector values (a=1, b=2, "
                   "c=3) for its own verification",
    "fft_fig7": "the complex input vector (standard normal re/im)",
    "isa_triad": "the b and c vectors (standard normal)",
}


@dataclass
class Sim:
    """One simulation inside a rep (FFT runs two: hw and sw barriers)."""

    label: str
    setup_s: float
    chip: Chip
    scheduler: object
    loop_s: float
    insns: int
    cycles: dict
    verified: bool
    interp: Interpreter | None = None
    compile_s: float = 0.0
    #: Aggregate GB/s (STREAM only), for the shape check.
    gb_s: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass
class Rep:
    """One workload run: host times, simulations, and check outcomes."""

    wall_s: float
    cpu_s: float
    sims: list[Sim]
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    @property
    def setup_s(self) -> float:
        return sum(s.setup_s for s in self.sims)

    @property
    def loop_s(self) -> float:
        return sum(s.loop_s for s in self.sims)

    @property
    def insns(self) -> int:
        return sum(s.insns for s in self.sims)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def make_inputs(spec: Spec, seed: int) -> dict[str, np.ndarray]:
    """The workload's input vectors, a pure function of the seed."""
    rng = np.random.default_rng(seed)
    if spec.workload == "fft_fig7":
        return {"x": rng.standard_normal(spec.n)
                + 1j * rng.standard_normal(spec.n)}
    if spec.workload == "isa_triad":
        return {"b": rng.standard_normal(spec.n),
                "c": rng.standard_normal(spec.n)}
    return {}


def digest(inputs: dict[str, np.ndarray]) -> dict[str, str]:
    """sha256 of each input vector, so a result names its exact inputs."""
    return {k: hashlib.sha256(v.tobytes()).hexdigest()
            for k, v in sorted(inputs.items())}


# ----------------------------------------------------------------------
# Simulations
# ----------------------------------------------------------------------
class _LoopTimer:
    """Times ``Kernel.run`` from outside for the duration of a ``with``."""

    def __enter__(self) -> "_LoopTimer":
        self.kernel = None
        self.entered = self.exited = 0.0
        self._original = Kernel.__dict__["run"]
        original, timer = self._original, self

        def run(kernel, until=None):
            timer.kernel = kernel
            timer.entered = perf_counter()
            try:
                return original(kernel, until)
            finally:
                timer.exited = perf_counter()

        Kernel.run = run
        return self

    def __exit__(self, *exc) -> None:
        Kernel.run = self._original


def _chip(registry):
    chip = Chip()
    if registry is not None:
        instrument(chip, registry=registry)
    return chip


def _stream(spec: Spec, inputs, registry) -> list[Sim]:
    start = perf_counter()
    chip = _chip(registry)
    params = StreamParams(
        kernel="triad", n_elements=spec.n, n_threads=spec.threads,
        partition="block", local_caches=True, unroll=UNROLL,
        policy=AllocationPolicy.BALANCED, warmup=False,
    )
    with _LoopTimer() as timer:
        result = run_stream(params, chip=chip)
    return [Sim(
        "stream", chip=chip, scheduler=timer.kernel.scheduler,
        setup_s=timer.entered - start, loop_s=timer.exited - timer.entered,
        insns=sum(tu.counters.instructions for tu in chip.threads),
        cycles={"cycles": result.cycles}, verified=result.verified,
        gb_s=result.bandwidth_gb_s,
    )]


def _fft(spec: Spec, inputs, registry) -> list[Sim]:
    sims = []
    for barrier in ("hw", "sw"):
        start = perf_counter()
        chip = _chip(registry)
        params = FFTParams(n_points=spec.n, n_threads=spec.threads,
                           barrier=barrier)
        with _LoopTimer() as timer:
            result = run_fft(params, chip=chip, input_values=inputs["x"])
        sims.append(Sim(
            barrier, chip=chip, scheduler=timer.kernel.scheduler,
            setup_s=timer.entered - start,
            loop_s=timer.exited - timer.entered,
            insns=sum(tu.counters.instructions for tu in chip.threads),
            cycles={"total_cycles": result.total_cycles,
                    "run_cycles": result.run_cycles,
                    "stall_cycles": result.stall_cycles,
                    "barrier_episodes": result.barrier_episodes},
            verified=result.verified,
        ))
    return sims


def _isa(spec: Spec, inputs, registry) -> list[Sim]:
    """STREAM triad as assembly: stream_fig6's threads, placement and
    per-thread blocks, on seeded b and c vectors."""
    start = perf_counter()
    chip = _chip(registry)
    config = chip.config
    kernel = Kernel(chip, AllocationPolicy.BALANCED)  # placement + heap
    n = spec.n
    base_a, base_b, base_c = (kernel.heap.alloc_f64_array(n)
                              for _ in range(3))
    backing = chip.memory.backing
    backing.f64_view(base_b, n)[:] = inputs["b"]
    backing.f64_view(base_c, n)[:] = inputs["c"]

    program = stream_kernel_program("triad", UNROLL)
    compile_start = perf_counter()
    handlers = compile_program(program, config.latency)
    compile_blocks(program, config.latency,
                   config.pib_entries * config.word_bytes, handlers)
    compile_s = perf_counter() - compile_start

    interp = Interpreter(chip)
    if registry is not None:
        chip.telemetry.attach_scheduler(interp.scheduler)
    blocks = block_ranges(n, spec.threads,
                          align=config.dcache_line_bytes // 8)
    for slot, block in enumerate(blocks):
        tid = kernel.hw_tid_for_slot(slot)
        ig = InterestGroup(Level.ONE, tid // config.threads_per_quad).encode()
        offset = 8 * block.start
        regs, doubles = stream_register_setup(
            "triad", make_effective(base_b + offset, ig),
            make_effective(base_c + offset, ig),
            make_effective(base_a + offset, ig), len(block))
        interp.add_thread(tid, program, regs, doubles)

    entered = perf_counter()
    final = interp.run(sampled=False)
    exited = perf_counter()
    expected = inputs["b"] + 3.0 * inputs["c"]
    verified = bool(np.array_equal(backing.f64_view(base_a, n), expected))
    return [Sim(
        "isa", chip=chip, scheduler=interp.scheduler, setup_s=entered - start,
        loop_s=exited - entered,
        insns=sum(s.tu.counters.instructions for s in interp.states.values()),
        cycles={"cycles": final}, verified=verified, interp=interp,
        compile_s=compile_s,
    )]


SIMULATE = {"stream_fig6": _stream, "fft_fig7": _fft, "isa_triad": _isa}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def harvest(sim: Sim) -> dict:
    """Every simulated statistic ``telemetry.instrument`` harvests.

    ``engine.steps`` counts host work (process resumptions), not a
    simulated statistic, so it is left out.
    """
    registry = ChipInstrumentation(sim.chip).harvest(scheduler=sim.scheduler)
    gauges = registry.snapshot()["gauges"]
    gauges.pop("engine.steps", None)
    return gauges


def golden_of(spec: Spec, sims: list[Sim]) -> dict:
    """The golden record these simulations would write."""
    return {"n": spec.n, "threads": spec.threads,
            "sims": {s.label: {"cycles": s.cycles, "counters": s.counters}
                     for s in sims}}


def check(spec: Spec, sims: list[Sim], golden: dict | None) -> dict[str, bool]:
    """Output checks of one rep; ``golden=None`` skips the golden check."""
    checks = {"verified": all(s.verified for s in sims)}
    if golden is not None:
        checks["goldens"] = golden_of(spec, sims) == golden
    if spec.shape and spec.workload == "stream_fig6":
        low, high = STREAM_BAND_GBS
        checks["shape"] = low <= sims[0].gb_s <= high
    if spec.shape and spec.workload == "fft_fig7":
        hw, sw = sims
        checks["shape"] = hw.cycles["total_cycles"] < sw.cycles["total_cycles"]
    return checks


def load_goldens() -> dict:
    return json.loads(GOLDENS_PATH.read_text())


def run_rep(spec: Spec, inputs, golden: dict | None, registry=None) -> Rep:
    """One timed workload run, set-up through the output checks."""
    cpu0 = process_time()
    t0 = perf_counter()
    sims = SIMULATE[spec.workload](spec, inputs, registry)
    for sim in sims:
        sim.counters = harvest(sim)
    checks = check(spec, sims, golden)
    return Rep(wall_s=perf_counter() - t0, cpu_s=process_time() - cpu0,
               sims=sims, checks=checks)
