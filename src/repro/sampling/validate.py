"""Differential validation: sampled estimates vs exact golden runs.

One harness, four consumers — the ``sampling_validation`` experiment,
``benchmarks/bench_sampling.py``, the CI ``sampling-smoke`` job, and the
test suite all call :func:`validate_workload` so they agree on what
"the STREAM/FFT validation run" means. For each workload the harness
builds two identical interpreters, runs one exact and one sampled,
and checks three things:

* the **cycle error** of the estimate against the exact golden count;
* the **wall-clock speedup** of the sampled run;
* **architectural equality** — the sampled chip's result memory must
  equal the exact chip's byte for byte (fast-forward is functional,
  never approximate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.isa.interpreter import Interpreter
from repro.isa.kernels import (fft_kernel_program, fft_register_setup,
                               fft_result_base, fft_twiddles,
                               stream_kernel_program,
                               stream_register_setup)
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.sampling import SamplingConfig, SamplingEstimate, resolve_config

#: The two validation workloads, in canonical order.
WORKLOADS = ("stream", "fft")

#: Acceptance gate on the measured cycle error (|estimate - golden| /
#: golden) — mirrored by the CI smoke job and the bench checker.
ERROR_TOLERANCE = 0.02


@dataclass
class ValidationResult:
    """The outcome of one sampled-vs-exact differential run."""

    workload: str
    params: dict[str, Any]
    exact_cycles: int
    estimate: SamplingEstimate
    exact_seconds: float
    sampled_seconds: float
    state_matches: bool

    @property
    def error(self) -> float:
        """Signed relative cycle error of the estimate."""
        return (self.estimate.estimated_cycles
                - self.exact_cycles) / self.exact_cycles

    @property
    def speedup(self) -> float:
        """Wall-clock speedup of the sampled run over the exact run."""
        if self.sampled_seconds <= 0:
            return float("inf")
        return self.exact_seconds / self.sampled_seconds

    @property
    def ci_covers_golden(self) -> bool:
        """Whether the confidence interval contains the exact count."""
        return (self.estimate.ci_low <= self.exact_cycles
                <= self.estimate.ci_high)

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "exact_cycles": self.exact_cycles,
            "error": self.error,
            "speedup": self.speedup,
            "exact_seconds": self.exact_seconds,
            "sampled_seconds": self.sampled_seconds,
            "state_matches": self.state_matches,
            "ci_covers_golden": self.ci_covers_golden,
            "estimate": self.estimate.to_dict(),
        }


@dataclass
class _Workload:
    """One built workload instance plus how to read its results."""

    chip: Chip
    interp: Interpreter
    #: (base, n_doubles) regions whose final contents define the run.
    result_regions: list[tuple[int, int]] = field(default_factory=list)


def _build_stream(n_threads: int, n_per_thread: int) -> _Workload:
    """STREAM triad, one disjoint (src, src2, dst) set per thread."""
    chip = Chip()
    interp = Interpreter(chip, model_fetch=False)
    program = stream_kernel_program("triad", 1)
    regions: list[tuple[int, int]] = []
    stride = 0x8000
    if n_per_thread * 8 > stride or n_threads * stride > 0x200000:
        raise WorkloadError("stream validation layout overflows memory")
    for t in range(n_threads):
        src = 0x010000 + t * stride
        src2 = 0x210000 + t * stride
        dst = 0x410000 + t * stride
        chip.memory.backing.f64_view(src, n_per_thread)[:] = 1.0
        chip.memory.backing.f64_view(src2, n_per_thread)[:] = 3.0
        init_regs, init_doubles = stream_register_setup(
            "triad", make_effective(src, IG_ALL),
            make_effective(src2, IG_ALL), make_effective(dst, IG_ALL),
            n_per_thread)
        interp.add_thread(t, program, init_regs, init_doubles)
        regions.append((dst, n_per_thread))
    return _Workload(chip, interp, regions)


def _build_fft(n_threads: int, n: int) -> _Workload:
    """Constant-geometry FFT, one transform per thread, shared twiddles."""
    chip = Chip()
    interp = Interpreter(chip, model_fetch=False)
    program = fft_kernel_program(n)
    m = n.bit_length() - 1
    twid = 0x010000
    flat = [v for pair in fft_twiddles(n) for v in pair]
    chip.memory.backing.f64_view(twid, n * m)[:] = flat
    buf_bytes = 16 * n
    if twid + n * m * 8 > 0x100000 or n_threads * buf_bytes > 0x200000:
        raise WorkloadError("fft validation layout overflows memory")
    regions: list[tuple[int, int]] = []
    for t in range(n_threads):
        ping = 0x100000 + t * buf_bytes
        pong = 0x400000 + t * buf_bytes
        buf = chip.memory.backing.f64_view(ping, 2 * n)
        # Deterministic per-thread input with non-trivial spectrum.
        buf[0::2] = [((t + 1) * (i * 13 % 31) - 15) * 0.125
                     for i in range(n)]
        buf[1::2] = [((i * 7 % 17) - 8) * 0.25 for i in range(n)]
        interp.add_thread(
            t, program,
            fft_register_setup(make_effective(ping, IG_ALL),
                               make_effective(pong, IG_ALL),
                               make_effective(twid, IG_ALL), n),
            {})
        regions.append((fft_result_base(ping, pong, n), 2 * n))
    return _Workload(chip, interp, regions)


#: workload name -> (builder, full-size params, quick params)
_BUILDERS: dict[str, tuple[Callable[..., _Workload],
                           dict[str, int], dict[str, int]]] = {
    "stream": (_build_stream,
               {"n_threads": 32, "n_per_thread": 4000},
               {"n_threads": 16, "n_per_thread": 2400}),
    "fft": (_build_fft,
            {"n_threads": 32, "n": 256},
            {"n_threads": 16, "n": 256}),
}


def validate_workload(workload: str,
                      config: SamplingConfig | bool | None = True,
                      quick: bool = False,
                      params: dict[str, int] | None = None
                      ) -> ValidationResult:
    """Run one workload exact and sampled; compare cycles and memory.

    *config* accepts anything :func:`repro.sampling.resolve_config`
    does; the default ``True`` means the default
    :class:`~repro.sampling.SamplingConfig`. *quick* selects a smaller
    problem (CI-sized); *params* overrides the built-in sizes.
    """
    try:
        builder, full, small = _BUILDERS[workload]
    except KeyError:
        raise WorkloadError(
            f"unknown validation workload {workload!r}; "
            f"expected one of {WORKLOADS}"
        ) from None
    cfg = resolve_config(config) or SamplingConfig()
    kwargs = dict(params) if params is not None else dict(
        small if quick else full)

    t0 = time.perf_counter()
    exact = builder(**kwargs)
    exact_cycles = exact.interp.run()
    exact_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    sampled = builder(**kwargs)
    estimate = sampled.interp.run_sampled(cfg)
    sampled_seconds = time.perf_counter() - t0

    state_matches = all(
        bytes(sampled.chip.memory.backing.f64_view(base, count))
        == bytes(exact.chip.memory.backing.f64_view(base, count))
        for base, count in exact.result_regions
    )
    return ValidationResult(
        workload=workload, params=kwargs, exact_cycles=exact_cycles,
        estimate=estimate, exact_seconds=exact_seconds,
        sampled_seconds=sampled_seconds, state_matches=state_matches,
    )


__all__ = ["ERROR_TOLERANCE", "WORKLOADS", "ValidationResult",
           "validate_workload"]
