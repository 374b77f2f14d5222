"""SMARTS-style sampled simulation for the ISA interpreter.

The exact engine prices every dynamic instruction through the full
timing model. Sampled mode instead alternates two execution regimes
over the *same* architectural state:

* **functional fast-forward** — stripped closures from the block
  compiler (:func:`repro.isa.blocks.compile_functional`) execute
  registers and memory data exactly, with no clock, scoreboard, cache,
  or scheduler interaction;
* **detailed sampling units** — the unmodified cycle-exact engine runs
  a bounded per-thread instruction window: a warm-up prefix re-warms
  cache tags, FPU pipes, and the scoreboard after the timing-blind
  fast-forward, then a measurement slice records cycles and
  instructions.

Systematic sampling: every ``period_insns`` instructions per thread, a
unit of ``warmup_insns`` + ``measure_insns`` runs detailed and the rest
fast-forwards. Per-unit CPIs are treated as an i.i.d. sample; the
whole-run estimate prices the fast-forwarded instructions at the mean
measured CPI and carries a Student-t confidence interval
(:mod:`repro.sampling.stats`). The detailed portion of the run is
*measured*, not estimated — so as the fast-forward share goes to zero
the estimate converges to the exact cycle count.

Opt-in only: ``Interpreter.run(sampled=SamplingConfig(...))`` (or
``sampled=True`` for the default knobs). Default runs never touch this
package. See ``docs/sampled-sim.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.sampling.stats import CONFIDENCE_LEVELS, mean_ci


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of one sampled run (per-thread instruction counts).

    Every ``period_insns`` instructions a thread executes, the first
    ``warmup_insns`` + ``measure_insns`` run through the cycle-exact
    engine (warm-up discarded, measurement kept) and the remainder
    fast-forwards functionally in round-robin chunks of
    ``chunk_insns`` — the chunking keeps barrier spins among threads
    making mutual progress.

    ``jitter_insns`` bounds the per-unit *position drift* correction.
    Detailed windows are instruction-bounded, so uniform fast-forward
    budgets would re-align every thread to the same instruction
    position at each window entry — but in a continuous run thread
    positions drift apart (or re-synchronize) according to the
    workload's own contention dynamics. The sampled run reconstructs
    that drift from measurement: each thread's window-exit clock skew,
    converted to instructions by the unit's per-thread CPI, shifts its
    fast-forward budget. The drift is emergent, not injected — a
    workload whose threads naturally stay aligned (shared read-only
    data acts as a synchronizer) measures near-zero skew and keeps its
    alignment; a workload whose threads random-walk apart gets the
    walk back. ``None`` (default) caps the per-unit correction
    automatically from the fast-forward span; ``0`` disables drift
    (useful in tests asserting exact budget accounting).

    ``horizon_insns`` bounds *functional warming* to the last so-many
    fast-forwarded instructions before each detailed window. Warming
    exists so windows resume against live cache state, and only
    touches within the workload's reuse distance of the window can
    matter — lines warmed earlier get churned out of the finite tag
    arrays anyway, so warming the whole span buys accuracy nothing and
    costs most of the fast-forward's speed advantage. ``None``
    (default) uses 4096 instructions per thread — comfortably past the
    reuse distances of the validation workloads; raise it for
    workloads that re-read data written much further back.
    """

    warmup_insns: int = 512
    measure_insns: int = 256
    period_insns: int = 8192
    chunk_insns: int = 2048
    jitter_insns: int | None = None
    horizon_insns: int | None = None
    confidence: float = 0.95

    def __post_init__(self) -> None:
        for name in ("warmup_insns", "measure_insns", "period_insns",
                     "chunk_insns"):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ConfigError(
                    f"SamplingConfig.{name} must be a positive int, "
                    f"got {value!r}"
                )
        if self.period_insns <= self.warmup_insns + self.measure_insns:
            raise ConfigError(
                "SamplingConfig.period_insns must exceed warmup_insns + "
                f"measure_insns ({self.warmup_insns} + "
                f"{self.measure_insns}); nothing would fast-forward"
            )
        for name in ("jitter_insns", "horizon_insns"):
            value = getattr(self, name)
            if value is not None and (
                    not isinstance(value, int) or value < 0):
                raise ConfigError(
                    f"SamplingConfig.{name} must be a non-negative int "
                    f"or None (auto), got {value!r}"
                )
        if self.confidence not in CONFIDENCE_LEVELS:
            raise ConfigError(
                f"confidence must be one of {CONFIDENCE_LEVELS}, "
                f"got {self.confidence}"
            )

    @property
    def detail_fraction(self) -> float:
        """Share of instructions priced by the detailed engine."""
        return (self.warmup_insns + self.measure_insns) / self.period_insns

    @property
    def resolved_jitter(self) -> int:
        """The effective drift bound after auto-sizing and clamping.

        Auto mode allows 1024 instructions of per-unit correction —
        ample for the skews the windows actually measure — capped at
        half the fast-forward span so tiny test configs keep positive
        budgets.
        """
        ff = self.period_insns - self.warmup_insns - self.measure_insns
        if self.jitter_insns is not None:
            return min(self.jitter_insns, max(ff - 1, 0))
        return min(1024, ff // 2)

    @property
    def resolved_horizon(self) -> int:
        """The effective functional-warming horizon (instructions)."""
        if self.horizon_insns is not None:
            return self.horizon_insns
        return 4096


def resolve_config(sampled) -> SamplingConfig | None:
    """Normalize a ``sampled=`` argument; ``None`` means run exact.

    ``None``/``False`` → exact; ``True`` → defaults; a
    :class:`SamplingConfig` passes through.
    """
    if sampled is None or sampled is False:
        return None
    if sampled is True:
        return SamplingConfig()
    if isinstance(sampled, SamplingConfig):
        return sampled
    raise ConfigError(
        f"sampled= expects None, a bool, or a SamplingConfig, "
        f"got {type(sampled).__name__}"
    )


@dataclass
class SamplingEstimate:
    """The statistical result of one sampled run.

    ``estimated_cycles`` = measured detailed cycles + fast-forwarded
    instructions priced at the mean unit CPI. The confidence interval
    covers only the extrapolated share, so it collapses to zero — and
    ``exact`` is set — when the whole run happened to execute detailed.
    With a single sampling unit no interval exists: ``ci_halfwidth`` is
    0.0 but means *undefined* (check ``n_units``).
    """

    estimated_cycles: int
    ci_halfwidth: float
    confidence: float
    exact: bool
    n_units: int
    cpi_mean: float
    total_insns: int
    measured_insns: int
    warmup_insns: int
    ff_insns: int
    #: Simulated cycles the detailed windows actually accumulated.
    detailed_cycles: int
    config: SamplingConfig

    @property
    def ci_low(self) -> int:
        return int(self.estimated_cycles - self.ci_halfwidth)

    @property
    def ci_high(self) -> int:
        return int(self.estimated_cycles + self.ci_halfwidth + 0.5)

    @property
    def relative_ci(self) -> float:
        """CI halfwidth as a fraction of the estimate."""
        if not self.estimated_cycles:
            return 0.0
        return self.ci_halfwidth / self.estimated_cycles

    @property
    def detail_fraction(self) -> float:
        """Share of instructions that actually ran detailed."""
        if not self.total_insns:
            return 1.0
        return (self.measured_insns + self.warmup_insns) / self.total_insns

    def to_dict(self) -> dict[str, Any]:
        return {
            "estimated_cycles": self.estimated_cycles,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_halfwidth": self.ci_halfwidth,
            "relative_ci": self.relative_ci,
            "confidence": self.confidence,
            "exact": self.exact,
            "n_units": self.n_units,
            "cpi_mean": self.cpi_mean,
            "total_insns": self.total_insns,
            "measured_insns": self.measured_insns,
            "warmup_insns": self.warmup_insns,
            "ff_insns": self.ff_insns,
            "detail_fraction": self.detail_fraction,
            "detailed_cycles": self.detailed_cycles,
            "config": {
                "warmup_insns": self.config.warmup_insns,
                "measure_insns": self.config.measure_insns,
                "period_insns": self.config.period_insns,
                "chunk_insns": self.config.chunk_insns,
                "jitter_insns": self.config.resolved_jitter,
                "horizon_insns": self.config.resolved_horizon,
                "confidence": self.config.confidence,
            },
        }


def build_estimate(unit_cpis: list[float], total_insns: int,
                   measured_insns: int, warmup_insns: int,
                   detailed_cycles: int, config: SamplingConfig,
                   unit_weights: list[int] | None = None
                   ) -> SamplingEstimate:
    """Fold per-unit CPIs into a :class:`SamplingEstimate`.

    The fast-forwarded instruction count is what remains of
    *total_insns* after the detailed windows' measured and warm-up
    shares; those instructions are priced at the mean unit CPI with a
    Student-t interval, on top of the directly measured
    *detailed_cycles*.

    *unit_weights* (one per unit CPI, summing to the fast-forwarded
    count) stratifies the pricing: each unit's CPI prices exactly the
    instructions fast-forwarded after that unit's window. A final
    drain-phase unit — a few straggler threads finishing with the chip
    nearly idle, so a per-thread CPI far above steady state — gets
    weight 0 and cannot bias the whole-run mean.
    """
    ff_insns = total_insns - measured_insns - warmup_insns
    if ff_insns < 0:
        raise ConfigError(
            f"instruction accounting broke: {total_insns} total < "
            f"{measured_insns} measured + {warmup_insns} warm-up"
        )
    if ff_insns == 0:
        return SamplingEstimate(
            estimated_cycles=detailed_cycles, ci_halfwidth=0.0,
            confidence=config.confidence, exact=True,
            n_units=len(unit_cpis),
            cpi_mean=(sum(unit_cpis) / len(unit_cpis)
                      if unit_cpis else 0.0),
            total_insns=total_insns, measured_insns=measured_insns,
            warmup_insns=warmup_insns, ff_insns=0,
            detailed_cycles=detailed_cycles, config=config,
        )
    if not unit_cpis:
        raise ConfigError(
            "no sampling unit measured any instructions but "
            f"{ff_insns} fast-forwarded; cannot extrapolate"
        )
    mean, half = mean_ci(unit_cpis, config.confidence, unit_weights)
    return SamplingEstimate(
        estimated_cycles=detailed_cycles + int(mean * ff_insns + 0.5),
        ci_halfwidth=half * ff_insns,
        confidence=config.confidence, exact=False,
        n_units=len(unit_cpis), cpi_mean=mean, total_insns=total_insns,
        measured_insns=measured_insns, warmup_insns=warmup_insns,
        ff_insns=ff_insns, detailed_cycles=detailed_cycles, config=config,
    )


__all__ = [
    "SamplingConfig", "SamplingEstimate", "build_estimate",
    "mean_ci", "resolve_config",
]
