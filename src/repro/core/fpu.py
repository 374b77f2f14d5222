"""The shared floating-point unit (one per quad).

"The floating-point unit consists of three functional units: an adder, a
multiplier, and a divide and square root unit. Threads can dispatch a
floating point addition and a floating point multiplication at every
cycle. The FPU can complete a floating point multiply-add (FMA) every
cycle." (paper, Section 2)

Only the four threads of the owning quad may use its FPU, and contention
between them is what the sharing-degree trade-off in the paper is about.
The adder and multiplier are fully pipelined (one issue per cycle each,
results after the Table 2 latency); divide and square root occupy the
non-pipelined unit for their whole execution time. An FMA issues through
both the adder and multiplier slots of its cycle, which is why a stream of
FMAs sustains exactly one per cycle (1 GFlops at 500 MHz as the paper
counts it: one FMA = 2 flops).
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.engine.resources import NonPipelinedUnit, PipelinedUnit


class FPU:
    """One quad's floating-point unit: adder + multiplier + div/sqrt."""

    def __init__(self, fpu_id: int, config: ChipConfig) -> None:
        self.fpu_id = fpu_id
        self.config = config
        self.adder = PipelinedUnit(f"fpu{fpu_id}.add")
        self.multiplier = PipelinedUnit(f"fpu{fpu_id}.mul")
        self.divider = NonPipelinedUnit(f"fpu{fpu_id}.div")
        self.operations = 0
        #: Cycles requests waited for a busy sub-unit (quad contention).
        self.contention_cycles = 0
        self.failed = False
        # FMA timing hoisted from the (frozen) config.
        self._fma_execution, self._fma_latency = \
            config.latency.fp_multiply_add

    # ------------------------------------------------------------------
    def _issue_pipelined(self, unit: PipelinedUnit, time: int,
                         latency_row: tuple[int, int]) -> tuple[int, int]:
        """Issue on a pipelined sub-unit: returns (issue_end, result_ready)."""
        execution, latency = latency_row
        grant = unit.issue(time)
        self.operations += 1
        if grant != time:
            self.contention_cycles += grant - time
        return grant + execution, grant + execution + latency

    def add(self, time: int) -> tuple[int, int]:
        """Floating-point add/subtract/compare through the adder pipe."""
        return self._issue_pipelined(self.adder, time, self.config.latency.fp_add)

    def multiply(self, time: int) -> tuple[int, int]:
        """Floating-point multiply through the multiplier pipe."""
        return self._issue_pipelined(
            self.multiplier, time, self.config.latency.fp_multiply
        )

    def convert(self, time: int) -> tuple[int, int]:
        """Int/float conversion (same cost class as add in Table 2)."""
        return self._issue_pipelined(
            self.adder, time, self.config.latency.fp_convert
        )

    def fma(self, time: int) -> tuple[int, int]:
        """Fused multiply-add: one issue slot of *both* pipes.

        The grant is the first cycle where the adder and multiplier issue
        slots are simultaneously free at or after *time*.
        """
        adder = self.adder
        multiplier = self.multiplier
        grant = time
        if adder.next_free > grant:
            grant = adder.next_free
        if multiplier.next_free > grant:
            grant = multiplier.next_free
        # TimelineResource.reserve(grant, execution) on both pipes,
        # inlined (two frames per FMA): both are free at *grant*, so each
        # grants exactly *grant*; every counter reserve keeps is kept. A
        # pipe's last request never passes its next free cycle, so
        # *grant* is never out of order (``reorderings`` cannot move).
        execution = self._fma_execution
        issue_end = grant + execution
        adder._last_request = grant
        adder.next_free = issue_end
        adder.busy_cycles += execution
        adder.n_requests += 1
        multiplier._last_request = grant
        multiplier.next_free = issue_end
        multiplier.busy_cycles += execution
        multiplier.n_requests += 1
        self.operations += 1
        if grant != time:
            self.contention_cycles += grant - time
        return issue_end, issue_end + self._fma_latency

    def divide(self, time: int) -> tuple[int, int]:
        """Double-precision divide: occupies the div/sqrt unit fully."""
        execution, latency = self.config.latency.fp_divide
        grant = self.divider.execute(time, execution)
        self.operations += 1
        if grant != time:
            self.contention_cycles += grant - time
        return grant + execution, grant + execution + latency

    def sqrt(self, time: int) -> tuple[int, int]:
        """Double-precision square root: occupies the div/sqrt unit fully."""
        execution, latency = self.config.latency.fp_sqrt
        grant = self.divider.execute(time, execution)
        self.operations += 1
        if grant != time:
            self.contention_cycles += grant - time
        return grant + execution, grant + execution + latency

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Break the FPU (disables the whole quad; see faults module)."""
        self.failed = True

    def reset(self) -> None:
        """Clear pipelines and counters."""
        self.adder.reset()
        self.multiplier.reset()
        self.divider.reset()
        self.operations = 0
        self.contention_cycles = 0
