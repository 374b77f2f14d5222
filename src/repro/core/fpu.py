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
from repro.engine.resources import NonPipelinedUnit


class FPUPipe:
    """The adder or multiplier pipe of one FPU: one issue per cycle.

    The pipe keeps only its timeline: ``next_free``, and the request
    order test (``_last_request``, ``reorderings``) that adds need,
    because an add can arrive behind an FMA granted past its time. Its
    ``busy_cycles`` and ``n_requests`` are derived from the owning FPU's
    per-kind counts (see :class:`FPU`), so an issue counts once.
    """

    __slots__ = ("name", "next_free", "reorderings", "_last_request",
                 "_fpu", "_is_adder")

    def __init__(self, name: str, fpu: "FPU", is_adder: bool) -> None:
        self.name = name
        self.next_free = 0
        #: Requests that arrived timestamped before a previous request.
        self.reorderings = 0
        self._last_request = 0
        self._fpu = fpu
        self._is_adder = is_adder

    def _own_issues(self) -> int:
        """One-cycle issues of this pipe alone (not FMAs)."""
        fpu = self._fpu
        return fpu.n_add + fpu.n_convert if self._is_adder else fpu.n_mul

    @property
    def n_requests(self) -> int:
        """Issues granted on this pipe (an FMA takes one on each)."""
        return self._own_issues() + self._fpu.n_fma

    @property
    def busy_cycles(self) -> int:
        """Issue cycles this pipe was held (an FMA holds both pipes)."""
        fpu = self._fpu
        return self._own_issues() + fpu.n_fma * fpu._fma_execution

    def utilization(self, elapsed: int) -> float:
        """Fraction of *elapsed* cycles the pipe was busy."""
        if elapsed <= 0:
            return 0.0
        return self.busy_cycles / elapsed


class FPU:
    """One quad's floating-point unit: adder + multiplier + div/sqrt.

    Count once: an add, multiply, convert or FMA increments only its own
    kind's count (``n_add``, ``n_mul``, ``n_convert``, ``n_fma``).
    ``operations`` and each pipe's ``busy_cycles`` and ``n_requests``
    are derived from those counts; divides and square roots are the
    divider's requests.
    """

    def __init__(self, fpu_id: int, config: ChipConfig) -> None:
        self.fpu_id = fpu_id
        self.config = config
        self.adder = FPUPipe(f"fpu{fpu_id}.add", self, True)
        self.multiplier = FPUPipe(f"fpu{fpu_id}.mul", self, False)
        self.divider = NonPipelinedUnit(f"fpu{fpu_id}.div")
        self.n_add = self.n_mul = self.n_convert = self.n_fma = 0
        #: Cycles requests waited for a busy sub-unit (quad contention).
        self.contention_cycles = 0
        self.failed = False
        # Add, multiply, convert and FMA timing hoisted from the (frozen)
        # config.
        latency = config.latency
        self._add_execution, self._add_latency = latency.fp_add
        self._mul_execution, self._mul_latency = latency.fp_multiply
        self._cvt_execution, self._cvt_latency = latency.fp_convert
        self._fma_execution, self._fma_latency = latency.fp_multiply_add

    @property
    def operations(self) -> int:
        """Operations issued on this FPU, of every kind."""
        return (self.n_add + self.n_mul + self.n_convert + self.n_fma
                + self.divider.n_requests)

    # ------------------------------------------------------------------
    def add(self, time: int) -> tuple[int, int]:
        """Floating-point add/subtract/compare through the adder pipe."""
        # Unlike an FMA's, an add's request can be out of order: it may
        # arrive behind an FMA granted past its time.
        adder = self.adder
        if time < adder._last_request:
            adder.reorderings += 1
        else:
            adder._last_request = time
        grant = adder.next_free
        if time >= grant:
            grant = time
        else:
            self.contention_cycles += grant - time
        adder.next_free = grant + 1
        self.n_add += 1
        issue_end = grant + self._add_execution
        return issue_end, issue_end + self._add_latency

    def multiply(self, time: int) -> tuple[int, int]:
        """Floating-point multiply through the multiplier pipe."""
        # Inlined like ``add``.
        multiplier = self.multiplier
        if time < multiplier._last_request:
            multiplier.reorderings += 1
        else:
            multiplier._last_request = time
        grant = multiplier.next_free
        if time >= grant:
            grant = time
        else:
            self.contention_cycles += grant - time
        multiplier.next_free = grant + 1
        self.n_mul += 1
        issue_end = grant + self._mul_execution
        return issue_end, issue_end + self._mul_latency

    def convert(self, time: int) -> tuple[int, int]:
        """Int/float conversion (same cost class as add in Table 2)."""
        # Issues on the adder pipe, like ``add``.
        adder = self.adder
        if time < adder._last_request:
            adder.reorderings += 1
        else:
            adder._last_request = time
        grant = adder.next_free
        if time >= grant:
            grant = time
        else:
            self.contention_cycles += grant - time
        adder.next_free = grant + 1
        self.n_convert += 1
        issue_end = grant + self._cvt_execution
        return issue_end, issue_end + self._cvt_latency

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
        # Both pipes are free at *grant*, so each grants exactly *grant*
        # for the FMA's execution cycles. A pipe's last request never
        # passes its next free cycle, so *grant* is never out of order
        # (``reorderings`` cannot move).
        issue_end = grant + self._fma_execution
        adder._last_request = grant
        adder.next_free = issue_end
        multiplier._last_request = grant
        multiplier.next_free = issue_end
        self.n_fma += 1
        if grant != time:
            self.contention_cycles += grant - time
        return issue_end, issue_end + self._fma_latency

    def divide(self, time: int) -> tuple[int, int]:
        """Double-precision divide: occupies the div/sqrt unit fully."""
        execution, latency = self.config.latency.fp_divide
        grant = self.divider.execute(time, execution)
        if grant != time:
            self.contention_cycles += grant - time
        return grant + execution, grant + execution + latency

    def sqrt(self, time: int) -> tuple[int, int]:
        """Double-precision square root: occupies the div/sqrt unit fully."""
        execution, latency = self.config.latency.fp_sqrt
        grant = self.divider.execute(time, execution)
        if grant != time:
            self.contention_cycles += grant - time
        return grant + execution, grant + execution + latency

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Break the FPU (disables the whole quad; see faults module)."""
        self.failed = True
