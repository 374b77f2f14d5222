"""The assembled Cyclops chip.

:class:`Chip` instantiates the full hierarchy of Figure 1 from a
:class:`~repro.config.ChipConfig`: thread units grouped into quads with
their shared FPUs, the memory subsystem (data caches, switches, banks,
off-chip DMA), the pair-private instruction caches, and the wired-OR
barrier SPR file. It owns the chip-wide counters and offers whole-chip
reset between experiment runs.

The chip is *passive* hardware: programs run on it through either the ISA
interpreter (:mod:`repro.isa.interpreter`) or the resident kernel's
direct-execution contexts (:mod:`repro.runtime`).
"""

from __future__ import annotations

from repro.config import ChipConfig
from repro.core.fpu import FPU
from repro.core.icache import InstructionCache
from repro.core.quad import Quad
from repro.core.spr import BarrierSPRFile
from repro.core.thread_unit import ThreadUnit
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.memory.subsystem import MemorySubsystem


class Chip:
    """One Cyclops cell: 128 threads, 32 quads, 8 MB of embedded DRAM."""

    def __init__(self, config: ChipConfig | None = None,
                 strict_incoherence: bool = False,
                 tracer: Tracer = NULL_TRACER,
                 sanitize: bool | None = None) -> None:
        self.config = config or ChipConfig.paper()
        self.tracer = tracer
        #: Optional :class:`~repro.telemetry.instrument.ChipInstrumentation`.
        #: When set, kernels booted on this chip attach their scheduler
        #: probe and barriers their spread histograms automatically.
        self.telemetry = None
        self.threads = [
            ThreadUnit(tid, self.config) for tid in range(self.config.n_threads)
        ]
        self.fpus = [FPU(i, self.config) for i in range(self.config.n_fpus)]
        per_quad = self.config.threads_per_quad
        self.quads = [
            Quad(
                quad_id,
                self.config,
                self.threads[quad_id * per_quad:(quad_id + 1) * per_quad],
                self.fpus[quad_id],
            )
            for quad_id in range(self.config.n_quads)
        ]
        self.icaches = [
            InstructionCache(i, self.config) for i in range(self.config.n_icaches)
        ]
        self.memory = MemorySubsystem(
            self.config, strict_incoherence=strict_incoherence, tracer=tracer
        )
        self.barrier_spr = BarrierSPRFile(self.config)
        #: Optional coherence checker (:mod:`repro.sanitizer`). Enabled
        #: explicitly via ``sanitize=True``, or for every chip while a
        #: CLI's ``--sanitize`` holds :func:`repro.sanitizer.session.force`.
        #: When off the simulator carries no sanitizer code at all.
        if sanitize is None:
            from repro.sanitizer.session import forced
            sanitize = forced()
        if sanitize:
            from repro.sanitizer import CoherenceSanitizer
            self.sanitizer = CoherenceSanitizer().attach(self)
        else:
            self.sanitizer = None

    # ------------------------------------------------------------------
    # Navigation helpers
    # ------------------------------------------------------------------
    def thread(self, tid: int) -> ThreadUnit:
        """The thread unit with hardware id *tid*."""
        return self.threads[tid]

    def quad_of(self, tid: int) -> Quad:
        """The quad that owns thread *tid*."""
        return self.quads[tid // self.config.threads_per_quad]

    def fpu_of(self, tid: int) -> FPU:
        """The FPU thread *tid* is entitled to (its quad's)."""
        return self.quad_of(tid).fpu

    def icache_of(self, tid: int) -> InstructionCache:
        """The instruction cache serving thread *tid*'s quad pair."""
        return self.icaches[self.quad_of(tid).icache_id]

    @property
    def enabled_threads(self) -> list[int]:
        """Hardware thread ids that are healthy and in enabled quads."""
        return [
            thread.tid
            for thread in self.threads
            if not thread.failed and not self.quad_of(thread.tid).disabled
        ]

    # ------------------------------------------------------------------
    # Peak rates (delegate to config; convenient for reports)
    # ------------------------------------------------------------------
    @property
    def peak_gflops(self) -> float:
        """Peak chip performance in GFlops (32 at the paper's design point)."""
        return self.peak_flops / 1e9

    @property
    def peak_flops(self) -> float:
        """Peak chip FLOP rate in flops/second."""
        return self.config.peak_flops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self.config
        return (
            f"<Chip {cfg.n_threads} threads / {cfg.n_quads} quads / "
            f"{cfg.memory_bytes // 1024 // 1024} MB>"
        )
