"""Fault tolerance: running a chip with broken components.

The paper's future work (Section 5) sketches the intended behaviour — we
implement it: "if a memory bank fails, the hardware will set a special
register to specify the maximum amount of memory available on the chip and
will re-map all the addresses so that the address space is contiguous. If
thread units fail, there is enough parallelism in the chip so that useful
work can still be accomplished. If an FPU breaks, an entire quad will be
disabled, but there are 31 other quads available for computation."

:class:`FaultController` injects each failure mode and keeps the chip
usable afterwards:

* **bank failure** — the bank is marked broken, the
  :class:`~repro.memory.address.AddressMap` shrinks the contiguous space
  (the special max-memory register) and re-interleaves over survivors;
* **thread failure** — the thread unit is excluded from kernel
  allocation; everything else keeps running;
* **FPU failure** — the whole quad is disabled; its data cache is also
  withdrawn from interest-group placement, with a deterministic fallback
  remap so addresses still resolve to exactly one healthy cache.
"""

from __future__ import annotations

from repro.core.chip import Chip
from repro.errors import MemoryFault


class FaultController:
    """Injects and tracks component failures on a chip."""

    def __init__(self, chip: Chip) -> None:
        self.chip = chip
        self.failed_banks: list[int] = []
        self.failed_threads: list[int] = []
        self.failed_fpus: list[int] = []
        self._disabled_caches: set[int] = set()

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def fail_bank(self, bank_id: int) -> int:
        """Break a memory bank; returns the new max-memory register value.

        Cached lines from remapped addresses are dropped chip-wide: after
        a remap the same physical address names different bytes, so stale
        tags must not survive (software reloads its data, as the paper's
        adaptive-application story expects).
        """
        self.chip.memory.banks[bank_id].fail()
        self.chip.memory.address_map.disable_bank(bank_id)
        self.chip.memory.cold_caches()
        self.failed_banks.append(bank_id)
        return self.chip.memory.address_map.max_memory

    def fail_thread(self, tid: int) -> None:
        """Break one thread unit."""
        self.chip.thread(tid).fail()
        self.failed_threads.append(tid)

    def fail_fpu(self, fpu_id: int) -> None:
        """Break an FPU, disabling its whole quad (and its cache)."""
        self.chip.fpus[fpu_id].fail()
        self.failed_fpus.append(fpu_id)
        self._disabled_caches.add(fpu_id)  # cache id == quad id == fpu id
        self._install_cache_remap()

    # ------------------------------------------------------------------
    # Cache placement remap around disabled quads
    # ------------------------------------------------------------------
    def _install_cache_remap(self) -> None:
        """Point the memory subsystem's placement away from disabled caches.

        ``remap_caches`` also drops both placement memos (per line and
        per single-cache group byte): entries resolved before the fault
        may name the cache that is now disabled.
        """
        memory = self.chip.memory
        disabled = self._disabled_caches
        n_caches = memory.config.n_dcaches
        healthy = [
            cache_id for cache_id in range(n_caches)
            if cache_id not in disabled
        ]
        if not healthy:
            raise MemoryFault("no healthy data caches remain")
        # Deterministic fallback: a disabled cache's lines go to a
        # healthy cache picked by its id.
        memory.remap_caches([
            healthy[cache_id % len(healthy)] if cache_id in disabled
            else cache_id
            for cache_id in range(n_caches)
        ])

    # ------------------------------------------------------------------
    @property
    def healthy_thread_ids(self) -> list[int]:
        """Thread ids still usable by the kernel."""
        return self.chip.enabled_threads

    def summary(self) -> dict[str, object]:
        """A report of the chip's degraded state."""
        return {
            "failed_banks": list(self.failed_banks),
            "failed_threads": list(self.failed_threads),
            "failed_fpus": list(self.failed_fpus),
            "max_memory": self.chip.memory.address_map.max_memory,
            "healthy_threads": len(self.healthy_thread_ids),
        }
