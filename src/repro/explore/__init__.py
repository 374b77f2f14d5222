"""Architecture exploration: the sweep-able chip generator.

The paper argues a design-space position — many simple multithreaded
thread units per quad beat fewer complex cores for cellular workloads —
but evaluates one fixed shape. This package turns the simulator into an
exploration tool: :class:`ChipSpec` parameterizes the family's five
structural knobs and derives a buildable
:class:`~repro.core.chip.Chip`, and :func:`sweep` enumerates grids of
shapes for the experiment families (``saturation``, ``bandwidth``,
``contention`` in :mod:`repro.experiments`) to fan through the jobs
pool. See ``docs/exploration.md``.
"""

from repro.explore.chipspec import (
    MAX_BANKS,
    MEM_SWITCH_LATENCY,
    MEMORY_KB,
    ChipSpec,
    sweep,
)

__all__ = [
    "MAX_BANKS",
    "MEM_SWITCH_LATENCY",
    "MEMORY_KB",
    "ChipSpec",
    "sweep",
]
