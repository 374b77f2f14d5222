"""Cyclops: a reproduction of "Evaluation of a Multithreaded Architecture
for Cellular Computing" (HPCA 2002).

The package simulates the IBM Cyclops chip — 128 single-issue in-order
thread units in 32 quads sharing FPUs and 16 KB data caches, 16 banks of
embedded DRAM, software-controlled interest-group cache placement, and
wired-OR hardware barriers — and reproduces every table and figure of
the paper's evaluation.

Quick start::

    from repro import Chip, Kernel

    chip = Chip()                      # the paper's design point
    kernel = Kernel(chip)              # boot the resident kernel
    data = kernel.heap.alloc_f64_array(1024)

    def body(ctx):
        total = 0.0
        t = 0
        for i in range(1024):
            t, v = yield from ctx.load_f64(ctx.ea(data + 8 * i), deps=(t,))
            total += v
        return total

    thread = kernel.spawn(body)
    cycles = kernel.run()

Layers:

* :mod:`repro.core` — the chip hardware (quads, FPUs, barrier SPR);
* :mod:`repro.memory` — caches, banks, switches, interest groups;
* :mod:`repro.isa` — the ~60-opcode ISA, assembler, timed interpreter;
* :mod:`repro.runtime` — the resident kernel and direct-execution API;
* :mod:`repro.workloads` — STREAM and the Splash-2 kernels;
* :mod:`repro.experiments` — drivers for every table and figure.
"""

from repro.config import ChipConfig, LatencyTable
from repro.configio import load_config
from repro.core.chip import Chip
from repro.core.faults import FaultController
from repro.errors import CyclopsError
from repro.memory.interest_groups import IG_ALL, IG_OWN, InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.stream import StreamParams, StreamResult, run_stream

__version__ = "1.0.0"

__all__ = [
    "AllocationPolicy",
    "Chip",
    "ChipConfig",
    "CyclopsError",
    "FaultController",
    "IG_ALL",
    "IG_OWN",
    "InterestGroup",
    "Kernel",
    "LatencyTable",
    "Level",
    "StreamParams",
    "StreamResult",
    "__version__",
    "load_config",
    "run_stream",
]
