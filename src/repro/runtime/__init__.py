"""The resident system kernel and its threading runtime.

"Each chip runs a resident system kernel ... The kernel supports single
user, single program, multithreaded applications within each chip. ...
The kernel exposes a single-address space shared by all threads. Due to
the small address space and large number of hardware threads available,
no resource virtualization is performed in software: virtual addresses
map directly to physical addresses (no paging) and software threads map
directly to hardware threads. The kernel does not support preemption ...
Every software thread is preallocated with a fixed size stack ...
resulting in fast thread creation and reuse." (paper, Section 3.1)

The public surface is :class:`repro.runtime.kernel.Kernel` (boot a chip,
allocate memory, spawn/join software threads, run the simulation) and
:class:`repro.runtime.context.ThreadCtx` (the direct-execution API that
workload thread bodies program against).
"""

from repro.runtime.barrier_hw import HardwareBarrier
from repro.runtime.barrier_sw import TreeBarrier
from repro.runtime.context import ThreadCtx
from repro.runtime.heap import BumpHeap
from repro.runtime.kernel import AllocationPolicy, Kernel, SoftwareThread
from repro.runtime.locks import SpinLock

__all__ = [
    "AllocationPolicy",
    "BumpHeap",
    "HardwareBarrier",
    "Kernel",
    "SoftwareThread",
    "SpinLock",
    "ThreadCtx",
    "TreeBarrier",
]
