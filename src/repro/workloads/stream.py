"""The STREAM benchmark on Cyclops (Sections 3.2, Figures 4-6).

STREAM measures sustainable memory bandwidth with four vector kernels
over double-precision vectors ``a``, ``b``, ``c`` of length ``n``:

=========  ================  ==================
kernel     operation          counted bytes/elem
=========  ================  ==================
copy       ``c[i] = a[i]``             16
scale      ``b[i] = s*c[i]``           16
add        ``c[i] = a[i]+b[i]``        24
triad      ``a[i] = b[i]+s*c[i]``      24
=========  ================  ==================

All of the paper's execution modes are supported through
:class:`StreamParams`:

* ``independent=True`` — the out-of-the-box multithreaded run: every
  thread executes its *own* private STREAM (Figure 4b);
* ``partition`` — blocked vs the paper's grouped-cyclic iteration
  partitioning (Figure 5a/b);
* ``local_caches=True`` — interest groups pin each thread's block to its
  quad's cache, line-aligned to avoid false sharing (Figure 5c);
* ``unroll`` — manual 4-way unrolling, issuing independent loads while
  earlier loads complete (Figure 5d);
* ``policy`` — sequential vs balanced thread allocation (Section 3.2.2).

Each simulated iteration charges the instruction sequence a simple
compiled loop would execute: the loads/stores and FP ops with their true
dependences, plus three one-cycle fixed-point bookkeeping ops and one
branch per loop iteration (per *unrolled group* when unrolling — that is
exactly why unrolling helps).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, InterestGroup, Level
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.common import TimedSection, block_ranges, cyclic_group_indices

STREAM_KERNELS = ("copy", "scale", "add", "triad")

#: Counted bytes per element, following the STREAM convention.
BYTES_PER_ELEMENT = {"copy": 16, "scale": 16, "add": 24, "triad": 24}

#: The scale factor of the Scale and Triad kernels.
SCALAR = 3.0

#: Initial vector values (arbitrary but nonzero so verification is real).
INIT_A, INIT_B, INIT_C = 1.0, 2.0, 3.0

#: Loop-overhead charged per iteration: pointer bumps + count + branch.
OVERHEAD_INT_OPS = 3

#: Per kernel, the vector it writes (0 = a, 1 = b, 2 = c) and the value
#: every element of it holds afterwards. The values are exact in binary64
#: and every kernel is idempotent under warm-up.
RESULT = {
    "copy": (2, INIT_A),
    "scale": (1, SCALAR * INIT_C),
    "add": (2, INIT_A + INIT_B),
    "triad": (0, INIT_B + SCALAR * INIT_C),
}


@dataclass(frozen=True)
class StreamParams:
    """One STREAM configuration point."""

    kernel: str = "triad"
    #: Total elements (per-thread elements when ``independent``).
    n_elements: int = 2048
    n_threads: int = 1
    partition: str = "block"  # "block" or "cyclic"
    local_caches: bool = False
    policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL
    unroll: int = 1
    independent: bool = False
    #: None = auto: warm up once when the data fits in the caches.
    warmup: bool | None = None
    verify: bool = True

    def __post_init__(self) -> None:
        if self.kernel not in STREAM_KERNELS:
            raise WorkloadError(f"unknown STREAM kernel {self.kernel!r}")
        if self.partition not in ("block", "cyclic"):
            raise WorkloadError(f"unknown partition {self.partition!r}")
        if self.unroll < 1:
            raise WorkloadError("unroll factor must be >= 1")
        if self.local_caches and self.partition != "block":
            raise WorkloadError("local caches require blocked partitioning")
        if self.independent and self.partition != "block":
            raise WorkloadError("independent mode has no shared partitioning")

    @property
    def counted_bytes(self) -> int:
        """Bytes the STREAM convention counts for one full pass."""
        total = self.n_elements * (self.n_threads if self.independent else 1)
        return BYTES_PER_ELEMENT[self.kernel] * total


@dataclass
class StreamResult:
    """Measured outcome of one STREAM run."""

    params: StreamParams
    cycles: int
    total_bytes: int
    #: Aggregate counted bandwidth in bytes/second.
    bandwidth: float
    #: Per-thread counted bandwidth in bytes/second (Figure 4's metric).
    per_thread_bandwidth: list[float] = field(default_factory=list)
    verified: bool = False
    memory_traffic_bytes: int = 0

    @property
    def bandwidth_gb_s(self) -> float:
        """Aggregate bandwidth in GB/s (the paper's Figure 5/6 unit)."""
        return self.bandwidth / 1e9

    @property
    def mean_thread_bandwidth_mb_s(self) -> float:
        """Average per-thread bandwidth in MB/s (Figure 4's unit)."""
        if not self.per_thread_bandwidth:
            return 0.0
        return sum(self.per_thread_bandwidth) / len(self.per_thread_bandwidth) / 1e6


# ---------------------------------------------------------------------------
# Thread bodies (one per kernel, generic in unroll factor)
# ---------------------------------------------------------------------------
# The kernel loops use the context's split-phase memory/FPU API: the
# loop yields an op's issue cycle itself — the thread clock, or the
# latest of it and the op's input ready times (``ThreadCtx.op_begin``,
# inlined as comparisons: a builtin ``max`` call costs several times
# more) — and passes the granted cycle to the op's ``*_finish``. Per
# element the event sequence matches the plain generator methods
# exactly, but no generator object is allocated per operation — at
# STREAM scale that allocation is the largest host cost after the
# accesses themselves. A two-input op keeps only the later of its
# inputs' ready times. The finishers only do timing: each iteration ends
# in one ``count_iteration`` call that counts its ops and charges the
# loop overhead (``charge_ops(OVERHEAD_INT_OPS)`` + a branch).
def _copy_loop(ctx, ea_src, ea_dst, unroll):
    n = len(ea_src)
    k = 0
    times = [0] * unroll
    vals = [0.0] * unroll
    tu = ctx.tu
    while k < n:
        u = unroll if k + unroll <= n else n - k
        for j in range(u):
            now = yield tu.issue_time
            times[j], vals[j] = ctx.load_f64_finish(now, ea_src[k + j])
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            ctx.store_f64_finish(now, ea_dst[k + j], vals[j])
        ctx.count_iteration(2 * u, u, u, 0, OVERHEAD_INT_OPS, 1)
        k += u


def _scale_loop(ctx, ea_src, ea_dst, scalar, unroll):
    n = len(ea_src)
    k = 0
    times = [0] * unroll
    vals = [0.0] * unroll
    tu = ctx.tu
    while k < n:
        u = unroll if k + unroll <= n else n - k
        for j in range(u):
            now = yield tu.issue_time
            times[j], vals[j] = ctx.load_f64_finish(now, ea_src[k + j])
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            times[j] = ctx.fp_mul_finish(now)
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            ctx.store_f64_finish(now, ea_dst[k + j], scalar * vals[j])
        ctx.count_iteration(3 * u, u, u, u, OVERHEAD_INT_OPS, 1)
        k += u


def _add_loop(ctx, ea_x, ea_y, ea_dst, unroll):
    n = len(ea_x)
    k = 0
    times = [0] * unroll
    vx = [0.0] * unroll
    vy = [0.0] * unroll
    tu = ctx.tu
    while k < n:
        u = unroll if k + unroll <= n else n - k
        for j in range(u):
            now = yield tu.issue_time
            tx, vx[j] = ctx.load_f64_finish(now, ea_x[k + j])
            now = yield tu.issue_time
            ty, vy[j] = ctx.load_f64_finish(now, ea_y[k + j])
            times[j] = ty if ty > tx else tx
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            times[j] = ctx.fp_add_finish(now)
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            ctx.store_f64_finish(now, ea_dst[k + j], vx[j] + vy[j])
        ctx.count_iteration(4 * u, 2 * u, u, u, OVERHEAD_INT_OPS, 1)
        k += u


def _triad_loop(ctx, ea_x, ea_y, ea_dst, scalar, unroll):
    n = len(ea_x)
    k = 0
    times = [0] * unroll
    vx = [0.0] * unroll
    vy = [0.0] * unroll
    load_finish = ctx.load_f64_finish
    store_finish = ctx.store_f64_finish
    fma_finish = ctx.fp_fma_finish
    count = ctx.count_iteration
    tu = ctx.tu
    while k < n:
        u = unroll if k + unroll <= n else n - k
        for j in range(u):
            now = yield tu.issue_time
            tx, vx[j] = load_finish(now, ea_x[k + j])
            now = yield tu.issue_time
            ty, vy[j] = load_finish(now, ea_y[k + j])
            times[j] = ty if ty > tx else tx
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            times[j] = fma_finish(now)
        for j in range(u):
            t = times[j]
            clock = tu.issue_time
            now = yield (t if t > clock else clock)
            store_finish(now, ea_dst[k + j], vx[j] + scalar * vy[j])
        count(4 * u, 2 * u, u, 2 * u, OVERHEAD_INT_OPS, 1)
        k += u


def _kernel_loop(ctx, kernel, eas, unroll):
    """The loop generator of one full pass of *kernel* over this
    thread's element addresses."""
    ea_a, ea_b, ea_c = eas
    if kernel == "copy":
        return _copy_loop(ctx, ea_a, ea_c, unroll)
    if kernel == "scale":
        return _scale_loop(ctx, ea_c, ea_b, SCALAR, unroll)
    if kernel == "add":
        return _add_loop(ctx, ea_a, ea_b, ea_c, unroll)
    return _triad_loop(ctx, ea_b, ea_c, ea_a, SCALAR, unroll)


def _thread_body(ctx, kernel, eas, unroll, warmup, start_barrier, section,
                 write_back):
    if warmup:
        yield from _kernel_loop(ctx, kernel, eas, unroll)
    yield from start_barrier.wait(ctx)
    section.record_start(ctx.software_index, ctx.time)
    yield from _kernel_loop(ctx, kernel, eas, unroll)
    section.record_finish(ctx.software_index, ctx.time)
    if write_back:
        # Every thread's timed loop is done before any flush contends
        # with it for ports and banks.
        yield from start_barrier.wait(ctx)
        yield from _flush_written(ctx, eas[RESULT[kernel][0]])


def _flush_written(ctx, written):
    """Flush each line holding an address of *written*, once.

    On a strict-incoherence chip a cache line's bytes reach memory only
    when the line leaves its cache, so without this the results a thread
    leaves in its caches never reach the backing store the check reads.
    """
    line_mask = ~(ctx.chip.config.dcache_line_bytes - 1)
    last = None
    for effective in written:
        line = effective & line_mask
        if line != last:
            last = line
            yield from ctx.flush_line(effective)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------
def _element_addresses(base: int, indices: range, ig_byte: int) -> range:
    """Each element's effective address (the address stream), as a range.

    The first and the last element are range-checked through
    ``make_effective``; every address between them then fits too, and is
    the first one plus a multiple of the stride.
    """
    if not indices:
        return range(0)
    first = make_effective(base + 8 * indices[0], ig_byte)
    make_effective(base + 8 * indices[-1], ig_byte)
    step = 8 * indices.step
    return range(first, first + step * len(indices), step)


def _auto_warmup(params: StreamParams, config: ChipConfig) -> bool:
    """Warm up when the working set fits in the combined data caches."""
    vectors = 2 if params.kernel in ("copy", "scale") else 3
    total = params.n_elements * (params.n_threads if params.independent else 1)
    working_set = vectors * 8 * total
    return working_set <= config.dcache_total_bytes


def run_stream(params: StreamParams, chip: Chip | None = None) -> StreamResult:
    """Run one STREAM configuration and return its measured bandwidth."""
    if chip is None:
        chip = Chip()
    config = chip.config
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError(
            f"{params.n_threads} threads requested; kernel offers "
            f"{kernel.max_software_threads}"
        )

    n = params.n_elements
    n_threads = params.n_threads
    warmup = params.warmup
    if warmup is None:
        warmup = _auto_warmup(params, config)

    # --- allocate and initialize the vectors -------------------------
    backing = chip.memory.backing
    if params.independent:
        bases = [
            tuple(kernel.heap.alloc_f64_array(n) for _ in range(3))
            for _ in range(n_threads)
        ]
    else:
        shared = tuple(kernel.heap.alloc_f64_array(n) for _ in range(3))
        bases = [shared] * n_threads
    seen = set()
    for base_a, base_b, base_c in bases:
        if base_a in seen:
            continue
        seen.add(base_a)
        backing.f64_view(base_a, n)[:] = INIT_A
        backing.f64_view(base_b, n)[:] = INIT_B
        backing.f64_view(base_c, n)[:] = INIT_C

    # --- per-thread element index sets --------------------------------
    if params.independent:
        index_sets = [range(n)] * n_threads
    elif params.partition == "block":
        align = config.dcache_line_bytes // 8 if params.local_caches else 1
        index_sets = block_ranges(n, n_threads, align=align)
    else:
        index_sets = cyclic_group_indices(n, n_threads)

    # --- spawn ----------------------------------------------------------
    # A strict chip keeps cached data apart from memory: each thread
    # writes its results back once its timed loop is done.
    write_back = chip.memory.strict
    start_barrier = kernel.hardware_barrier(0, n_threads)
    section = TimedSection.empty()
    threads = []
    for t in range(n_threads):
        base_a, base_b, base_c = bases[t]
        hw_tid = kernel.hw_tid_for_slot(len(threads))
        quad_id = hw_tid // config.threads_per_quad
        if params.local_caches:
            ig_byte = InterestGroup(Level.ONE, quad_id).encode()
        else:
            ig_byte = IG_ALL
        eas = (
            _element_addresses(base_a, index_sets[t], ig_byte),
            _element_addresses(base_b, index_sets[t], ig_byte),
            _element_addresses(base_c, index_sets[t], ig_byte),
        )
        threads.append(kernel.spawn(
            _thread_body, params.kernel, eas, params.unroll, warmup,
            start_barrier, section, write_back, name=f"stream-{t}",
        ))
    kernel.run()

    # --- measure ----------------------------------------------------------
    cycles = max(1, section.elapsed)
    total_bytes = params.counted_bytes
    bandwidth = total_bytes * config.clock_hz / cycles
    per_thread = []
    for t in range(n_threads):
        thread_elems = len(index_sets[t])
        thread_bytes = BYTES_PER_ELEMENT[params.kernel] * thread_elems
        thread_cycles = max(1, section.thread_elapsed(t))
        per_thread.append(thread_bytes * config.clock_hz / thread_cycles)

    verified = _verify(params, backing, bases, n) if params.verify else False
    return StreamResult(
        params=params,
        cycles=cycles,
        total_bytes=total_bytes,
        bandwidth=bandwidth,
        per_thread_bandwidth=per_thread,
        verified=verified,
        memory_traffic_bytes=chip.memory.memory_traffic_bytes,
    )


def _verify(params: StreamParams, backing, bases, n: int) -> bool:
    """Check the kernel's arithmetic actually happened in memory.

    The expected values (:data:`RESULT`) are exact, so the check is exact
    equality: one bool vector, no float temporaries at the run's memory
    peak.
    """
    slot, value = RESULT[params.kernel]
    for base_tuple in dict.fromkeys(bases):
        view = backing.f64_view(base_tuple[slot], n)
        if not bool((view == value).all()):
            return False
    return True
