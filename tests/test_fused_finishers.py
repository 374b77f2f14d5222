"""The double finishers' own hit path against ``MemorySubsystem.access``.

``ThreadCtx.load_f64_finish`` and ``store_f64_finish`` make a plain
chip's cache hits themselves and hand everything else (misses, bad
addresses, strict, sanitized and memory-traced chips) to
``MemorySubsystem.access``. Two chips run the same random op sequence:
one with the fused finishers, one with every access through ``access``
and the generic finisher. Every returned value, thread clock, stall
counter, cache set (tags, LRU order, line state), placement and harvested
gauge must agree, and a bad address must raise the same error after the
same state change.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chip import Chip
from repro.core.faults import FaultController
from repro.engine.tracing import Tracer
from repro.errors import CyclopsError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, IG_OWN, InterestGroup, Level
from repro.memory.subsystem import AccessKind, MemorySubsystem
from repro.runtime.context import ThreadCtx
from repro.runtime.kernel import Kernel
from repro.telemetry.instrument import ChipInstrumentation
from repro.workloads.stream import StreamParams, run_stream

#: Thread units driven: two quad-mates, another quad, a far quad.
TIDS = (0, 1, 5, 40)

#: Interest-group bytes: OWN, two single-cache groups (one local to
#: quad 0, one on the quad a fault disables), a pair and all caches.
GROUPS = (IG_OWN, InterestGroup(Level.ONE, 0).encode(),
          InterestGroup(Level.ONE, 3).encode(),
          InterestGroup(Level.PAIR, 0).encode(), IG_ALL)

#: Physical addresses: ten lines 2 KiB apart fall in one set of an
#: 8-way cache (32 sets of 64-byte lines), so they hit out of LRU order
#: and evict, dirty victims included; two more lines sit in the next
#: set. Then misaligned doubles and the edges of max-memory before and
#: after a bank failure.
ADDRESSES = tuple(k * 2048 + off for k in range(10) for off in (0, 8)) \
    + (64, 2048 + 64)
BAD = (4, 2048 + 1, 0x780000 - 8, 0x780000, 0x7FFFF8, 0x800000)

#: An op: its kind, thread, physical address, group, time step and
#: stored value. Loads and stores dominate; a wide op sets a bit above the
#: 32-bit effective address; the faults disable quad 3 (remapping its
#: cache) or bank 15 (shrinking max-memory and dropping every line).
_OP = st.tuples(
    st.sampled_from(["load"] * 12 + ["store"] * 8
                    + ["wide", "fail_fpu", "fail_bank"]),
    st.integers(0, len(TIDS) - 1),
    st.sampled_from(ADDRESSES + BAD),
    st.integers(0, len(GROUPS) - 1),
    st.integers(0, 3),
    st.floats(allow_nan=False, allow_infinity=False),
)


class _Side:
    """One chip, its thread contexts and a count of ``access`` calls."""

    def __init__(self, fused: bool) -> None:
        self.chip = chip = Chip()
        self.faults = FaultController(chip)
        self.access_calls = 0
        real = chip.memory.access

        def counting(*args):
            self.access_calls += 1
            return real(*args)

        # Bound before the contexts exist: each binds it at construction.
        chip.memory.access = counting
        kernel = Kernel(chip)
        self.ctxs = [ThreadCtx(kernel, chip.thread(tid)) for tid in TIDS]
        for ctx in self.ctxs:
            assert ctx._fused
            ctx._fused = fused

    def apply(self, op, now):
        """Run one op at grant time *now*; returns its outcome."""
        kind, which, physical, group, _, value = op
        if kind == "fail_fpu":
            if not self.faults.failed_fpus:
                self.faults.fail_fpu(3)
            return None
        if kind == "fail_bank":
            if not self.faults.failed_banks:
                self.faults.fail_bank(15)
            return None
        ctx = self.ctxs[which]
        if kind == "wide":
            effective = (1 << 32) | physical
        else:
            effective = make_effective(physical, GROUPS[group])
        try:
            if kind == "store":
                return ctx.store_f64_finish(now, effective, value)
            return ctx.load_f64_finish(now, effective)
        except CyclopsError as error:
            return type(error), str(error)

    def state(self, elapsed):
        memory = self.chip.memory
        caches = [[list(lines.items()) for lines in sets]
                  for sets in memory._cache_sets]
        clocks = [(ctx.tu.issue_time, ctx.tu.counters.stall_cycles,
                   ctx.tu.counters.stall_events) for ctx in self.ctxs]
        gauges = ChipInstrumentation(self.chip).harvest(
            elapsed=elapsed).snapshot()
        ports = [(p.next_free, p.n_requests, p.busy_cycles)
                 for p in memory.cache_switch.ports]
        return (caches, clocks, gauges, ports, list(memory._ig_target),
                bytes(memory.backing._mv_f64[:4096]))


@settings(max_examples=100, deadline=None)
@given(st.lists(_OP, min_size=1, max_size=120))
def test_fused_finishers_match_access(ops):
    fused, generic = _Side(True), _Side(False)
    now = 0
    for op in ops:
        now += op[4]
        assert fused.apply(op, now) == generic.apply(op, now)
    assert fused.state(now + 1) == generic.state(now + 1)
    # The fused side made its hits itself.
    assert fused.access_calls <= generic.access_calls


def test_hits_skip_access_and_misses_take_it():
    side = _Side(True)
    ctx = side.ctxs[0]
    effective = make_effective(0x2000, IG_OWN)
    ctx.store_f64_finish(0, effective, 1.5)
    assert side.access_calls == 1  # a write-validate miss
    assert ctx.load_f64_finish(1, effective)[1] == 1.5
    assert side.access_calls == 1  # a hit
    assert side.chip.memory.kind_counts[AccessKind.LOCAL_HIT] == 1


@pytest.mark.parametrize("physical,error", [
    (0x2004, "not aligned"),       # misaligned: after the timed access
    (0x800000, "beyond populated memory"),  # past max-memory
])
def test_bad_addresses_raise_after_the_same_state_change(physical, error):
    sides = _Side(True), _Side(False)
    outcomes = []
    for side in sides:
        op = ("load", 0, physical, 1, 0, 0.0)
        outcomes.append(side.apply(op, 3))
    assert outcomes[0] == outcomes[1]
    assert error in outcomes[0][1]
    assert sides[0].state(4) == sides[1].state(4)


# ---------------------------------------------------------------------------
# Chips whose accesses must all stay on ``MemorySubsystem.access``
# ---------------------------------------------------------------------------
def _stream_params():
    return StreamParams(kernel="triad", n_elements=512, n_threads=8,
                        partition="block", local_caches=True, unroll=4,
                        warmup=False)


def _counted_stream(monkeypatch, chip):
    """``(result, access calls)`` of the small triad on *chip*."""
    calls = 0
    real = MemorySubsystem.access

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return real(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(MemorySubsystem, "access", counting)
        result = run_stream(_stream_params(), chip=chip)
    return result, calls


def _accesses(chip):
    return sum(chip.memory.kind_counts.values())


def test_memory_trace_records_one_cache_event_per_load_and_store(
        monkeypatch):
    plain = Chip()
    untraced, plain_calls = _counted_stream(monkeypatch, plain)
    tracer = Tracer()
    traced_chip = Chip(tracer=tracer)
    traced, traced_calls = _counted_stream(monkeypatch, traced_chip)
    assert untraced.verified and traced.verified
    cache_events = sum(1 for r in tracer.records
                       if r.source.startswith("cache"))
    counters = [tu.counters for tu in traced_chip.threads]
    loads_stores = sum(c.loads + c.stores for c in counters)
    assert cache_events == traced_calls == _accesses(traced_chip) \
        == loads_stores
    # Tracing changes nothing simulated; untraced, hits skip ``access``.
    assert traced.cycles == untraced.cycles
    assert _accesses(plain) == _accesses(traced_chip)
    assert plain_calls < _accesses(plain)


@pytest.mark.parametrize("options", [{"strict_incoherence": True},
                                     {"sanitize": True}],
                         ids=["strict", "sanitized"])
def test_strict_and_sanitized_chips_take_the_generic_finisher(
        monkeypatch, options):
    # (A strict chip's triad leaves its results in the incoherent caches,
    # so it does not verify against the backing store.)
    chip = Chip(**options)
    _, calls = _counted_stream(monkeypatch, chip)
    assert calls == _accesses(chip) > 0
