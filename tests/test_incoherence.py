"""Strict-incoherence mode: the paper's software-managed coherence story.

"When using the interest group zero, each thread accessing that data will
bring it into its own cache, resulting in a potentially non-coherent
system. Without coherence support in hardware, it is up to user level
code to guarantee that this potential replication is done correctly."
"""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL, IG_OWN


@pytest.fixture
def chip():
    return Chip(ChipConfig.paper(), strict_incoherence=True)


class TestOwnGroupReplication:
    def test_stale_read_after_remote_write(self, chip):
        ea = make_effective(0x1000, IG_OWN)
        chip.memory.store_f64(0, 0, ea, 5.0)      # quad 0's copy
        chip.memory.load_f64(10, 9, ea)           # quad 9 pulls its copy
        chip.memory.store_f64(20, 0, ea, 7.0)     # quad 0 updates its copy
        _, stale = chip.memory.load_f64(30, 9, ea)
        _, fresh = chip.memory.load_f64(40, 0, ea)
        assert fresh == 7.0
        assert stale != 7.0  # quad 9 still sees its old copy

    def test_flush_propagates(self, chip):
        ea = make_effective(0x2000, IG_OWN)
        chip.memory.load_f64(0, 9, ea)
        chip.memory.store_f64(10, 0, ea, 3.5)
        # Software coherence: writer flushes, reader invalidates.
        chip.memory.flush_cache(0)
        line = 0x2000 - 0x2000 % 64
        chip.memory.caches[9].invalidate(line)
        _, value = chip.memory.load_f64(50, 9, ea)
        assert value == 3.5

    def test_replicated_read_only_is_safe(self, chip):
        """The intended use: shared constants replicated per quad."""
        chip.memory.backing.store_f64(0x3000, 2.75)
        ea = make_effective(0x3000, IG_OWN)
        values = set()
        for quad in range(8):
            _, v = chip.memory.load_f64(quad * 10, quad, ea)
            values.add(v)
        assert values == {2.75}
        # All eight quads now hold the line locally (replication).
        line = 0x3000 - 0x3000 % 64
        holders = sum(1 for c in chip.memory.caches if c.line(line) is not None)
        assert holders == 8


class TestAllGroupStaysCoherent:
    def test_single_home_no_staleness(self, chip):
        """Non-zero interest groups map an address to exactly one cache,
        so 'the cache coherence problem does not arise'."""
        ea = make_effective(0x4000, IG_ALL)
        chip.memory.store_f64(0, 0, ea, 1.25)
        for quad in (3, 17, 31):
            _, value = chip.memory.load_f64(100 + quad, quad, ea)
            assert value == 1.25

    def test_writeback_on_eviction_reaches_memory(self, chip):
        ea = make_effective(0x5000, IG_ALL)
        chip.memory.store_f64(0, 0, ea, 9.0)
        home = chip.memory.target_cache(IG_ALL, 0x5000, 0)
        chip.memory.flush_cache(home)
        assert chip.memory.backing.load_f64(0x5000) == 9.0


class TestStrictModeIsa:
    def test_interpreter_refuses_strict_chip(self, chip):
        """Compiled blocks bypass the per-line buffers: an ``sd`` through
        IG_OWN would land in the backing store while the cache keeps the
        old value, so the combination fails at construction."""
        from repro.errors import ConfigError
        from repro.isa.interpreter import Interpreter

        with pytest.raises(ConfigError, match="strict incoherence"):
            Interpreter(chip)


class TestStrictModeEndToEnd:
    def test_parallel_kernel_with_explicit_flushes(self):
        """A full multithreaded kernel in strict mode: values travel
        through the per-line buffers, and an end-of-run flush makes them
        visible in memory — the software-coherence discipline."""
        from repro.runtime.kernel import Kernel
        from repro.memory.interest_groups import IG_ALL

        chip = Chip(ChipConfig.paper(), strict_incoherence=True)
        kernel = Kernel(chip)
        n = 128
        src = kernel.heap.alloc_f64_array(n)
        dst = kernel.heap.alloc_f64_array(n)
        chip.memory.backing.f64_view(src, n)[:] = range(n)
        # Pre-fill has to be visible to the caches: they fetch from
        # backing on miss, so nothing else is needed for the source.

        def body(ctx, lo, hi):
            for i in range(lo, hi):
                t, v = yield from ctx.load_f64(
                    ctx.ea(src + 8 * i, IG_ALL))
                yield from ctx.store_f64(ctx.ea(dst + 8 * i, IG_ALL),
                                         2 * v, deps=(t,))

        for t in range(4):
            kernel.spawn(body, t * 32, (t + 1) * 32)
        kernel.run()
        # Dirty destination lines still live in the caches.
        for cache_id in range(chip.config.n_dcaches):
            chip.memory.flush_cache(cache_id)
        out = chip.memory.backing.f64_view(dst, n)
        assert list(out) == [2.0 * i for i in range(n)]


class TestDefaultModeIsFunctionallyCoherent:
    def test_plain_chip_never_goes_stale(self):
        """The default (fast) mode keeps values in the backing store:
        correct programs behave identically, only strict mode models
        stale bytes."""
        chip = Chip()
        ea = make_effective(0x1000, IG_OWN)
        chip.memory.load_f64(0, 9, ea)
        chip.memory.store_f64(10, 0, ea, 7.0)
        _, value = chip.memory.load_f64(30, 9, ea)
        assert value == 7.0
