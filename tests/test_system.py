"""Tests for the multi-chip cellular layer: topology, links, messaging,
and the halo-exchange workload."""

import pytest

from repro.config import ChipConfig
from repro.errors import ConfigError, WorkloadError
from repro.system.halo import HaloParams, run_halo
from repro.system.links import HOP_LATENCY, LinkFabric
from repro.system.multichip import MultiChipSystem
from repro.system.topology import Topology, TorusTopology


class TestTopology:
    def test_index_coord_roundtrip(self):
        topo = Topology(3, 2, 2)
        for chip_id in range(topo.n_chips):
            assert topo.index(topo.coord(chip_id)) == chip_id

    def test_mesh_neighbours_truncate(self):
        topo = Topology(2, 2, 1)
        corner = topo.neighbours((0, 0, 0))
        assert set(corner) == {"+x", "+y"}

    def test_interior_has_six_neighbours(self):
        topo = Topology(3, 3, 3)
        assert len(topo.neighbours((1, 1, 1))) == 6

    def test_dimension_ordered_route(self):
        topo = Topology(4, 4, 4)
        hops = topo.route((0, 0, 0), (2, 1, 3))
        assert len(hops) == 6
        directions = [d for _, d in hops]
        assert directions == ["+x", "+x", "+y", "+z", "+z", "+z"]

    def test_route_to_self_is_empty(self):
        topo = Topology(2, 2)
        assert topo.route((1, 1, 0), (1, 1, 0)) == []

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            Topology(2, 2).index((2, 0, 0))
        with pytest.raises(ConfigError):
            Topology(0, 1)

    def test_torus_wraps(self):
        topo = TorusTopology(4, 1, 1)
        assert topo.step((3, 0, 0), "+x") == (0, 0, 0)

    def test_torus_takes_short_way(self):
        topo = TorusTopology(8, 1, 1)
        hops = topo.route((0, 0, 0), (6, 0, 0))
        assert len(hops) == 2  # wrap backwards, not 6 forward
        assert all(d == "-x" for _, d in hops)


class TestLinkFabric:
    def make(self, topo=None):
        return LinkFabric(topo or Topology(2, 1, 1), ChipConfig.paper())

    def test_link_bandwidth_is_2_bytes_per_cycle(self):
        fabric = self.make()
        link = fabric.link((0, 0, 0), "+x")
        arrival = link.transfer(0, 2048)
        assert arrival == 1024 + HOP_LATENCY

    def test_messages_serialize_on_a_link(self):
        fabric = self.make()
        first = fabric.send(0, (0, 0, 0), (1, 0, 0), 1024)
        second = fabric.send(0, (0, 0, 0), (1, 0, 0), 1024)
        assert second > first

    def test_multi_hop_accumulates(self):
        fabric = self.make(Topology(4, 1, 1))
        one = fabric.send(0, (0, 0, 0), (1, 0, 0), 64)
        three = fabric.send(0, (0, 0, 0), (3, 0, 0), 64)
        assert three > one * 2

    def test_missing_link(self):
        fabric = self.make()
        with pytest.raises(ConfigError):
            fabric.link((0, 0, 0), "-x")

    def test_traffic_counter(self):
        fabric = self.make()
        fabric.send(0, (0, 0, 0), (1, 0, 0), 100)
        assert fabric.total_bytes == 100

    def test_unknown_routing_rejected(self):
        with pytest.raises(ConfigError):
            LinkFabric(Topology(2, 1, 1), ChipConfig.paper(),
                       routing="quantum")


class TestCutThroughRouting:
    def _latency(self, routing: str, hops: int, n_bytes: int) -> int:
        fabric = LinkFabric(Topology(hops + 1, 1, 1), ChipConfig.paper(),
                            routing=routing)
        return fabric.send(0, (0, 0, 0), (hops, 0, 0), n_bytes)

    def test_single_hop_equal(self):
        saf = self._latency("store_and_forward", 1, 1024)
        ct = self._latency("cut_through", 1, 1024)
        assert saf == ct

    def test_multi_hop_cut_through_wins(self):
        """Wormhole pays serialization once, not per hop."""
        saf = self._latency("store_and_forward", 4, 2048)
        ct = self._latency("cut_through", 4, 2048)
        assert ct < saf
        # SAF ~ 4x(1024+10); CT ~ 1024 + 4x10 + pipeline slack.
        assert ct < saf / 2

    def test_cut_through_occupies_every_link(self):
        fabric = LinkFabric(Topology(3, 1, 1), ChipConfig.paper(),
                            routing="cut_through")
        fabric.send(0, (0, 0, 0), (2, 0, 0), 512)
        assert fabric.link((0, 0, 0), "+x").busy_cycles == 256
        assert fabric.link((1, 0, 0), "+x").busy_cycles == 256

    def test_halo_verifies_under_cut_through(self):
        from repro.system.halo import HaloParams, run_halo
        # run_halo builds its own system; exercise cut-through at the
        # message level instead.
        system = MultiChipSystem(Topology(2, 1, 1), routing="cut_through")
        a, b = (0, 0, 0), (1, 0, 0)
        src = system.kernel_at(a).heap.alloc(64)
        dst = system.kernel_at(b).heap.alloc(64)
        system.chip_at(a).memory.backing.store_u32(src, 99)

        def sender(ctx):
            yield from system.send(ctx, b, src, 4)

        def receiver(ctx):
            yield from system.receive(ctx, dst)
            return system.chip_at(b).memory.backing.load_u32(dst)

        system.spawn_on(a, sender)
        thread = system.spawn_on(b, receiver)
        system.run()
        assert thread.result == 99


class TestMultiChipSystem:
    def test_cells_share_one_clock(self):
        system = MultiChipSystem(Topology(2, 1, 1))
        assert system.kernels[0].scheduler is system.kernels[1].scheduler

    def test_message_roundtrip(self):
        system = MultiChipSystem(Topology(2, 1, 1))
        a, b = (0, 0, 0), (1, 0, 0)
        src_kernel = system.kernel_at(a)
        dst_kernel = system.kernel_at(b)
        src_buf = src_kernel.heap.alloc_f64_array(4)
        dst_buf = dst_kernel.heap.alloc_f64_array(4)
        system.chip_at(a).memory.backing.f64_view(src_buf, 4)[:] = \
            [1, 2, 3, 4]

        def sender(ctx):
            yield from system.send(ctx, b, src_buf, 32)

        def receiver(ctx):
            src, size = yield from system.receive(ctx, dst_buf)
            return src, size, ctx.time

        system.spawn_on(a, sender)
        thread = system.spawn_on(b, receiver)
        system.run()
        src, size, t = thread.result
        assert src == a
        assert size == 32
        assert t >= 16 + HOP_LATENCY  # 32 bytes at 2 B/cycle + hop
        received = system.chip_at(b).memory.backing.f64_view(dst_buf, 4)
        assert list(received) == [1, 2, 3, 4]

    def test_receive_filters_by_source(self):
        system = MultiChipSystem(Topology(3, 1, 1))
        mid = (1, 0, 0)
        left, right = (0, 0, 0), (2, 0, 0)
        kernel = system.kernel_at(mid)
        buf = kernel.heap.alloc(128)

        def send_from(coord, value):
            k = system.kernel_at(coord)
            payload = k.heap.alloc(64)
            system.chip_at(coord).memory.backing.store_u32(payload, value)

            def body(ctx):
                yield from system.send(ctx, mid, payload, 4)

            system.spawn_on(coord, body)

        def receiver(ctx):
            # Ask for the right's message first even if left's lands first.
            yield from system.receive(ctx, buf, from_coord=right)
            first = system.chip_at(mid).memory.backing.load_u32(buf)
            yield from system.receive(ctx, buf + 64, from_coord=left)
            second = system.chip_at(mid).memory.backing.load_u32(buf + 64)
            return first, second

        send_from(left, 111)
        send_from(right, 222)
        thread = system.spawn_on(mid, receiver)
        system.run()
        assert thread.result == (222, 111)


class TestHaloWorkload:
    @pytest.mark.parametrize("n_chips", [1, 2, 3])
    def test_matches_global_reference(self, n_chips):
        result = run_halo(HaloParams(n_chips=n_chips, band_elements=64,
                                     iterations=2, threads_per_chip=4))
        assert result.verified

    def test_link_traffic_proportional_to_boundaries(self):
        two = run_halo(HaloParams(n_chips=2, band_elements=64,
                                  iterations=2, threads_per_chip=4))
        four = run_halo(HaloParams(n_chips=4, band_elements=64,
                                   iterations=2, threads_per_chip=4))
        assert four.link_bytes == 3 * two.link_bytes  # 3 seams vs 1

    def test_weak_scaling(self):
        """Constant per-cell work: cycles must stay nearly flat."""
        one = run_halo(HaloParams(n_chips=1, band_elements=128,
                                  iterations=2, threads_per_chip=4))
        four = run_halo(HaloParams(n_chips=4, band_elements=128,
                                   iterations=2, threads_per_chip=4))
        assert four.cycles < one.cycles * 1.5

    def test_bad_params(self):
        with pytest.raises(WorkloadError):
            HaloParams(n_chips=0)
        with pytest.raises(WorkloadError):
            HaloParams(band_elements=2)
