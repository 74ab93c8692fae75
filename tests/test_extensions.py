"""§7 discussion features: external traffic, intermediaries."""

import pytest

from repro.control import direct_update_plane, intermediary_update_plane
from repro.core import (ExternalTrafficManager, FlowtuneAllocator, LinkSet)


class TestExternalTraffic:
    def make(self):
        allocator = FlowtuneAllocator(LinkSet([10.0, 10.0]),
                                      update_threshold=0.0)
        return allocator, ExternalTrafficManager(allocator)

    def test_external_load_squeezes_scheduled_flows(self):
        allocator, manager = self.make()
        allocator.flowlet_start("a", [0])
        before = allocator.iterate(200).rates["a"]
        manager.set_external(0, 4.0)
        after = allocator.iterate(200).rates["a"]
        assert before == pytest.approx(10.0, rel=0.01)
        assert after == pytest.approx(6.0, rel=0.01)

    def test_clear_restores_capacity(self):
        allocator, manager = self.make()
        allocator.flowlet_start("a", [0])
        manager.set_external(0, 5.0)
        allocator.iterate(100)
        manager.clear()
        rates = allocator.iterate(200).rates
        assert rates["a"] == pytest.approx(10.0, rel=0.01)

    def test_capacity_never_reaches_zero(self):
        allocator, manager = self.make()
        manager.set_external(0, 100.0)
        assert manager.effective_capacity()[0] > 0

    def test_closed_loop_observation_smoothing(self):
        allocator, manager = self.make()
        manager.observe(0, 8.0)
        first = manager.external[0]
        manager.observe(0, 8.0)
        second = manager.external[0]
        assert 0 < first < 8.0
        assert first < second < 8.0

    def test_negative_values_rejected(self):
        _, manager = self.make()
        with pytest.raises(ValueError):
            manager.set_external(0, -1.0)
        with pytest.raises(ValueError):
            manager.observe(0, -1.0)

    def test_dummy_flow_equivalence(self):
        """A capacity adjustment equals a pinned-rate dummy flow (§7)."""
        allocator, manager = self.make()
        allocator.flowlet_start("real", [0])
        manager.set_external(0, 5.0)
        squeezed = allocator.iterate(300).rates["real"]
        assert squeezed == pytest.approx(5.0, rel=0.01)


class TestIntermediaries:
    def test_direct_plane_matches_paper_arithmetic(self):
        # §6.4: 1.12 % overhead per server on 10 G -> "each allocator
        # NIC can update 89 servers".
        updates = 0.0112 * 10e9 / 8.0 / 84.0  # updates/s per server
        plane = direct_update_plane(updates, nic_gbps=10.0)
        assert plane.endpoints_per_nic == pytest.approx(89, abs=2)

    def test_intermediaries_scale_order_of_magnitude(self):
        # §7: "A straightforward solution to scale the allocator 10x".
        updates = 0.0112 * 10e9 / 8.0 / 84.0
        direct = direct_update_plane(updates)
        relayed = intermediary_update_plane(updates)
        assert 8.0 <= relayed.scaling_vs(direct) <= 20.0

    def test_intermediary_count_positive(self):
        relayed = intermediary_update_plane(10_000.0)
        assert relayed.intermediaries >= 1

    def test_allocator_bytes_drop_with_batching(self):
        updates = 100_000.0
        direct = direct_update_plane(updates)
        relayed = intermediary_update_plane(updates)
        assert relayed.allocator_bytes_per_endpoint < \
            direct.allocator_bytes_per_endpoint
