"""Flowtune's in-network control plane: notifications, rates, failover."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.control.allocator_node import MAX_ORPHAN_TICKS
from repro.sim import MSS_BYTES
from repro.sim.packet import Packet
from repro.sim.experiments import build_network


class TestNotifications:
    def test_allocator_learns_of_flowlet_start_and_end(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos)
        allocator_node = network.allocator_device
        # Large enough that it is still running when we check.
        flow = network.make_flow("f", 0, tiny_clos.n_hosts - 1,
                                 2000 * MSS_BYTES)
        network.start_flow(flow)
        network.run_until(150e-6)
        assert (0, "f") in allocator_node.allocator
        network.sim.run()
        network.run_until(network.sim.now + 500e-6)  # let the END land
        assert (0, "f") not in allocator_node.allocator

    def test_rate_update_reaches_sender(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos)
        flow = network.make_flow("f", 0, tiny_clos.n_hosts - 1,
                                 2000 * MSS_BYTES)
        sender = network.start_flow(flow)
        network.run_until(200e-6)
        assert sender.mode == "paced"
        assert sender.rate_bps > 0

    def test_notifications_survive_control_packet_loss(self, tiny_clos):
        """Even with droppy queues the ARQ delivers the start."""
        network = build_network("flowtune", topology=tiny_clos,
                                queue_capacity_packets=6)
        # Background data congestion on the control path.
        for i in range(4):
            network.start_flow(network.make_flow(
                f"bg{i}", i % 4, 4 + i % 4, 200 * MSS_BYTES))
        flow = network.make_flow("f", 0, tiny_clos.n_hosts - 1,
                                 50 * MSS_BYTES)
        network.start_flow(flow)
        network.run_until(3e-3)
        assert (0, "f") in network.allocator_device.allocator or \
            flow.finish_time is not None

    def test_control_bytes_accounted(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos)
        network.start_flow(network.make_flow("f", 0, 5, 20 * MSS_BYTES))
        network.sim.run()
        assert network.stats.control_bytes_to_allocator > 0
        assert network.stats.control_bytes_from_allocator > 0


def notify(node, host_id, seq, kind, data):
    """Deliver one ARQ notification to the allocator device."""
    packet = Packet(None, seq, 64, Packet.CONTROL, None)
    packet.payload = ("notify", seq, host_id, kind, data)
    node.receive(packet)


class Host:
    """One endpoint's notification stream: seqs count up from 0."""

    def __init__(self, node, host_id=0):
        self.node, self.host_id, self.seq = node, host_id, 0

    def send(self, kind, flow_id):
        data = (flow_id, self.host_id, 5) if kind == "start" else (flow_id,)
        notify(self.node, self.host_id, self.seq, kind, data)
        self.seq += 1


class TestOrphanEnds:
    """The ARQ can reorder a retransmitted start behind its end; the
    allocator parks such ends and must consume them exactly once."""

    def test_end_before_start_then_restart(self, tiny_clos):
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        host = Host(node)
        host.send("end", "f")
        node._tick()
        assert (0, "f") not in node.allocator
        assert (0, "f") in node._orphan_ends
        # The delayed start lands next tick; the parked end cancels it.
        host.send("start", "f")
        node._tick()
        assert (0, "f") not in node.allocator
        # The orphan was consumed by that cancellation: a later
        # flowlet reusing the id must be admitted normally.
        host.send("start", "f")
        node._tick()
        assert (0, "f") in node.allocator
        assert (0, "f") not in node._orphan_ends

    def test_consumed_orphan_not_resurrected_by_same_tick_cancel(
            self, tiny_clos):
        """A short flowlet (start+end in one tick) consumes a parked
        orphan; the orphan's retry that tick must not re-park itself
        and swallow the next restart."""
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        host = Host(node)
        host.send("end", "f")
        node._tick()
        assert (0, "f") in node._orphan_ends
        host.send("start", "f")
        host.send("end", "f")
        node._tick()
        assert (0, "f") not in node.allocator
        assert (0, "f") not in node._orphan_ends
        host.send("start", "f")
        node._tick()
        assert (0, "f") in node.allocator

    def test_end_then_start_in_one_tick_ends_next_tick(self, tiny_clos):
        """An orphan parks from the next tick on: a start behind it in
        the same tick is admitted, and the parked end removes it."""
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        host = Host(node)
        host.send("end", "f")
        host.send("start", "f")
        node._tick()
        assert (0, "f") in node.allocator
        assert (0, "f") in node._orphan_ends
        node._tick()
        assert (0, "f") not in node.allocator
        assert (0, "f") not in node._orphan_ends

    def test_orphan_end_gives_up_eventually(self, tiny_clos):
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        Host(node).send("end", "f")
        node._tick()
        for _ in range(MAX_ORPHAN_TICKS):
            node._tick()
        assert (0, "f") not in node._orphan_ends

    def test_start_end_same_tick_nets_out(self, tiny_clos):
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        host = Host(node)
        host.send("start", "f")
        host.send("end", "f")
        node._tick()
        assert (0, "f") not in node.allocator
        assert (0, "f") not in node._orphan_ends
        # And the id is immediately reusable.
        host.send("start", "f")
        node._tick()
        assert (0, "f") in node.allocator

    def test_flows_are_keyed_by_host(self, tiny_clos):
        """Two hosts may use one flow id; each end removes its own."""
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        first, second = Host(node, 0), Host(node, 1)
        first.send("start", "f")
        second.send("start", "f")
        node._tick()
        assert {(0, "f"), (1, "f")} <= set(node.allocator.table.flow_ids())
        first.send("end", "f")
        node._tick()
        assert (0, "f") not in node.allocator
        assert (1, "f") in node.allocator


class TestArqDedupe:
    def test_seen_seqs_stay_bounded_and_duplicates_drop(self, tiny_clos):
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        events = []
        for flow_id in range(500):
            events += [("start", (flow_id, 0, 5)), ("end", (flow_id,))]
        # Deliver in adjacent swapped pairs: every end before its start.
        order = [seq ^ 1 for seq in range(len(events))]
        widest = 0
        for seq in order:
            notify(node, 0, seq, *events[seq])
            widest = max(widest, len(node._seen[0][1]))
            if seq % 8 == 0:
                node._tick()
        node._tick()
        assert widest <= 1
        assert node._seen[0] == [len(events), set()]
        for _ in range(MAX_ORPHAN_TICKS + 1):
            node._tick()
        assert node.allocator.n_flows == 0
        assert not node._orphan_ends
        # A late retransmission of an old start, then a reordered one
        # above a gap, then its duplicate: only the new seq is taken.
        notify(node, 0, 0, "start", (0, 0, 5))
        notify(node, 0, len(events) + 1, "start", (1000, 0, 5))
        notify(node, 0, len(events) + 1, "start", (1001, 0, 5))
        node._tick()
        assert set(node.allocator.table.flow_ids()) == {(0, 1000)}
        assert node._seen[0] == [len(events), {len(events) + 1}]


class _InboxOracle:
    """The allocator device's intake before it shared the service's
    queue: a per-tick inbox reduced by ``_apply_inbox`` (copied
    verbatim), over a membership set standing in for the scheduler.
    Flow ids are bare, so programs must not reuse one across hosts."""

    def __init__(self, topology):
        self.topology = topology
        self.allocator = _Membership()
        self._seen = set()
        self._inbox = []
        self._orphan_ends = {}
        self._flow_src = {}

    def receive(self, seq, host_id, kind, data):
        key = (host_id, seq)
        if key in self._seen:
            return
        self._seen.add(key)
        self._inbox.append((kind, data))

    def _apply_inbox(self):
        inbox, self._inbox = self._inbox, []
        retired = set()
        for flow_id, retries in list(self._orphan_ends.items()):
            inbox.append(("end", (flow_id,)))
            if retries <= 1:
                del self._orphan_ends[flow_id]
                retired.add(flow_id)
            else:
                self._orphan_ends[flow_id] = retries - 1
        starts = {}        # flow_id -> (src, route), in arrival order
        ends = []
        ending = set()
        orphans = []
        for kind, data in inbox:
            if kind == "start":
                flow_id, src, dst = data
                if flow_id in starts:
                    continue  # duplicate start this tick
                if flow_id in self.allocator and flow_id not in ending:
                    continue  # already active and not being removed
                starts[flow_id] = (src,
                                   self.topology.route(src, dst, flow_id))
            else:  # "end"
                flow_id = data[0]
                if flow_id in starts:
                    del starts[flow_id]
                    self._orphan_ends.pop(flow_id, None)
                    retired.add(flow_id)
                elif flow_id in self.allocator:
                    if flow_id not in ending:
                        ends.append(flow_id)
                        ending.add(flow_id)
                elif (flow_id not in self._orphan_ends
                        and flow_id not in retired):
                    orphans.append(flow_id)
        self.allocator.apply_churn(
            starts=[(flow_id, route)
                    for flow_id, (_src, route) in starts.items()],
            ends=ends)
        for flow_id in ends:
            self._flow_src.pop(flow_id, None)
            self._orphan_ends.pop(flow_id, None)
        for flow_id, (src, _route) in starts.items():
            self._flow_src[flow_id] = src
        for flow_id in orphans:
            self._orphan_ends[flow_id] = MAX_ORPHAN_TICKS


class _Membership:
    def __init__(self):
        self.flows = set()
        self.calls = []

    def __contains__(self, flow_id):
        return flow_id in self.flows

    def apply_churn(self, starts=(), ends=()):
        self.calls.append(
            ([(flow_id, np.asarray(route).tolist())
              for flow_id, route in starts], list(ends)))
        self.flows.difference_update(ends)
        self.flows.update(flow_id for flow_id, _ in starts)


@st.composite
def delivery_programs(draw):
    """Flowlets (a start, then maybe an end) from hosts 0-3 with
    unique flow ids, stamped with per-host ARQ seqs in emission order,
    then delivered in any order with duplicates and with ticks between
    arrivals (some long enough for a parked orphan to expire).

    Returns ``[(packet, ticks_after)]`` with ``packet = (seq, host_id,
    kind, data)``."""
    n_flows = draw(st.integers(1, 10))
    srcs = [draw(st.integers(0, 3)) for _ in range(n_flows)]
    tokens = [flow_id for flow_id in range(n_flows)
              for _ in range(1 + draw(st.booleans()))]
    next_seq = [0] * 4
    started = set()
    packets = []
    # A flow's first token in the emission order is its start.
    for flow_id in draw(st.permutations(tokens)):
        host_id = srcs[flow_id]
        if flow_id in started:
            kind, data = "end", (flow_id,)
        else:
            started.add(flow_id)
            kind, data = "start", (flow_id, host_id, 4 + flow_id % 4)
        packets.append((next_seq[host_id], host_id, kind, data))
        next_seq[host_id] += 1
    duplicates = draw(st.lists(st.sampled_from(packets), max_size=4))
    delivered = draw(st.permutations(packets + duplicates))
    gaps = st.sampled_from([0, 0, 0, 1, 2, MAX_ORPHAN_TICKS + 1])
    return [(packet, draw(gaps)) for packet in delivered]


class TestIntakeMatchesInbox:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(program=delivery_programs())
    def test_same_churn_calls_and_orphans_every_tick(self, tiny_clos,
                                                     program):
        node = build_network("flowtune", topology=tiny_clos).allocator_device
        oracle = _InboxOracle(tiny_clos)
        calls = []
        apply_churn = node.allocator.apply_churn

        def record(starts, ends):
            calls.append(([(key[1], np.asarray(route).tolist())
                           for key, route, _weight in starts],
                          [key[1] for key in ends]))
            apply_churn(starts=starts, ends=ends)

        node.allocator.apply_churn = record

        def tick():
            node._tick()
            oracle._apply_inbox()
            assert calls[-1] == oracle.allocator.calls[-1]
            assert [(key[1], left) for key, left
                    in node._orphan_ends.items()] == \
                list(oracle._orphan_ends.items())

        for (seq, host_id, kind, data), ticks in program:
            notify(node, host_id, seq, kind, data)
            oracle.receive(seq, host_id, kind, data)
            for _ in range(ticks):
                tick()
        for _ in range(2):
            tick()
        assert len(calls) == len(oracle.allocator.calls)


class TestAllocation:
    def test_two_flows_share_fairly(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos)
        flows = [network.make_flow(i, 1 + i, 0, 4000 * MSS_BYTES)
                 for i in range(2)]
        senders = [network.start_flow(f) for f in flows]
        network.run_until(1.5e-3)
        rates = [s.rate_bps / 1e9 for s in senders]
        # The shared downlink is 10 G with 1% headroom: ~4.95 each.
        assert rates[0] == pytest.approx(rates[1], rel=0.05)
        assert sum(rates) == pytest.approx(9.9, rel=0.1)

    def test_near_zero_drops(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos)
        for i in range(6):
            network.start_flow(network.make_flow(
                i, i % 4, 4 + (i + 1) % 4, 100 * MSS_BYTES))
        network.run_until(4e-3)
        total_tx = sum(link.tx_bytes for link in network.links)
        assert network.total_dropped_bytes() <= 0.001 * total_tx

    def test_rates_respect_capacity(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos)
        senders = [network.start_flow(network.make_flow(
            i, 1 + (i % 3), 0, 2000 * MSS_BYTES)) for i in range(3)]
        network.run_until(1.5e-3)
        total = sum(s.rate_bps for s in senders if s.mode == "paced")
        assert total <= 10e9 * 1.02


class TestFailover:
    def test_rate_expiry_falls_back_to_tcp(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos,
                                rate_expiry=300e-6)
        flow = network.make_flow("f", 0, tiny_clos.n_hosts - 1,
                                 5000 * MSS_BYTES)
        sender = network.start_flow(flow)
        network.run_until(200e-6)
        assert sender.mode == "paced"
        # Kill the allocator: no more ticks process notifications.
        network.allocator_device._tick = lambda: None
        network.run_until(network.sim.now + 2e-3)
        assert sender.mode == "window"
        # The fallback window is seeded from the last allocated rate.
        assert sender.cwnd >= 2.0

    def test_flow_completes_after_allocator_failure(self, tiny_clos):
        network = build_network("flowtune", topology=tiny_clos,
                                rate_expiry=300e-6)
        flow = network.make_flow("f", 0, tiny_clos.n_hosts - 1,
                                 500 * MSS_BYTES)
        network.start_flow(flow)
        network.run_until(150e-6)
        network.allocator_device._tick = lambda: None
        network.run_until(network.sim.now + 20e-3)
        assert flow.finish_time is not None
