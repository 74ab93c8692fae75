"""The allocator as a simulated device on the fabric (fig. 1 in ns2).

Attached to every spine over dedicated 40 Gbit/s links (§6.2).  All
control traffic traverses the network and is only *applied* once its
bytes arrive — the paper's ns2 fidelity requirement.  Notifications
enter the service's intake, a :class:`~repro.core.allocator.ChurnQueue`
keyed ``(host_id, flow_id)``.  Every ``allocator_period`` (10 µs) the
queue is drained into one ``apply_churn``, one NED iteration runs,
F-NORM normalizes, the threshold filter picks the flows to notify, and
the service's :func:`~repro.core.allocator.group_by_owner` batches the
updates into one frame per server (6 bytes per update, §6.2), sent
unreliably — rates are soft-state.

Membership only changes at a tick, so two rules are checked at push
time: a start for an active flow with no pending end is a duplicate,
and an end for a flow neither active nor pending is an *orphan* (the
ARQ reordered its start behind it).  From the next tick on, an orphan
re-pushes its end after each tick's arrivals, which cancels the late
start (or ends a start that arrived in the orphan's own tick), for at
most ``MAX_ORPHAN_TICKS``.
"""

from __future__ import annotations

from ..core.allocator import ChurnQueue, group_by_owner
from ..core.normalization import FNormalizer
from ..sampling import make_scheduler
from ..sampling.scheduler import RateScheduler
from ..sim.devices import Device
from ..sim.packet import Packet
from .messages import RATE_UPDATE_BYTES, control_frame_bytes

__all__ = ["AllocatorNode"]

#: Give up re-trying an orphan end after this many ticks (lost start
#: would otherwise leak a phantom removal forever).
MAX_ORPHAN_TICKS = 64


class AllocatorNode(Device):
    """The centralized allocator as a network-attached device."""

    def __init__(self, network):
        self.network = network
        self.sim = network.sim
        self.config = network.config
        topology = network.topology
        # Reserve headroom for reverse-path ACKs and control frames (the
        # allocator prices data flows only), and use scale-down-only
        # F-NORM: in the online setting, scaling flows *up* the instant
        # a flowlet departs double-books links for the ~2 ticks it
        # takes the scale-downs to reach other endpoints.  Both trade a
        # sliver of throughput for the near-empty queues §6.5 measures.
        links = topology.link_set()
        links.capacity *= 1.0 - self.config.allocator_capacity_margin
        self.allocator: RateScheduler = make_scheduler(
            links, normalizer=FNormalizer(allow_scale_up=False),
            gamma=self.config.allocator_gamma,
            update_threshold=self.config.update_threshold)
        self.topology = topology
        network.attach_allocator(self)
        self.queue = ChurnQueue()
        # ARQ dedupe per host: every seq below the watermark has been
        # seen, plus the seqs seen above it.  Endpoint seqs count up
        # from 0, so this stays as small as the reordering window.
        self._seen = {}             # host -> [watermark, set of seqs]
        self._orphan_ends = {}      # (host, flow) -> remaining retries
        self._parked = {}           # orphans arrived since the last tick
        self.iterations = 0
        self.name = "allocator"
        # Periodic; must not keep the simulation alive on its own.
        self.sim.after(self.config.allocator_period, self._tick,
                       daemon=True)

    # ------------------------------------------------------------------
    # packet intake
    # ------------------------------------------------------------------
    def receive(self, packet: Packet):
        payload = packet.payload
        if payload is None or payload[0] != "notify":
            return
        _, seq, host_id, kind, data = payload
        self._ack(host_id, seq)
        if not self._first_delivery(host_id, seq):
            return  # ARQ duplicate
        flow_id = data[0]
        key = (host_id, flow_id)
        if kind == "start":
            pending = self.queue.pending_kind(key)
            if pending == "end" or (pending is None
                                    and key not in self.allocator):
                _, src, dst = data
                self.queue.push_start(
                    key, self.topology.route(src, dst, flow_id))
        elif not self._push_end(key) and key not in self._orphan_ends:
            self._parked[key] = None

    def _first_delivery(self, host_id, seq):
        seen = self._seen.setdefault(host_id, [0, set()])
        if seq < seen[0] or seq in seen[1]:
            return False
        seen[1].add(seq)
        while seen[0] in seen[1]:
            seen[1].remove(seen[0])
            seen[0] += 1
        return True

    def _push_end(self, key):
        """Queue the end of a flow that is active or pending; False
        (nothing queued) for a flow the allocator knows nothing of."""
        if key not in self.allocator and self.queue.pending_kind(key) is None:
            return False
        self.queue.push_end(key)
        self._orphan_ends.pop(key, None)
        return True

    def _ack(self, host_id, seq):
        route = self.network.control_route_from_allocator(host_id)
        frame = control_frame_bytes(0)
        ack = Packet(None, seq, frame, Packet.CONTROL, route)
        ack.payload = ("ctrl_ack", seq)
        ack.hop = 0
        self.network.stats.control_bytes_from_allocator += frame
        route[0].send(ack)

    # ------------------------------------------------------------------
    # the 10 µs allocation loop
    # ------------------------------------------------------------------
    def _tick(self):
        for key, retries in list(self._orphan_ends.items()):
            if retries > 1:
                self._orphan_ends[key] = retries - 1
            else:
                del self._orphan_ends[key]
            self._push_end(key)
        starts, ends = self.queue.drain()
        self.allocator.apply_churn(starts=starts, ends=ends)
        self._orphan_ends.update(dict.fromkeys(self._parked,
                                               MAX_ORPHAN_TICKS))
        self._parked.clear()
        if self.allocator.n_flows:
            result = self.allocator.iterate(1)
            self.iterations += 1
            self._send_updates(result)
        self.sim.after(self.config.allocator_period, self._tick,
                       daemon=True)

    def _send_updates(self, result):
        keys, rates = result.update_arrays()
        hosts = [host_id for host_id, _ in keys.tolist()]
        for host_id, batch, sent in group_by_owner(hosts, keys, rates):
            updates = [(flow_id, rate) for (_, flow_id), rate
                       in zip(batch.tolist(), sent.tolist())]
            frame = control_frame_bytes(RATE_UPDATE_BYTES * len(updates))
            route = self.network.control_route_from_allocator(int(host_id))
            packet = Packet(None, -1, frame, Packet.CONTROL, route)
            packet.payload = ("rates", updates)
            packet.hop = 0
            self.network.stats.control_bytes_from_allocator += frame
            route[0].send(packet)
