"""Per-host control agent: flowlet notifications + rate-update intake.

Notifications (flowlet start/end) are state — their loss would leak
flows in the allocator — so they are carried over a lightweight ARQ:
sequence numbers, allocator acks, periodic retransmission (§6.2 gives
the control connections 20/30 µs RTOs; we use one configurable RTO).
Rate updates flow the other way unreliably: allocations expire and are
refreshed, so a lost update is corrected by the next threshold
crossing (or the expiry fallback).
"""

from __future__ import annotations

from ..sim.engine import Timer
from ..sim.packet import Packet
from .messages import (FLOWLET_END_BYTES, FLOWLET_START_BYTES,
                       control_frame_bytes)

__all__ = ["HostControlAgent"]

#: ARQ retransmissions before declaring the allocator unreachable and
#: dropping the notification (endpoints then rely on rate expiry).
MAX_RETRIES = 64


class HostControlAgent:
    """Speaks to the allocator on behalf of one server."""

    def __init__(self, network, host):
        self.network = network
        self.sim = network.sim
        self.host = host
        host.control_agent = self
        self.config = network.config
        self._route_up = network.control_route_to_allocator(host.host_id)
        self._next_seq = 0
        self._pending = {}  # seq -> (send_time, kind, data, frame_bytes)
        self._timer = Timer(self.sim, self._retransmit_due)

    # ------------------------------------------------------------------
    # sender-side wiring
    # ------------------------------------------------------------------
    def register(self, sender):
        """Hook a Flowtune sender's lifecycle to notifications."""
        sender.start_callbacks.append(self._on_flow_start)
        sender.completion_callbacks.append(self._on_flow_end)

    def _on_flow_start(self, sender):
        flow = sender.flow
        self._send_notification("start",
                                (flow.flow_id, flow.src, flow.dst),
                                FLOWLET_START_BYTES)

    def _on_flow_end(self, sender):
        self._send_notification("end", (sender.flow.flow_id,),
                                FLOWLET_END_BYTES)

    # ------------------------------------------------------------------
    # ARQ toward the allocator
    # ------------------------------------------------------------------
    def _send_notification(self, kind, data, payload_bytes):
        seq = self._next_seq
        self._next_seq += 1
        frame = control_frame_bytes(payload_bytes)
        self._pending[seq] = (self.sim.now, kind, data, frame, 0)
        self._transmit(seq, kind, data, frame)
        if not self._timer.armed:
            self._timer.restart(self.config.control_rto)

    def _transmit(self, seq, kind, data, frame):
        packet = Packet(None, seq, frame, Packet.CONTROL, self._route_up)
        packet.payload = ("notify", seq, self.host.host_id, kind, data)
        packet.hop = 0
        self.network.stats.control_bytes_to_allocator += frame
        self.network.stats.control_messages += 1
        self._route_up[0].send(packet)

    def _retransmit_due(self):
        if not self._pending:
            return
        rto = self.config.control_rto
        now = self.sim.now
        for seq, (sent, kind, data, frame, tries) in \
                list(self._pending.items()):
            if now - sent >= rto:
                if tries >= MAX_RETRIES:
                    del self._pending[seq]  # allocator unreachable
                    continue
                self._pending[seq] = (now, kind, data, frame, tries + 1)
                self._transmit(seq, kind, data, frame)
        if self._pending:
            self._timer.restart(rto)

    # ------------------------------------------------------------------
    # downlink intake
    # ------------------------------------------------------------------
    def on_packet(self, packet):
        payload = packet.payload
        if payload is None:
            return
        if payload[0] == "ctrl_ack":
            self._pending.pop(payload[1], None)
            if not self._pending:
                self._timer.cancel()
        elif payload[0] == "rates":
            for flow_id, rate_gbps in payload[1]:
                sender = self.host.senders.get(flow_id)
                if sender is not None and hasattr(sender, "set_rate"):
                    sender.set_rate(rate_gbps)
