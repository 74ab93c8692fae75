"""XCP endpoints (Katabi, Handley, Rohrs, SIGCOMM 2002).

Senders advertise their congestion window and RTT in every packet's
congestion header and request feedback; each router on the path
computes per-packet feedback from its efficiency/fairness controller
(:class:`~repro.sim.queues.XcpController`) and writes the *minimum*
along the path.  The receiver echoes it; the sender applies

    cwnd <- max(cwnd + feedback, 1 packet)

per ACK.  XCP converges without loss or queues, but hands out spare
bandwidth over multiple control intervals — the conservatism §6.3 and
fig. 8 report.
"""

from __future__ import annotations

from .base import SenderBase

__all__ = ["XcpSender"]

#: RTT guess advertised before the first sample (a 4-hop fabric RTT).
INITIAL_RTT_GUESS = 30e-6


class XcpSender(SenderBase):
    name = "xcp"

    def __init__(self, network, flow):
        super().__init__(network, flow)
        self.cwnd = float(self.config.xcp_initial_cwnd)
        self.cwnd_bytes = self.cwnd * self.mss

    def _stamp(self, packet):
        packet.xcp_cwnd_bytes = self.cwnd_bytes
        packet.xcp_rtt = self.srtt if self.srtt is not None \
            else INITIAL_RTT_GUESS
        # Request: ask for one MSS of growth per packet; routers clamp.
        packet.xcp_feedback = float(self.mss)

    def on_new_ack(self, ack):
        self.cwnd_bytes = max(self.cwnd_bytes + ack.xcp_feedback,
                              float(self.mss))
        self.cwnd = self.cwnd_bytes / self.mss

    def on_loss(self):
        # Losses are rare under XCP; fall back to a halving.
        """Reach: interface — a SenderBase hook."""
        self.cwnd_bytes = max(self.cwnd_bytes / 2.0, float(self.mss))
        self.cwnd = self.cwnd_bytes / self.mss

    def on_timeout(self):
        self.cwnd_bytes = float(self.mss)
        self.cwnd = 1.0
