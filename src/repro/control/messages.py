"""Control-plane message encodings and wire-byte accounting (§6.2/§6.4).

The paper: "Notifications of flowlet start, end, and rate updates are
encoded in 16, 4, and 6 bytes plus the standard TCP/IP overheads", and
§7 observes that "Ethernet has 64-byte minimum frames and preamble and
interframe gaps, which cost 84 bytes, even if only one byte is sent".
The constants here reproduce exactly that accounting, and are used by
both the fluid overhead experiments (figures 5-7) and the packet-level
control plane.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "MessageType", "ControlMessage",
    "FLOWLET_START_BYTES", "FLOWLET_END_BYTES", "FLOWLET_USAGE_BYTES",
    "RATE_UPDATE_BYTES",
    "TCP_IP_HEADER_BYTES", "ETHERNET_HEADER_BYTES", "MIN_FRAME_BYTES",
    "PREAMBLE_IFG_BYTES", "wire_bytes", "batched_wire_bytes",
]

#: §6.2 payload encodings.
FLOWLET_START_BYTES = 16
FLOWLET_END_BYTES = 4
RATE_UPDATE_BYTES = 6
#: Flowlet usage report (not in the paper's §6.2 table; the always-on
#: service lets endpoints report cumulative bytes sent, encoded as a
#: 4-byte flow id + 8-byte counter — the accounting the service's
#: paper-equivalent byte counters use for usage traffic).
FLOWLET_USAGE_BYTES = 12

#: "standard TCP/IP overheads": 20 B IPv4 + 20 B TCP.
TCP_IP_HEADER_BYTES = 40
#: Ethernet header (14) + FCS (4).
ETHERNET_HEADER_BYTES = 18
#: Minimum Ethernet frame, excluding preamble/IFG.
MIN_FRAME_BYTES = 64
#: Preamble (8) + inter-frame gap (12) — §7's "84-byte" minimum cost.
PREAMBLE_IFG_BYTES = 20


class MessageType(Enum):
    """The control-plane message kinds — the schema shared by the
    packet-level control plane (byte accounting below) and the
    always-on allocator service's binary codecs
    (:mod:`repro.service.wire` keys its admission/rate frames to
    these kinds and reuses this module's accounting for its
    paper-equivalent traffic counters)."""

    FLOWLET_START = "start"
    FLOWLET_END = "end"
    FLOWLET_USAGE = "usage"
    RATE_UPDATE = "rate"


#: payload bytes per message type.
PAYLOAD_BYTES = {
    MessageType.FLOWLET_START: FLOWLET_START_BYTES,
    MessageType.FLOWLET_END: FLOWLET_END_BYTES,
    MessageType.FLOWLET_USAGE: FLOWLET_USAGE_BYTES,
    MessageType.RATE_UPDATE: RATE_UPDATE_BYTES,
}


@dataclass(frozen=True)
class ControlMessage:
    """A single control-plane message (used by the packet simulator)."""

    kind: MessageType
    flow_id: object
    rate: float = 0.0          # Gbit/s, RATE_UPDATE only
    route: object = None       # link-index array, FLOWLET_START only
    weight: float = 1.0


def wire_bytes(payload_bytes: int) -> int:
    """Bytes one message consumes on the wire as its own TCP segment."""
    frame = max(MIN_FRAME_BYTES,
                payload_bytes + TCP_IP_HEADER_BYTES + ETHERNET_HEADER_BYTES)
    return frame + PREAMBLE_IFG_BYTES


def batched_wire_bytes(payload_list: Iterable[int]) -> int:
    """Bytes for a batch of payloads sharing one TCP segment.

    The allocator batches all rate updates destined to one endpoint in
    an allocation round into a single segment (§7's intermediary
    optimization starts from this batching).
    """
    total_payload = sum(payload_list)
    if total_payload == 0:
        return 0
    return wire_bytes(total_payload)
