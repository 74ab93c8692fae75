"""Intermediary rate-update servers — §7's NIC-scaling proposal.

§7 observes that sending a 6-8 byte rate update as its own Ethernet
frame costs ~84 bytes of wire ("a 10x overhead"), so one allocator NIC
can only feed ~89 servers at the measured 1.12 % per-server update
rate.  The proposed fix: "employ a group of intermediary servers that
handle communication to a subset of individual endpoints.  The
allocator sends an MTU to each intermediary with all updates to the
intermediary's endpoints.  The intermediary would in turn forward rate
updates to each endpoint, scaling up to a few thousand endpoints."

This module models that arithmetic exactly, so the ablation benchmark
can reproduce the ~10x scaling claim and explore the design space
(intermediary count, MTU, update rates).
"""

from __future__ import annotations

from dataclasses import dataclass

from .messages import (ETHERNET_HEADER_BYTES, PREAMBLE_IFG_BYTES,
                       RATE_UPDATE_BYTES, TCP_IP_HEADER_BYTES, wire_bytes)

__all__ = ["UpdatePlane", "direct_update_plane", "intermediary_update_plane"]

MTU_BYTES = 1500
_FRAME_OVERHEAD = (TCP_IP_HEADER_BYTES + ETHERNET_HEADER_BYTES
                   + PREAMBLE_IFG_BYTES)


@dataclass(frozen=True)
class UpdatePlane:
    """Capacity analysis of one rate-update distribution design."""

    name: str
    #: wire bytes leaving the allocator NIC per endpoint per second.
    allocator_bytes_per_endpoint: float
    #: endpoints one allocator NIC can feed.
    endpoints_per_nic: int
    #: intermediary servers required (0 for the direct design).
    intermediaries: int

    def scaling_vs(self, other: "UpdatePlane") -> float:
        return self.endpoints_per_nic / max(other.endpoints_per_nic, 1)


def direct_update_plane(updates_per_endpoint_per_s, nic_gbps=10.0):
    """The baseline: every update is its own minimum-size frame."""
    per_update_wire = wire_bytes(RATE_UPDATE_BYTES)
    bytes_per_endpoint = updates_per_endpoint_per_s * per_update_wire
    nic_bytes = nic_gbps * 1e9 / 8.0
    return UpdatePlane(
        name="direct",
        allocator_bytes_per_endpoint=bytes_per_endpoint,
        endpoints_per_nic=int(nic_bytes // max(bytes_per_endpoint, 1e-12)),
        intermediaries=0)


def intermediary_update_plane(updates_per_endpoint_per_s, nic_gbps=10.0,
                              endpoints_per_intermediary=None,
                              intermediary_nic_gbps=10.0):
    """§7's design: MTU-batched updates relayed by intermediaries.

    The allocator ships full MTUs to intermediaries (amortizing the
    frame overhead over ~249 six-byte updates); each intermediary
    explodes them into per-endpoint minimum frames, so *its* NIC limits
    how many endpoints it can serve.
    """
    updates_per_mtu = (MTU_BYTES - _FRAME_OVERHEAD) // RATE_UPDATE_BYTES
    allocator_bytes_per_update = MTU_BYTES / updates_per_mtu
    bytes_per_endpoint = (updates_per_endpoint_per_s
                          * allocator_bytes_per_update)
    nic_bytes = nic_gbps * 1e9 / 8.0
    endpoints = int(nic_bytes // max(bytes_per_endpoint, 1e-12))

    # Each intermediary re-expands to per-endpoint frames.
    per_update_wire = wire_bytes(RATE_UPDATE_BYTES)
    intermediary_bytes = intermediary_nic_gbps * 1e9 / 8.0
    fan_out_limit = int(intermediary_bytes
                        // max(updates_per_endpoint_per_s * per_update_wire,
                               1e-12))
    if endpoints_per_intermediary is None:
        endpoints_per_intermediary = fan_out_limit
    endpoints_per_intermediary = min(endpoints_per_intermediary,
                                     fan_out_limit)
    intermediaries = -(-endpoints // max(endpoints_per_intermediary, 1))
    return UpdatePlane(
        name="intermediary",
        allocator_bytes_per_endpoint=bytes_per_endpoint,
        endpoints_per_nic=endpoints,
        intermediaries=intermediaries)
