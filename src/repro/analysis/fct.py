"""Flow-completion-time analysis (figs. 8's bins and speedups).

The paper normalizes each flow's completion time "by the time it would
take to send out and receive all its bytes on an empty network", bins
flows by length in packets (1, 1-10, 10-100, 100-1000, large), and
plots the p99 ratio between a scheme and Flowtune per bin and load.
"""

from __future__ import annotations

import numpy as np

from ..control.messages import ETHERNET_HEADER_BYTES, TCP_IP_HEADER_BYTES
from ..sim.packet import packets_for

__all__ = ["SIZE_BINS", "bin_of", "ideal_fct", "normalized_fcts",
           "p99_by_bin", "speedup_by_bin"]

#: (label, min packets inclusive, max packets inclusive).
SIZE_BINS = (
    ("1 packet", 1, 1),
    ("1-10 packets", 2, 10),
    ("10-100 packets", 11, 100),
    ("100-1000 packets", 101, 1000),
    ("large", 1001, float("inf")),
)


def bin_of(n_packets):
    """Bin label for a flow of ``n_packets``."""
    for label, low, high in SIZE_BINS:
        if low <= n_packets <= high:
            return label
    raise ValueError(f"unbinnable packet count {n_packets}")


def ideal_fct(size_bytes, one_way_delay, bottleneck_gbps,
              per_packet_overhead=0.0):
    """Empty-network completion time: propagation + serialization."""
    n_packets = packets_for(size_bytes)
    wire_bytes = size_bytes + n_packets * (TCP_IP_HEADER_BYTES
                                           + ETHERNET_HEADER_BYTES)
    serialization = wire_bytes * 8.0 / (bottleneck_gbps * 1e9)
    return one_way_delay + serialization + per_packet_overhead * n_packets


def normalized_fcts(stats, topology):
    """flow_id -> (bin label, FCT / ideal FCT) for completed flows."""
    out = {}
    for flow in stats.completed_flows():
        hops = flow.n_hops
        one_way = (topology.two_hop_rtt() if hops <= 2
                   else topology.four_hop_rtt()) / 2.0
        ideal = ideal_fct(flow.size_bytes, one_way, topology.host_capacity)
        out[flow.flow_id] = (bin_of(flow.n_packets), flow.fct / ideal)
    return out


def p99_by_bin(normalized):
    """bin label -> p99 normalized FCT (bins with >= 5 flows only)."""
    grouped = {}
    for label, slowdown in normalized.values():
        grouped.setdefault(label, []).append(slowdown)
    return {label: float(np.percentile(np.asarray(values), 99))
            for label, values in grouped.items() if len(values) >= 5}


def speedup_by_bin(scheme_normalized, flowtune_normalized):
    """Fig. 8's y-axis: p99(scheme) / p99(Flowtune) per bin.

    Computed over the *common* completed flows so the ratio compares
    identical traffic.
    """
    common = set(scheme_normalized) & set(flowtune_normalized)
    scheme_common = {f: scheme_normalized[f] for f in common}
    flowtune_common = {f: flowtune_normalized[f] for f in common}
    scheme_p99 = p99_by_bin(scheme_common)
    flowtune_p99 = p99_by_bin(flowtune_common)
    return {label: scheme_p99[label] / flowtune_p99[label]
            for label in scheme_p99 if label in flowtune_p99
            and flowtune_p99[label] > 0}
