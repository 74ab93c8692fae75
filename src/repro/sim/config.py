"""Experiment configuration for the packet-level simulator.

One dataclass carries every scheme's knobs so that a run is fully
described by (topology, workload, SimConfig, seed).  Defaults follow
§6.2 where the paper specifies them (allocator period 10 µs, gamma
0.4, threshold 0.01, 20/30 µs control RTOs, 40 Gbit/s allocator links)
and the cited schemes' own papers elsewhere (DCTCP K=65 @ 10 G,
pFabric ~2xBDP buffers and aggressive RTO, CoDel scaled to datacenter
RTTs).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimConfig", "SCHEMES"]

#: the five compared schemes of §6.5 plus plain TCP as a substrate.
SCHEMES = ("flowtune", "dctcp", "pfabric", "sfqcodel", "xcp", "tcp")


@dataclass
class SimConfig:
    """All tunables for one packet-level simulation run."""

    scheme: str = "flowtune"

    # --- queues -------------------------------------------------------
    queue_capacity_packets: int = 256
    ecn_threshold_packets: int = 65          # DCTCP K for 10 Gbit/s
    pfabric_queue_packets: int = 24          # ~2xBDP at 10 G / 22 µs
    codel_target: float = 5e-3               # ns2 CoDel default target
    codel_interval: float = 100e-3           # ns2 CoDel default interval
    sfq_buckets: int = 64                    # sfqCoDel hash buckets
    sfq_overflow: str = "fattest"            # shared-buffer drop policy

    # --- window transports ---------------------------------------------
    initial_cwnd: float = 4.0                # packets (ns2-era IW)
    min_rto: float = 45e-6                   # datacenter minRTO (pFabric)
    max_rto: float = 20e-3
    dctcp_g: float = 1.0 / 16.0
    cubic_c: float = 0.4
    cubic_beta: float = 0.7
    pfabric_rto: float = 60e-6               # ~3 x 4-hop RTT
    pfabric_cwnd_packets: float = 18.0       # line-rate BDP cap
    pfabric_probe_after: int = 5             # timeouts before probe mode
    xcp_initial_cwnd: float = 2.0

    # --- Flowtune control plane (§6.2) ---------------------------------
    allocator_period: float = 10e-6
    allocator_gamma: float = 0.4
    update_threshold: float = 0.01
    #: window during the pre-allocation TCP phase; the first rate
    #: update lands ~2 RTTs in, so this bounds the unscheduled burst.
    flowtune_initial_cwnd: float = 2.0
    #: capacity fraction reserved for traffic the allocator does not
    #: schedule on data links: reverse-path ACKs (~64 B per 1518 B
    #: data packet ~ 4.2 %) plus control frames.  Without it, paced
    #: traffic + ACKs persistently oversubscribe busy host links.
    allocator_capacity_margin: float = 0.05
    rate_expiry: float = 0.0                 # 0 disables TCP fallback
    control_rto: float = 30e-6
    allocator_link_gbps: float = 40.0
    allocator_link_delay: float = 1.5e-6

    # --- environment ----------------------------------------------------
    host_delay: float = 2e-6                 # folded into edge links
    throughput_window: float = 0.0           # >0 enables fig.4 sampling

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; one of {SCHEMES}")
