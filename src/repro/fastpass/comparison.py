"""Flowtune-vs-Fastpass allocator throughput comparison (§6.1).

The paper: "Fastpass reported 2.2 Tbits/s on 8 cores.  Fastpass
performs per-packet work, so its scalability declines with increases
in link speed.  Flowtune schedules flowlets, so allocated rates scale
proportionally with the network links...  10.4x more throughput per
core on 8x more cores — an 83x throughput increase over Fastpass."

Both allocators run in the same Python substrate here, so the
*relative* per-core throughput is an apples-to-apples measurement of
the structural difference: per-packet matching work vs per-iteration
flowlet work.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.ned import NedOptimizer
from ..core.network import FlowTable
from ..topology.clos import TwoTierClos
from .arbiter import TIMESLOT_BYTES, FastpassArbiter

__all__ = ["measure_fastpass_throughput", "measure_flowtune_throughput"]


def measure_fastpass_throughput(n_hosts=256, n_pairs=2048,
                                link_gbps=40.0, min_seconds=0.3, seed=0):
    """Network throughput (Tbit/s) one arbiter core can schedule.

    The arbiter must allocate a timeslot every ``MTU / link_rate``
    seconds of network time; measuring wall-clock per timeslot gives
    the network throughput one core sustains.
    """
    rng = np.random.default_rng(seed)
    arbiter = FastpassArbiter(n_hosts)
    for _ in range(n_pairs):
        src, dst = rng.integers(n_hosts), rng.integers(n_hosts - 1)
        if dst >= src:
            dst += 1
        arbiter.add_demand(int(src), int(dst), int(rng.integers(10, 1000)))
    slots = 0
    start = time.perf_counter()
    while True:
        arbiter.allocate_timeslot()
        slots += 1
        if slots % 256 == 0 and time.perf_counter() - start > min_seconds:
            break
    elapsed = time.perf_counter() - start
    slots_per_second = slots / elapsed
    # Each slot schedules every host for one MTU-time at link rate:
    # network time covered per slot is MTU / rate; the network
    # throughput kept fed is hosts * rate * (slot_time_network /
    # slot_time_wall) — equivalently:
    slot_network_seconds = TIMESLOT_BYTES * 8.0 / (link_gbps * 1e9)
    real_time_fraction = slots_per_second * slot_network_seconds
    network_gbps = n_hosts * link_gbps
    return network_gbps * real_time_fraction / 1e3  # Tbit/s


def measure_flowtune_throughput(n_hosts=256, flows_per_host=12,
                                link_gbps=40.0, iteration_period=10e-6,
                                min_seconds=0.3, seed=0,
                                hosts_per_rack=32, n_spines=4):
    """Network throughput (Tbit/s) one NED core can allocate.

    One NED iteration re-prices the whole fabric; the allocator must
    complete an iteration every ``iteration_period`` (10 µs in §6.2).
    Wall-clock per iteration bounds the network size one core feeds.
    """
    rng = np.random.default_rng(seed)
    n_racks = max(2, n_hosts // hosts_per_rack)
    topology = TwoTierClos(n_racks=n_racks, hosts_per_rack=hosts_per_rack,
                           n_spines=n_spines, host_capacity=link_gbps)
    table = FlowTable(topology.link_set())
    n_flows = flows_per_host * topology.n_hosts
    for i in range(n_flows):
        src, dst = rng.integers(topology.n_hosts), \
            rng.integers(topology.n_hosts - 1)
        if dst >= src:
            dst += 1
        table.add_flow(i, topology.route(int(src), int(dst), i))
    optimizer = NedOptimizer(table)
    optimizer.iterate(5)  # warm caches
    iterations = 0
    start = time.perf_counter()
    while True:
        optimizer.iterate(1)
        iterations += 1
        if iterations % 8 == 0 and time.perf_counter() - start > min_seconds:
            break
    elapsed = time.perf_counter() - start
    seconds_per_iteration = elapsed / iterations
    # The core keeps up with a network iteration_period/seconds_per_iter
    # times "too fast"; throughput it can feed scales accordingly.
    real_time_fraction = iteration_period / seconds_per_iteration
    network_gbps = topology.n_hosts * link_gbps
    return network_gbps * real_time_fraction / 1e3  # Tbit/s

