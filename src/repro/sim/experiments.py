"""Packet-level experiment harnesses for the §6 simulations.

Three entry points:

* :func:`build_network` — a ready network for any scheme, with the
  Flowtune control plane (allocator node + per-host agents) wired up
  when the scheme is ``flowtune``.
* :func:`convergence_experiment` — the fig. 4 scenario: five senders to
  one receiver; a flow joins every 10 ms, then one leaves every 10 ms;
  per-flow throughput sampled in 100 µs windows.
* :func:`fct_experiment` — the figs. 8-11 scenario: Poisson flowlet
  churn from a Facebook workload at a target load; returns the
  :class:`~repro.sim.stats.RunStats` with FCTs, queueing delays and
  drops.

Scale knobs default to values a Python event loop can sustain; the
benchmarks pass larger ones (see ``benchmarks/_scale.py``).
"""

from __future__ import annotations

from ..control.allocator_node import AllocatorNode
from ..control.endpoint import HostControlAgent
from ..topology.clos import TwoTierClos
from ..workloads.distributions import WORKLOADS
from ..workloads.generator import PoissonFlowletGenerator
from .config import SimConfig
from .network import PacketNetwork

__all__ = ["build_network", "convergence_experiment", "fct_experiment",
           "run_arrivals"]


def build_network(scheme, topology=None, **config_overrides):
    """Construct a :class:`PacketNetwork` (+ control plane if Flowtune)."""
    if topology is None:
        topology = TwoTierClos(n_racks=3, hosts_per_rack=8, n_spines=2)
    config = SimConfig(scheme=scheme, **config_overrides)
    network = PacketNetwork(topology, config)
    if scheme == "flowtune":
        AllocatorNode(network)
        for host in network.hosts:
            HostControlAgent(network, host)
    return network


def convergence_experiment(scheme, n_senders=5, join_interval=10e-3,
                           topology=None, flow_gbits=2.0,
                           **config_overrides):
    """Fig. 4: staircase join/leave of long flows sharing one receiver.

    Returns ``(network, flow_ids)``; per-flow series come from
    ``network.stats.throughput_series``.  ``flow_gbits`` bounds each
    flow's size (it must outlive its active period at line rate).
    """
    config_overrides.setdefault("throughput_window", 100e-6)
    network = build_network(scheme, topology=topology, **config_overrides)
    receiver_host = 0
    flow_ids = []
    senders = {}

    def start_one(index):
        flow = network.make_flow(f"conv{index}", index + 1, receiver_host,
                                 flow_gbits * 1e9 / 8.0)
        senders[index] = network.start_flow(flow)

    def stop_one(index):
        sender = senders.get(index)
        if sender is not None and not sender.done:
            sender.abort()

    for i in range(n_senders):
        flow_ids.append(f"conv{i}")
        network.sim.at(i * join_interval, start_one, i)
    for i in range(n_senders):
        network.sim.at((n_senders + i) * join_interval, stop_one, i)
    total = 2 * n_senders * join_interval
    network.run_until(total)
    return network, flow_ids


def run_arrivals(network, arrivals, t_end, drain=5e-3, max_events=None):
    """Schedule flowlet arrivals, run to ``t_end`` + drain, return stats."""
    sim = network.sim

    def admit(arrival):
        flow = network.make_flow(arrival.flow_id, arrival.src, arrival.dst,
                                 arrival.size_bytes, arrival=arrival.time)
        network.start_flow(flow)

    for arrival in arrivals:
        sim.at(arrival.time, admit, arrival)
    network.run_until(t_end + drain, max_events=max_events)
    return network.stats


def fct_experiment(scheme, workload="web", load=0.6, duration=20e-3,
                   drain=10e-3, seed=0, topology=None, max_events=None,
                   **config_overrides):
    """Figs. 8-11 runs: Poisson churn at a target load for one scheme.

    Returns ``(network, stats, duration)``.  The same ``seed`` yields
    the same arrival sequence for every scheme, so per-flow FCTs are
    directly comparable (the paper's speedup ratios).
    """
    network = build_network(scheme, topology=topology, **config_overrides)
    topology = network.topology
    dist = WORKLOADS[workload]() if isinstance(workload, str) else workload
    generator = PoissonFlowletGenerator(
        dist, n_hosts=topology.n_hosts, load=load,
        host_capacity_gbps=topology.host_capacity, seed=seed)
    arrivals = generator.arrivals_until(duration)
    network.start_queue_sampler()  # fig. 9's sampled-length methodology
    stats = run_arrivals(network, arrivals, duration, drain=drain,
                         max_events=max_events)
    return network, stats, duration
