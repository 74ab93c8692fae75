"""Build a packet-level network from a topology + scheme config.

Responsible for: instantiating hosts/switches/links with the scheme's
queue discipline, folding the §6.2 host processing delay into edge
links (so RTTs come out at ~14 µs / ~22 µs without per-packet
overhead events), attaching XCP controllers, wiring the optional
Flowtune allocator device to every spine over dedicated 40 Gbit/s
links, and starting flows with the scheme's transport.
"""

from __future__ import annotations

from ..topology.graph import LinkKind
from .config import SimConfig
from .devices import Host, Switch
from .engine import Simulator
from .link import Link
from .packet import SimFlow
from .queues import (DropTailQueue, EcnQueue, PFabricQueue, SfqCoDelQueue,
                     XcpController)
from .stats import RunStats

__all__ = ["PacketNetwork"]


class PacketNetwork:
    """A live simulated network for one experiment run."""

    def __init__(self, topology, config: SimConfig | None = None,
                 sim: Simulator | None = None, stats: RunStats | None = None):
        self.topology = topology
        self.config = config if config is not None else SimConfig()
        self.sim = sim if sim is not None else Simulator()
        self.stats = stats if stats is not None else RunStats(
            throughput_window=self.config.throughput_window or None)
        self.hosts = [Host(f"h{i}", i, self.stats)
                      for i in range(topology.n_hosts)]
        self.switches = {}
        for rack in range(topology.n_racks):
            name = f"tor{rack}"
            self.switches[name] = Switch(name)
        for spine in range(topology.n_spines):
            name = f"spine{spine}"
            self.switches[name] = Switch(name)
        self.links = [self._build_link(spec) for spec in topology.links]
        if self.config.scheme == "xcp":
            self._attach_xcp()
        # Flowtune control-plane attachments (filled by attach_allocator).
        self.allocator_device = None
        self._allocator_uplinks = {}    # spine -> Link (spine->allocator)
        self._allocator_downlinks = {}  # spine -> Link (allocator->spine)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _device_by_name(self, name):
        if name.startswith("h"):
            return self.hosts[int(name[1:])]
        return self.switches[name]

    def _make_queue(self):
        cfg = self.config
        scheme = cfg.scheme
        if scheme == "dctcp":
            return EcnQueue(cfg.queue_capacity_packets,
                            cfg.ecn_threshold_packets)
        if scheme == "pfabric":
            return PFabricQueue(cfg.pfabric_queue_packets)
        if scheme == "sfqcodel":
            return SfqCoDelQueue(cfg.queue_capacity_packets,
                                 n_buckets=cfg.sfq_buckets,
                                 target=cfg.codel_target,
                                 interval=cfg.codel_interval,
                                 overflow=cfg.sfq_overflow)
        # flowtune, xcp, tcp: plain FIFO
        return DropTailQueue(cfg.queue_capacity_packets)

    def _build_link(self, spec):
        # §6.2: servers add 2 µs processing; folding it into the edge
        # links reproduces the 14 µs / 22 µs RTTs with zero extra events.
        delay = spec.delay
        if spec.kind in (LinkKind.HOST_UP, LinkKind.HOST_DOWN):
            delay += self.config.host_delay
        return Link(self.sim, f"{spec.src}->{spec.dst}", spec.index,
                    spec.capacity * 1e9, delay, self._make_queue(),
                    self._device_by_name(spec.dst))

    def _attach_xcp(self):
        for link in self.links:
            controller = XcpController(link.rate_bps)
            link.xcp = controller
            self._schedule_xcp_tick(controller)

    def _schedule_xcp_tick(self, controller):
        def tick():
            interval = controller.end_interval(self.sim.now)
            self.sim.after(interval, tick, daemon=True)
        # Periodic control ticks must not keep the simulation alive.
        self.sim.after(controller.interval, tick, daemon=True)

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def route_links(self, src, dst, flow_id=0):
        return tuple(self.links[i]
                     for i in self.topology.route(src, dst, flow_id))

    def make_flow(self, flow_id, src, dst, size_bytes, arrival=None):
        flow = SimFlow(flow_id, src, dst, size_bytes,
                       self.sim.now if arrival is None else arrival,
                       route=self.route_links(src, dst, flow_id),
                       reverse_route=self.route_links(dst, src, flow_id))
        self.stats.register_flow(flow)
        return flow

    def start_flow(self, flow: SimFlow):
        """Create sender/receiver agents for ``flow`` and begin."""
        from ..transport import make_receiver, make_sender
        receiver = make_receiver(self, flow)
        self.hosts[flow.dst].receivers[flow.flow_id] = receiver
        sender = make_sender(self, flow)
        self.hosts[flow.src].senders[flow.flow_id] = sender
        sender.start()
        return sender

    # ------------------------------------------------------------------
    # Flowtune allocator attachment
    # ------------------------------------------------------------------
    def attach_allocator(self, allocator_device):
        """Wire an allocator device to every spine (§6.2: 40 G links)."""
        cfg = self.config
        self.allocator_device = allocator_device
        for spine in range(self.topology.n_spines):
            name = f"spine{spine}"
            up = Link(self.sim, f"{name}->allocator", -1,
                      cfg.allocator_link_gbps * 1e9,
                      cfg.allocator_link_delay,
                      DropTailQueue(cfg.queue_capacity_packets),
                      allocator_device)
            down = Link(self.sim, f"allocator->{name}", -1,
                        cfg.allocator_link_gbps * 1e9,
                        cfg.allocator_link_delay,
                        DropTailQueue(cfg.queue_capacity_packets),
                        self.switches[name])
            self._allocator_uplinks[spine] = up
            self._allocator_downlinks[spine] = down

    def control_route_to_allocator(self, host):
        """host -> ToR -> spine -> allocator (spine by host hash)."""
        topo = self.topology
        rack = topo.rack_of(host)
        spine = host % topo.n_spines
        return (self.links[topo.host_up_link(host)],
                self.links[topo.fabric_up_link(rack, spine)],
                self._allocator_uplinks[spine])

    def control_route_from_allocator(self, host):
        """allocator -> spine -> ToR -> host (same spine choice)."""
        topo = self.topology
        rack = topo.rack_of(host)
        spine = host % topo.n_spines
        return (self._allocator_downlinks[spine],
                self.links[topo.fabric_down_link(rack, spine)],
                self.links[topo.host_down_link(host)])

    # ------------------------------------------------------------------
    # queue-length sampling (the paper's fig. 9 methodology)
    # ------------------------------------------------------------------
    def start_queue_sampler(self, interval=100e-6, paths_per_sample=32,
                            seed=0):
        """Periodically sample active flows' path queueing delays.

        §6.5 collects queue lengths every 1 ms and infers path
        queueing; this sampler sums each sampled route's instantaneous
        per-link delays (queued bytes / rate).  The default interval is
        tighter than the paper's because our runs are milliseconds, not
        seconds.
        """
        rng = __import__("random").Random(seed)

        def sample():
            active = [f for f in self.stats.flows.values()
                      if f.start_time is not None and f.finish_time is None]
            if active:
                chosen = active if len(active) <= paths_per_sample else \
                    rng.sample(active, paths_per_sample)
                for flow in chosen:
                    delay = sum(link.queue.bytes_queued * 8.0 / link.rate_bps
                                for link in flow.route)
                    self.stats.record_path_sample(flow.n_hops, delay)
            self.sim.after(interval, sample, daemon=True)

        self.sim.after(interval, sample, daemon=True)

    # ------------------------------------------------------------------
    # run helpers
    # ------------------------------------------------------------------
    def run_until(self, t_end, max_events=None):
        return self.sim.run_until(t_end, max_events=max_events)

    def total_dropped_bytes(self):
        """Reach: invariant — tests check the transports' drop bounds."""
        return sum(link.dropped_bytes for link in self.links)
