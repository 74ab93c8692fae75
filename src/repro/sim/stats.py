"""Run-level measurement collection for the packet simulator.

Gathers exactly what the paper's figures need:

* per-flow FCTs (fig. 8, fig. 11),
* per-packet accumulated queueing delay grouped by path length
  (fig. 9's 2-hop / 4-hop split),
* dropped bytes per second (fig. 10),
* optional per-flow throughput time series at a sampling window
  (fig. 4's 100 µs convergence plots).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RunStats"]


class RunStats:
    """Accumulators shared by all agents of one simulation run."""

    def __init__(self, throughput_window=None):
        self.flows = {}
        self.queue_delay_by_hops = {}
        #: path queueing delays from periodically *sampled* queue
        #: lengths — the paper's §6.5 methodology ("collected queue
        #: lengths ... every 1 ms"); misses sub-interval microbursts
        #: by construction, unlike the per-packet accounting above.
        self.sampled_path_delay_by_hops = {}
        self.delivered_bytes = 0.0
        self.throughput_window = throughput_window
        self._throughput = {}  # flow_id -> {window index -> bytes}
        self.control_bytes_to_allocator = 0.0
        self.control_bytes_from_allocator = 0.0
        self.control_messages = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def register_flow(self, flow):
        self.flows[flow.flow_id] = flow

    def record_delivery(self, packet, now):
        """Called by receivers for every *new* data packet delivered."""
        flow = packet.flow
        hops = flow.n_hops
        self.queue_delay_by_hops.setdefault(hops, []).append(
            packet.queue_delay)
        payload = packet.size_bytes
        self.delivered_bytes += payload
        if self.throughput_window:
            window = int(now / self.throughput_window)
            series = self._throughput.setdefault(flow.flow_id, {})
            series[window] = series.get(window, 0.0) + payload

    # ------------------------------------------------------------------
    # figure extracts
    # ------------------------------------------------------------------
    def completed_flows(self):
        return [f for f in self.flows.values() if f.finish_time is not None]

    def p99_queue_delay(self, hops):
        """99th-percentile accumulated queueing delay for a path length."""
        samples = self.queue_delay_by_hops.get(hops)
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples), 99))

    def record_path_sample(self, hops, delay):
        self.sampled_path_delay_by_hops.setdefault(hops, []).append(delay)

    def p99_sampled_queue_delay(self, hops):
        """p99 path queueing from sampled lengths (paper's fig. 9)."""
        samples = self.sampled_path_delay_by_hops.get(hops)
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples), 99))

    def dropped_bytes(self, links):
        return float(sum(link.dropped_bytes for link in links))

    def drop_gbps(self, links, duration):
        """Dropped data per second in Gbit/s (fig. 10's y-axis)."""
        if duration <= 0:
            return 0.0
        return self.dropped_bytes(links) * 8.0 / duration / 1e9

    def throughput_series(self, flow_id, t_end):
        """(times, gbps) arrays for one flow (fig. 4)."""
        window = self.throughput_window
        if not window:
            raise ValueError("run was not configured with a throughput window")
        series = self._throughput.get(flow_id, {})
        n_windows = int(t_end / window) + 1
        gbps = np.zeros(n_windows)
        for index, byte_count in series.items():
            if index < n_windows:
                gbps[index] = byte_count * 8.0 / window / 1e9
        times = (np.arange(n_windows) + 0.5) * window
        return times, gbps

    def completion_fraction(self):
        if not self.flows:
            return 1.0
        return len(self.completed_flows()) / len(self.flows)
