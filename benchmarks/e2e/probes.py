"""Direct public-call probes of single layers (traced runs only).

The op spans say how long ``apply_churn`` and ``iterate`` took; these
probes say where inside them the time goes, without touching the
program: each one calls a public function of one layer on live state
(or on a benchmark-owned instance of that layer's class fed the same
stream) and times the call.  Probes run outside every op span.

One probe is not pure: ``optimizer.iterate(1)`` advances the prices by
one extra NED step (every 50th op of a traced run, never in a run that
reports end-to-end numbers).
"""

from __future__ import annotations

import struct
import time
from collections import defaultdict

import numpy as np

import repro
from repro import ChurnQueue, make_scheduler, paper_topology
from repro.core import f_norm, threshold_update_mask
from repro.service import wire

__all__ = ["Samples", "CoreProbes", "SamplingProbes", "OpProbes",
           "CycleMirror", "kernel_bytes_moved_mb"]

clock = time.perf_counter
_FRAME = struct.Struct("!II")   # the fabric's length + tag framing


class Samples:
    """name -> list of seconds (or counts); means on demand."""

    def __init__(self) -> None:
        self.values = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.values[name].append(value)

    def timed(self, name: str, fn, *args):
        t0 = clock()
        out = fn(*args)
        self.values[name].append(clock() - t0)
        return out

    def mean(self, name: str, scale: float = 1.0) -> float:
        values = self.values.get(name)
        return float(np.mean(values)) * scale if values else 0.0


def kernel_bytes_moved_mb(n_flows: int, width: int) -> float:
    """Bytes one iterate's four kernels move, computed from array
    sizes (8-byte elements; ``width`` = CSR slots per flow): each
    kernel reads the slot indices and moves one gathered or scattered
    value per slot, plus its per-flow vectors."""
    slots = n_flows * width
    price_sums = 2 * slots + n_flows
    link_totals2 = slots + 2 * (slots + n_flows)
    max_link_value = 2 * slots + n_flows
    return 8.0 * (price_sums + link_totals2 + max_link_value) / 1e6


class CoreProbes:
    """Kernels, NED step, F-NORM and the threshold mask of one
    ``FlowtuneAllocator`` (the priced half, for a sampled scheduler)."""

    def __init__(self, samples: Samples) -> None:
        self.samples = samples

    def run(self, allocator, n_changed: int) -> None:
        table = allocator.table
        n = table.n_flows
        if n == 0:
            return
        timed = self.samples.timed
        optimizer = allocator.optimizer
        raw = optimizer.rate_update()
        load = table.link_totals(raw)
        ratios = load / table.links.capacity
        timed("core.kernels.price_sums", table.price_sums, optimizer.prices)
        timed("core.kernels.link_totals", table.link_totals, raw)
        timed("core.kernels.link_totals2", table.link_totals2, raw, raw)
        timed("core.kernels.max_link_value", table.max_link_value, ratios)
        t0 = clock()
        normalized = f_norm(table, raw, link_load=load)
        self.samples.add("core.normalization.fnorm", clock() - t0)
        # The mask sees as many moved rates as the op just notified.
        last = normalized.copy()
        last[:min(n, n_changed)] *= 1.5
        pending = np.zeros(n, dtype=np.bool_)
        timed("core.allocator.threshold_mask", threshold_update_mask,
              normalized, last, pending, allocator.update_threshold)
        timed("core.optimizer.iterate", optimizer.iterate, 1)
        self.samples.add("core.kernels.bytes_moved_mb", kernel_bytes_moved_mb(
            n, int(table.hop_counts().max())))


class SamplingProbes:
    """The sampled scheduler's component layers.

    The detector's ``advance`` and the ECMP store's methods cannot be
    timed on the live scheduler without stealing its promotions or
    double-applying churn, so each is timed on a benchmark-owned
    instance of the same public class: a detector fed the identical
    usage stream, and an ECMP store of the same population given one
    churn batch per probe.  A class that no longer exists yields no
    samples (its metrics read 0 and are listed as unavailable).
    """

    def __init__(self, samples: Samples, inputs, n_live: int,
                 churn: int) -> None:
        self.samples = samples
        self.core = CoreProbes(samples)
        self.inputs = inputs
        self.churn = churn
        self.unavailable = []
        self.detector = None
        self.ecmp = None
        detector_cls = getattr(repro, "ElephantDetector", None)
        if detector_cls is None:
            self.unavailable.append("sampling.detector")
        else:
            self.detector = detector_cls()
            for fid in range(n_live):
                self.detector.track(fid)
                self.detector.observe(fid, inputs.size(fid))
            self.detector.advance()
        try:
            self.ecmp = make_scheduler(paper_topology().link_set(),
                                       mode="ecmp")
            self.ecmp.apply_churn(starts=inputs.starts(0, n_live))
            self.ecmp.iterate(4)
        except ValueError:   # the mode no longer exists
            self.ecmp = None
            self.unavailable.append("sampling.ecmp")
        self.ecmp_next = n_live
        self.ecmp_oldest = 0

    def every_op(self, batch) -> None:
        """Mirror one op's usage stream into the detector twin."""
        detector = self.detector
        if detector is None:
            return
        _, ends, usage = batch
        detector.forget_many(ends)
        for fid, nbytes in usage:
            detector.track(fid)
            detector.observe(fid, nbytes)
        self.samples.timed("sampling.detector.advance", detector.advance)

    def run(self, scheduler) -> None:
        priced = getattr(scheduler, "priced", None)
        if priced is None:
            if "sampling.priced" not in self.unavailable:
                self.unavailable.append("sampling.priced")
        else:
            self.core.run(priced, n_changed=self.churn // 10)
        ecmp = self.ecmp
        if ecmp is None:
            return
        k = self.churn
        for _ in range(4):   # one full mice-refresh period
            starts = self.inputs.starts(self.ecmp_next, k)
            ends = range(self.ecmp_oldest, self.ecmp_oldest + k)
            self.ecmp_next += k
            self.ecmp_oldest += k
            t0 = clock()
            ecmp.apply_churn(starts=starts, ends=ends)
            self.samples.add("sampling.ecmp.apply_churn", clock() - t0)
            refresh = ecmp.will_refresh()
            t0 = clock()
            ecmp.iterate(1)
            if refresh:
                self.samples.add("sampling.ecmp.iterate_refresh",
                                 clock() - t0)


class OpProbes:
    """What a traced in-process run does after each of its ops."""

    def __init__(self, samples: Samples, n_live: int, churn: int) -> None:
        self.samples = samples
        self.n_live = n_live
        self.churn = churn
        self.core = CoreProbes(samples)
        self.sampling = None    # built at the first op of a sampled run

    def after_op(self, driver, batch, result, traced: bool,
                 due: bool) -> None:
        if driver.sampled:
            if self.sampling is None:
                self.sampling = SamplingProbes(self.samples, driver.inputs,
                                               self.n_live, self.churn)
            self.sampling.every_op(batch)
            if traced and due:
                self.sampling.run(driver.scheduler)
        elif traced and due:
            self.core.run(driver.scheduler,
                          n_changed=len(result.update_indices))

    @property
    def unavailable(self) -> list:
        return self.sampling.unavailable if self.sampling else []


class CycleMirror:
    """One server duty cycle, rebuilt in this process from public calls.

    The service child cannot be instrumented from outside, so the
    traced service run rebuilds the work one arrival causes — frame
    reassembly and decode, queue push and drain, ``apply_churn``,
    ``iterate``, update rendering and RATES encoding — on a mirror
    allocator of the same population, and times each stage.  What the
    measured admission latency has beyond this cycle (select wake-up,
    the socket, a cycle already in flight) is reported as
    ``service.server.unattributed_ms``, not hidden.
    """

    CLIENT_ID = 1

    def __init__(self, samples: Samples, recorder, inputs, n_live: int,
                 gamma: float) -> None:
        self.samples = samples
        self.recorder = recorder
        self.inputs = inputs
        self.core = CoreProbes(samples)
        self.allocator = make_scheduler(paper_topology().link_set(),
                                        mode="flowtune", gamma=gamma)
        cid = self.CLIENT_ID
        self.allocator.apply_churn(
            starts=[((cid, fid), route)
                    for fid, route in inputs.starts(0, n_live)])
        self.allocator.iterate(50)
        self.queue = ChurnQueue()
        self.next_id = n_live
        self.oldest = 0
        self.seq = 0
        self.first_cycle_updates = []
        self.updates_per_arrival = []

    def cycle(self, index: int) -> None:
        add = self.recorder.add
        cid = self.CLIENT_ID
        fid, old = self.next_id, self.oldest
        self.next_id += 1
        self.oldest += 1
        end_payload = wire.encode_end([old])
        t0 = clock()
        start_payload = wire.encode_start([(fid, self.inputs.route(fid), 1.0)])
        self.samples.add("service.wire.encode_start", clock() - t0)
        stream = b"".join(
            _FRAME.pack(len(payload), wire.TAG_SERVICE) + payload
            for payload in (end_payload, start_payload))
        buffer = wire.FrameBuffer()

        c0 = clock()
        frames = buffer.feed(stream)
        c1 = clock()
        _, ended = wire.decode_message(frames[0][1])
        d0 = clock()
        _, started = wire.decode_message(frames[1][1])
        c2 = clock()
        for gone in ended:
            self.queue.push_end((cid, gone))
        for new, route, weight in started:
            self.queue.push_start((cid, new), route, weight)
        c3 = clock()
        starts, ends = self.queue.drain()
        c4 = clock()
        self.allocator.apply_churn(starts=starts, ends=ends)
        c5 = clock()
        result = self.allocator.iterate(1)
        c6 = clock()
        fids, rates = [], []
        for (_, flow), rate in result.updates:
            fids.append(flow)
            rates.append(rate)
        c7 = clock()
        payload = wire.encode_rates(self.seq, self.seq + 1, fids, rates)
        c8 = clock()
        self.seq += 1

        root = add("cycle", c0, c8, op=index)
        add("service.wire.framebuffer_feed", c0, c1, root, index)
        add("service.wire.decode", c1, c2, root, index)
        add("core.allocator.queue_push", c2, c3, root, index)
        add("core.allocator.queue_drain", c3, c4, root, index)
        add("core.network.apply_churn", c4, c5, root, index)
        add("core.allocator.iterate", c5, c6, root, index)
        add("core.allocator.updates_render", c6, c7, root, index)
        add("service.wire.encode_rates", c7, c8, root, index)
        n_updates = max(1, len(fids))
        record = self.samples.add
        record("service.server.cycle_inproc", c8 - c0)
        record("service.wire.framebuffer_feed", c1 - c0)
        record("service.wire.decode_start", c2 - d0)
        record("core.allocator.queue_push", (c3 - c2) / 2)
        record("core.allocator.queue_drain", c4 - c3)
        record("core.network.apply_churn", c5 - c4)
        record("core.allocator.iterate", c6 - c5)
        record("core.allocator.updates_render_per_update",
               (c7 - c6) / n_updates)
        record("service.wire.encode_rates_per_update", (c8 - c7) / n_updates)
        t0 = clock()
        wire.decode_message(payload)
        record("service.wire.decode_rates_per_update",
               (clock() - t0) / n_updates)
        self.first_cycle_updates.append(len(fids))

        # The server keeps iterating until rates stop moving; follow it
        # so the next cycle starts from the state a real one would.
        total = len(fids)
        for _ in range(32):
            moved = len(self.allocator.iterate(1).update_indices)
            if moved == 0:
                break
            total += moved
        self.updates_per_arrival.append(total)
        if index % 10 == 0:
            self.core.run(self.allocator, n_changed=len(fids))
