"""Per-port queue disciplines for every compared scheme (§6.5).

Each link owns one queue instance.  The queue decides admission
(drop/mark) at enqueue and ordering at dequeue:

* :class:`DropTailQueue` — plain FIFO with a byte/packet cap (TCP,
  Flowtune, and the substrate for XCP's controller).
* :class:`EcnQueue` — DropTail plus DCTCP's single-threshold marking:
  CE is set on arrivals that see queue occupancy >= K packets.
* :class:`PFabricQueue` — the pFabric switch: tiny buffer; when full,
  the *lowest-priority* (largest remaining size) packet is evicted in
  favour of higher-priority arrivals; dequeue serves the
  highest-priority packet (earliest-arrived among ties).
* :class:`SfqCoDelQueue` — stochastic fair queueing (flow-hashed
  buckets served deficit-round-robin) with a CoDel instance per
  bucket, ns2's ``sfqCoDel``.

XCP needs no special queueing (FIFO) but a per-link *controller*; that
lives in :class:`XcpController` and is attached to the link.
"""

from __future__ import annotations

from collections import deque

from .packet import Packet

__all__ = ["QueueStats", "DropTailQueue", "EcnQueue", "PFabricQueue",
           "CoDelState", "SfqCoDelQueue", "XcpController"]


class QueueStats:
    """Shared drop/occupancy accounting (per link)."""

    __slots__ = ("enqueued_packets", "enqueued_bytes", "dropped_packets",
                 "dropped_bytes", "marked_packets")

    def __init__(self):
        self.enqueued_packets = 0
        self.enqueued_bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.marked_packets = 0

    def record_drop(self, packet):
        self.dropped_packets += 1
        self.dropped_bytes += packet.size_bytes

    def record_enqueue(self, packet):
        self.enqueued_packets += 1
        self.enqueued_bytes += packet.size_bytes


class DropTailQueue:
    """FIFO with a packet-count cap."""

    def __init__(self, capacity_packets=256):
        self.capacity_packets = int(capacity_packets)
        self._queue = deque()
        self.bytes_queued = 0
        self.stats = QueueStats()

    def __len__(self):
        """Reach: invariant — tests check the capacity bound with it."""
        return len(self._queue)

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Admit ``packet``; returns False (and counts a drop) if not."""
        if len(self._queue) >= self.capacity_packets:
            self.stats.record_drop(packet)
            return False
        packet.enqueued_at = now
        self._queue.append(packet)
        self.bytes_queued += packet.size_bytes
        self.stats.record_enqueue(packet)
        return True

    def dequeue(self, now: float):
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.bytes_queued -= packet.size_bytes
        return packet


class EcnQueue(DropTailQueue):
    """DropTail + DCTCP threshold marking (mark if occupancy >= K)."""

    def __init__(self, capacity_packets=256, mark_threshold_packets=65):
        super().__init__(capacity_packets)
        self.mark_threshold_packets = int(mark_threshold_packets)

    def enqueue(self, packet, now):
        if len(self._queue) >= self.mark_threshold_packets:
            packet.ecn_ce = True
            self.stats.marked_packets += 1
        return super().enqueue(packet, now)


class PFabricQueue:
    """pFabric's priority-drop, priority-dequeue switch queue.

    ``priority`` is the flow's remaining size when the packet was sent
    — smaller is more urgent.  ACKs get priority 0 (never evicted in
    practice).  The buffer is deliberately tiny (2 x BDP in the paper).
    """

    def __init__(self, capacity_packets=24):
        self.capacity_packets = int(capacity_packets)
        self._queue = []           # small; linear scans are fine
        self.bytes_queued = 0
        self.stats = QueueStats()
        self._arrival_counter = 0

    def __len__(self):
        """Reach: invariant — tests check the capacity bound with it."""
        return len(self._queue)

    def enqueue(self, packet, now):
        if len(self._queue) >= self.capacity_packets:
            # Evict the worst (highest priority value, latest arrival).
            worst_index = None
            worst_key = (packet.priority, -1)  # the arrival itself
            for i, (key, queued) in enumerate(self._queue):
                if key > worst_key:
                    worst_key = key
                    worst_index = i
            if worst_index is None:
                self.stats.record_drop(packet)
                return False
            _, evicted = self._queue.pop(worst_index)
            self.bytes_queued -= evicted.size_bytes
            self.stats.record_drop(evicted)
        packet.enqueued_at = now
        self._arrival_counter += 1
        self._queue.append(((packet.priority, self._arrival_counter), packet))
        self.bytes_queued += packet.size_bytes
        self.stats.record_enqueue(packet)
        return True

    def dequeue(self, now):
        if not self._queue:
            return None
        best_index = 0
        best_key = self._queue[0][0]
        for i in range(1, len(self._queue)):
            if self._queue[i][0] < best_key:
                best_key = self._queue[i][0]
                best_index = i
        _, packet = self._queue.pop(best_index)
        self.bytes_queued -= packet.size_bytes
        return packet


class CoDelState:
    """One CoDel AQM instance (Nichols & Jacobson, CACM 2012).

    Drop-at-dequeue controlled by packet sojourn time: once sojourn
    stays above ``target`` for ``interval``, drop and tighten the next
    drop time by ``interval / sqrt(count)``.
    """

    __slots__ = ("target", "interval", "first_above_time", "drop_next",
                 "count", "dropping")

    def __init__(self, target, interval):
        self.target = target
        self.interval = interval
        self.first_above_time = 0.0
        self.drop_next = 0.0
        self.count = 0
        self.dropping = False

    def should_drop(self, sojourn, now):
        """CoDel control law; returns True if this packet should drop."""
        if sojourn < self.target:
            self.first_above_time = 0.0
            self.dropping = False
            return False
        if self.first_above_time == 0.0:
            self.first_above_time = now + self.interval
            return False
        if now < self.first_above_time:
            return False
        if not self.dropping:
            self.dropping = True
            self.count = max(1, self.count - 2 if self.count > 2 else 1)
            self.drop_next = now + self.interval / (self.count ** 0.5)
            return True
        if now >= self.drop_next:
            self.count += 1
            self.drop_next = now + self.interval / (self.count ** 0.5)
            return True
        return False


class SfqCoDelQueue:
    """ns2's sfqCoDel: flow-hashed buckets, DRR service, CoDel each.

    Parameters follow CoDel but are exposed so datacenter-scaled values
    (§6.2's RTTs are microseconds, not WAN milliseconds) can be used.
    """

    def __init__(self, capacity_packets=512, n_buckets=1024,
                 target=100e-6, interval=1e-3, quantum_bytes=1514,
                 overflow="tail"):
        if overflow not in ("tail", "fattest"):
            raise ValueError("overflow must be 'tail' or 'fattest'")
        self.capacity_packets = int(capacity_packets)
        self.n_buckets = int(n_buckets)
        self.target = target
        self.interval = interval
        self.quantum_bytes = quantum_bytes
        self.overflow = overflow
        self._buckets = {}          # bucket id -> deque of packets
        self._codel = {}            # bucket id -> CoDelState
        self._active = deque()      # DRR order of bucket ids
        self._active_set = set()    # O(1) membership for _active
        self._deficit = {}
        self._total_packets = 0
        self.bytes_queued = 0
        self.stats = QueueStats()

    def __len__(self):
        """Reach: invariant — tests check the shared buffer's bound with it."""
        return self._total_packets

    def _bucket_of(self, packet):
        flow = packet.flow
        key = flow.flow_id if flow is not None else -1
        if not isinstance(key, int):
            key = hash(key)
        # Knuth multiplicative hash spreads sequential flow ids.
        return (key * 2654435761) % self.n_buckets

    def enqueue(self, packet, now):
        if self._total_packets >= self.capacity_packets:
            if self.overflow == "tail":
                # ns2-style shared-buffer overflow: the arrival drops,
                # whichever flow it belongs to — this is what turns
                # medium flows' final packets into timeouts (§6.5).
                self.stats.record_drop(packet)
                return False
            # fq_codel-style: evict from the fattest bucket instead.
            fattest = max(self._buckets, key=lambda b: len(self._buckets[b]),
                          default=None)
            if fattest is None:
                self.stats.record_drop(packet)
                return False
            victim = self._buckets[fattest].pop()
            self._total_packets -= 1
            self.bytes_queued -= victim.size_bytes
            self.stats.record_drop(victim)
        bucket = self._bucket_of(packet)
        queue = self._buckets.get(bucket)
        if queue is None:
            queue = self._buckets[bucket] = deque()
            self._codel[bucket] = CoDelState(self.target, self.interval)
        if bucket not in self._active_set:
            self._deficit[bucket] = self.quantum_bytes
            self._active.append(bucket)
            self._active_set.add(bucket)
        packet.enqueued_at = now
        queue.append(packet)
        self._total_packets += 1
        self.bytes_queued += packet.size_bytes
        self.stats.record_enqueue(packet)
        return True

    def _deactivate_head(self):
        bucket = self._active.popleft()
        self._active_set.discard(bucket)

    def dequeue(self, now):
        while self._active:
            bucket = self._active[0]
            queue = self._buckets.get(bucket)
            if not queue:
                self._deactivate_head()
                continue
            if self._deficit[bucket] <= 0:
                self._deficit[bucket] += self.quantum_bytes
                self._active.rotate(-1)
                continue
            codel = self._codel[bucket]
            packet = queue.popleft()
            self._total_packets -= 1
            self.bytes_queued -= packet.size_bytes
            sojourn = now - packet.enqueued_at
            if codel.should_drop(sojourn, now):
                self.stats.record_drop(packet)
                continue  # CoDel dropped it; try the next packet
            self._deficit[bucket] -= packet.size_bytes
            if not queue:
                self._deactivate_head()
            return packet
        return None


class XcpController:
    """Per-link XCP efficiency + fairness controller (Katabi et al.).

    Runs in control intervals of roughly the average RTT.  Each
    interval computes the aggregate feedback

        phi = alpha * spare_bytes - beta * queue_bytes,

    and per-packet feedback scale factors (xi) from the *previous*
    interval's traffic, applied to packets forwarded in the next one.
    The router writes ``min(packet feedback so far, own feedback)``
    into the header — the bottleneck wins.
    """

    ALPHA = 0.4
    BETA = 0.226
    GAMMA_SHUFFLE = 0.1

    def __init__(self, capacity_bps, initial_interval=50e-6):
        self.capacity_bps = capacity_bps
        self.interval = initial_interval
        # accumulators for the running interval
        self._input_bytes = 0.0
        self._rtt_weighted = 0.0
        self._sum_inv = 0.0         # sum of rtt^2 * size / cwnd  (xi_p)
        self._sum_rtt_size = 0.0    # sum of rtt * size           (xi_n)
        self._n_packets = 0
        self._min_queue_bytes = float("inf")
        # factors computed from the finished interval
        self._xi_pos = 0.0
        self._xi_neg = 0.0
        self._interval_start = 0.0

    def on_forward(self, packet, queue_bytes, now):
        """Called for each data packet the link transmits."""
        if packet.kind != Packet.DATA:
            return
        size = packet.size_bytes
        rtt = max(packet.xcp_rtt, 1e-6)
        cwnd = max(packet.xcp_cwnd_bytes, size)
        self._input_bytes += size
        self._rtt_weighted += rtt * size
        self._sum_inv += rtt * rtt * size / cwnd
        self._sum_rtt_size += rtt * size
        self._n_packets += 1
        self._min_queue_bytes = min(self._min_queue_bytes, queue_bytes)
        # Apply the factors from the previous interval.
        positive = self._xi_pos * rtt * rtt * size / cwnd
        negative = self._xi_neg * rtt * size
        feedback = positive - negative
        if packet.xcp_feedback == 0.0 or feedback < packet.xcp_feedback:
            packet.xcp_feedback = feedback

    def end_interval(self, now):
        """Close the interval; compute next xi factors; returns the
        new interval length (avg RTT, clamped)."""
        duration = max(now - self._interval_start, 1e-9)
        if self._n_packets:
            mean_rtt = self._rtt_weighted / max(self._input_bytes, 1.0)
            self.interval = min(max(mean_rtt, 20e-6), 10e-3)
        input_rate = self._input_bytes / duration
        spare = self.capacity_bps / 8.0 - input_rate          # bytes/s
        queue = (0.0 if self._min_queue_bytes == float("inf")
                 else self._min_queue_bytes)
        phi = (self.ALPHA * spare * self.interval
               - self.BETA * queue)                            # bytes
        shuffle = max(0.0, self.GAMMA_SHUFFLE * self._input_bytes
                      - abs(phi))
        pos_pool = shuffle + max(phi, 0.0)
        neg_pool = shuffle + max(-phi, 0.0)
        self._xi_pos = (pos_pool / (self.interval * self._sum_inv)
                        if self._sum_inv > 0 else 0.0) * self.interval
        self._xi_neg = (neg_pool / self._sum_rtt_size
                        if self._sum_rtt_size > 0 else 0.0)
        # reset accumulators
        self._input_bytes = 0.0
        self._rtt_weighted = 0.0
        self._sum_inv = 0.0
        self._sum_rtt_size = 0.0
        self._n_packets = 0
        self._min_queue_bytes = float("inf")
        self._interval_start = now
        return self.interval
