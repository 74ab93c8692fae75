"""Pluggable synchronization/transport fabrics for the parallel NED stack.

The worker-process backend (:mod:`repro.parallel.process_backend`) runs
the fig. 3 phase structure on real processes.  Everything those workers
need from each other — step synchronization, LinkBlock hand-offs of
price/load/Hessian rows, and churn/version/capacity broadcast from the
parent — goes through a **fabric**, so the coordination layer is
swappable without touching the numerics:

* :class:`SharedMemoryFabric` — all hot state lives in one
  :class:`~repro.parallel.shm.SharedArena` (the arena is this fabric's
  storage layer); ``publish`` is a no-op because writes are already
  visible, ``gather`` reads the peer's rows straight out of shared
  memory, and ``step_barrier`` is a :class:`SenseReversingBarrier` —
  a flag-array barrier in shared memory that replaces the
  ``multiprocessing.Barrier`` round per step.

* :class:`SocketFabric` — nothing is shared.  Workers hold private
  copies of their rows and exchange LinkBlock slices as
  length-prefixed frames over TCP, routed by the transfer plans (the
  same hand-offs the §6.1 cost model counts as ``inter_cpu_messages``);
  the parent broadcasts churn and collects prices over per-worker
  control connections.  Workers bootstrap entirely over the wire, so a
  worker started on another machine with the parent's address joins
  the same computation — :class:`LocalCluster` demonstrates exactly
  that on localhost with freshly ``exec``-ed interpreter "hosts".

Because the data a socket frame carries is the byte-exact slice the
shared-memory fabric would have read in place, and recv/apply order is
fixed by the shared transfer plan, both fabrics reproduce the simulated
engine's floats bit-for-bit (asserted bitwise by the cross-backend
suite).  A key structural difference: the socket fabric needs **no
step barrier at all** — the frames themselves carry the step-to-step
data dependencies, so ``step_barrier`` is a documented no-op there.

Framing: every socket message is ``!II`` (payload length, tag) + raw
payload.  Control messages (:data:`TAG_CTRL`) are pickled tuples; data
messages (:data:`TAG_DATA`) are raw float64 slice bytes whose shape
both ends derive from the plan, so the hot path never pickles.  On
the hot path one :data:`TAG_DATA` frame is a **per-peer batch**: all
slices a worker owes one peer within a schedule step, concatenated in
plan order behind a single header (see :class:`PeerBatch`), written
and read through a nonblocking :func:`exchange_batches` loop so a
step can never deadlock on OS socket buffers.  Churn rides
:data:`TAG_CTRL` frames as full-cell snapshots or delta-encoded row
updates (see :func:`encode_cell_delta`).
"""

from __future__ import annotations

import os
import pickle
import secrets
import selectors
import socket as socketlib
import struct
import subprocess
import sys
import time
import weakref

import multiprocessing as mp

from collections.abc import Callable, Sequence
from typing import Any

import numpy as np
import numpy.typing as npt

from .shm import SharedArena

__all__ = ["FabricError", "SenseReversingBarrier", "SharedMemoryFabric",
           "SocketFabric", "LocalCluster", "measure_barrier_rate",
           "send_frame", "recv_frame", "TAG_CTRL", "TAG_DATA",
           "PeerBatch", "RecvBatch", "exchange_batches",
           "encode_cell_snapshot", "encode_cell_delta",
           "apply_cell_update", "connect_retry"]


class FabricError(RuntimeError):
    """A fabric-level failure: peer death, abort, or timeout."""


# ----------------------------------------------------------------------
# length-prefixed framing
# ----------------------------------------------------------------------
_HEADER = struct.Struct("!II")

#: pickled control tuple (commands, replies, churn, bootstrap).
TAG_CTRL = 1
#: raw float64 LinkBlock-slice bytes (the hot path — never pickled).
TAG_DATA = 2


#: Connections poisoned by a partial-frame failure.  Once part of a
#: frame is on the wire and the rest cannot follow, the byte stream is
#: desynchronized: the peer would misparse everything sent later.  The
#: connection object itself stays alive (callers may still be holding
#: it), so membership here makes every subsequent framed operation
#: raise :class:`FabricError` instead of silently corrupting frames.
_POISONED = weakref.WeakSet()


def _check_poisoned(sock):
    if sock in _POISONED:
        raise FabricError(
            "connection poisoned by an earlier partial-frame failure")


def _recv_exact(sock, n):
    """Read exactly ``n`` bytes; returns a bytearray (no final copy —
    both ``np.frombuffer`` and ``pickle.loads`` accept buffers)."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            k = sock.recv_into(view[got:], n - got)
        except TimeoutError:
            # socket.timeout is an OSError subclass; let it through so
            # callers can report "slow" distinctly from "dead".
            raise
        except OSError as exc:
            raise FabricError(f"connection lost: {exc}") from exc
        if k == 0:
            raise FabricError("peer closed the connection")
        got += k
    return buf


def send_frame(sock, tag, *parts):
    """Write one framed message: ``length+tag`` header, then ``parts``.

    ``parts`` are bytes-like (bytes, memoryview, contiguous ndarray).
    The fast path hands header + parts to ``sendmsg`` (one writev-style
    syscall, no concatenation copy).  A short write resumes from the
    unsent tail — fully-sent views are dropped and the partial one is
    sliced, O(parts) bookkeeping instead of re-flattening the frame —
    and a failure after part of the frame reached the wire *poisons*
    the connection: the stream is desynchronized mid-frame, so every
    later framed send/recv on it raises :class:`FabricError`.
    """
    _check_poisoned(sock)
    views = [memoryview(p).cast("B") for p in parts]
    header = _HEADER.pack(sum(v.nbytes for v in views), tag)
    buffers = [memoryview(header), *views]
    sent_any = False
    try:
        if hasattr(sock, "sendmsg"):
            while buffers:
                sent = sock.sendmsg(buffers)
                if sent:
                    sent_any = True
                while buffers and sent >= buffers[0].nbytes:
                    sent -= buffers[0].nbytes
                    buffers.pop(0)
                if sent:
                    buffers[0] = buffers[0][sent:]
        else:  # pragma: no cover - non-POSIX fallback
            sent_any = True  # sendall's progress is unobservable
            sock.sendall(b"".join(buffers))
    except TimeoutError:
        if sent_any:
            _POISONED.add(sock)
        raise
    except OSError as exc:
        if sent_any:
            _POISONED.add(sock)
        raise FabricError(f"connection lost: {exc}") from exc


def recv_frame(sock, expect=None):
    """Read one framed message; returns ``(tag, payload)``."""
    _check_poisoned(sock)
    length, tag = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    payload = _recv_exact(sock, length)
    if expect is not None and tag != expect:
        raise FabricError(f"expected frame tag {expect}, got {tag}")
    return tag, payload


def send_ctrl(sock, obj):
    send_frame(sock, TAG_CTRL, pickle.dumps(obj))


def recv_ctrl(sock):
    _, payload = recv_frame(sock, expect=TAG_CTRL)
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# per-peer frame batching + the nonblocking step exchange
# ----------------------------------------------------------------------
class PeerBatch:
    """One step's coalesced outgoing frame for a single peer.

    All slices a worker owes one peer within a schedule step are
    gathered into a single reusable buffer — one ``!II`` header, then
    the slice bodies concatenated in transfer-plan order (both ends
    derive every body's offset and length from the shared plan, so no
    per-slice metadata is framed).  The buffer is sent through
    :func:`exchange_batches` with nonblocking ``send`` calls that
    resume from ``sent``, so a batch larger than the OS socket buffer
    simply takes several partial writes interleaved with reads.
    """

    __slots__ = ("_buf", "_view", "size", "sent")

    def __init__(self):
        self._buf = bytearray(_HEADER.size)
        self._view = memoryview(self._buf)
        self.size = 0
        self.sent = 0

    def stage(self, n_floats):
        """Reset for a new step; returns the float64 payload to fill."""
        need = _HEADER.size + 8 * n_floats
        if len(self._buf) < need:
            self._buf = bytearray(max(need, 2 * len(self._buf)))
            self._view = memoryview(self._buf)
        _HEADER.pack_into(self._buf, 0, 8 * n_floats, TAG_DATA)
        self.size = need
        self.sent = 0
        return np.frombuffer(self._buf, dtype=np.float64,
                             count=n_floats, offset=_HEADER.size)

    @property
    def done(self):
        return self.sent >= self.size

    def send_some(self, sock):
        """One nonblocking send of the unsent tail."""
        self.sent += sock.send(self._view[self.sent: self.size])


class RecvBatch:
    """Receiving side of a :class:`PeerBatch`: a reusable buffer sized
    from the transfer plan, filled by nonblocking partial reads."""

    __slots__ = ("_buf", "_view", "size", "got")

    def __init__(self):
        self._buf = bytearray(_HEADER.size)
        self._view = memoryview(self._buf)
        self.size = 0
        self.got = 0

    def stage(self, payload_bytes):
        need = _HEADER.size + payload_bytes
        if len(self._buf) < need:
            self._buf = bytearray(max(need, 2 * len(self._buf)))
            self._view = memoryview(self._buf)
        self.size = need
        self.got = 0

    @property
    def done(self):
        return self.got >= self.size

    def recv_some(self, sock):
        """One nonblocking read into the unfilled tail."""
        k = sock.recv_into(self._view[self.got: self.size])
        if k == 0:
            raise FabricError("peer closed the connection mid-step")
        self.got += k

    def payload(self):
        """Validated float64 view of the received batch body."""
        length, tag = _HEADER.unpack_from(self._buf)
        if tag != TAG_DATA or length != self.size - _HEADER.size:
            raise FabricError(
                f"batched frame mismatch: got tag {tag} length {length}, "
                f"expected tag {TAG_DATA} length {self.size - _HEADER.size}")
        return np.frombuffer(self._buf, dtype=np.float64,
                             count=length // 8, offset=_HEADER.size)


def exchange_batches(socks, outgoing, incoming, timeout=600.0,
                     selector=None):
    """Drive one step's batched sends and receives to completion.

    ``socks`` maps peer id -> nonblocking socket; ``outgoing`` maps
    peer id -> staged :class:`PeerBatch`; ``incoming`` maps peer id ->
    staged :class:`RecvBatch`.  A ``selectors`` loop interleaves
    partial writes with reads on every ready socket, so the exchange
    is deadlock-free by construction: no matter how far a peer's
    outgoing batch exceeds the OS socket buffers, this end keeps
    draining its receive side, which is exactly what lets the peer's
    writes (and hence its reads, and hence our writes) make progress.
    Compare the sendall-first protocol this replaced, which wedged as
    soon as a step's per-pair traffic outgrew ``SO_SNDBUF`` +
    ``SO_RCVBUF``.
    """
    sel = selector if selector is not None else selectors.DefaultSelector()
    registered = 0
    try:
        for peer in set(outgoing) | set(incoming):
            mask = 0
            out = outgoing.get(peer)
            if out is not None and not out.done:
                mask |= selectors.EVENT_WRITE
            inc = incoming.get(peer)
            if inc is not None and not inc.done:
                mask |= selectors.EVENT_READ
            if mask:
                sel.register(socks[peer], mask, peer)
                registered += 1
        deadline = time.monotonic() + timeout
        while registered:
            # Checked every round, not just on idle polls: a peer
            # dribbling one segment per poll must not extend the
            # deadline forever.
            if time.monotonic() > deadline:
                raise FabricError(
                    f"step exchange timed out after {timeout:.0f}s")
            events = sel.select(timeout=min(1.0, timeout))
            if not events:
                continue
            for key, mask in events:
                peer = key.data
                new_mask = key.events
                try:
                    if mask & selectors.EVENT_WRITE:
                        out = outgoing[peer]
                        out.send_some(key.fileobj)
                        if out.done:
                            new_mask &= ~selectors.EVENT_WRITE
                    if mask & selectors.EVENT_READ:
                        inc = incoming[peer]
                        inc.recv_some(key.fileobj)
                        if inc.done:
                            new_mask &= ~selectors.EVENT_READ
                except (BlockingIOError, InterruptedError):
                    continue  # spurious readiness; retry next round
                except FabricError:
                    raise
                except OSError as exc:
                    raise FabricError(
                        f"connection to peer {peer} lost: {exc}") from exc
                if new_mask != key.events:
                    if new_mask:
                        sel.modify(key.fileobj, new_mask, peer)
                    else:
                        sel.unregister(key.fileobj)
                        registered -= 1
    except BaseException:
        # Leave a caller-owned selector empty for the next step.
        if selector is not None:
            for peer in set(outgoing) | set(incoming):
                try:
                    sel.unregister(socks[peer])
                except (KeyError, ValueError):
                    pass
        raise
    finally:
        if selector is None:
            sel.close()


# ----------------------------------------------------------------------
# churn wire format: full-cell snapshots and delta-encoded row updates
# ----------------------------------------------------------------------
# A churn control frame carries a list of per-cell updates, each one of
#
#   ("snap",  row, n, version, routes, weights, bottleneck)
#       unconditional whole-cell replacement (bootstrap, regrown cells,
#       capacity refreshes that rewrite every bottleneck entry);
#
#   ("delta", row, n, base_version, version, rows,
#             routes[rows], weights[rows], bottleneck[rows])
#       only the positional rows that changed since ``base_version``,
#       plus the new flow count ``n`` (tail shrinks need no row data).
#       The receiver's version vector must read ``base_version`` for
#       the cell — anything else means the delta chain skewed (a lost
#       or reordered frame) and applying would corrupt the mirror, so
#       the receiver raises instead.
#
# Cutting broadcast cost from O(cell) to O(changed rows) per cell is
# what makes steady flowlet churn cheap over the wire: a burst touches
# the swap-filled holes and the appended block, not every flow.


def encode_cell_snapshot(row, table):
    """Whole-cell churn update (unconditional replacement)."""
    return ("snap", row, table.n_flows, table.version,
            table.routes.copy(), table.weights.copy(),
            np.array(table.bottleneck_capacity()))


def encode_cell_delta(row, table, rows, base_version):
    """Delta churn update: just ``rows`` (changed positions) and the
    new count/version, against a mirror at ``base_version``."""
    bottleneck = table.bottleneck_capacity()
    return ("delta", row, table.n_flows, base_version, table.version,
            rows, table.routes[rows], table.weights[rows],
            bottleneck[rows])


def apply_cell_update(update, plan, counts, versions):
    """Apply one snapshot/delta to a worker-side cell mirror.

    ``plan`` is the worker's :class:`~repro.parallel.process_backend.
    CellPlan` for the cell; ``counts``/``versions`` are the worker's
    per-cell vectors.  Raises :class:`FabricError` on version skew.
    """
    kind = update[0]
    if kind == "snap":
        _, row, n, version, routes, weights, bottleneck = update
        plan.routes = routes
        plan.weights = weights
        plan.bottleneck = bottleneck
    elif kind == "delta":
        _, row, n, base, version, rows, routes_r, weights_r, bn_r = update
        if int(versions[row]) != base:
            raise FabricError(
                f"churn delta for cell {row} expects version {base}, "
                f"mirror is at {int(versions[row])} — skewed delta chain")
        _ensure_cell_capacity(plan, n)
        if len(rows):
            plan.routes[rows] = routes_r
            plan.weights[rows] = weights_r
            plan.bottleneck[rows] = bn_r
    else:  # pragma: no cover - defensive
        raise FabricError(f"unknown churn update kind {kind!r}")
    counts[row] = n
    versions[row] = version


def _ensure_cell_capacity(plan, n):
    """Grow a socket worker's private cell arrays to hold ``n`` rows
    (amortized doubling; snapshot-installed arrays start exact-size)."""
    have = len(plan.weights)
    if have >= n:
        return
    cap = max(n, 2 * have, 64)
    routes = np.empty((cap, plan.routes.shape[1]), dtype=plan.routes.dtype)
    routes[:have] = plan.routes
    weights = np.empty(cap, dtype=np.float64)
    weights[:have] = plan.weights
    bottleneck = np.empty(cap, dtype=np.float64)
    bottleneck[:have] = plan.bottleneck
    plan.routes, plan.weights, plan.bottleneck = routes, weights, bottleneck


# ----------------------------------------------------------------------
# the shared-memory step barrier
# ----------------------------------------------------------------------
class SenseReversingBarrier:
    """Flag-array barrier in shared memory with two completion paths.

    Every worker owns one int64 *phase* slot in a shared array; a
    ``wait()`` bumps the caller's slot (the slot's parity is the
    classic sense bit) and completes when every slot has reached the
    caller's phase.  How completion is *detected* adapts to the host:

    * ``mode="spin"`` (chosen when the host has at least as many CPUs
      as workers — the paper's dedicated-core regime): workers spin on
      the flag array, yielding the GIL after a short budget.  No
      syscalls on the fast path, so a step costs far less than the
      futex round-trips inside ``multiprocessing.Barrier``.
    * ``mode="block"`` (oversubscribed hosts, e.g. CI containers):
      spinning would fight the scheduler, so arrival falls through to
      a lean central-semaphore protocol — worker 0 collects ``n - 1``
      arrival tokens and releases each peer's personal gate.  Two
      syscalls per non-root worker per step, no shared lock, and no
      condition-variable dance; the committed ``barrier_step``
      benchmark records it at ~3x ``mp.Barrier``'s step rate at 16
      workers on one core.  Per-worker gates (rather than one counting
      semaphore) matter: with a shared semaphore a fast worker
      re-entering the next phase can steal a slow sleeper's wake token
      and deadlock the pair.

    The phase slots are maintained in *both* modes, which gives the
    skew invariant the stress tests assert: between two of its own
    waits a worker can never observe a peer more than one phase ahead,
    because passing phase ``p + 1`` requires every slot to have
    reached ``p + 1`` first.

    Visibility note: the spin path relies on cache-coherent shared
    memory and total store order (x86); the blocking path synchronizes
    through semaphores and is portable.  One extra slot holds the
    abort flag — :meth:`abort` (from any process) makes every current
    and future ``wait`` raise :class:`FabricError`.
    """

    def __init__(self, phases, arrive, gates, worker_id, n_workers,
                 mode=None, spin=200, timeout=600.0):
        self._phases = phases
        self._arrive = arrive
        self._gates = gates
        self._id = int(worker_id)
        self._n = int(n_workers)
        if mode is None:
            mode = ("spin" if (os.cpu_count() or 1) >= self._n else "block")
        if mode not in ("spin", "block"):
            raise ValueError(f"unknown barrier mode {mode!r}")
        self.mode = mode
        self._spin = int(spin)
        self._timeout = float(timeout)

    @staticmethod
    def alloc(arena: SharedArena, ctx, n_workers, tag="fabric/barrier"):
        """Allocate the shared pieces: returns ``(phases, arrive, gates)``.

        ``phases`` is an ``(n_workers + 1,)`` int64 arena array (last
        slot = abort flag); ``arrive``/``gates`` are context semaphores
        used only by the blocking path.
        """
        phases = arena.zeros(tag, (n_workers + 1,), np.int64)
        arrive = ctx.Semaphore(0)
        gates = [ctx.Semaphore(0) for _ in range(n_workers)]
        return phases, arrive, gates

    def for_worker(self, worker_id):
        """A handle bound to another worker id (same shared state)."""
        return SenseReversingBarrier(
            self._phases, self._arrive, self._gates, worker_id, self._n,
            mode=self.mode, spin=self._spin, timeout=self._timeout)

    # ------------------------------------------------------------------
    @property
    def phase(self):
        """This worker's own phase counter."""
        return int(self._phases[self._id])

    def peer_phases(self):
        """Snapshot of every worker's phase (skew assertions)."""
        return self._phases[: self._n].copy()

    def aborted(self):
        return bool(self._phases[self._n])

    def abort(self):
        """Poison the barrier; wakes blocked waiters, everyone raises."""
        self._phases[self._n] = 1
        # Over-releasing is harmless (the fabric is being torn down);
        # it guarantees nobody stays blocked in a semaphore.
        for _ in range(self._n):
            self._arrive.release()
        for gate in self._gates:
            gate.release()

    # ------------------------------------------------------------------
    def wait(self):
        phases = self._phases
        me = self._id
        n = self._n
        target = int(phases[me]) + 1
        phases[me] = target
        if n == 1:
            if phases[n]:
                raise FabricError("barrier aborted")
            return
        if self.mode == "spin":
            self._wait_spin(target)
        else:
            self._wait_block()

    def _wait_spin(self, target):
        phases = self._phases
        n = self._n
        budget = self._spin
        deadline = time.monotonic() + self._timeout
        spins = 0
        while True:
            if phases[n]:
                raise FabricError("barrier aborted")
            if int(phases[:n].min()) >= target:
                return
            spins += 1
            if spins > budget:
                time.sleep(0)  # yield; completion detection stays in shm
                if spins % 1024 == 0 and time.monotonic() > deadline:
                    raise FabricError(
                        f"barrier timed out after {self._timeout:.0f}s")

    def _wait_block(self):
        if self._id == 0:
            acquire = self._arrive.acquire
            for _ in range(self._n - 1):
                if not acquire(True, self._timeout):
                    raise FabricError(
                        f"barrier timed out after {self._timeout:.0f}s")
                if self._phases[self._n]:
                    raise FabricError("barrier aborted")
            for gate in self._gates[1:]:
                gate.release()
        else:
            self._arrive.release()
            if not self._gates[self._id].acquire(True, self._timeout):
                raise FabricError(
                    f"barrier timed out after {self._timeout:.0f}s")
        if self._phases[self._n]:
            raise FabricError("barrier aborted")


# ----------------------------------------------------------------------
# worker-side endpoints
# ----------------------------------------------------------------------
class _ShmEndpoint:
    """Worker view of a :class:`SharedMemoryFabric`.

    All arrays are the parent's shared-memory arrays (inherited over
    ``fork``), so publishing is implicit (the write *is* the
    publication) and :meth:`step_exchange` is a fancy-indexed read of
    each source row in place; the step is closed by a barrier round.
    """

    def __init__(self, conn, barrier, state):
        self._conn = conn
        self._barrier = barrier
        self.prices = state["prices"]
        self.load = state["load"]
        self.hessian = state["hessian"]
        self.counts = state["counts"]
        self.versions = state["versions"]
        self.capacity = state["capacity"]
        self.idle_price = state["idle_price"]

    def step_barrier(self):
        self._barrier.wait()

    def step_exchange(self, kind, send_groups, recvs):
        """In-place reads; ``send_groups`` needs no action (fancy
        indexing copies, so the staged parts are stable snapshots
        even while peers apply concurrently within the step)."""
        if kind == "agg":
            return [(dst_row, idx,
                     (self.load[src_row, idx], self.hessian[src_row, idx]))
                    for _, dst_row, src_row, idx in recvs]
        return [(dst_row, idx, (self.prices[src_row, idx],))
                for _, dst_row, src_row, idx in recvs]

    def recv_command(self):
        return self._conn.recv()

    def send_reply(self, obj):
        self._conn.send(obj)

    def done_payload(self, plans):
        # Prices are shared; the parent already sees them.
        return

    def apply_churn(self, payload, plans):  # pragma: no cover - defensive
        raise FabricError("shm fabric ships churn through shared memory")

    def abort(self):
        self._barrier.abort()

    def shutdown(self):
        pass


class _SocketEndpoint:
    """Worker view of a :class:`SocketFabric`.

    Owns private copies of the full matrices (rows it does not own are
    only ever written by received frames) plus one TCP connection to
    the parent and one per peer worker.  Within a schedule step, all
    slices owed to the same peer ride **one** :class:`PeerBatch` frame
    and the whole step's sends and receives are driven through the
    nonblocking :func:`exchange_batches` loop — partial writes
    interleave with reads, so no amount of per-pair traffic can wedge
    the mesh on OS socket buffers.  Frame layout per peer pair is
    fixed by the shared transfer plan, so no per-slice metadata is
    framed.
    """

    def __init__(self, worker_id, parent_sock, peers, n_procs, boot):
        self.worker_id = worker_id
        self._parent = parent_sock
        self._peers = peers  # worker_id -> socket (nonblocking)
        for sock in peers.values():
            sock.setblocking(False)
        n_links = boot["n_links"]
        self.prices = np.ones((n_procs, n_links), dtype=np.float64)
        self.load = np.zeros((n_procs, n_links), dtype=np.float64)
        self.hessian = np.zeros((n_procs, n_links), dtype=np.float64)
        self.counts = np.zeros(n_procs, dtype=np.int64)
        self.versions = np.full(n_procs, -1, dtype=np.int64)
        self.capacity = np.array(boot["capacity"], dtype=np.float64)
        self.idle_price = np.array(boot["idle_price"], dtype=np.float64)
        self._timeout = float(boot.get("timeout", 600.0))
        self._selector = selectors.DefaultSelector()
        # Reusable per-peer batch buffers and per-step prepared specs
        # (sizes and offsets derived once from the static plans).
        self._out_batches = {}
        self._in_batches = {}
        self._step_specs = {}

    def step_barrier(self):
        # Data dependencies between steps ride the frames themselves
        # (a slice is only received once the sender finished producing
        # it), so the socket fabric needs no barrier round.
        pass

    def _prepare_step(self, kind, send_groups, recvs):
        """Size one step's batches from the plan (cached: plans are
        static for the worker's lifetime, so sizes are too)."""
        mult = 2 if kind == "agg" else 1
        out_specs = []
        for peer, transfers in send_groups:
            prepped = [(src_row, idx, len(idx)) for src_row, idx in transfers]
            out_specs.append(
                (peer, prepped, mult * sum(k for _, _, k in prepped)))
        in_floats = {}
        recv_specs = []
        for src_owner, dst_row, src_row, idx in recvs:
            k = len(idx)
            recv_specs.append((src_owner, dst_row, src_row, idx, k))
            if src_owner != self.worker_id:
                in_floats[src_owner] = in_floats.get(src_owner, 0) + mult * k
        return out_specs, sorted(in_floats.items()), recv_specs

    def step_exchange(self, kind, send_groups, recvs):
        """One schedule step: batch, exchange, slice out in plan order.

        Returns ``[(dst_row, idx, parts), ...]`` aligned with
        ``recvs``; ``parts`` is ``(load, hessian)`` for ``"agg"`` and
        ``(prices,)`` for ``"dist"``.  Slices from peers are views
        into the per-peer receive buffer (stable until the peer's next
        batch); local slices are fancy-indexed copies.
        """
        key = (kind, id(recvs), id(send_groups))
        entry = self._step_specs.get(key)
        if entry is None:
            # The cached entry pins the keyed plan objects, so their
            # ids cannot be recycled while the cache can serve them.
            entry = self._step_specs[key] = (
                send_groups, recvs,
                self._prepare_step(kind, send_groups, recvs))
        out_specs, in_specs, recv_specs = entry[2]

        outgoing = {}
        for peer, transfers, total in out_specs:
            batch = self._out_batches.get(peer)
            if batch is None:
                batch = self._out_batches[peer] = PeerBatch()
            payload = batch.stage(total)
            offset = 0
            for src_row, idx, k in transfers:
                if kind == "agg":
                    np.take(self.load[src_row], idx,
                            out=payload[offset: offset + k])
                    np.take(self.hessian[src_row], idx,
                            out=payload[offset + k: offset + 2 * k])
                    offset += 2 * k
                else:
                    np.take(self.prices[src_row], idx,
                            out=payload[offset: offset + k])
                    offset += k
            outgoing[peer] = batch
        incoming = {}
        for peer, total in in_specs:
            batch = self._in_batches.get(peer)
            if batch is None:
                batch = self._in_batches[peer] = RecvBatch()
            batch.stage(8 * total)
            incoming[peer] = batch
        if outgoing or incoming:
            exchange_batches(self._peers, outgoing, incoming,
                             timeout=self._timeout,
                             selector=self._selector)

        results = []
        offsets = dict.fromkeys(incoming, 0)
        payloads = {peer: batch.payload()
                    for peer, batch in incoming.items()}
        for src_owner, dst_row, src_row, idx, k in recv_specs:
            if src_owner == self.worker_id:
                if kind == "agg":
                    parts = (self.load[src_row, idx],
                             self.hessian[src_row, idx])
                else:
                    parts = (self.prices[src_row, idx],)
            else:
                buf = payloads[src_owner]
                o = offsets[src_owner]
                if kind == "agg":
                    parts = (buf[o: o + k], buf[o + k: o + 2 * k])
                    offsets[src_owner] = o + 2 * k
                else:
                    parts = (buf[o: o + k],)
                    offsets[src_owner] = o + k
            results.append((dst_row, idx, parts))
        return results

    def recv_command(self):
        return recv_ctrl(self._parent)

    def send_reply(self, obj):
        send_ctrl(self._parent, obj)

    def done_payload(self, plans):
        return {plan.row: self.prices[plan.row].copy() for plan in plans}

    def apply_churn(self, payload, plans):
        by_row = {plan.row: plan for plan in plans}
        for update in payload["cells"]:
            apply_cell_update(update, by_row[update[1]], self.counts,
                              self.versions)
        if payload.get("capacity") is not None:
            self.capacity[:] = payload["capacity"]
            self.idle_price[:] = payload["idle_price"]

    def abort(self):
        pass  # closing our sockets cascades EOFs through the mesh

    def shutdown(self):
        self._selector.close()
        for sock in self._peers.values():
            _close_quietly(sock)
        _close_quietly(self._parent)


def _close_quietly(sock):
    try:
        sock.close()
    except OSError:  # pragma: no cover - already closed
        pass


def _clamp_buffers(sock, sockbuf):
    """Apply an explicit ``SO_SNDBUF``/``SO_RCVBUF`` size (testing aid:
    the deadlock regression shrinks buffers below one step's per-pair
    traffic; the kernel may round the request up to its minimum).

    Also clamps ``TCP_MAXSEG``: loopback's ~64KB MSS dwarfs a
    few-KB receive window, so silly-window-syndrome avoidance would
    never reopen the window and every transfer would crawl along
    200ms persist-timer probes — a timing artifact, not the flow
    control being exercised.  A small MSS restores ordinary window
    updates while keeping the in-flight byte bound the test wants.
    Must run *before* ``connect`` so the clamp lands in the SYN."""
    if sockbuf:
        sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_SNDBUF,
                        int(sockbuf))
        sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_RCVBUF,
                        int(sockbuf))
        try:
            sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_MAXSEG,
                            536)
        except OSError:  # pragma: no cover - non-TCP socket
            pass


def connect_retry(address, attempts=50, delay=0.1, sockbuf=None):
    """``socket.create_connection`` semantics (every ``getaddrinfo``
    candidate across families is tried) with retries, plus the buffer
    clamp applied *before* connect so it lands in the SYN.

    Shared by the fabric bootstrap, the socket workers, and the
    allocator-service client (including its reconnect path): one
    connector, one retry/backoff policy, one place the clamp is
    guaranteed to precede ``connect``.
    """
    host, port = tuple(address)
    last = None
    for _ in range(attempts):
        try:
            candidates = socketlib.getaddrinfo(
                host, port, type=socketlib.SOCK_STREAM)
        except OSError as exc:
            last = exc
            time.sleep(delay)
            continue
        for family, socktype, proto, _, sockaddr in candidates:
            sock = socketlib.socket(family, socktype, proto)
            try:
                _clamp_buffers(sock, sockbuf)
                sock.settimeout(30.0)
                sock.connect(sockaddr)
            except OSError as exc:
                last = exc
                sock.close()
                continue
            sock.settimeout(None)
            sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
            return sock
        time.sleep(delay)
    raise FabricError(f"cannot reach {address}: {last}")


#: Back-compat alias (pre-PR 7 internal name).
_connect_retry = connect_retry

#: Handshake token length (raw bytes, sent before any pickled frame).
_TOKEN_LEN = 16


def _accept_authenticated(listener, token, deadline, sockbuf=None):
    """Accept until a connection presents ``token``; others are closed.

    The token check runs *before* any pickled frame is read, so a
    stray or hostile connection can neither wedge the bootstrap (each
    handshake has its own short timeout) nor reach the unpickler.
    """
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise FabricError("fabric bootstrap timed out")
        listener.settimeout(remaining)
        try:
            sock, _ = listener.accept()
        except TimeoutError as exc:
            raise FabricError("fabric bootstrap timed out") from exc
        sock.settimeout(10.0)
        try:
            presented = bytes(_recv_exact(sock, _TOKEN_LEN))
        except (FabricError, TimeoutError):
            sock.close()
            continue
        if presented != token:
            sock.close()
            continue
        sock.settimeout(None)
        sock.setsockopt(socketlib.IPPROTO_TCP, socketlib.TCP_NODELAY, 1)
        _clamp_buffers(sock, sockbuf)
        return sock


def _socket_worker_entry(host, port, worker_id, bind_host="127.0.0.1",
                         token=b"", sockbuf=None):
    """Entry point of one socket-fabric worker.

    Needs only the parent's address and the fabric token: it connects,
    authenticates, receives the bootstrap frame (plans, constants,
    peer map), builds the peer mesh, and hands control to the
    backend's worker loop.  This is what makes the fabric multi-host
    capable — run this function (or ``python -m
    repro.parallel.socket_worker HOST PORT ID`` with the token in
    ``$REPRO_FABRIC_TOKEN``) on any machine that can reach the parent.

    ``sockbuf`` (testing aid; the launcher forwards
    ``SocketFabric(sockbuf=)`` via argument or
    ``$REPRO_FABRIC_SOCKBUF``) clamps the mesh sockets' buffers/MSS.
    Passing it here clamps the listener *before it is ever
    advertised*, so every accepted mesh connection inherits the clamp
    at SYN time; a hand-started worker that only learns the value
    from its boot frame gets a best-effort post-boot clamp instead
    (a peer that dials in the window between ``hello`` and the boot
    read misses the SYN-time MSS clamp).
    """
    from .process_backend import worker_loop

    listener = socketlib.socket()
    listener.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_REUSEADDR, 1)
    _clamp_buffers(listener, sockbuf)
    listener.bind((bind_host, 0))
    listener.listen(64)
    parent = connect_retry((host, port))
    parent.sendall(token)
    send_ctrl(parent, ("hello", worker_id,
                       (bind_host, listener.getsockname()[1])))
    boot = recv_ctrl(parent)

    peers = {}
    if sockbuf is None:
        sockbuf = boot.get("sockbuf")
        _clamp_buffers(listener, sockbuf)  # best-effort (see docstring)
    for j, address in boot["peers"].items():
        if j < worker_id:
            sock = connect_retry(tuple(address), sockbuf=sockbuf)
            sock.sendall(token)
            send_ctrl(sock, ("peer", worker_id))
            peers[j] = sock
    deadline = time.monotonic() + 60.0
    for _ in range(boot["n_workers"] - 1 - worker_id):
        sock = _accept_authenticated(listener, token, deadline,
                                     sockbuf=sockbuf)
        tag, j = recv_ctrl(sock)
        if tag != "peer":  # pragma: no cover - defensive
            raise FabricError(f"unexpected mesh handshake {tag!r}")
        peers[j] = sock
    listener.close()

    from .process_backend import CellPlan
    plans = [CellPlan(row) for row in boot["rows"]]
    endpoint = _SocketEndpoint(worker_id, parent, peers,
                               boot["n_procs"], boot)
    worker_loop(endpoint, plans, boot["consts"])


# ----------------------------------------------------------------------
# parent-side fabrics
# ----------------------------------------------------------------------
class SharedMemoryFabric:
    """Coordination over one shared-memory arena (single host).

    The extracted — and upgraded — transport of the original process
    backend: FlowTable columns and the price/load/Hessian matrices live
    in a :class:`~repro.parallel.shm.SharedArena`, churn reaches
    workers by writing the shared count/version vectors, and the
    per-step synchronization is a :class:`SenseReversingBarrier`
    instead of a ``multiprocessing.Barrier``.
    """

    name = "shm"

    def __init__(self, timeout: float = 600.0,
                 barrier_mode: str | None = None,
                 barrier_spin: int = 200) -> None:
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise FabricError(
                "the shm fabric needs the fork start method "
                "(POSIX)") from exc
        self.timeout = float(timeout)
        self._barrier_mode = barrier_mode
        self._barrier_spin = barrier_spin
        self.arena = SharedArena()
        self.workers = []
        self._conns = []
        self._barrier = None
        self._state = None
        self._table_rows = []
        self._capacity_seen = {}
        self._closed = False

    # -- storage ------------------------------------------------------
    def alloc_state(self, n_procs: int, n_links: int,
                    capacity: npt.ArrayLike,
                    idle_price: npt.ArrayLike) -> dict[str, Any]:
        arena = self.arena
        state = {
            "prices": arena.full("prices", (n_procs, n_links), 1.0),
            "load": arena.zeros("load", (n_procs, n_links)),
            "hessian": arena.zeros("hessian", (n_procs, n_links)),
            "counts": arena.zeros("counts", (n_procs,), np.int64),
            "versions": arena.zeros("versions", (n_procs,), np.int64),
            "capacity": arena.allocate("capacity", (n_links,), np.float64),
            "idle_price": arena.allocate("idle_price", (n_links,),
                                         np.float64),
        }
        state["capacity"][:] = capacity
        state["idle_price"][:] = idle_price
        self._state = state
        return state

    def table_allocator(self, row: int) -> Callable:
        self._table_rows.append(row)
        return self.arena.allocator(f"cell{row}")

    def processor_prices(self, row: int) -> npt.NDArray[np.float64]:
        return self._state["prices"][row]

    def _table_capacity(self, row):
        return self.arena.shape(f"cell{row}/weights")[0]

    # -- lifecycle ----------------------------------------------------
    def launch(self, worker_body: Callable,
               per_worker: Sequence[tuple[Any, Any]]) -> None:
        # Snapshot each cell's array capacity as the workers will
        # inherit it: sync_churn re-attaches a worker whenever the
        # parent's table has re-allocated past this since.
        self._capacity_seen = {row: self._table_capacity(row)
                               for row in self._table_rows}
        n_workers = len(per_worker)
        phases, arrive, gates = SenseReversingBarrier.alloc(
            self.arena, self._ctx, n_workers)
        self._barrier = SenseReversingBarrier(
            phases, arrive, gates, 0, n_workers, mode=self._barrier_mode,
            spin=self._barrier_spin, timeout=self.timeout)
        for w, (plans, consts) in enumerate(per_worker):
            parent_conn, child_conn = self._ctx.Pipe()
            endpoint = _ShmEndpoint(child_conn, self._barrier.for_worker(w),
                                    self._state)
            process = self._ctx.Process(
                target=worker_body, args=(endpoint, plans, consts),
                daemon=True, name=f"ned-worker-{w}")
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self.workers.append(process)

    # -- parent-side operations --------------------------------------
    def sync_churn(self, cell_tables: Sequence[tuple[int, Any]],
                   owner_of_row: dict[int, int]) -> None:
        """Publish per-cell flow counts/versions; re-attach any cell
        whose shared arrays were re-allocated (table growth) since the
        owning worker last mapped them."""
        counts = self._state["counts"]
        versions = self._state["versions"]
        for row, table in cell_tables:
            # Flush the lazily-recomputed bottleneck column into the
            # shared array (O(1) unless refresh_capacity marked it
            # dirty) — workers read the raw column, not the property.
            table.bottleneck_capacity()
            counts[row] = table.n_flows
            versions[row] = table.version
            capacity = self._table_capacity(row)
            if capacity != self._capacity_seen[row]:
                self._send(owner_of_row[row],
                           ("reattach", row,
                            self.arena.manifest(f"cell{row}")))
                self._capacity_seen[row] = capacity

    def _send(self, worker, message):
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise FabricError(f"worker {worker} is dead") from exc

    def iterate(self, n: int) -> None:
        for w in range(len(self._conns)):
            self._send(w, ("iterate", int(n)))
        errors = []
        # One shared deadline across workers (see SocketFabric.iterate):
        # a wedged pool fails after ~timeout total, not per worker.
        deadline = time.monotonic() + self.timeout
        for w, conn in enumerate(self._conns):
            if not conn.poll(max(0.05, deadline - time.monotonic())):
                raise FabricError(f"worker {w} did not finish within "
                                  f"{self.timeout:.0f}s")
            try:
                message = conn.recv()
            except (EOFError, OSError) as exc:
                # Worker died without replying (killed, segfault).
                raise FabricError(
                    f"worker {w} died mid-iteration") from exc
            if message[0] == "error":
                errors.append(f"worker {w}:\n{message[1]}")
        if errors:
            raise FabricError("worker iteration failed\n" + "\n".join(errors))

    def refresh_capacity(self, capacity: npt.ArrayLike,
                         idle_price: npt.ArrayLike) -> None:
        self._state["capacity"][:] = capacity
        self._state["idle_price"][:] = idle_price

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Unwedge any worker blocked at a phase barrier (a peer died
        # mid-iteration): aborting makes their wait raise, which they
        # report and then exit.  Harmless when workers are idle.
        if self._barrier is not None:
            try:
                self._barrier.abort()
            except Exception:  # pragma: no cover - defensive
                pass
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self.workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self.arena.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


class SocketFabric:
    """Coordination over TCP length-prefixed frames (multi-host capable).

    The parent listens on ``(host, 0)``; workers connect, bootstrap
    over the wire, and build a full peer mesh for the LinkBlock frames.
    ``launcher="fork"`` (default) starts workers as local forked
    processes; ``launcher="subprocess"`` execs fresh interpreters that
    know nothing but the parent's address — byte-for-byte the same
    protocol a remote host would speak.

    The step exchange is deadlock-free by construction: a worker
    coalesces everything it owes one peer within a schedule step into
    a single :class:`PeerBatch` frame and drives all of the step's
    sends and receives through the nonblocking
    :func:`exchange_batches` loop, interleaving partial writes with
    reads — so per-pair step traffic may exceed ``SO_SNDBUF`` +
    ``SO_RCVBUF`` arbitrarily (the small-buffer regression test clamps
    both below one step's traffic and still completes).  Churn is
    delta-encoded: after a cell's first full snapshot, only changed
    rows plus the new count/version ship (see the wire-format notes
    above :func:`encode_cell_snapshot`).

    ``sockbuf`` (testing aid) clamps every fabric socket's
    ``SO_SNDBUF``/``SO_RCVBUF`` to the given byte count.
    """

    name = "socket"

    def __init__(self, timeout: float = 600.0, host: str = "127.0.0.1",
                 launcher: str = "fork",
                 sockbuf: int | None = None) -> None:
        if launcher not in ("fork", "subprocess"):
            raise ValueError(f"unknown launcher {launcher!r}")
        self.timeout = float(timeout)
        self.host = host
        self.launcher = launcher
        self.sockbuf = sockbuf
        self.workers = []
        self._conns = {}
        # Per-run shared secret, presented as raw bytes on every new
        # connection before any pickled frame is read: a connection
        # that cannot produce it is dropped without touching the
        # unpickler.  (Frames are pickled, so the fabric must only
        # ever listen on trusted networks regardless.)
        self._token = secrets.token_bytes(_TOKEN_LEN)
        self._listener = socketlib.socket()
        self._listener.setsockopt(socketlib.SOL_SOCKET,
                                  socketlib.SO_REUSEADDR, 1)
        self._listener.bind((host, 0))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        self._capacity_update = None
        self._published_version = {}
        self._closed = False

    @property
    def token_hex(self) -> str:
        """The fabric secret, hex-encoded — hand it (e.g. via
        ``$REPRO_FABRIC_TOKEN``) to workers started on other hosts."""
        return self._token.hex()

    # -- storage: none is shared --------------------------------------
    def alloc_state(self, n_procs: int, n_links: int,
                    capacity: npt.ArrayLike,
                    idle_price: npt.ArrayLike) -> None:
        return

    def table_allocator(self, row: int) -> None:
        return

    def processor_prices(self, row: int) -> None:
        return

    # -- lifecycle ----------------------------------------------------
    def launch(self, worker_body: Callable,
               per_worker: Sequence[tuple[Any, Any]]) -> None:
        # ``worker_body`` is fixed by protocol for this fabric (the
        # entry reimports it); ``per_worker`` supplies rows + consts.
        n_workers = len(per_worker)
        for w in range(n_workers):
            if self.launcher == "fork":
                ctx = mp.get_context("fork")
                process = ctx.Process(
                    target=_socket_worker_entry,
                    args=(self.host, self.port, w, self.host, self._token,
                          self.sockbuf),
                    daemon=True, name=f"ned-sockworker-{w}")
                process.start()
            else:
                src_root = os.path.dirname(os.path.dirname(
                    os.path.dirname(os.path.abspath(__file__))))
                env = dict(os.environ)
                env["PYTHONPATH"] = src_root + os.pathsep + \
                    env.get("PYTHONPATH", "")
                env["REPRO_FABRIC_TOKEN"] = self.token_hex
                if self.sockbuf:
                    env["REPRO_FABRIC_SOCKBUF"] = str(int(self.sockbuf))
                process = subprocess.Popen(
                    [sys.executable, "-m", "repro.parallel.socket_worker",
                     self.host, str(self.port), str(w), self.host],
                    env=env)
            self.workers.append(process)

        deadline = time.monotonic() + 60.0
        addresses = {}
        for _ in range(n_workers):
            # Control connections stay unclamped even under
            # ``sockbuf``: the deadlock being regression-tested lives
            # on the worker mesh (the step data path), and throttling
            # bootstrap/churn/price frames would only slow tests down.
            sock = _accept_authenticated(self._listener, self._token,
                                         deadline)
            tag, worker_id, address = recv_ctrl(sock)
            if tag != "hello":  # pragma: no cover - defensive
                raise FabricError(f"unexpected handshake {tag!r}")
            self._conns[worker_id] = sock
            addresses[worker_id] = address
        for w, (plans, consts) in enumerate(per_worker):
            boot = {
                "n_workers": n_workers,
                "rows": [plan.row for plan in plans],
                "peers": addresses,
                "n_procs": consts.pop("_n_procs"),
                "n_links": consts["n_links"],
                "capacity": consts.pop("_capacity"),
                "idle_price": consts.pop("_idle_price"),
                "timeout": self.timeout,
                "sockbuf": self.sockbuf,
                "consts": consts,
            }
            send_ctrl(self._conns[w], boot)

    # -- parent-side operations --------------------------------------
    def sync_churn(self, cell_tables: Sequence[tuple[int, Any]],
                   owner_of_row: dict[int, int]) -> None:
        """Frame every cell whose table version moved since its last
        publication (plus any queued capacity update).

        The first publication of a cell is a full snapshot, which also
        arms the table's dirty-row log; afterwards only the changed
        rows ship (:func:`encode_cell_delta`), falling back to a fresh
        snapshot when the whole table was invalidated (capacity
        refresh rewrites every bottleneck entry).
        """
        capacity = idle_price = None
        if self._capacity_update is not None:
            capacity, idle_price = self._capacity_update
        self._capacity_update = None
        per_worker = {}
        for row, table in cell_tables:
            base = self._published_version.get(row)
            if table.version == base:
                continue
            if base is None:
                table.start_change_log()
                update = encode_cell_snapshot(row, table)
            else:
                rows, all_changed = table.consume_changes()
                update = (encode_cell_snapshot(row, table) if all_changed
                          else encode_cell_delta(row, table, rows, base))
            self._published_version[row] = table.version
            per_worker.setdefault(owner_of_row[row], []).append(update)
        for w, conn in self._conns.items():
            cells = per_worker.get(w, [])
            if not cells and capacity is None:
                continue
            try:
                send_ctrl(conn, ("churn", {"cells": cells,
                                           "capacity": capacity,
                                           "idle_price": idle_price}))
            except FabricError as exc:
                raise FabricError(f"worker {w} is dead") from exc

    def iterate(self, n: int) -> dict[int, Any]:
        for w, conn in self._conns.items():
            try:
                send_ctrl(conn, ("iterate", int(n)))
            except FabricError as exc:
                raise FabricError(f"worker {w} is dead") from exc
        row_prices = {}
        errors = []
        # One shared deadline: after the first worker times out, the
        # rest get only the remaining budget (near zero), so a wedged
        # pool fails after ~timeout total, not n_workers x timeout.
        deadline = time.monotonic() + self.timeout
        for w, conn in self._conns.items():
            conn.settimeout(max(0.05, deadline - time.monotonic()))
            try:
                message = recv_ctrl(conn)
            except FabricError:
                errors.append(f"worker {w}: died mid-iteration")
                continue
            except socketlib.timeout:
                errors.append(f"worker {w}: did not finish within "
                              f"{self.timeout:.0f}s")
                continue
            finally:
                conn.settimeout(None)
            if message[0] == "error":
                errors.append(f"worker {w}:\n{message[1]}")
            else:
                row_prices.update(message[1])
        if errors:
            raise FabricError("worker iteration failed\n" + "\n".join(errors))
        return row_prices

    def refresh_capacity(self, capacity: npt.ArrayLike,
                         idle_price: npt.ArrayLike) -> None:
        # Queued; ships with the next sync_churn so workers see the
        # new constants before their next iteration.
        self._capacity_update = (np.array(capacity, dtype=np.float64),
                                 np.array(idle_price, dtype=np.float64))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns.values():
            try:
                send_ctrl(conn, ("stop",))
            except FabricError:
                pass
        deadline = time.monotonic() + 5.0
        for process in self.workers:
            remaining = max(0.1, deadline - time.monotonic())
            if isinstance(process, subprocess.Popen):
                try:
                    process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait()
            else:
                process.join(timeout=remaining)
                if process.is_alive():  # pragma: no cover - wedged
                    process.terminate()
                    process.join(timeout=5.0)
        for conn in self._conns.values():
            _close_quietly(conn)
        self._conns.clear()
        _close_quietly(self._listener)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass


FABRICS = {"shm": SharedMemoryFabric, "socket": SocketFabric}


class LocalCluster:
    """Multiple "hosts" on localhost, coordinated by a socket fabric.

    Each worker is a freshly exec'd Python interpreter that knows only
    the parent's TCP address — no fork inheritance, no shared memory —
    so the processes stand in faithfully for machines: pointing the
    same command line at a reachable address on another box is the
    entire multi-host story.  Context-manages the underlying
    :class:`~repro.parallel.engine.MulticoreNedEngine`.
    """

    def __init__(self, topology: Any, n_blocks: int, n_hosts: int = 2,
                 **engine_kwargs: Any) -> None:
        from .engine import MulticoreNedEngine
        self.engine = MulticoreNedEngine(
            topology, n_blocks, backend="process", fabric="socket",
            n_workers=n_hosts,
            fabric_options={"launcher": "subprocess"}, **engine_kwargs)

    def __enter__(self):
        return self.engine

    def __exit__(self, *exc_info):
        self.engine.close()

    def close(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# barrier microbenchmark helpers (shared by benchmarks + tests)
# ----------------------------------------------------------------------
def _barrier_probe_worker(barrier, n_steps, start):
    start.wait()
    for _ in range(n_steps):
        barrier.wait()


def measure_barrier_rate(kind, n_workers, n_steps, barrier_mode=None):
    """Steps/sec through ``n_steps`` full barrier rounds at ``n_workers``.

    ``kind`` is ``"sense"`` (:class:`SenseReversingBarrier`) or ``"mp"``
    (``multiprocessing.Barrier`` — the transport the fabric replaced).
    """
    ctx = mp.get_context("fork")
    start = ctx.Event()
    procs = []
    arena = None
    try:
        if kind == "sense":
            arena = SharedArena()
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, ctx, n_workers, tag="bench/barrier")
            parent = SenseReversingBarrier(phases, arrive, gates, 0,
                                           n_workers, mode=barrier_mode)
            barriers = [parent.for_worker(w) for w in range(n_workers)]
        elif kind == "mp":
            shared = ctx.Barrier(n_workers)
            barriers = [shared] * n_workers
        else:
            raise ValueError(f"unknown barrier kind {kind!r}")
        for w in range(n_workers):
            procs.append(ctx.Process(
                target=_barrier_probe_worker,
                args=(barriers[w], n_steps, start), daemon=True))
        for p in procs:
            p.start()
        time.sleep(0.2)
        t0 = time.perf_counter()
        start.set()
        for p in procs:
            p.join(timeout=600.0)
            if p.is_alive():  # pragma: no cover - wedged
                raise FabricError("barrier benchmark wedged")
        elapsed = time.perf_counter() - t0
        return n_steps / elapsed
    finally:
        for p in procs:
            if p.is_alive():  # pragma: no cover - cleanup
                p.terminate()
        if arena is not None:
            arena.close()
