"""Client for the always-on allocator service.

Connects with the fabric's retrying connector, presents the raw token,
performs the HELLO/WELCOME version handshake, then speaks
:mod:`repro.service.wire` frames.  Receives are pumped through a
:class:`~repro.service.wire.FrameBuffer` so a timeout mid-frame never
desynchronizes the stream; sends are serialized by a lock so one
client object can be shared between a load-generating thread and a
rate-polling thread (the fan-out benchmarks do exactly that).

Rate state mirrors the server's delta chain: RATES frames apply only
when their ``base_seq`` matches the last applied sequence (skew
raises :class:`~repro.service.wire.WireError` — the stream missed a
frame and every later delta would silently compound the error) and
SNAPSHOT frames replace the state wholesale.

Surviving the unreliable network (the PR 7 hardening):

* The client journals churn it cannot yet prove the server applied:
  live flows that have never appeared in a rate frame, and ends whose
  application is unconfirmed.  :meth:`reconnect` dials a fresh
  socket, presents the token, sends RESUME ``(client_id,
  resume_nonce, last_applied_seq)`` and the journal replay in one
  burst closed by REPLAY_DONE, and waits for the WELCOME re-adoption.
  The server treats churn before the REPLAY_DONE idempotently, so
  replaying something it already applied is reconciled, not fatal —
  and after it duplicates are protocol violations again, so the
  replay window cannot mask real bugs.  The delta chain is void
  after a reconnect (``_last_seq`` is ``None``) until a fresh
  SNAPSHOT re-bases it; stray deltas in between are dropped.

* With ``auto_reconnect=True``, a send failure, a lost connection on
  the receive path, or rate-chain sequence skew triggers
  :meth:`reconnect` internally instead of raising.

* BUSY frames from the server's ingest rate limiter set a pacing
  deadline; subsequent sends sleep it off (``_pace``) instead of
  hammering a paused socket.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from typing import Any

import numpy.typing as npt

from ..parallel.fabric import FabricError, connect_retry, send_frame
from . import wire
from .wire import TAG_SERVICE, FrameBuffer, ServiceError, WireError

__all__ = ["FlowtuneClient"]

_RECV_CHUNK = 1 << 16
_PENDING_ENDS_CAP = 1 << 16


class FlowtuneClient:
    """Endpoint-side handle on a :class:`FlowtuneService`.

    Parameters
    ----------
    address:
        ``(host, port)`` of the service listener.
    token:
        The service's 16-byte token (raw bytes or hex string).
    timeout:
        Handshake and default blocking-receive timeout, seconds.
    auto_reconnect:
        When True, a dead connection (send failure, EOF, receive
        error) or rate-chain skew triggers :meth:`reconnect`
        transparently.  Default False: failures raise, and the caller
        decides (deterministic tests want the exception).
    sockbuf:
        Optional SO_SNDBUF/SO_RCVBUF clamp, applied before connect.

    Flow ids are client-local integers (the service namespaces them
    per session), so two clients can both use flow id 0.
    """

    def __init__(self, address: tuple[str, int], token: bytes | str, *,
                 timeout: float = 30.0, auto_reconnect: bool = False,
                 sockbuf: int | None = None) -> None:
        if isinstance(token, str):
            token = bytes.fromhex(token)
        self._token = bytes(token)
        self._address = tuple(address)
        self.timeout = float(timeout)
        self.auto_reconnect = bool(auto_reconnect)
        self.sockbuf = sockbuf
        self._rates = {}          # fid -> latest rate (Gbit/s)
        self._last_seq = 0        # None = chain void, awaiting SNAPSHOT
        self._applied_seq = 0     # last applied seq (survives the void)
        self._last_snapshot = None
        self._buf = FrameBuffer()
        # RLock: reconnect() must be callable from inside _send's
        # failure path without deadlocking.
        self._send_lock = threading.RLock()
        self._conn_gen = 0        # bumped per (re)connection
        self._closed = False
        self._welcomed = False
        self.client_id = None
        self.n_links = None
        self.resume_nonce = None
        self.reconnects = 0
        self.busy_count = 0
        self.last_busy = None     # (retry_after, credit) of latest BUSY
        self._busy_until = 0.0
        # --- the un-acked churn journal ---------------------------------
        # _journal_live: every flow the client believes is live, with
        # its route/weight — the replay source of truth.
        # _acked: live fids that have appeared in a rate frame since
        # their latest start, i.e. provably applied server-side (and
        # kept alive by the session across a drop), so replay skips
        # them.
        # _pending_ends: ends whose application is unconfirmed
        # (ordered dict-as-set, FIFO-capped); replayed first, in
        # order, like apply_churn applies ends before starts.
        self._journal_live = {}
        self._acked = set()
        self._pending_ends = {}
        self._sock = connect_retry(self._address, sockbuf=sockbuf)
        self._sock.settimeout(self.timeout)
        try:
            self._sock.sendall(self._token)
            self._send(wire.encode_hello())
            self._pump_until(lambda: self.client_id is not None,
                             self.timeout,
                             "no WELCOME from service (bad token?)")
        except BaseException:
            self._sock.close()
            self._closed = True
            raise

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def _pace(self):
        """Honor the latest BUSY credit: sleep out the pause the
        server imposed rather than writing into a socket it has
        stopped reading."""
        wait = self._busy_until - time.monotonic()
        if wait > 0:
            time.sleep(wait)

    def _send(self, *payloads):
        if self._closed:
            raise FabricError("client is closed")
        self._pace()
        with self._send_lock:
            try:
                for payload in payloads:
                    send_frame(self._sock, TAG_SERVICE, payload)
            except FabricError:
                if not self.auto_reconnect or self.client_id is None:
                    raise
                # The journal replay covers journaled churn; the
                # originals ride inside the replay burst anyway —
                # before REPLAY_DONE, where duplicates are reconciled
                # — so un-journaled kinds like STEP and USAGE aren't
                # lost.
                self.reconnect(replay_extra=payloads)

    def flowlet_start(self, flow_id: int, route: npt.ArrayLike,
                      weight: float = 1.0) -> None:
        """Report one new backlogged flowlet on ``route``."""
        self._journal_start(flow_id, route, weight)
        self._send(wire.encode_start([(flow_id, route, weight)]))

    def flowlet_end(self, flow_id: int) -> None:
        """Report one flowlet's queue drained.

        Idempotent while the end is unconfirmed: re-ending a flow
        whose end is still journaled (e.g. retrying after a send
        failure — the journal replay already delivered it on
        reconnect) is a no-op, not a wire duplicate the server would
        reject once the replay window has closed."""
        if self._end_journaled(flow_id):
            return
        self._journal_end(flow_id)
        self._send(wire.encode_end([flow_id]))

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[int] = ()) -> None:
        """Batch churn in one wire exchange: ends frame, then starts
        (matching :meth:`FlowtuneAllocator.apply_churn` order, so an
        id in both is a restart)."""
        starts = [s if len(s) == 3 else (s[0], s[1], 1.0) for s in starts]
        payloads = []
        if ends:
            fresh = [fid for fid in ends if not self._end_journaled(fid)]
            for fid in fresh:
                self._journal_end(fid)
            if fresh:
                payloads.append(wire.encode_end(fresh))
        if starts:
            for fid, route, weight in starts:
                self._journal_start(fid, route, weight)
            payloads.append(wire.encode_start(starts))
        if payloads:
            self._send(*payloads)

    def report_usage(self, reports: Iterable[tuple[int, int]]) -> None:
        """Send cumulative ``(flow_id, bytes)`` usage reports."""
        self._send(wire.encode_usage(reports))

    def shutdown_service(self) -> None:
        """Ask the service process to stop serving entirely."""
        self._send(wire.encode_shutdown())

    # ------------------------------------------------------------------
    # the un-acked churn journal
    # ------------------------------------------------------------------
    def _journal_start(self, fid, route, weight):
        # A start for a pending-end fid is a restart.  The fid stays
        # in _pending_ends on purpose: replaying the start alone could
        # leave the *old* incarnation's route live if the end never
        # landed, so unconfirmed restarts replay as end+start — that
        # lands the new route whichever prefix the server applied.
        self._acked.discard(fid)
        self._journal_live[fid] = (tuple(route), float(weight))

    def _end_journaled(self, fid):
        """True when ``fid``'s end is already journaled and the flow
        was not restarted since — the end is delivered or will be by
        the next replay, so re-sending it would only manufacture a
        duplicate."""
        return fid in self._pending_ends and fid not in self._journal_live

    def _journal_end(self, fid):
        self._journal_live.pop(fid, None)
        self._acked.discard(fid)
        self._pending_ends.pop(fid, None)
        self._pending_ends[fid] = None
        while len(self._pending_ends) > _PENDING_ENDS_CAP:
            self._pending_ends.pop(next(iter(self._pending_ends)))

    def _replay_payloads(self):
        """Wire frames that re-assert the journal on a fresh
        connection: unconfirmed ends first, then every live flow the
        server has not provably applied — the order
        ``apply_churn`` consumes."""
        payloads = []
        ends = [fid for fid in self._pending_ends
                if fid not in self._journal_live]
        restarts = [fid for fid in self._pending_ends
                    if fid in self._journal_live]
        if ends or restarts:
            payloads.append(wire.encode_end(ends + restarts))
        starts = [(fid, route, weight)
                  for fid, (route, weight) in self._journal_live.items()
                  if fid not in self._acked or fid in self._pending_ends]
        if starts:
            payloads.append(wire.encode_start(starts))
        return payloads

    @property
    def journal_depth(self) -> tuple[int, int]:
        """(live-unacked, pending-end) journal sizes, for tests."""
        unacked = sum(1 for fid in self._journal_live
                      if fid not in self._acked)
        return unacked, len(self._pending_ends)

    # ------------------------------------------------------------------
    # reconnect / resume
    # ------------------------------------------------------------------
    def reconnect(self, replay_extra: Sequence[bytes] = ()) -> None:
        """Dial a fresh connection and RESUME the existing session.

        Presents the token, then sends RESUME ``(client_id,
        resume_nonce, last_applied_seq)`` followed by the journal
        replay — plus any ``replay_extra`` payloads a failed send is
        retrying — in one burst closed by REPLAY_DONE (everything
        before it is reconciled idempotently server-side; everything
        after is live traffic again), and waits for the server's
        WELCOME re-adoption.  A stale nonce (the grace window expired,
        or the service restarted) surfaces as :class:`ServiceError`
        from the server's rejection.  After return the rate chain is
        void until the next SNAPSHOT (``poll`` drops stray deltas; in
        manual mode the next :meth:`step` re-bases it).
        """
        if self._closed:
            raise FabricError("client is closed")
        if self.client_id is None or self.resume_nonce is None:
            raise FabricError("cannot resume: never completed a HELLO")
        with self._send_lock:
            self._conn_gen += 1
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._buf = FrameBuffer()
            self._last_seq = None      # chain void until SNAPSHOT
            self._welcomed = False
            sock = connect_retry(self._address, sockbuf=self.sockbuf)
            sock.settimeout(self.timeout)
            self._sock = sock
            try:
                sock.sendall(self._token)
                payloads = [wire.encode_resume(self.client_id,
                                               self.resume_nonce,
                                               self._applied_seq)]
                payloads += self._replay_payloads()
                payloads += list(replay_extra)
                payloads.append(wire.encode_replay_done())
                for payload in payloads:
                    send_frame(sock, TAG_SERVICE, payload)
                self._pump_until(lambda: self._welcomed, self.timeout,
                                 "no WELCOME re-adoption after RESUME")
            except BaseException:
                sock.close()
                raise
            self.reconnects += 1
        return self

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def poll(self, timeout: float = 0.0) -> list[tuple[int, float]]:
        """Pump pending frames; return rate updates as ``[(fid, rate)]``.

        Blocks up to ``timeout`` seconds for the *first* data, then
        drains whatever else is already queued without blocking.
        Raises :class:`ServiceError` if the service reported an error,
        :class:`WireError` on version or sequence skew.
        """
        updates = []
        deadline = time.monotonic() + timeout
        first = True
        while True:
            remaining = deadline - time.monotonic() if first else 0.0
            if not self._recv_once(max(0.0, remaining), updates):
                if not first or remaining <= 0:
                    break
            first = False
        return updates

    def _recv_once(self, timeout, updates):
        """One recv; feeds the buffer, handles frames.  Returns False
        when no data was available within ``timeout``.

        The blocking recv happens *outside* ``_send_lock`` (a stalled
        server must not freeze senders), but the dispatch into the
        frame buffer and rate-chain state happens under it: with
        ``auto_reconnect`` a sender thread's failed send can swap the
        socket, buffer, and delta chain mid-call, and unlocked
        dispatch would feed the dead connection's bytes into the new
        chain."""
        with self._send_lock:
            gen = self._conn_gen
            sock = self._sock
        sock.settimeout(timeout if timeout > 0 else 0.0)
        try:
            data = sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError, TimeoutError):
            return False
        except OSError as exc:
            if self.auto_reconnect and not self._closed:
                self.reconnect()
                return False
            raise FabricError(f"connection lost: {exc}") from exc
        finally:
            try:
                sock.settimeout(self.timeout)
            except OSError:  # pragma: no cover - racing reconnect
                pass
        if not data:
            if self.auto_reconnect and not self._closed:
                self.reconnect()
                return False
            raise FabricError("service closed the connection")
        with self._send_lock:
            if self._conn_gen != gen:
                # A sender thread reconnected while we were blocked in
                # recv: these bytes belong to the dead connection.
                return False
            for tag, payload in self._buf.feed(data):
                if tag != TAG_SERVICE:
                    raise WireError(f"unexpected frame tag {tag}")
                self._handle(payload, updates)
                if self._conn_gen != gen:
                    # _handle reconnected mid-iteration: the remaining
                    # frames belong to the dead connection.
                    break
        return True

    def _handle(self, payload, updates):
        kind, body = wire.decode_message(payload)
        if kind == wire.WELCOME:
            self.client_id, self.n_links, self.resume_nonce = body
            self._welcomed = True
        elif kind == wire.RATES:
            base_seq, seq, fids, rates = body
            if self._last_seq is None:
                # Chain void after a reconnect: deltas that raced the
                # re-based SNAPSHOT are stale, drop them.
                return
            if base_seq != self._last_seq:
                if self.auto_reconnect:
                    self.reconnect()
                    return
                raise WireError(
                    f"rate-update sequence skew: frame chains on "
                    f"{base_seq}, last applied is {self._last_seq}")
            self._last_seq = self._applied_seq = seq
            fid_list = fids.tolist()
            pairs = list(zip(fid_list, rates.tolist()))
            self._rates.update(pairs)
            self._acked.update(self._journal_live.keys() & fid_list)
            updates.extend(pairs)
        elif kind == wire.SNAPSHOT:
            seq, fids, rates = body
            self._last_seq = self._applied_seq = seq
            snapshot = dict(zip(fids.tolist(), rates.tolist()))
            self._rates = snapshot
            self._last_snapshot = snapshot
            for fid in snapshot:
                if fid in self._journal_live:
                    self._acked.add(fid)
            updates.extend(snapshot.items())
        elif kind == wire.BUSY:
            retry_after, credit = body
            self.busy_count += 1
            self.last_busy = (retry_after, credit)
            self._busy_until = time.monotonic() + retry_after
        elif kind == wire.ERROR:
            raise ServiceError(body)
        else:
            raise WireError(f"kind {kind} is not valid server->client")

    def _pump_until(self, done, timeout, what):
        deadline = time.monotonic() + timeout
        scratch = []
        while not done():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(what)
            self._recv_once(remaining, scratch)
        return scratch

    def wait_for_rates(self, flow_ids: Iterable[int],
                       timeout: float = 30.0) -> dict[int, float]:
        """Block until every id in ``flow_ids`` has a rate; return a
        ``{fid: rate}`` dict for exactly those ids."""
        pending = set(flow_ids)
        self._pump_until(lambda: pending <= self._rates.keys(), timeout,
                         f"no rate for {len(pending - self._rates.keys())} "
                         "flows within timeout")
        return {fid: self._rates[fid] for fid in flow_ids}

    def step(self, n_iters: int = 1,
             timeout: float | None = None) -> dict[int, float]:
        """Run exactly ``n_iters`` allocator iterations remotely and
        return this client's full rate snapshot (``{fid: rate}``).

        The deterministic RPC behind the manual-mode service: churn
        sent so far is drained, applied, iterated ``n_iters`` times —
        the same calls an in-process allocator would make, so results
        agree bitwise."""
        # Written under the same lock as _handle's SNAPSHOT path so
        # the arm/receive pair cannot interleave with a reconnect.
        with self._send_lock:
            self._last_snapshot = None
        ends_before = list(self._pending_ends)
        self._send(wire.encode_step(max(1, int(n_iters))))
        self._pump_until(lambda: self._last_snapshot is not None,
                         self.timeout if timeout is None else timeout,
                         "no SNAPSHOT reply to STEP")
        # The snapshot proves the server drained everything sent
        # before the STEP (TCP ordering): those ends are confirmed.
        for fid in ends_before:
            self._pending_ends.pop(fid, None)
        return dict(self._last_snapshot)

    @property
    def rates(self) -> dict[int, float]:
        """Latest known rate per flow (a copy; updated by polling)."""
        return dict(self._rates)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Say BYE (best-effort) and close the socket.  Idempotent.

        BYE ends the session server-side immediately — flows end now,
        no grace window, no resumption."""
        if self._closed:
            return
        self._closed = True
        try:
            with self._send_lock:
                self._sock.settimeout(1.0)
                send_frame(self._sock, TAG_SERVICE, wire.encode_bye())
        except (FabricError, OSError):
            pass
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def kill(self) -> None:
        """Hard-close the socket without BYE — the unreliable-client
        simulator.  The session survives server-side for the grace
        window; :meth:`reconnect` (on this same object) resumes it."""
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"FlowtuneClient(client_id={self.client_id}, "
                f"n_flows_known={len(self._rates)})")
