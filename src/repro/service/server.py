"""The always-on allocator service.

A single-threaded ``selectors`` loop owns a rate scheduler (any
:func:`repro.make_scheduler` mode — full Flowtune by default) and
serves many clients over TCP: clients authenticate with a raw 16-byte
token (checked before any frame is parsed), then exchange
:mod:`repro.service.wire` frames over :mod:`repro.net`'s
length-prefixed framing.  Flowlet starts/ends/usage land in a
coalescing :class:`~repro.core.ChurnQueue`; the NUM loop runs in an
adaptive duty cycle — flat-out while churn is pending, at a
``min_cycle`` cadence while rates are still moving, and blocked in
``select`` (waking instantly on a frame) once converged — and pushes
delta-encoded rate updates back out on PR 4's dirty-row pattern:
per-client ``(base_seq, seq)``-chained RATES frames that the client
rejects on sequence skew, with SNAPSHOT frames restarting the chain.

Surviving unreliable clients (the PR 7 hardening):

* **Sessions outlive sockets.**  Per-client state (the flow
  namespace, the rate-chain position, a random ``resume_nonce``)
  lives in a :class:`_Session`; when a connection dies without BYE the
  session enters a ``resume_grace`` window during which its flows
  stay in the allocator.  A RESUME frame presenting the matching
  nonce re-binds the session to a new socket; the client replays its
  un-acked churn journal (duplicates are reconciled, not fatal, until
  the client's REPLAY_DONE frame closes the replay window) and the
  rate chain restarts from a fresh SNAPSHOT.  Grace expiry ends the
  flows exactly like the old dead-client path.

* **Ingest backpressure.**  Each connection owns a token bucket over
  churn *events* (``churn_rate``/``churn_burst``); outrunning it gets
  a BUSY credit reply and — the part a misbehaving client cannot
  ignore — the server stops reading that socket until the bucket
  refills, so TCP flow control throttles the sender while every other
  client's frames keep flowing.  ``max_pending`` bounds how many
  queued-but-unapplied events one client may hold between duty
  cycles the same way.

* **Slow-reader protection.**  Pushes never block the duty cycle:
  every send goes through a per-client outbox flushed by nonblocking
  writes under the selector.  An outbox that outgrows
  ``max_outbox`` bytes, or makes no progress for :data:`SEND_TIMEOUT`
  seconds, is the poison path — the client is dropped (into the
  grace window, so a stalled-but-alive endpoint may still resume)
  and the allocation loop never wedges.
"""

from __future__ import annotations

import os
import secrets
import selectors
import socket as socketlib
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..core.allocator import ChurnQueue, group_by_owner
from ..net import _TOKEN_LEN, FRAME_HEADER
from ..sampling import make_scheduler
from . import wire
from .wire import TAG_SERVICE, FrameBuffer, WireError

__all__ = ["FlowtuneService", "spawn_service", "ServiceHandle"]

_RECV_CHUNK = 1 << 16

#: Blocking ``select`` timeout (s) once converged, and in manual mode.
IDLE_TIMEOUT = 0.05
#: Consecutive zero-update cycles that count as converged.
QUIET_AFTER = 3
#: Seconds a client's socket may accept nothing while pushes are
#: pending before it is dropped as a wedged reader (into the grace
#: window).
SEND_TIMEOUT = 10.0


def _as_token(token):
    if token is None:
        return secrets.token_bytes(_TOKEN_LEN)
    if isinstance(token, str):
        token = bytes.fromhex(token)
    token = bytes(token)
    if len(token) != _TOKEN_LEN:
        raise ValueError(f"token must be {_TOKEN_LEN} bytes, "
                         f"got {len(token)}")
    return token


class _Session:
    """Per-client state that survives the socket: the flow namespace,
    the rate-chain position, and the resume credentials."""

    __slots__ = ("client_id", "nonce", "flows", "seq", "disconnected_at",
                 "client")

    def __init__(self, client_id, nonce):
        self.client_id = client_id
        self.nonce = nonce            # u64; authenticates RESUME
        self.flows = set()            # client-local flow ids live
        self.seq = 0                  # rate-update chain position
        self.disconnected_at = None   # monotonic time, or None if bound
        self.client = None            # the live _Client, or None


class _Client:
    """Per-connection state machine: token -> HELLO/RESUME -> frames."""

    __slots__ = ("sock", "buf", "session", "token_buf", "authed",
                 "helloed", "replaying", "pending_snapshot", "outbox",
                 "outbox_since", "events", "tokens", "tokens_at",
                 "paused_until", "pending_events")

    def __init__(self, sock, tokens):
        self.sock = sock
        self.buf = FrameBuffer()
        self.session = None           # bound at HELLO / RESUME
        self.token_buf = bytearray()
        self.authed = False
        self.helloed = False
        # True from RESUME until the client's REPLAY_DONE frame:
        # churn in that window is reconciled idempotently (the
        # journal may replay what the server already applied).  The
        # client closes the window explicitly — TCP ordering puts
        # REPLAY_DONE after the whole burst — so duplicates on the
        # connection's steady state are fatal again.
        self.replaying = False
        self.pending_snapshot = False
        self.outbox = bytearray()     # framed bytes awaiting the socket
        self.outbox_since = 0.0       # when the outbox last made progress
        self.events = 0               # selector mask currently registered
        self.tokens = tokens          # churn token bucket (None = off)
        self.tokens_at = time.monotonic()
        self.paused_until = 0.0       # reads paused for bucket refill
        self.pending_events = 0       # queued-not-applied churn events


class FlowtuneService:
    """Long-running allocator service over one TCP listener.

    Parameters
    ----------
    network:
        A topology (anything with ``.link_set()``) or a bare
        :class:`~repro.core.LinkSet`.
    mode:
        ``"auto"`` (default) runs the adaptive duty cycle; ``"manual"``
        only allocates on a client's STEP request — deterministic
        iterate counts, so a remote run is bit-comparable with an
        in-process allocator fed the same churn trace.
    iters_per_cycle, min_cycle:
        Duty-cycle shape: iterations per allocation and minimum seconds
        between allocations while rates are still moving (until
        :data:`QUIET_AFTER` zero-update cycles; then the loop blocks
        for up to :data:`IDLE_TIMEOUT`).  ``min_cycle`` is a
        floor, not the pace: ``selectors.EpollSelector`` rounds its
        timeout up to a whole millisecond, so at the default 0.5 ms
        the measured gap between convergence cycles is 1.16-1.22 ms
        (``benchmarks/results/service-steadiness-*.txt``).
    token:
        16 raw bytes, their hex form, or ``None`` to generate one
        (read it back from :attr:`token_hex`).
    resume_grace:
        Seconds a dropped (non-BYE) client's flows stay alive awaiting
        a RESUME; ``0`` disables resumption (flows end immediately,
        the pre-PR 7 behavior).
    churn_rate, churn_burst:
        Per-client token bucket over churn *events* (flows in
        START/END batches, items in USAGE reports): sustained
        events/sec and bucket depth.  ``None`` (default) disables rate
        limiting.  A client over budget gets one BUSY credit reply
        and is not read again until the bucket refills.
    max_pending:
        Per-client bound on queued-but-unapplied churn events; a
        client at the bound is not read again until the next duty
        cycle drains the queue.  ``None`` (default) disables.
        Meaningful in auto mode only — manual mode drains on STEP,
        which could never arrive if its own connection were paused.
    max_outbox:
        Slow-reader bound: a client whose unsent push backlog
        exceeds ``max_outbox`` bytes, or whose socket accepts nothing
        for :data:`SEND_TIMEOUT` seconds while pushes are pending, is
        dropped (into the grace window).
    sockbuf:
        Optional SO_SNDBUF/SO_RCVBUF clamp applied to accepted
        sockets (tests use this to exercise the slow-reader path with
        small pushes).

    Allocator knobs (``utility``, ``update_threshold``, ``gamma``,
    ``max_route_len``) are passed through to
    :func:`repro.make_scheduler`; ``scheduler_mode`` selects the
    scheme (``"flowtune"``, ``"sampled"`` or ``"ecmp"``), and
    ``promote_bytes``/``idle_epochs`` tune the sampled mode's elephant
    detector, which consumes the clients' USAGE reports.
    """

    def __init__(self, network: Any, *, utility: Any = None,
                 host: str = "127.0.0.1", port: int = 0,
                 token: bytes | str | None = None,
                 update_threshold: float = 0.01, gamma: float = 1.0,
                 max_route_len: int = 8, mode: str = "auto",
                 scheduler_mode: str = "flowtune",
                 promote_bytes: float = float(1 << 20),
                 idle_epochs: int = 100,
                 iters_per_cycle: int = 1, min_cycle: float = 0.0005,
                 resume_grace: float = 2.0,
                 churn_rate: float | None = None,
                 churn_burst: float | None = None,
                 max_pending: int | None = None, max_outbox: int = 1 << 23,
                 sockbuf: int | None = None) -> None:
        if mode not in ("auto", "manual"):
            raise ValueError(f"mode must be 'auto' or 'manual', got {mode!r}")
        if max_pending is not None and mode == "manual":
            raise ValueError("max_pending pauses reads until a drain, but "
                             "manual mode drains only on STEP — the pause "
                             "would deadlock; use auto mode")
        links = network.link_set() if hasattr(network, "link_set") else network
        scheduler_kwargs: dict[str, Any] = {}
        if scheduler_mode != "ecmp":
            scheduler_kwargs["utility"] = utility
            scheduler_kwargs["gamma"] = gamma
        if scheduler_mode == "sampled":
            scheduler_kwargs["promote_bytes"] = promote_bytes
            scheduler_kwargs["idle_epochs"] = idle_epochs
        self.allocator = make_scheduler(
            links, mode=scheduler_mode,
            update_threshold=update_threshold,
            max_route_len=max_route_len, **scheduler_kwargs)
        self.queue = ChurnQueue()
        self.mode = mode
        self.iters_per_cycle = int(iters_per_cycle)
        self.min_cycle = float(min_cycle)
        self.resume_grace = float(resume_grace)
        self.churn_rate = None if churn_rate is None else float(churn_rate)
        if self.churn_rate is not None and self.churn_rate <= 0:
            raise ValueError("churn_rate must be > 0 (or None to disable)")
        if churn_burst is None:
            churn_burst = self.churn_rate
        self.churn_burst = None if churn_burst is None else \
            max(1.0, float(churn_burst))
        self.max_pending = None if max_pending is None else int(max_pending)
        self.max_outbox = int(max_outbox)
        self.sockbuf = sockbuf
        self._token = _as_token(token)
        self.stats = {"frames_in": 0, "frames_out": 0, "cycles": 0,
                      "iterations": 0, "paper_bytes_in": 0,
                      "paper_bytes_out": 0, "clients_dropped": 0,
                      "resumes": 0, "sessions_expired": 0,
                      "busy_sent": 0, "slow_readers_dropped": 0,
                      "churn_rejected": 0}

        self._clients = {}          # sock -> _Client
        self._sessions = {}         # client_id -> _Session
        self._next_client_id = 1
        self._quiet_rounds = 0
        self._last_cycle = 0.0
        self._last_result = None
        self._usage = {}            # (client_id, fid) -> cumulative bytes
        self._running = False
        self._closed = False
        self._thread = None
        self._run_thread = None         # whichever thread is in run()
        self._stopped = threading.Event()   # set while run() is not live
        self._stopped.set()
        self._lock = threading.Lock()   # guards start/close transitions

        self._listener = socketlib.socket()
        self._listener.setsockopt(socketlib.SOL_SOCKET,
                                  socketlib.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        # Self-pipe so close()/start() from other threads wake select.
        self._wake_r, self._wake_w = socketlib.socketpair()
        self._wake_r.setblocking(False)
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def token_hex(self) -> str:
        """Reach: api — the in-process service the README documents."""
        return self._token.hex()

    @property
    def n_flows(self) -> int:
        """Reach: api — the in-process service the README documents."""
        return self.allocator.n_flows

    def start(self) -> "FlowtuneService":
        """Serve from a daemon thread; returns once the thread runs.

        Reach: api — the in-process service the README documents.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._thread is not None:
                return self
            self._thread = threading.Thread(
                target=self.run, name="flowtune-service", daemon=True)
            self._thread.start()
        return self

    def run(self) -> None:
        """Serve in the calling thread until :meth:`close` (or a
        client's SHUTDOWN frame)."""
        with self._lock:
            if self._closed:
                return
            self._running = True
            self._run_thread = threading.current_thread()
            self._stopped.clear()
        try:
            while self._running:
                self._tick()
                timeout = self._select_timeout()
                for key, events in self._sel.select(timeout):
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        self._drain_wake()
                    else:
                        if events & selectors.EVENT_WRITE:
                            self._flush(key.data)
                        if (events & selectors.EVENT_READ
                                and key.data.sock in self._clients):
                            self._service_readable(key.data)
                if self.mode == "auto":
                    self._auto_cycle()
        finally:
            # Same lock as start()/close(): _running is read by other
            # threads deciding whether a wake is needed, so its writes
            # all happen under the transition lock.
            with self._lock:
                self._running = False
            self._stopped.set()

    def _snapshot_pending(self):
        return any(c.pending_snapshot for c in self._clients.values())

    def _select_timeout(self):
        if self.mode == "manual":
            timeout = IDLE_TIMEOUT
        elif self.queue or self._snapshot_pending():
            # Churn is latency-critical (admission-to-rate-update is
            # the serving SLO): allocate on the next loop turn, no
            # pacing.
            timeout = 0.0
        elif self._quiet_rounds < QUIET_AFTER and self.allocator.n_flows:
            due = self._last_cycle + self.min_cycle - time.monotonic()
            timeout = max(0.0, min(due, IDLE_TIMEOUT))
        else:
            timeout = IDLE_TIMEOUT
        if timeout > 0.0:
            # Wake in time for the nearest bucket refill or grace
            # expiry, so paused clients resume and orphaned sessions
            # end without waiting out a full idle interval.
            now = time.monotonic()
            for client in self._clients.values():
                if client.paused_until > now:
                    timeout = min(timeout, client.paused_until - now)
            for session in self._sessions.values():
                if session.client is None and \
                        session.disconnected_at is not None:
                    due = session.disconnected_at + self.resume_grace - now
                    timeout = min(timeout, max(0.0, due))
        return timeout

    def _tick(self):
        """Timer-driven housekeeping, once per loop turn."""
        now = time.monotonic()
        for client in list(self._clients.values()):
            if client.paused_until and client.paused_until <= now:
                client.paused_until = 0.0
                self._set_events(client)
            if client.outbox and \
                    now - client.outbox_since > SEND_TIMEOUT:
                # No byte accepted for SEND_TIMEOUT: wedged reader.
                self.stats["slow_readers_dropped"] += 1
                self._drop_client(client)
        expired = [s for s in self._sessions.values()
                   if s.client is None and s.disconnected_at is not None
                   and now - s.disconnected_at >= self.resume_grace]
        for session in expired:
            self._end_session(session)
            self.stats["sessions_expired"] += 1

    def _auto_cycle(self):
        if not self.queue and not self._snapshot_pending():
            # min_cycle paces only the churnless convergence cycles,
            # so re-converging never starves frame ingestion.
            converging = (self._quiet_rounds < QUIET_AFTER
                          and self.allocator.n_flows)
            if not converging:
                return
            if time.monotonic() - self._last_cycle < self.min_cycle:
                return
        self._allocate(self.iters_per_cycle)
        self._last_cycle = time.monotonic()

    def close(self) -> None:
        """Stop serving and release the listener, clients, and thread.

        Idempotent; safe from any thread and from ``with`` blocks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._running = False
        try:
            self._wake_w.send(b"\0")
        except OSError:  # pragma: no cover - wake pipe already gone
            pass
        if (self._thread is not None
                and self._thread is not threading.current_thread()):
            self._thread.join(timeout=10.0)
        elif self._run_thread is not threading.current_thread():
            # run() may be serving on a caller-owned thread: wait for
            # it to leave the loop (the wake pipe interrupts select)
            # before unregistering and closing selector resources
            # under it.
            self._stopped.wait(timeout=10.0)
        for client in list(self._clients.values()):
            self._drop_client(client, session_action="keep")
        self._sel.unregister(self._listener)
        self._sel.unregister(self._wake_r)
        self._listener.close()
        self._wake_r.close()
        self._wake_w.close()
        self._sel.close()

    def __enter__(self):
        """Reach: api — the in-process service the README documents."""
        return self.start()

    def __exit__(self, *exc):
        """Reach: api — the in-process service the README documents."""
        self.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    def _accept(self):
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError:  # pragma: no cover - listener closing
                return
            sock.setblocking(False)
            sock.setsockopt(socketlib.IPPROTO_TCP,
                            socketlib.TCP_NODELAY, 1)
            if self.sockbuf:
                sock.setsockopt(socketlib.SOL_SOCKET,
                                socketlib.SO_SNDBUF, int(self.sockbuf))
                sock.setsockopt(socketlib.SOL_SOCKET,
                                socketlib.SO_RCVBUF, int(self.sockbuf))
            client = _Client(sock, self.churn_burst)
            self._clients[sock] = client
            self._sel.register(sock, selectors.EVENT_READ, client)
            client.events = selectors.EVENT_READ

    def _drain_wake(self):
        """Reach: safety — teardown: empties the wake pipe close() wrote."""
        try:
            while self._wake_r.recv(4096):
                pass
        except (BlockingIOError, OSError):
            pass

    def _paused(self, client):
        if client.paused_until > time.monotonic():
            return True
        return (self.max_pending is not None
                and client.pending_events >= self.max_pending)

    def _set_events(self, client):
        """Reconcile the selector registration with the client's state:
        read unless paused (backpressure), write while the outbox has
        bytes.  A fully-paused empty-outbox client is unregistered and
        woken by the timer path."""
        if client.sock not in self._clients:
            return
        want = 0
        if not self._paused(client):
            want |= selectors.EVENT_READ
        if client.outbox:
            want |= selectors.EVENT_WRITE
        if want == client.events:
            return
        try:
            if client.events == 0:
                self._sel.register(client.sock, want, client)
            elif want == 0:
                self._sel.unregister(client.sock)
            else:
                self._sel.modify(client.sock, want, client)
        except (KeyError, ValueError):  # pragma: no cover - racing close
            pass
        client.events = want

    def _service_readable(self, client):
        try:
            data = client.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._drop_client(client)
            return
        if not data:       # peer closed: the dead-client path
            self._drop_client(client)
            return
        if not client.authed:
            data = self._consume_token(client, data)
            if data is None:
                return
        try:
            frames = client.buf.feed(data)
            for tag, payload in frames:
                if tag != TAG_SERVICE:
                    raise WireError(f"unexpected frame tag {tag}")
                self._dispatch(client, payload)
                if not self._running or client.sock not in self._clients:
                    return
        except WireError as exc:
            # Stream no longer trustworthy: best-effort ERROR, drop.
            self._send_error(client, str(exc))
            self._drop_client(client, session_action="end")
            return
        self._set_events(client)

    def _consume_token(self, client, data):
        """Raw-token phase; returns leftover bytes once authenticated,
        or ``None`` while still waiting / after a silent drop."""
        client.token_buf += data
        if len(client.token_buf) < _TOKEN_LEN:
            return None
        presented = bytes(client.token_buf[:_TOKEN_LEN])
        if not secrets.compare_digest(presented, self._token):
            # Close without a hint: a prober learns nothing.
            self._drop_client(client, session_action="keep")
            return None
        client.authed = True
        rest = bytes(client.token_buf[_TOKEN_LEN:])
        client.token_buf = bytearray()
        return rest

    def _drop_client(self, client, session_action="grace"):
        """Disconnect one client.  ``session_action`` decides the fate
        of its session: ``"grace"`` (dead/slow connection — flows stay
        alive for ``resume_grace`` seconds awaiting a RESUME),
        ``"end"`` (BYE or a protocol violation — flows end now), or
        ``"keep"`` (rebind/teardown — the session is not touched)."""
        if client.sock not in self._clients:
            return
        del self._clients[client.sock]
        if client.events:
            try:
                self._sel.unregister(client.sock)
            except (KeyError, ValueError):  # pragma: no cover
                pass
            client.events = 0
        try:
            client.sock.close()
        except OSError:  # pragma: no cover
            pass
        session = client.session
        if session is not None and session.client is client:
            session.client = None
            if session_action == "end" or (session_action == "grace"
                                           and self.resume_grace <= 0):
                self._end_session(session)
            elif session_action == "grace":
                session.disconnected_at = time.monotonic()
        self.stats["clients_dropped"] += 1

    def _end_session(self, session):
        """End every flow the session holds (coalescing makes starts
        that never got applied vanish) and forget it — after this the
        client_id cannot be resumed.

        Reach: safety — the teardown path of a session whose client left.
        """
        for fid in session.flows:
            self.queue.push_end((session.client_id, fid))
            self._usage.pop((session.client_id, fid), None)
        session.flows = set()
        session.disconnected_at = None
        self._sessions.pop(session.client_id, None)

    # ------------------------------------------------------------------
    # sending (nonblocking, per-client outbox)
    # ------------------------------------------------------------------
    def _send(self, client, payload):
        """Queue one frame and flush opportunistically.  Never blocks:
        what the socket refuses waits in the outbox for EVENT_WRITE."""
        if client.sock not in self._clients:
            return False
        if not client.outbox:
            client.outbox_since = time.monotonic()
        client.outbox += FRAME_HEADER.pack(len(payload), TAG_SERVICE)
        client.outbox += payload
        # Stats go up *before* the flush: the send syscall yields the
        # GIL, and a test thread woken by the arriving frame must
        # already see it counted.
        self.stats["frames_out"] += 1
        return self._flush(client)

    def _flush(self, client):
        """Drive the outbox with nonblocking writes; apply the
        slow-reader bound.  Returns False if the client was dropped."""
        try:
            while client.outbox:
                n = client.sock.send(memoryview(client.outbox))
                if n == 0:  # pragma: no cover - send never returns 0
                    break
                del client.outbox[:n]
                client.outbox_since = time.monotonic()
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._drop_client(client)
            return False
        if len(client.outbox) > self.max_outbox:
            # Bounded buffering exhausted: the poison path.
            self.stats["slow_readers_dropped"] += 1
            self._drop_client(client)
            return False
        self._set_events(client)
        return True

    def _send_error(self, client, message):
        """Reach: safety — the error path that blames one client."""
        if client.authed and client.sock in self._clients:
            self._send(client, wire.encode_error(message))

    # ------------------------------------------------------------------
    # ingest backpressure
    # ------------------------------------------------------------------
    def _debit(self, client, n_events):
        """Charge ``n_events`` against the client's token bucket; on
        deficit, send one BUSY credit reply and pause reads until the
        bucket refills (TCP flow control does the rest)."""
        if self.churn_rate is None or n_events == 0:
            return
        now = time.monotonic()
        client.tokens = min(
            self.churn_burst,
            client.tokens + (now - client.tokens_at) * self.churn_rate)
        client.tokens_at = now
        client.tokens -= n_events
        if client.tokens < 0:
            wait = -client.tokens / self.churn_rate
            client.paused_until = now + wait
            self.stats["busy_sent"] += 1
            self._send(client, wire.encode_busy(wait,
                                                int(self.churn_burst)))

    # ------------------------------------------------------------------
    # frame dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, client, payload):
        kind, body = wire.decode_message(payload)
        self.stats["frames_in"] += 1
        if not client.helloed:
            if kind == wire.HELLO:
                self._bind_new_session(client)
            elif kind == wire.RESUME:
                self._resume_session(client, body)
            else:
                raise WireError("first frame must be HELLO or RESUME")
            return
        if kind == wire.START:
            self._on_start(client, body)
        elif kind == wire.END:
            self._on_end(client, body)
        elif kind == wire.USAGE:
            self._on_usage(client, body)
        elif kind == wire.STEP:
            self._on_step(client, body)
        elif kind == wire.REPLAY_DONE:
            # The resumed client's journal burst is over: duplicate
            # churn goes back to being a protocol violation, so a
            # long-lived resumed connection doesn't mask client bugs.
            client.replaying = False
        elif kind == wire.BYE:
            self._drop_client(client, session_action="end")
        elif kind == wire.SHUTDOWN:
            with self._lock:
                self._running = False
        else:
            raise WireError(f"kind {kind} is not valid client->server")

    def _bind_new_session(self, client):
        session = _Session(self._next_client_id,
                           int.from_bytes(secrets.token_bytes(8), "big"))
        self._next_client_id += 1
        session.client = client
        client.session = session
        client.helloed = True
        self._sessions[session.client_id] = session
        self._send(client, wire.encode_welcome(
            session.client_id, self.allocator.full_links.n_links,
            session.nonce))

    def _resume_session(self, client, body):
        """Re-bind an existing session to this connection.  The nonce
        gates adoption; ``last_applied_seq`` is informational — rates
        may have moved with no frame sent while the client was gone,
        so the chain always restarts from a fresh SNAPSHOT."""
        client_id, nonce, _last_applied_seq = body
        session = self._sessions.get(client_id)
        if session is None or session.nonce != nonce:
            # Stale or forged resume: reject without touching any
            # session (the real owner may still be in its grace
            # window).
            self._send_error(client,
                             f"stale resume for client {client_id}: "
                             "unknown session or nonce mismatch")
            self._drop_client(client, session_action="keep")
            return
        old = session.client
        if old is not None and old is not client:
            # A half-dead predecessor still holds the session: detach
            # it without ending flows — this RESUME supersedes it.
            self._drop_client(old, session_action="keep")
        session.client = client
        session.disconnected_at = None
        client.session = session
        client.helloed = True
        client.replaying = True
        client.pending_snapshot = True
        self.stats["resumes"] += 1
        self._send(client, wire.encode_welcome(
            client_id, self.allocator.full_links.n_links, session.nonce))

    def _on_start(self, client, flows):
        # Validate the whole batch *before* queueing any of it —
        # duplicates, weights (the negated form also rejects NaN,
        # which `weight <= 0` would pass), and route contents, the
        # same checks FlowTable.add_flow applies — so a bad event can
        # never reach apply_churn mid-cycle and take the allocator
        # down for every other client.  In the replay window after a
        # RESUME, duplicates are reconciled (skipped): the journal may
        # replay starts the server already applied.
        session = client.session
        max_hops = self.allocator.max_route_len
        n_links = self.allocator.full_links.n_links
        seen = set()
        fresh = []
        for fid, route, weight in flows:
            if fid in session.flows or fid in seen:
                if client.replaying:
                    continue
                self._send_error(client, f"duplicate flowlet start: {fid}")
                self._drop_client(client, session_action="end")
                return
            if not (weight > 0):
                self._send_error(client, f"flow {fid}: weight must be > 0")
                self._drop_client(client, session_action="end")
                return
            if not 1 <= len(route) <= max_hops:
                self._send_error(
                    client, f"flow {fid}: route must have 1..{max_hops} "
                    f"hops, got {len(route)}")
                self._drop_client(client, session_action="end")
                return
            if int(route.max()) >= n_links:
                self._send_error(
                    client, f"flow {fid}: route contains an unknown "
                    f"link index (links are 0..{n_links - 1})")
                self._drop_client(client, session_action="end")
                return
            seen.add(fid)
            fresh.append((fid, route, weight))
        for fid, route, weight in fresh:
            self.queue.push_start((session.client_id, fid), route, weight)
            session.flows.add(fid)
        client.pending_events += len(fresh)
        self._debit(client, len(flows))
        self.stats["paper_bytes_in"] += wire.paper_wire_bytes(
            wire.START, len(flows))

    def _on_end(self, client, fids):
        # Batch-local seen-set: an END listing the same id twice must
        # be caught here (the loop doesn't mutate session.flows, so
        # membership alone cannot catch the second occurrence).
        session = client.session
        seen = set()
        fresh = []
        for fid in fids:
            if fid not in session.flows or fid in seen:
                if client.replaying:
                    continue
                self._send_error(client, f"end of unknown flowlet: {fid}")
                self._drop_client(client, session_action="end")
                return
            seen.add(fid)
            fresh.append(fid)
        for fid in fresh:
            self.queue.push_end((session.client_id, fid))
            session.flows.discard(fid)
            self._usage.pop((session.client_id, fid), None)
        client.pending_events += len(fresh)
        self._debit(client, len(fids))
        self.stats["paper_bytes_in"] += wire.paper_wire_bytes(
            wire.END, len(fids))

    def _on_usage(self, client, reports):
        """Reach: api — the wire protocol's USAGE kind (sampled-mode bytes)."""
        session = client.session
        feed = self.allocator.wants_usage
        for fid, nbytes in reports:
            if fid in session.flows:
                self._usage[(session.client_id, fid)] = nbytes
                if feed:
                    # The §6.2 usage stream drives elephant detection
                    # in sampled mode.  Reports for flows whose start
                    # is still queued (or already ended) are dropped
                    # by the detector; the counts are cumulative, so
                    # the next report carries the full total anyway.
                    self.allocator.report_usage(
                        (session.client_id, fid), nbytes)
        self._debit(client, len(reports))
        self.stats["paper_bytes_in"] += wire.paper_wire_bytes(
            wire.USAGE, len(reports))

    def _on_step(self, client, n_iters):
        self._allocate(max(1, n_iters), snapshot_to=client)

    def usage_bytes(self, client_id: int, fid: int) -> int | None:
        """Latest usage report for one flow (testing/inspection aid).

        Reach: invariant — tests check that USAGE reports reach the session.
        """
        return self._usage.get((client_id, fid))

    # ------------------------------------------------------------------
    # the allocation cycle
    # ------------------------------------------------------------------
    def _allocate(self, n_iters, snapshot_to=None):
        starts, ends = self.queue.drain()
        if starts or ends:
            try:
                self.allocator.apply_churn(starts=starts, ends=ends)
            except (ValueError, KeyError):
                # Dispatch-time validation should make this
                # unreachable; if a poisoned batch slips through
                # anyway, dropping it must not kill the serving loop
                # for every client.  apply_churn applies ends before
                # validating starts, so resync each session's flow
                # set (and usage) against what the allocator actually
                # holds.
                self.stats["churn_rejected"] += 1
                for session in self._sessions.values():
                    dead = [fid for fid in session.flows
                            if (session.client_id, fid)
                            not in self.allocator]
                    for fid in dead:
                        session.flows.discard(fid)
                        self._usage.pop((session.client_id, fid), None)
            self._quiet_rounds = 0
        result = self.allocator.iterate(n_iters)
        self._last_result = result
        self.stats["cycles"] += 1
        self.stats["iterations"] += n_iters
        snap_clients = {c for c in self._clients.values()
                        if c.pending_snapshot and c.helloed}
        if snapshot_to is not None:
            snap_clients.add(snapshot_to)
        if len(result.update_indices):
            self._quiet_rounds = 0
            self._push_updates(result, skip=snap_clients)
        else:
            self._quiet_rounds += 1
        if snap_clients:
            rates = result.rates
            for client in snap_clients:
                self._send_snapshot(client, rates)
        # The queue is fully drained: every client's pending events
        # are applied, so depth-paused readers may resume.
        for client in self._clients.values():
            if client.pending_events:
                client.pending_events = 0
                self._set_events(client)

    def _push_updates(self, result, skip=()):
        """Group threshold-crossing updates per client and send each
        client one delta frame chained on its session's sequence
        number.  ``skip`` clients get a SNAPSHOT this cycle instead.

        Works on the result's ``(ids, rates)`` arrays, grouped on the
        client half of the ``(client_id, fid)`` ids."""
        ids, rates = result.update_arrays()
        if not len(ids):
            return
        keys = np.array(ids.tolist(), dtype=np.uint64)
        for owner, fids, sent in group_by_owner(keys[:, 0], keys[:, 1],
                                                 rates):
            session = self._sessions.get(int(owner))
            client = session.client if session is not None else None
            if client is None or client in skip:
                continue
            base = session.seq
            session.seq = base + 1
            self.stats["paper_bytes_out"] += wire.paper_wire_bytes(
                wire.RATES, len(fids))
            self._send(client, wire.encode_rates(base, session.seq,
                                                 fids, sent))

    def _send_snapshot(self, client, rates):
        session = client.session
        fids, vals = [], []
        for fid in session.flows:
            gfid = (session.client_id, fid)
            if gfid in rates:
                fids.append(fid)
                vals.append(rates[gfid])
        session.seq += 1
        client.pending_snapshot = False
        self.stats["paper_bytes_out"] += wire.paper_wire_bytes(
            wire.SNAPSHOT, len(fids))
        self._send(client, wire.encode_snapshot(session.seq, fids, vals))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"FlowtuneService(address={self.address}, mode={self.mode}, "
                f"n_flows={self.allocator.n_flows}, "
                f"clients={len(self._clients)})")


# ----------------------------------------------------------------------
# two-process convenience: spawn `python -m repro.service`
# ----------------------------------------------------------------------
class ServiceHandle:
    """A service running in a child process (see :func:`spawn_service`)."""

    def __init__(self, process, address, token_hex):
        self.process = process
        self.address = address
        self.token_hex = token_hex
        self._closed = False
        self._stderr_thread = None
        if process.stderr is not None:
            self._stderr_thread = threading.Thread(
                target=self._drain_stderr, daemon=True,
                name="service-stderr")
            self._stderr_thread.start()

    def _drain_stderr(self):
        # Keep the child's stderr pipe drained: a full pipe would
        # block it.
        try:
            for _ in self.process.stderr:
                pass
        except ValueError:  # pragma: no cover - pipe closed mid-read
            pass

    def close(self, timeout=10.0):
        """Terminate the child (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        if self._stderr_thread is not None:
            self._stderr_thread.join(timeout=timeout)
        if self.process.stderr is not None:
            self.process.stderr.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _await_ready_line(process, timeout):
    """Bounded wait for the child's ``SERVICE-READY host port`` line.

    ``readline`` runs in a helper thread so a child that dies before
    printing (an import error lands on stderr, never stdout) or hangs
    cannot wedge the spawner; on failure the child is killed and its
    stderr is surfaced in the raised ``RuntimeError``.
    """
    result = {}

    def reader():
        try:
            result["line"] = process.stdout.readline()
        except ValueError:  # pragma: no cover - stdout closed under us
            result["line"] = ""

    thread = threading.Thread(target=reader, daemon=True,
                              name="service-ready-reader")
    thread.start()
    thread.join(timeout)
    line = (result.get("line") or "").strip()
    parts = line.split()
    if len(parts) == 3 and parts[0] == "SERVICE-READY":
        return parts
    timed_out = thread.is_alive()
    if process.poll() is None:
        process.kill()
    process.wait(timeout=10.0)
    thread.join(timeout=10.0)
    stderr = ""
    if process.stderr is not None:
        try:
            stderr = process.stderr.read() or ""
        except ValueError:  # pragma: no cover
            pass
    detail = "no SERVICE-READY within timeout" if timed_out \
        else f"got {line!r}"
    message = (f"service child failed to start ({detail}, "
               f"exit code {process.returncode})")
    tail = stderr.strip().splitlines()[-10:]
    if tail:
        message += "; child stderr:\n" + "\n".join(tail)
    raise RuntimeError(message)


def spawn_service(*, racks: int = 3, hosts_per_rack: int = 8,
                  spines: int = 2, mode: str = "auto", gamma: float = 1.0,
                  update_threshold: float = 0.01, iters_per_cycle: int = 1,
                  min_cycle: float = 0.0005, host: str = "127.0.0.1",
                  scheduler_mode: str | None = None,
                  promote_bytes: float | None = None,
                  idle_epochs: int | None = None,
                  resume_grace: float | None = None,
                  churn_rate: float | None = None,
                  churn_burst: float | None = None,
                  max_pending: int | None = None,
                  ready_timeout: float = 30.0,
                  extra_args: Sequence[str] = ()) -> "ServiceHandle":
    """Start ``python -m repro.service`` in a child process.

    Generates a token, exports it via ``$REPRO_SERVICE_TOKEN`` (never
    on the command line, where it would be visible in ``ps``), waits
    up to ``ready_timeout`` seconds for the child's ``SERVICE-READY
    host port`` line (a child that dies or hangs first is killed and
    its stderr surfaced in the ``RuntimeError``), and returns a
    :class:`ServiceHandle` with the bound address.

    ``resume_grace``, ``churn_rate``, ``churn_burst`` and
    ``max_pending`` forward the PR 7 hardening knobs when given
    (``None`` keeps the CLI defaults); ``scheduler_mode``,
    ``promote_bytes`` and ``idle_epochs`` likewise forward the
    sampling front-end knobs.
    """
    token_hex = secrets.token_bytes(_TOKEN_LEN).hex()
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["REPRO_SERVICE_TOKEN"] = token_hex
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-m", "repro.service",
           "--host", host, "--port", "0",
           "--racks", str(racks), "--hosts-per-rack", str(hosts_per_rack),
           "--spines", str(spines), "--mode", mode,
           "--gamma", str(gamma), "--threshold", str(update_threshold),
           "--iters-per-cycle", str(iters_per_cycle),
           "--min-cycle", str(min_cycle)]
    for flag, value in (("--scheduler-mode", scheduler_mode),
                        ("--promote-bytes", promote_bytes),
                        ("--idle-epochs", idle_epochs),
                        ("--resume-grace", resume_grace),
                        ("--churn-rate", churn_rate),
                        ("--churn-burst", churn_burst),
                        ("--max-pending", max_pending)):
        if value is not None:
            cmd += [flag, str(value)]
    cmd += list(extra_args)
    process = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True)
    parts = _await_ready_line(process, ready_timeout)
    address = (parts[1], int(parts[2]))
    return ServiceHandle(process, address, token_hex)
