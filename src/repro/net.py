"""Length-prefixed TCP framing shared by the allocator service's ends.

Every frame is :data:`FRAME_HEADER` — ``!II`` (payload length, tag) —
followed by the raw payload.  :func:`send_frame` writes one frame with
a single ``sendmsg`` where it can and *poisons* the connection if a
failure leaves a frame half-written; both ends read frames back with
:class:`~repro.service.wire.FrameBuffer`, fed from nonblocking reads.
:func:`connect_retry` is the one dialer, and :func:`parse_token`
checks the hex auth token a process is handed through its environment
(the raw :data:`_TOKEN_LEN` bytes a connection presents before its
first frame).
"""

from __future__ import annotations

import socket as socketlib
import struct
import time
import weakref

__all__ = ["FRAME_HEADER", "FabricError", "connect_retry", "parse_token",
           "send_frame"]


class FabricError(RuntimeError):
    """A transport-level failure: peer death, abort, or timeout."""


#: ``(payload length, tag)`` in front of every frame.
FRAME_HEADER = struct.Struct("!II")

#: Handshake token length (raw bytes, sent before the first frame).
_TOKEN_LEN = 16

#: Connections poisoned by a partial-frame failure.  Once part of a
#: frame is on the wire and the rest cannot follow, the byte stream is
#: desynchronized: the peer would misparse everything sent later.  The
#: connection object itself stays alive (callers may still be holding
#: it), so membership here makes every subsequent :func:`send_frame`
#: raise :class:`FabricError` instead of silently corrupting frames.
_POISONED: weakref.WeakSet[socketlib.socket] = weakref.WeakSet()


def send_frame(sock: socketlib.socket, tag: int, *parts: bytes) -> None:
    """Write one framed message: ``length+tag`` header, then ``parts``.

    ``parts`` are bytes-like (bytes, memoryview, contiguous ndarray).
    The fast path hands header + parts to ``sendmsg`` (one writev-style
    syscall, no concatenation copy).  A short write resumes from the
    unsent tail — fully-sent views are dropped and the partial one is
    sliced, O(parts) bookkeeping instead of re-flattening the frame —
    and a failure after part of the frame reached the wire *poisons*
    the connection: the stream is desynchronized mid-frame, so every
    later ``send_frame`` on it raises :class:`FabricError`.
    """
    if sock in _POISONED:
        raise FabricError(
            "connection poisoned by an earlier partial-frame failure")
    views = [memoryview(p).cast("B") for p in parts]
    header = FRAME_HEADER.pack(sum(v.nbytes for v in views), tag)
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


def _clamp_buffers(sock: socketlib.socket, sockbuf: int | None) -> None:
    """Apply an explicit ``SO_SNDBUF``/``SO_RCVBUF`` size (testing aid:
    the slow-reader tests shrink buffers so backpressure shows within
    a few frames; the kernel may round the request up to its minimum).

    Also clamps ``TCP_MAXSEG``: loopback's ~64KB MSS dwarfs a
    few-KB receive window, so silly-window-syndrome avoidance would
    never reopen the window and every transfer would crawl along
    200ms persist-timer probes — a timing artifact, not the flow
    control being exercised.  Must run *before* ``connect`` so the
    clamp lands in the SYN."""
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


def connect_retry(address: tuple[str, int], attempts: int = 50,
                  delay: float = 0.1,
                  sockbuf: int | None = None) -> socketlib.socket:
    """``socket.create_connection`` semantics (every ``getaddrinfo``
    candidate across families is tried) with retries, plus the buffer
    clamp applied *before* connect so it lands in the SYN.  The
    service client's first dial and its reconnect path share it: one
    retry/backoff policy, one place the clamp is guaranteed to precede
    ``connect``.
    """
    host, port = address
    last: OSError | None = None
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


def parse_token(value: str | None,
                env_var: str = "REPRO_SERVICE_TOKEN") -> bytes:
    """Decode a hex auth token taken from the environment variable
    ``env_var`` (the one ``python -m repro.service`` reads).

    Fails fast with a message naming the variable: a missing or empty
    value would otherwise decode to ``b""`` and every connection's auth
    check would fail silently (nobody learns why), and a non-hex or
    odd-length value is certainly a copy-paste accident.
    """
    if not value:
        raise SystemExit(
            f"{env_var} is not set (or empty): export the shared "
            "token_hex before starting this process — without it every "
            "connection is silently dropped")
    try:
        return bytes.fromhex(value)
    except ValueError:
        raise SystemExit(
            f"{env_var} is not a valid hex token (got {value!r}): "
            "it must be the shared token_hex, an even-length hex "
            "string") from None
