"""Binary wire schema for the always-on allocator service.

One frame = the length-prefixed ``!II`` framing of :mod:`repro.net`
carrying tag :data:`TAG_SERVICE`, whose
payload is a 2-byte ``(version, kind)`` header followed by a
fixed-layout body.  Nothing here is pickled: every field is a struct
or a big-endian numpy column, so a hostile or version-skewed peer can
at worst produce :class:`WireError`, never code execution.

The message kinds mirror the control-plane schema of
:mod:`repro.control.messages` (flowlet start / end / usage, rate
update); :func:`paper_wire_bytes` maps a batch of them onto the
paper's §6.2 byte accounting so the service's traffic counters stay
comparable with the fluid-overhead experiments.

Rate updates are delta-encoded: each ``RATES`` frame carries only the
flows whose rate crossed the §6.4 threshold, chained by
``(base_seq, seq)`` —
the receiver rejects a frame whose ``base_seq`` does not match the
last sequence it applied (version-skew rejection), and a ``SNAPSHOT``
frame restarts the chain from scratch.

Reconnection (wire version 2): ``WELCOME`` carries a per-session
``resume_nonce``; a client whose connection died presents ``RESUME
(client_id, resume_nonce, last_applied_seq)`` instead of ``HELLO`` and
the server re-binds the surviving flow namespace (kept alive through a
grace window), replays are reconciled idempotently, and the rate chain
restarts from a fresh ``SNAPSHOT``.  The client ends its replay burst
with ``REPLAY_DONE``, which closes the reconcile window — duplicate
churn after it is a protocol violation again, so a resumed connection
does not mask real client bugs forever.  ``BUSY`` is the ingest
backpressure credit reply: ``(retry_after, credit)`` tells a client
that outran its churn token bucket when tokens will be available
again (the server also stops reading the connection until then, so
even a client that ignores BUSY is throttled by TCP flow control).
"""

from __future__ import annotations

import struct
from collections.abc import Iterable
from typing import Any

import numpy as np
import numpy.typing as npt

from ..control.messages import PAYLOAD_BYTES, MessageType, batched_wire_bytes
from ..net import FRAME_HEADER

__all__ = [
    "WIRE_VERSION", "TAG_SERVICE", "WireError", "ServiceError",
    "HELLO", "WELCOME", "START", "END", "USAGE", "RATES", "STEP",
    "SNAPSHOT", "ERROR", "BYE", "SHUTDOWN", "RESUME", "BUSY",
    "REPLAY_DONE",
    "encode_hello", "encode_welcome", "encode_start", "encode_end",
    "encode_usage", "encode_rates", "encode_step", "encode_snapshot",
    "encode_error", "encode_bye", "encode_shutdown", "encode_resume",
    "encode_busy", "encode_replay_done", "decode_message",
    "FrameBuffer", "paper_wire_bytes",
]

#: Bump on any incompatible layout change; peers reject mismatches.
#: v2: WELCOME grew ``resume_nonce``; RESUME, BUSY and REPLAY_DONE
#: kinds added.
WIRE_VERSION = 2

#: Frame tag for service payloads; both ends drop a connection that
#: sends any other tag.
TAG_SERVICE = 3

#: Sanity bound on one frame's payload (a 1M-flow START batch is
#: ~46 MB; anything past this is a desynchronized or hostile stream).
MAX_FRAME_BYTES = 1 << 27


class WireError(RuntimeError):
    """Malformed, truncated, or version-skewed service frame."""


class ServiceError(RuntimeError):
    """An error the service reported over the wire (ERROR frame)."""


# message kinds ---------------------------------------------------------
HELLO = 1       # client -> server: version handshake
WELCOME = 2     # server -> client: client_id, n_links
START = 3       # client -> server: flowlet starts (id, weight, route)
END = 4         # client -> server: flowlet ends (ids)
USAGE = 5       # client -> server: cumulative bytes per flow
RATES = 6       # server -> client: delta rate updates (seq-chained)
STEP = 7        # client -> server: run exactly n iterations (manual mode)
SNAPSHOT = 8    # server -> client: full rate state, resets the chain
ERROR = 9       # server -> client: fatal per-connection error (utf-8)
BYE = 10        # client -> server: graceful disconnect
SHUTDOWN = 11   # client -> server: stop the whole service
RESUME = 12     # client -> server: re-bind a session after a drop
BUSY = 13       # server -> client: churn backpressure credit reply
REPLAY_DONE = 14  # client -> server: journal replay burst complete

_KNOWN_KINDS = frozenset((HELLO, WELCOME, START, END, USAGE, RATES, STEP,
                          SNAPSHOT, ERROR, BYE, SHUTDOWN, RESUME, BUSY,
                          REPLAY_DONE))

_HDR = struct.Struct("!BB")           # version, kind
_U32 = struct.Struct("!I")
_U32x2 = struct.Struct("!II")
_U32x3 = struct.Struct("!III")
_FLOW = struct.Struct("!QdH")         # flow_id, weight, route_len
_USAGE_ITEM = struct.Struct("!Qd")    # flow_id, cumulative bytes
_WELCOME = struct.Struct("!IIQ")      # client_id, n_links, resume_nonce
_RESUME = struct.Struct("!IQI")       # client_id, nonce, last_applied_seq
_BUSY = struct.Struct("!dI")          # retry_after seconds, credit

_ID_DTYPE = np.dtype(">u8")
_RATE_DTYPE = np.dtype(">f8")
_ROUTE_DTYPE = np.dtype(">u4")


# encoding --------------------------------------------------------------
def _hdr(kind: int) -> bytes:
    return _HDR.pack(WIRE_VERSION, kind)


def encode_hello() -> bytes:
    return _hdr(HELLO)


def encode_welcome(client_id: int, n_links: int,
                   resume_nonce: int) -> bytes:
    """``resume_nonce`` authenticates later RESUME attempts for this
    session (a random u64; knowing the client_id alone must not let a
    stranger adopt the session's flows)."""
    return _hdr(WELCOME) + _WELCOME.pack(client_id, n_links, resume_nonce)


def encode_resume(client_id: int, resume_nonce: int,
                  last_applied_seq: int) -> bytes:
    """Re-bind ``client_id``'s session after a dropped connection."""
    return _hdr(RESUME) + _RESUME.pack(client_id, resume_nonce,
                                       last_applied_seq)


def encode_busy(retry_after: float, credit: int) -> bytes:
    """Backpressure credit reply: churn tokens available again in
    ``retry_after`` seconds, at which point ``credit`` events fit.

    Reach: safety — the backpressure reply to a client over its churn budget.
    """
    return _hdr(BUSY) + _BUSY.pack(float(retry_after), int(credit))


def encode_start(
        flows: Iterable[tuple[int, npt.ArrayLike, float]]) -> bytes:
    """``flows``: iterable of ``(flow_id, route, weight)``."""
    parts = [_hdr(START), b"\0\0\0\0"]
    count = 0
    for flow_id, route, weight in flows:
        route = np.ascontiguousarray(route, dtype=_ROUTE_DTYPE)
        parts.append(_FLOW.pack(flow_id, weight, len(route)))
        parts.append(route.tobytes())
        count += 1
    parts[1] = _U32.pack(count)
    return b"".join(parts)


def encode_end(flow_ids: Iterable[int]) -> bytes:
    ids = np.ascontiguousarray(list(flow_ids), dtype=_ID_DTYPE)
    return _hdr(END) + _U32.pack(len(ids)) + ids.tobytes()


def encode_usage(reports: Iterable[tuple[int, float]]) -> bytes:
    """``reports``: iterable of ``(flow_id, cumulative_bytes)``.

    Reach: api — the wire protocol's USAGE kind.
    """
    items = list(reports)
    parts = [_hdr(USAGE), _U32.pack(len(items))]
    parts += [_USAGE_ITEM.pack(fid, float(n)) for fid, n in items]
    return b"".join(parts)


def _ids_rates(flow_ids: npt.ArrayLike, rates: npt.ArrayLike,
               ) -> tuple[npt.NDArray[Any], npt.NDArray[Any]]:
    ids = np.ascontiguousarray(flow_ids, dtype=_ID_DTYPE)
    vals = np.ascontiguousarray(rates, dtype=_RATE_DTYPE)
    if len(ids) != len(vals):
        raise ValueError("flow_ids and rates lengths differ")
    return ids, vals


def encode_rates(base_seq: int, seq: int, flow_ids: npt.ArrayLike,
                 rates: npt.ArrayLike) -> bytes:
    """Delta rate-update frame: valid only on top of ``base_seq``."""
    ids, vals = _ids_rates(flow_ids, rates)
    return (_hdr(RATES) + _U32x3.pack(base_seq, seq, len(ids))
            + ids.tobytes() + vals.tobytes())


def encode_step(n_iters: int) -> bytes:
    return _hdr(STEP) + _U32.pack(n_iters)


def encode_snapshot(seq: int, flow_ids: npt.ArrayLike,
                    rates: npt.ArrayLike) -> bytes:
    ids, vals = _ids_rates(flow_ids, rates)
    return (_hdr(SNAPSHOT) + _U32x2.pack(seq, len(ids))
            + ids.tobytes() + vals.tobytes())


def encode_error(message: object) -> bytes:
    """Reach: safety — the error reply that blames one client."""
    return _hdr(ERROR) + str(message).encode("utf-8", "replace")


def encode_bye() -> bytes:
    return _hdr(BYE)


def encode_shutdown() -> bytes:
    return _hdr(SHUTDOWN)


def encode_replay_done() -> bytes:
    """Close a resumed connection's reconcile window: everything
    after this frame is live traffic, not journal replay."""
    return _hdr(REPLAY_DONE)


# decoding --------------------------------------------------------------
def _need(payload: bytes, offset: int, n: int, what: str) -> None:
    if len(payload) - offset < n:
        raise WireError(f"truncated {what}: need {n} bytes at offset "
                        f"{offset}, frame has {len(payload)}")


def _exact(payload: bytes, offset: int, what: str) -> None:
    if len(payload) != offset:
        raise WireError(f"{what} frame has {len(payload) - offset} "
                        "trailing bytes")


def _read_array(payload: bytes, offset: int, dtype: np.dtype[Any],
                count: int, what: str) -> tuple[npt.NDArray[Any], int]:
    n = dtype.itemsize * count
    _need(payload, offset, n, what)
    arr = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
    return arr.astype(dtype.newbyteorder("=")), offset + n


def decode_message(payload: bytes | bytearray | memoryview,
                   ) -> tuple[int, Any]:
    """Parse one TAG_SERVICE payload into ``(kind, body)``.

    Raises :class:`WireError` on version skew, unknown kind, or any
    length inconsistency — the connection should be dropped, since a
    malformed frame means the stream can no longer be trusted.
    """
    payload = bytes(payload)
    _need(payload, 0, _HDR.size, "message header")
    version, kind = _HDR.unpack_from(payload)
    if version != WIRE_VERSION:
        raise WireError(f"wire version skew: peer speaks {version}, "
                        f"this build speaks {WIRE_VERSION}")
    if kind not in _KNOWN_KINDS:
        raise WireError(f"unknown message kind {kind}")
    off = _HDR.size

    if kind in (HELLO, BYE, SHUTDOWN, REPLAY_DONE):
        _exact(payload, off, "empty-body")
        return kind, None

    if kind == WELCOME:
        _need(payload, off, _WELCOME.size, "WELCOME body")
        client_id, n_links, nonce = _WELCOME.unpack_from(payload, off)
        _exact(payload, off + _WELCOME.size, "WELCOME")
        return kind, (client_id, n_links, nonce)

    if kind == RESUME:
        _need(payload, off, _RESUME.size, "RESUME body")
        client_id, nonce, last_seq = _RESUME.unpack_from(payload, off)
        _exact(payload, off + _RESUME.size, "RESUME")
        return kind, (client_id, nonce, last_seq)

    if kind == BUSY:
        _need(payload, off, _BUSY.size, "BUSY body")
        retry_after, credit = _BUSY.unpack_from(payload, off)
        _exact(payload, off + _BUSY.size, "BUSY")
        return kind, (retry_after, credit)

    if kind == START:
        _need(payload, off, _U32.size, "START count")
        (count,) = _U32.unpack_from(payload, off)
        off += _U32.size
        flows = []
        for i in range(count):
            _need(payload, off, _FLOW.size, f"START flow {i}")
            flow_id, weight, route_len = _FLOW.unpack_from(payload, off)
            off += _FLOW.size
            route, off = _read_array(payload, off, _ROUTE_DTYPE,
                                     route_len, f"START route {i}")
            flows.append((flow_id, route, weight))
        _exact(payload, off, "START")
        return kind, flows

    if kind == END:
        _need(payload, off, _U32.size, "END count")
        (count,) = _U32.unpack_from(payload, off)
        ids, off = _read_array(payload, off + _U32.size, _ID_DTYPE,
                               count, "END ids")
        _exact(payload, off, "END")
        return kind, ids.tolist()

    if kind == USAGE:
        _need(payload, off, _U32.size, "USAGE count")
        (count,) = _U32.unpack_from(payload, off)
        off += _U32.size
        reports = []
        for i in range(count):
            _need(payload, off, _USAGE_ITEM.size, f"USAGE item {i}")
            reports.append(_USAGE_ITEM.unpack_from(payload, off))
            off += _USAGE_ITEM.size
        _exact(payload, off, "USAGE")
        return kind, reports

    if kind == RATES:
        _need(payload, off, _U32x3.size, "RATES header")
        base_seq, seq, count = _U32x3.unpack_from(payload, off)
        off += _U32x3.size
        ids, off = _read_array(payload, off, _ID_DTYPE, count, "RATES ids")
        vals, off = _read_array(payload, off, _RATE_DTYPE, count,
                                "RATES rates")
        _exact(payload, off, "RATES")
        return kind, (base_seq, seq, ids, vals)

    if kind == STEP:
        _need(payload, off, _U32.size, "STEP body")
        (n_iters,) = _U32.unpack_from(payload, off)
        _exact(payload, off + _U32.size, "STEP")
        return kind, n_iters

    if kind == SNAPSHOT:
        _need(payload, off, _U32x2.size, "SNAPSHOT header")
        seq, count = _U32x2.unpack_from(payload, off)
        off += _U32x2.size
        ids, off = _read_array(payload, off, _ID_DTYPE, count,
                               "SNAPSHOT ids")
        vals, off = _read_array(payload, off, _RATE_DTYPE, count,
                                "SNAPSHOT rates")
        _exact(payload, off, "SNAPSHOT")
        return kind, (seq, ids, vals)

    # kind == ERROR
    return kind, payload[off:].decode("utf-8", "replace")


# incremental framing ---------------------------------------------------
class FrameBuffer:
    """Incremental reassembly of a :mod:`repro.net`-framed stream.

    The one frame reader: the service's selectors loop and the client
    feed whatever ``recv`` returned into this buffer and only act on
    *complete* frames, so a slow peer can never corrupt framing.
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self._buf = bytearray()
        self._max = max_frame

    def feed(self, data: bytes | bytearray) -> list[tuple[int, bytes]]:
        """Append ``data``; return the list of complete ``(tag,
        payload)`` frames it unlocked (possibly empty)."""
        self._buf += data
        frames: list[tuple[int, bytes]] = []
        while len(self._buf) >= FRAME_HEADER.size:
            length, tag = FRAME_HEADER.unpack_from(self._buf)
            if length > self._max:
                raise WireError(f"frame of {length} bytes exceeds the "
                                f"{self._max}-byte bound (stream "
                                "desynchronized?)")
            if len(self._buf) < FRAME_HEADER.size + length:
                break
            payload = bytes(self._buf[FRAME_HEADER.size:
                                      FRAME_HEADER.size + length])
            del self._buf[:FRAME_HEADER.size + length]
            frames.append((tag, payload))
        return frames

    def __len__(self) -> int:
        """Reach: invariant — tests check a reader consumed every byte."""
        return len(self._buf)


# paper-equivalent byte accounting --------------------------------------
_KIND_TO_MESSAGE = {
    START: MessageType.FLOWLET_START,
    END: MessageType.FLOWLET_END,
    USAGE: MessageType.FLOWLET_USAGE,
    RATES: MessageType.RATE_UPDATE,
    SNAPSHOT: MessageType.RATE_UPDATE,
}


def paper_wire_bytes(kind: int, count: int) -> int:
    """§6.2 wire bytes for a batch of ``count`` messages of ``kind``.

    Batched into one TCP segment, exactly as
    :func:`repro.control.messages.batched_wire_bytes` accounts the
    fluid control plane — so the service's traffic counters are
    directly comparable with figures 5-7.  Kinds outside the paper's
    schema (handshake, errors) cost nothing here.
    """
    mt = _KIND_TO_MESSAGE.get(kind)
    if mt is None or count == 0:
        return 0
    return batched_wire_bytes([PAYLOAD_BYTES[mt]] * count)
