"""``repro.net``: the length-prefixed framing, its partial-write
poisoning, and the auth-token check of ``python -m repro.service``."""

import os
import socket as socketlib
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.net import (FRAME_HEADER, FabricError, connect_retry,
                       parse_token, send_frame)
from repro.service.wire import TAG_SERVICE, FrameBuffer

TAG_DATA = 2  # any tag: the framing layer does not interpret it


def read_frames(sock, n=1):
    """``n`` frames off ``sock`` through the service's one reader."""
    buffer, frames = FrameBuffer(), []
    while len(frames) < n:
        data = sock.recv(1 << 16)
        assert data, "peer closed mid-frame"
        frames += buffer.feed(data)
    assert len(frames) == n and len(buffer) == 0
    return frames


class TestFraming:
    def test_frame_roundtrip(self):
        a, b = socketlib.socketpair()
        try:
            payload = np.arange(7, dtype=np.float64).tobytes()
            send_frame(a, TAG_DATA, payload)
            [(tag, received)] = read_frames(b)
            assert tag == TAG_DATA
            np.testing.assert_array_equal(
                np.frombuffer(received, dtype=np.float64), np.arange(7))
        finally:
            a.close()
            b.close()

    def test_empty_payload_roundtrip(self):
        a, b = socketlib.socketpair()
        try:
            send_frame(a, TAG_DATA)
            assert read_frames(b) == [(TAG_DATA, b"")]
        finally:
            a.close()
            b.close()

    def test_parts_arrive_as_one_payload(self):
        a, b = socketlib.socketpair()
        try:
            ids = np.arange(3, dtype=np.int64)
            rates = np.array([1.5, 2.5, 3.5])
            send_frame(a, TAG_DATA, b"hdr", ids, memoryview(rates))
            [(_, received)] = read_frames(b)
            assert received == b"hdr" + ids.tobytes() + rates.tobytes()
        finally:
            a.close()
            b.close()

    def test_back_to_back_frames_keep_their_boundaries(self):
        a, b = socketlib.socketpair()
        try:
            for i in range(5):
                send_frame(a, i, bytes([i]) * i)
            assert read_frames(b, 5) == [(i, bytes([i]) * i)
                                         for i in range(5)]
        finally:
            a.close()
            b.close()

    def test_frame_dripped_byte_by_byte_is_reassembled(self):
        """The reader reassembles short reads, header included."""
        a, b = socketlib.socketpair()
        payload = b"0123456789"
        wire = FRAME_HEADER.pack(len(payload), TAG_DATA) + payload

        def drip():
            for i in range(len(wire)):
                a.sendall(wire[i:i + 1])
                time.sleep(0.002)

        writer = threading.Thread(target=drip)
        try:
            writer.start()
            assert read_frames(b) == [(TAG_DATA, payload)]
        finally:
            writer.join(10.0)
            a.close()
            b.close()

    def test_payload_larger_than_the_socket_buffers(self):
        a, b = socketlib.socketpair()
        payload = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        writer = threading.Thread(target=send_frame,
                                  args=(a, TAG_DATA, payload))
        try:
            writer.start()
            [(_, received)] = read_frames(b)
            np.testing.assert_array_equal(
                np.frombuffer(received, dtype=np.float64), payload)
        finally:
            writer.join(10.0)
            a.close()
            b.close()


class TestOneFrameFormat:
    def test_frame_buffer_reassembles_send_frame_output(self):
        """The service's incremental reader parses what the blocking
        writer produces, split at any byte."""
        sock = _ShortWriteSock(chunk=5)
        send_frame(sock, TAG_SERVICE, b"first")
        send_frame(sock, TAG_SERVICE, b"second frame")
        frames = []
        buffer = FrameBuffer()
        for i in range(0, len(sock.sent), 3):
            frames.extend(buffer.feed(bytes(sock.sent[i:i + 3])))
        assert frames == [(TAG_SERVICE, b"first"),
                          (TAG_SERVICE, b"second frame")]
        assert len(buffer) == 0

    def test_service_modules_share_the_one_header(self):
        from repro.service import server, wire
        assert wire.FRAME_HEADER is FRAME_HEADER
        assert server.FRAME_HEADER is FRAME_HEADER

    def test_fabric_error_is_the_package_level_class(self):
        import repro
        assert repro.FabricError is FabricError
        assert issubclass(FabricError, RuntimeError)


class TestConnectRetry:
    def test_connects_with_nagle_disabled(self):
        with socketlib.create_server(("127.0.0.1", 0)) as listener:
            sock = connect_retry(listener.getsockname(), attempts=1)
            try:
                peer, _ = listener.accept()
                peer.close()
                assert sock.getsockopt(socketlib.IPPROTO_TCP,
                                       socketlib.TCP_NODELAY)
                assert sock.gettimeout() is None
            finally:
                sock.close()

    def test_unreachable_address_raises_after_the_attempts(self):
        # A bound socket that never listens refuses every connection.
        with socketlib.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            started = time.monotonic()
            with pytest.raises(FabricError, match="cannot reach"):
                connect_retry(closed.getsockname(), attempts=3, delay=0.01)
            assert time.monotonic() - started < 5.0

    def test_retries_until_a_late_listener_appears(self):
        listener = socketlib.socket()
        listener.bind(("127.0.0.1", 0))
        timer = threading.Timer(0.2, listener.listen)
        try:
            timer.start()
            sock = connect_retry(listener.getsockname(), attempts=100,
                                 delay=0.02)
            sock.close()
        finally:
            timer.join(10.0)
            listener.close()

    def test_sockbuf_clamp_is_applied(self):
        with socketlib.create_server(("127.0.0.1", 0)) as listener:
            default = connect_retry(listener.getsockname(), attempts=1)
            clamped = connect_retry(listener.getsockname(), attempts=1,
                                    sockbuf=4096)
            try:
                def rcvbuf(s):
                    return s.getsockopt(socketlib.SOL_SOCKET,
                                        socketlib.SO_RCVBUF)
                # The kernel may double or round up the request, never
                # to the default size.
                assert rcvbuf(clamped) < rcvbuf(default)
            finally:
                default.close()
                clamped.close()


class _ShortWriteSock:
    """``sendmsg`` stub accepting ``chunk`` bytes per call; can fail
    after N calls.  Records every byte accepted, so tests can assert
    the partial-resume logic reassembles the exact frame."""

    def __init__(self, chunk, fail_after=None, error=TimeoutError):
        self.chunk = chunk
        self.fail_after = fail_after
        self.error = error
        self.calls = 0
        self.sent = bytearray()

    def sendmsg(self, buffers):
        self.calls += 1
        if self.fail_after is not None and self.calls > self.fail_after:
            raise self.error("stub failure")
        taken = 0
        for view in buffers:
            take = min(len(view), self.chunk - taken)
            self.sent += bytes(view[:take])
            taken += take
            if taken == self.chunk:
                break
        return taken


class TestSendFramePartialWrites:
    def test_short_writes_resume_from_the_unsent_tail(self):
        """A drip-feeding socket still gets the byte-exact frame: the
        fallback drops sent views and slices the partial one instead
        of re-flattening (and re-sending) the whole frame."""
        payload = np.arange(100, dtype=np.float64)
        sock = _ShortWriteSock(chunk=7)
        send_frame(sock, TAG_DATA, payload)
        from repro.net import FRAME_HEADER as _HEADER
        expected = _HEADER.pack(payload.nbytes, TAG_DATA) + payload.tobytes()
        assert bytes(sock.sent) == expected
        assert sock.calls == -(-len(expected) // 7)  # ceil: no resends

    def test_partial_frame_failure_poisons_the_connection(self):
        """A timeout after part of the frame hit the wire leaves the
        stream desynchronized — every later framed send must raise
        FabricError instead of corrupting the peer's stream."""
        sock = _ShortWriteSock(chunk=7, fail_after=2)
        with pytest.raises(TimeoutError):
            send_frame(sock, TAG_DATA, np.arange(100, dtype=np.float64))
        with pytest.raises(FabricError, match="poisoned"):
            send_frame(sock, TAG_DATA, b"anything")

    def test_clean_failure_does_not_poison(self):
        """If nothing reached the wire the stream is still framed —
        the connection stays usable (e.g. a transient ENOBUFS)."""
        sock = _ShortWriteSock(chunk=7, fail_after=0,
                               error=BrokenPipeError)
        with pytest.raises(FabricError):
            send_frame(sock, TAG_DATA, b"payload")
        sock.fail_after = None
        send_frame(sock, TAG_DATA, b"payload")  # not poisoned
        assert bytes(sock.sent).endswith(b"payload")


class TestServiceTokenValidation:
    """A bad $REPRO_SERVICE_TOKEN must fail fast and loudly — not
    decode to b"" and get silently dropped by every peer's auth."""

    @staticmethod
    def _run_service(token):
        env = dict(os.environ)
        env.pop("REPRO_SERVICE_TOKEN", None)
        if token is not None:
            env["REPRO_SERVICE_TOKEN"] = token
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("token", [None, "", "abc", "not-hex!"])
    def test_bad_token_fails_fast_naming_the_env_var(self, token):
        result = self._run_service(token)
        assert result.returncode != 0
        assert "REPRO_SERVICE_TOKEN" in result.stderr

    def test_parse_token_accepts_valid_hex(self):
        assert parse_token("00ff" * 8) == bytes.fromhex("00ff" * 8)

    def test_parse_token_accepts_upper_case_hex(self):
        assert parse_token("ABCDEF01") == bytes.fromhex("abcdef01")

    def test_parse_token_names_the_given_env_var(self):
        with pytest.raises(SystemExit, match="MY_TOKEN"):
            parse_token("xyz", env_var="MY_TOKEN")
