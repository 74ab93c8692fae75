"""The always-on allocator service: wire schema, churn queue, server.

Three layers, tested bottom-up: the binary codec (round-trips, strict
rejection of skewed/malformed frames), the coalescing churn queue
(batch semantics equal to direct apply_churn), and the live service —
manual-mode determinism against an in-process allocator, auto-mode
pushes, the auth/validation/dead-client drop paths, and a real
two-process run via ``python -m repro.service``.
"""

import socket
import struct
import time

import numpy as np
import pytest

from repro import (FlowtuneAllocator, FlowtuneClient, FlowtuneService,
                   TwoTierClos)
from repro.core.allocator import ChurnQueue
from repro.parallel.fabric import FabricError, _connect_retry, send_frame
from repro.service import ServiceError, WireError, spawn_service
from repro.service import wire
from repro.service.wire import TAG_SERVICE, FrameBuffer


@pytest.fixture
def topo():
    return TwoTierClos(n_racks=2, hosts_per_rack=4, n_spines=2)


def triangle_churn(topo):
    """Three flows sharing links (so rates interact), plus a follow-up
    batch that restarts one and ends another."""
    first = [(0, topo.route(0, 4), 1.0), (1, topo.route(1, 5), 1.0),
             (2, topo.route(0, 5), 2.0)]
    second_starts = [(3, topo.route(2, 6), 1.0), (1, topo.route(1, 6), 1.0)]
    second_ends = [2, 1]
    return first, second_starts, second_ends


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_start_round_trip(self):
        flows = [(7, np.array([1, 2, 3], dtype=np.uint32), 2.5),
                 (2**40, np.array([9], dtype=np.uint32), 1.0)]
        kind, decoded = wire.decode_message(wire.encode_start(flows))
        assert kind == wire.START
        assert len(decoded) == 2
        for (fid, route, weight), (efid, eroute, eweight) in zip(decoded,
                                                                 flows):
            assert fid == efid and weight == eweight
            np.testing.assert_array_equal(route, eroute)

    def test_end_round_trip(self):
        kind, ids = wire.decode_message(wire.encode_end([3, 1, 2**50]))
        assert kind == wire.END
        assert ids == [3, 1, 2**50]

    def test_usage_round_trip(self):
        reports = [(5, 1234.0), (6, 7.5e9)]
        kind, decoded = wire.decode_message(wire.encode_usage(reports))
        assert kind == wire.USAGE
        assert decoded == reports

    def test_rates_round_trip_preserves_float64(self):
        rates = [1.0 / 3.0, 9.9, 1e-17]
        payload = wire.encode_rates(4, 5, [1, 2, 3], rates)
        kind, (base, seq, ids, vals) = wire.decode_message(payload)
        assert kind == wire.RATES and (base, seq) == (4, 5)
        assert ids.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(vals, np.float64(rates))

    def test_snapshot_step_error_round_trip(self):
        kind, (seq, ids, vals) = wire.decode_message(
            wire.encode_snapshot(9, [1], [2.0]))
        assert kind == wire.SNAPSHOT and seq == 9
        assert wire.decode_message(wire.encode_step(17)) == (wire.STEP, 17)
        assert wire.decode_message(wire.encode_error("boom")) == (
            wire.ERROR, "boom")
        for payload, kind in ((wire.encode_hello(), wire.HELLO),
                              (wire.encode_bye(), wire.BYE),
                              (wire.encode_shutdown(), wire.SHUTDOWN),
                              (wire.encode_replay_done(),
                               wire.REPLAY_DONE)):
            assert wire.decode_message(payload) == (kind, None)

    def test_version_skew_rejected(self):
        payload = bytearray(wire.encode_step(1))
        payload[0] = wire.WIRE_VERSION + 1
        with pytest.raises(WireError, match="version skew"):
            wire.decode_message(payload)

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="unknown message kind"):
            wire.decode_message(struct.pack("!BB", wire.WIRE_VERSION, 200))

    def test_truncated_frames_rejected(self):
        for full in (wire.encode_start([(1, [2, 3], 1.0)]),
                     wire.encode_rates(0, 1, [1, 2], [0.5, 0.25]),
                     wire.encode_end([4]), wire.encode_step(3)):
            for cut in range(1, len(full)):
                with pytest.raises(WireError):
                    wire.decode_message(full[:cut])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            wire.decode_message(wire.encode_step(3) + b"\0")

    def test_count_overstatement_rejected(self):
        payload = bytearray(wire.encode_end([1, 2]))
        # Bump the count field without supplying the extra id.
        struct.pack_into("!I", payload, 2, 3)
        with pytest.raises(WireError, match="truncated"):
            wire.decode_message(payload)

    def test_paper_wire_bytes_matches_control_plane(self):
        from repro.control.messages import (FLOWLET_START_BYTES,
                                            batched_wire_bytes)
        assert wire.paper_wire_bytes(wire.START, 5) == batched_wire_bytes(
            [FLOWLET_START_BYTES] * 5)
        assert wire.paper_wire_bytes(wire.HELLO, 5) == 0
        assert wire.paper_wire_bytes(wire.RATES, 0) == 0


class TestFrameBuffer:
    def test_byte_at_a_time_reassembly(self):
        payloads = [wire.encode_hello(), wire.encode_step(4),
                    wire.encode_end([1, 2, 3])]
        stream = b"".join(struct.pack("!II", len(p), TAG_SERVICE) + p
                          for p in payloads)
        buf = FrameBuffer()
        frames = []
        for i in range(len(stream)):
            frames.extend(buf.feed(stream[i:i + 1]))
        assert [p for _, p in frames] == payloads
        assert len(buf) == 0

    def test_oversized_frame_rejected(self):
        buf = FrameBuffer(max_frame=64)
        with pytest.raises(WireError, match="exceeds"):
            buf.feed(struct.pack("!II", 65, TAG_SERVICE))


# ----------------------------------------------------------------------
# the churn queue
# ----------------------------------------------------------------------
class TestChurnQueue:
    def test_start_then_end_vanishes(self):
        q = ChurnQueue()
        q.push_start(1, [0, 1])
        q.push_end(1)
        assert q.drain() == ([], [])
        assert not q

    def test_end_then_start_is_restart(self):
        q = ChurnQueue()
        q.push_end(1)
        q.push_start(1, [2, 3], 1.5)
        starts, ends = q.drain()
        assert ends == [1]
        assert starts == [(1, [2, 3], 1.5)]

    def test_repeated_start_last_route_wins(self):
        q = ChurnQueue()
        q.push_start(1, [0])
        q.push_start(1, [5], 2.0)
        assert q.drain() == ([(1, [5], 2.0)], [])

    def test_plain_end_and_idempotence(self):
        q = ChurnQueue()
        q.push_end(1)
        q.push_end(1)
        assert q.drain() == ([], [1])

    def test_restart_then_end_is_plain_end(self):
        q = ChurnQueue()
        q.push_end(1)
        q.push_start(1, [0])
        q.push_end(1)
        assert q.drain() == ([], [1])

    def test_drain_clears_and_len_tracks(self):
        q = ChurnQueue()
        q.push_start(1, [0])
        q.push_end(2)
        assert len(q) == 2 and bool(q)
        q.drain()
        assert len(q) == 0 and not q

    def test_queue_equals_direct_apply_churn(self, topo):
        """Feeding a churn trace through the queue produces the same
        allocator state as the direct apply_churn calls."""
        first, second_starts, second_ends = triangle_churn(topo)
        direct = FlowtuneAllocator(topo.link_set())
        queued = FlowtuneAllocator(topo.link_set())
        q = ChurnQueue()

        direct.apply_churn(starts=first)
        for fid, route, weight in first:
            q.push_start(fid, route, weight)
        queued.apply_churn(*q.drain())
        np.testing.assert_array_equal(direct.iterate(20).rate_vector,
                                      queued.iterate(20).rate_vector)

        direct.apply_churn(starts=second_starts, ends=second_ends)
        for fid in second_ends:
            q.push_end(fid)
        for fid, route, weight in second_starts:
            q.push_start(fid, route, weight)
        queued.apply_churn(*q.drain())
        res_d = direct.iterate(20)
        res_q = queued.iterate(20)
        assert res_d.rates == res_q.rates


# ----------------------------------------------------------------------
# the live service (in-process)
# ----------------------------------------------------------------------
class TestServiceInProcess:
    def test_manual_mode_equals_in_process_allocator(self, topo):
        """The acceptance bar: same churn trace + same iterate counts
        over the wire converge to the in-process rates exactly (both
        run the identical float pipeline, and the wire carries raw
        float64)."""
        first, second_starts, second_ends = triangle_churn(topo)
        ref = FlowtuneAllocator(topo.link_set())
        with FlowtuneService(topo, mode="manual") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.apply_churn(starts=first)
                snap = cli.step(50)
                ref.apply_churn(starts=first)
                expected = ref.iterate(50).rates
                assert snap.keys() == expected.keys()
                for fid, rate in expected.items():
                    assert snap[fid] == rate

                cli.apply_churn(starts=second_starts, ends=second_ends)
                snap = cli.step(30)
                ref.apply_churn(starts=second_starts, ends=second_ends)
                expected = ref.iterate(30).rates
                assert snap.keys() == expected.keys()
                for fid, rate in expected.items():
                    assert snap[fid] == rate

    def test_auto_mode_pushes_rates(self, topo):
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(7, topo.route(0, 4))
                rates = cli.wait_for_rates([7], timeout=10.0)
                assert rates[7] > 0
                assert svc.stats["paper_bytes_out"] > 0

    def test_two_clients_namespaced_and_updated(self, topo):
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as a, \
                    FlowtuneClient(svc.address, svc.token_hex) as b:
                assert a.client_id != b.client_id
                a.flowlet_start(0, topo.route(0, 4))
                b.flowlet_start(0, topo.route(1, 5))  # same local fid
                ra = a.wait_for_rates([0], timeout=10.0)
                rb = b.wait_for_rates([0], timeout=10.0)
                assert ra[0] > 0 and rb[0] > 0
                assert svc.n_flows == 2

    def test_usage_reports_recorded(self, topo):
        with FlowtuneService(topo, mode="manual") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(3, topo.route(0, 4))
                cli.report_usage([(3, 4096.0)])
                cli.step(1)  # round-trip barrier: usage frame arrived
                assert svc.usage_bytes(cli.client_id, 3) == 4096.0

    def test_duplicate_start_rejected(self, topo):
        with FlowtuneService(topo, mode="manual") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(1, topo.route(0, 4))
                cli.flowlet_start(1, topo.route(1, 5))
                with pytest.raises(ServiceError, match="duplicate"):
                    cli.poll(timeout=10.0)

    def test_unknown_end_rejected(self, topo):
        with FlowtuneService(topo, mode="manual") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_end(99)
                with pytest.raises(ServiceError, match="unknown"):
                    cli.poll(timeout=10.0)

    def test_bad_token_dropped_silently(self, topo):
        with FlowtuneService(topo, mode="manual") as svc:
            with pytest.raises((FabricError, TimeoutError)):
                FlowtuneClient(svc.address, b"\0" * 16, timeout=2.0)

    def test_malformed_frame_drops_connection(self, topo):
        """A frame that fails to decode closes the connection — the
        stream can't be trusted after it."""
        with FlowtuneService(topo, mode="manual") as svc:
            sock = _connect_retry(svc.address)
            try:
                sock.sendall(bytes.fromhex(svc.token_hex))
                send_frame(sock, TAG_SERVICE, b"\xff\xff garbage")
                sock.settimeout(10.0)
                # Server sends best-effort ERROR then closes; either
                # way recv eventually reports EOF.
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if sock.recv(4096) == b"":
                        break
                else:  # pragma: no cover
                    pytest.fail("connection not closed")
            finally:
                sock.close()

    def test_wrong_wire_version_rejected(self, topo):
        with FlowtuneService(topo, mode="manual") as svc:
            sock = _connect_retry(svc.address)
            try:
                sock.sendall(bytes.fromhex(svc.token_hex))
                skewed = bytearray(wire.encode_hello())
                skewed[0] = wire.WIRE_VERSION + 1
                send_frame(sock, TAG_SERVICE, bytes(skewed))
                sock.settimeout(10.0)
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if sock.recv(4096) == b"":
                        break
                else:  # pragma: no cover
                    pytest.fail("connection not closed")
            finally:
                sock.close()

    def test_dead_client_flows_are_ended(self, topo):
        """Hard-closing a client's socket ends its flows (the
        poisoned/dead-connection path), so capacity returns to the
        survivors."""
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as survivor:
                survivor.flowlet_start(0, topo.route(0, 4))
                victim = FlowtuneClient(svc.address, svc.token_hex)
                victim.flowlet_start(0, topo.route(0, 4))
                survivor.wait_for_rates([0], timeout=10.0)
                victim.wait_for_rates([0], timeout=10.0)
                assert svc.n_flows == 2
                # Kill without BYE: RST/EOF is all the server sees.
                victim._sock.close()
                victim._closed = True
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline and svc.n_flows != 1:
                    survivor.poll(timeout=0.05)
                assert svc.n_flows == 1
                # The survivor is re-notified of the freed capacity.
                rates = survivor.wait_for_rates([0], timeout=10.0)
                assert rates[0] > 5.0

    def test_sequence_skew_detected_by_client(self, topo):
        """Dropping a delta frame breaks the chain — the client must
        refuse to apply later deltas rather than compound the gap."""
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(0, topo.route(0, 4))
                cli.wait_for_rates([0], timeout=10.0)
                cli._last_seq += 7  # simulate a missed RATES frame
                cli.flowlet_start(1, topo.route(1, 5))
                with pytest.raises(WireError, match="sequence skew"):
                    cli.poll(timeout=10.0)

    def test_non_service_tag_rejected(self, topo):
        with FlowtuneService(topo, mode="manual") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                send_frame(cli._sock, 1, b"\x80\x04N.")  # TAG_CTRL pickle
                deadline = time.monotonic() + 10.0
                with pytest.raises((FabricError, ServiceError)):
                    while time.monotonic() < deadline:
                        cli.poll(timeout=0.1)
                    raise TimeoutError  # pragma: no cover

    def test_shutdown_frame_stops_service(self, topo):
        svc = FlowtuneService(topo, mode="manual")
        svc.start()
        with FlowtuneClient(svc.address, svc.token_hex) as cli:
            cli.shutdown_service()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and svc._thread.is_alive():
            time.sleep(0.01)
        assert not svc._thread.is_alive()
        svc.close()


# ----------------------------------------------------------------------
# two-process (the deployment model, end to end)
# ----------------------------------------------------------------------
class TestPushUpdatesGrouping:
    """``_push_updates`` on hand-built clients: the frames each client
    gets are those of the per-update dict-of-lists grouping it
    replaced, byte for byte."""

    @staticmethod
    def attach(svc, client_id, with_client=True):
        from repro.service.server import _Client, _Session
        session = _Session(client_id, nonce=0)
        svc._sessions[client_id] = session
        if not with_client:      # a session in its resume-grace window
            return session, None
        ours, theirs = socket.socketpair()
        ours.setblocking(False)
        theirs.setblocking(False)
        client = _Client(ours, None)
        client.authed = client.helloed = True
        client.session, session.client = session, client
        svc._clients[ours] = client
        return session, theirs

    @staticmethod
    def reference_frames(updates, seqs):
        per_client = {}
        for (client_id, fid), rate in updates:
            per_client.setdefault(client_id, ([], []))
            per_client[client_id][0].append(fid)
            per_client[client_id][1].append(rate)
        return {client_id: wire.encode_rates(seqs[client_id],
                                             seqs[client_id] + 1,
                                             fids, rates)
                for client_id, (fids, rates) in per_client.items()}

    @staticmethod
    def received(sock):
        try:
            data = sock.recv(1 << 16)
        except BlockingIOError:
            return []
        return [payload for _, payload in FrameBuffer().feed(data)]

    def test_interleaved_clients_skip_and_drop(self, topo):
        from repro.core.allocator import AllocationResult
        rng = np.random.default_rng(5)
        owners = rng.permutation(np.repeat([1, 2, 3, 4, 5], 7))
        ids = [(int(owner), int(fid)) for owner, fid in
               zip(owners, rng.integers(0, 2**63, len(owners)))]
        ids[3] = (ids[3][0], 2**64 - 1)     # the wire's largest flow id
        rates = rng.random(len(ids)) * 10
        picked = rng.permutation(len(ids))[:28]
        result = AllocationResult(flow_ids=ids, rate_vector=rates,
                                  update_indices=picked)
        svc = FlowtuneService(topo, mode="manual")
        try:
            sessions, peers = {}, {}
            for client_id in (1, 2, 3, 4):
                sessions[client_id], peers[client_id] = \
                    self.attach(svc, client_id)
            sessions[5], _ = self.attach(svc, 5, with_client=False)
            for client_id, session in sessions.items():
                session.seq = 10 * client_id
            seqs = {cid: session.seq for cid, session in sessions.items()}
            want = self.reference_frames(result.updates, seqs)
            assert set(want) == {1, 2, 3, 4, 5}
            skipped = sessions[2].client
            dropped = sessions[3].client
            peers[3].close()     # client 3's own send fails mid-push
            svc._push_updates(result, skip={skipped})

            assert self.received(peers[1]) == [want[1]]
            assert self.received(peers[4]) == [want[4]]
            assert self.received(peers[2]) == []
            assert dropped.sock not in svc._clients
            assert sessions[3].client is None
            assert sessions[3].disconnected_at is not None
            assert svc.stats["clients_dropped"] == 1
            # chains advance only where a frame was rendered
            assert {cid: s.seq - seqs[cid] for cid, s in sessions.items()} \
                == {1: 1, 2: 0, 3: 1, 4: 1, 5: 0}
            assert svc.stats["paper_bytes_out"] == sum(
                wire.paper_wire_bytes(wire.RATES, int(np.sum(
                    owners[picked] == client_id)))
                for client_id in (1, 3, 4))
            assert svc.stats["frames_out"] == 3
        finally:
            svc.close()
            for peer in peers.values():
                peer.close()


class TestTwoProcess:
    def test_two_process_smoke(self, topo):
        """Spawn `python -m repro.service`, converge over the real
        socket, match the in-process allocator, shut down cleanly."""
        first, second_starts, second_ends = triangle_churn(topo)
        ref = FlowtuneAllocator(topo.link_set())
        with spawn_service(racks=2, hosts_per_rack=4, spines=2,
                           mode="manual") as handle:
            with FlowtuneClient(handle.address, handle.token_hex) as cli:
                cli.apply_churn(starts=first)
                snap = cli.step(40)
                ref.apply_churn(starts=first)
                expected = ref.iterate(40).rates
                assert snap.keys() == expected.keys()
                for fid, rate in expected.items():
                    assert snap[fid] == rate
                cli.shutdown_service()
            handle.process.wait(timeout=10.0)
            assert handle.process.returncode == 0
