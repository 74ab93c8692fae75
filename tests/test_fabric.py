"""The coordination fabric itself: barrier, framing, costs, teardown.

The cross-backend equivalence suite (``test_process_backend.py``)
proves both fabrics reproduce the simulated engine's floats; this file
tests the fabric *mechanisms* — the sense-reversing barrier's phase
discipline under adversarial scheduling, the TCP framing layer, the
per-fabric step-cost model, and the resource-teardown guarantees
(no leaked ``/dev/shm`` segments or listening ports, even when a
worker dies mid-run).
"""

import multiprocessing
import os
import socket as socketlib
import time

import numpy as np
import pytest

from repro.parallel import (FABRIC_COSTS, FabricError, LocalCluster,
                            MulticoreNedEngine, SenseReversingBarrier,
                            SharedArena, fabric_iteration_us,
                            measure_barrier_rate)
from repro.parallel.cost_model import BenchConfig
from repro.parallel.fabric import TAG_DATA, recv_frame, send_frame
from repro.topology import TwoTierClos

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fabrics need the fork start method")


def shm_names():
    try:
        return {name for name in os.listdir("/dev/shm")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def clos_for_blocks(n_blocks, racks_per_block=2, hosts_per_rack=4):
    return TwoTierClos(n_racks=n_blocks * racks_per_block,
                       hosts_per_rack=hosts_per_rack, n_spines=2)


def random_starts(topology, rng, flow_ids):
    starts = []
    for flow_id in flow_ids:
        src = int(rng.integers(topology.n_hosts))
        dst = int(rng.integers(topology.n_hosts - 1))
        if dst >= src:
            dst += 1
        starts.append((flow_id, src, dst))
    return starts


# ----------------------------------------------------------------------
# the sense-reversing barrier
# ----------------------------------------------------------------------
def _skew_worker(barrier, rounds, seed, violations, start):
    rng = np.random.default_rng(seed)
    start.wait()
    for t in range(1, rounds + 1):
        time.sleep(float(rng.uniform(0.0, 0.002)))
        barrier.wait()
        snapshot = barrier.peer_phases()
        # After completing phase t: every peer has entered t, and no
        # peer can have passed t + 1 (that would need *us* at t + 1).
        if snapshot.min() < t or snapshot.max() > t + 1:
            violations[barrier._id] = 1
            return


class TestSenseReversingBarrier:
    @pytest.mark.parametrize("mode", ["spin", "block"])
    def test_no_step_skew_under_random_delays(self, mode):
        """Adversarial scheduling: randomized per-worker delays must
        never let a worker observe a peer two phases ahead."""
        ctx = multiprocessing.get_context("fork")
        n_workers, rounds = 4, 150
        arena = SharedArena()
        try:
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, ctx, n_workers)
            violations = arena.zeros("violations", (n_workers,), np.int64)
            parent = SenseReversingBarrier(phases, arrive, gates, 0,
                                           n_workers, mode=mode,
                                           timeout=120.0)
            start = ctx.Event()
            procs = [ctx.Process(
                target=_skew_worker,
                args=(parent.for_worker(w), rounds, w, violations, start),
                daemon=True) for w in range(n_workers)]
            for p in procs:
                p.start()
            start.set()
            for p in procs:
                p.join(timeout=120.0)
                assert not p.is_alive(), "barrier wedged"
            assert not violations.any(), "phase skew observed"
            assert phases[:n_workers].tolist() == [rounds] * n_workers
        finally:
            arena.close()

    @pytest.mark.parametrize("mode", ["spin", "block"])
    def test_abort_unwedges_a_waiter(self, mode):
        ctx = multiprocessing.get_context("fork")
        arena = SharedArena()
        try:
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, ctx, 2)
            parent = SenseReversingBarrier(phases, arrive, gates, 0, 2,
                                           mode=mode, timeout=60.0)
            failed = arena.zeros("failed", (1,), np.int64)

            def lonely(barrier, failed):
                try:
                    barrier.wait()  # peer never arrives
                except FabricError:
                    failed[0] = 1

            proc = ctx.Process(target=lonely,
                               args=(parent.for_worker(1), failed),
                               daemon=True)
            proc.start()
            time.sleep(0.2)
            parent.abort()
            proc.join(timeout=30.0)
            assert not proc.is_alive()
            assert failed[0] == 1
            with pytest.raises(FabricError):
                parent.wait()
        finally:
            arena.close()

    def test_single_worker_is_trivial(self):
        ctx = multiprocessing.get_context("fork")
        arena = SharedArena()
        try:
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, ctx, 1)
            barrier = SenseReversingBarrier(phases, arrive, gates, 0, 1)
            for _ in range(5):
                barrier.wait()
            assert barrier.phase == 5
        finally:
            arena.close()

    def test_measure_barrier_rate_smoke(self):
        sense = measure_barrier_rate("sense", 2, 50)
        mp_rate = measure_barrier_rate("mp", 2, 50)
        assert sense > 0 and mp_rate > 0

    @pytest.mark.slow
    def test_beats_mp_barrier_on_the_16_worker_grid(self):
        """The satellite claim: per-step cost at or below mp.Barrier's
        on the 16-worker grid (the §6.1 benchmark configuration)."""
        sense = measure_barrier_rate("sense", 16, 400)
        mp_rate = measure_barrier_rate("mp", 16, 400)
        assert sense >= mp_rate, (
            f"sense-reversing barrier {1e6 / sense:.0f}us/step vs "
            f"mp.Barrier {1e6 / mp_rate:.0f}us/step")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_frame_roundtrip(self):
        a, b = socketlib.socketpair()
        try:
            payload = np.arange(7, dtype=np.float64).tobytes()
            send_frame(a, TAG_DATA, payload)
            tag, received = recv_frame(b)
            assert tag == TAG_DATA
            np.testing.assert_array_equal(
                np.frombuffer(received, dtype=np.float64), np.arange(7))
        finally:
            a.close()
            b.close()

    def test_unexpected_tag_raises(self):
        a, b = socketlib.socketpair()
        try:
            send_frame(a, TAG_DATA, b"x")
            with pytest.raises(FabricError):
                recv_frame(b, expect=TAG_DATA + 1)
        finally:
            a.close()
            b.close()

    def test_slow_worker_reports_timeout_not_death(self):
        """socket.timeout is an OSError subclass; the framing layer
        must let it through so a hung worker is diagnosed as slow
        ("did not finish"), not as dead."""
        from repro.parallel.fabric import SocketFabric
        fabric = SocketFabric(timeout=0.2)
        silent, _held_peer = socketlib.socketpair()
        try:
            fabric._conns[0] = silent
            with pytest.raises(FabricError, match="did not finish"):
                fabric.iterate(1)
        finally:
            _held_peer.close()
            fabric.close()

    def test_peer_close_raises(self):
        a, b = socketlib.socketpair()
        a.close()
        try:
            with pytest.raises(FabricError):
                recv_frame(b)
        finally:
            b.close()


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
        from repro.parallel.fabric import _HEADER
        expected = _HEADER.pack(payload.nbytes, TAG_DATA) + payload.tobytes()
        assert bytes(sock.sent) == expected
        assert sock.calls == -(-len(expected) // 7)  # ceil: no resends

    def test_partial_frame_failure_poisons_the_connection(self):
        """A timeout after part of the frame hit the wire leaves the
        stream desynchronized — every later framed use must raise
        FabricError instead of corrupting the peer's stream."""
        sock = _ShortWriteSock(chunk=7, fail_after=2)
        with pytest.raises(TimeoutError):
            send_frame(sock, TAG_DATA, np.arange(100, dtype=np.float64))
        with pytest.raises(FabricError, match="poisoned"):
            send_frame(sock, TAG_DATA, b"anything")
        with pytest.raises(FabricError, match="poisoned"):
            recv_frame(sock)

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


class TestBatchedExchange:
    """The tentpole mechanism: per-peer batch frames driven by the
    nonblocking selectors loop, deadlock-free at any buffer size."""

    @staticmethod
    def _clamped_pair(sockbuf=4096):
        a, b = socketlib.socketpair()
        for sock in (a, b):
            sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_SNDBUF,
                            sockbuf)
            sock.setsockopt(socketlib.SOL_SOCKET, socketlib.SO_RCVBUF,
                            sockbuf)
            sock.setblocking(False)
        return a, b

    def test_exchange_far_beyond_clamped_buffers(self):
        """Both ends owe each other ~32x the clamped socket buffers
        within one step.  The sendall-first protocol this replaced
        wedges here (neither side reads until its writes complete);
        the interleaved loop must finish and deliver exact bytes."""
        import threading
        from repro.parallel.fabric import (PeerBatch, RecvBatch,
                                           exchange_batches)
        n = 64_000  # 512 KB per direction
        a, b = self._clamped_pair()
        try:
            payload_a = np.arange(n, dtype=np.float64)
            payload_b = -payload_a
            received = {}

            def run_side(name, sock, outgoing_data):
                out = PeerBatch()
                out.stage(n)[:] = outgoing_data
                inc = RecvBatch()
                inc.stage(8 * n)
                exchange_batches({0: sock}, {0: out}, {0: inc},
                                 timeout=60.0)
                received[name] = inc.payload().copy()

            thread = threading.Thread(
                target=run_side, args=("b", b, payload_b), daemon=True)
            thread.start()
            run_side("a", a, payload_a)
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "exchange wedged"
            np.testing.assert_array_equal(received["a"], payload_b)
            np.testing.assert_array_equal(received["b"], payload_a)
        finally:
            a.close()
            b.close()

    def test_asymmetric_exchange(self):
        """One side only sends, the other only receives — the loop
        must complete with single-direction registrations too."""
        import threading
        from repro.parallel.fabric import (PeerBatch, RecvBatch,
                                           exchange_batches)
        n = 32_000
        a, b = self._clamped_pair()
        try:
            data = np.linspace(0.0, 1.0, n)
            out = PeerBatch()
            out.stage(n)[:] = data
            inc = RecvBatch()
            inc.stage(8 * n)
            thread = threading.Thread(
                target=exchange_batches,
                args=({0: b}, {}, {0: inc}), kwargs={"timeout": 60.0},
                daemon=True)
            thread.start()
            exchange_batches({0: a}, {0: out}, {}, timeout=60.0)
            thread.join(timeout=60.0)
            assert not thread.is_alive()
            np.testing.assert_array_equal(inc.payload(), data)
        finally:
            a.close()
            b.close()

    def test_dead_peer_raises_not_hangs(self):
        from repro.parallel.fabric import RecvBatch, exchange_batches
        a, b = self._clamped_pair()
        inc = RecvBatch()
        inc.stage(1024)
        a.close()
        try:
            with pytest.raises(FabricError):
                exchange_batches({0: b}, {}, {0: inc}, timeout=5.0)
        finally:
            b.close()


class TestDeltaChurnCodec:
    """encode/decode of the delta-encoded churn wire format."""

    @staticmethod
    def _table(n_links=8):
        from repro.core.network import FlowTable, LinkSet
        return FlowTable(LinkSet(np.full(n_links, 10.0)), max_route_len=3)

    @staticmethod
    def _mirror():
        from repro.parallel.process_backend import CellPlan
        plan = CellPlan(0)
        counts = np.zeros(1, dtype=np.int64)
        versions = np.full(1, -1, dtype=np.int64)
        return plan, counts, versions

    @staticmethod
    def _assert_mirrors(plan, counts, table):
        n = int(counts[0])
        assert n == table.n_flows
        np.testing.assert_array_equal(plan.routes[:n], table.routes)
        np.testing.assert_array_equal(plan.weights[:n], table.weights)
        np.testing.assert_array_equal(plan.bottleneck[:n],
                                      table.bottleneck_capacity())

    def test_snapshot_then_delta_roundtrip(self):
        from repro.parallel.fabric import (apply_cell_update,
                                           encode_cell_delta,
                                           encode_cell_snapshot)
        table = self._table()
        for i in range(6):
            table.add_flow(i, [i % 8, (i + 1) % 8], weight=1.0 + i)
        plan, counts, versions = self._mirror()
        apply_cell_update(encode_cell_snapshot(0, table), plan, counts,
                          versions)
        self._assert_mirrors(plan, counts, table)
        table.start_change_log()

        # Mixed churn: swap-remove holes + appended block.
        base = table.version
        table.apply_churn(starts=[(10, [3, 4], 2.5), (11, [5])],
                          ends=[1, 4])
        rows, all_changed = table.consume_changes()
        assert not all_changed and len(rows) < table.n_flows
        apply_cell_update(
            encode_cell_delta(0, table, rows, base), plan, counts,
            versions)
        self._assert_mirrors(plan, counts, table)

        # Growth far past the mirror's capacity (delta must regrow).
        base = table.version
        table.apply_churn(starts=[(100 + i, [i % 8]) for i in range(40)])
        rows, all_changed = table.consume_changes()
        apply_cell_update(
            encode_cell_delta(0, table, rows, base), plan, counts,
            versions)
        self._assert_mirrors(plan, counts, table)

    def test_empty_delta_ships_count_and_version_only(self):
        from repro.parallel.fabric import (apply_cell_update,
                                           encode_cell_delta,
                                           encode_cell_snapshot)
        table = self._table()
        for i in range(3):
            table.add_flow(i, [i])
        plan, counts, versions = self._mirror()
        apply_cell_update(encode_cell_snapshot(0, table), plan, counts,
                          versions)
        table.start_change_log()
        base = table.version
        table.remove_flow(2)  # last row: a pure tail shrink
        rows, all_changed = table.consume_changes()
        assert len(rows) == 0 and not all_changed
        update = encode_cell_delta(0, table, rows, base)
        apply_cell_update(update, plan, counts, versions)
        assert counts[0] == 2 and versions[0] == table.version
        self._assert_mirrors(plan, counts, table)

    def test_version_skew_raises(self):
        """A delta against the wrong base would corrupt the mirror —
        the receiver must refuse it loudly."""
        from repro.parallel.fabric import (apply_cell_update,
                                           encode_cell_delta,
                                           encode_cell_snapshot)
        table = self._table()
        table.add_flow(0, [0])
        plan, counts, versions = self._mirror()
        apply_cell_update(encode_cell_snapshot(0, table), plan, counts,
                          versions)
        table.start_change_log()
        table.add_flow(1, [1])
        rows, _ = table.consume_changes()
        stale = encode_cell_delta(0, table, rows,
                                  base_version=table.version + 7)
        with pytest.raises(FabricError, match="skew"):
            apply_cell_update(stale, plan, counts, versions)

    def test_capacity_refresh_falls_back_to_snapshot(self):
        """refresh_capacity rewrites every bottleneck entry, so the
        change log reports all_changed and the publisher snapshots."""
        table = self._table()
        for i in range(4):
            table.add_flow(i, [i])
        table.start_change_log()
        table.links.capacity *= 0.5
        table.refresh_capacity()
        _, all_changed = table.consume_changes()
        assert all_changed


class TestSocketWorkerTokenValidation:
    """A bad $REPRO_FABRIC_TOKEN must fail fast and loudly — not
    decode to b"" and get silently dropped by the parent's auth."""

    @staticmethod
    def _run_worker(token):
        import subprocess
        import sys as sysmod
        from pathlib import Path
        env = dict(os.environ)
        env.pop("REPRO_FABRIC_TOKEN", None)
        if token is not None:
            env["REPRO_FABRIC_TOKEN"] = token
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sysmod.executable, "-m", "repro.parallel.socket_worker",
             "127.0.0.1", "1", "0"],
            capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("token", [None, "", "abc", "not-hex!"])
    def test_bad_token_fails_fast_naming_the_env_var(self, token):
        result = self._run_worker(token)
        assert result.returncode != 0
        assert "REPRO_FABRIC_TOKEN" in result.stderr

    def test_parse_token_accepts_valid_hex(self):
        from repro.parallel.socket_worker import parse_token
        assert parse_token("00ff" * 8) == bytes.fromhex("00ff" * 8)


# ----------------------------------------------------------------------
# per-fabric step costs
# ----------------------------------------------------------------------
class TestFabricStepCosts:
    def test_socket_batches_cost_more_than_shm(self):
        assert FABRIC_COSTS["socket"].per_batch_us \
            > FABRIC_COSTS["shm"].per_batch_us
        assert FABRIC_COSTS["socket"].per_entry_us \
            > FABRIC_COSTS["shm"].per_entry_us

    def test_socket_steps_need_no_barrier(self):
        assert FABRIC_COSTS["socket"].barrier_us == 0.0
        assert FABRIC_COSTS["shm"].barrier_us > 0.0

    def test_iteration_estimate_grows_with_the_grid(self):
        configs = [BenchConfig.from_row(cores, 1536, 12288)
                   for cores in (4, 16, 64)]
        for fabric in ("shm", "socket"):
            estimates = [fabric_iteration_us(c, fabric) for c in configs]
            assert estimates == sorted(estimates)
            assert estimates[0] > 0

    def test_fewer_workers_coalesce_socket_batches(self):
        """Per-peer batching: when few workers own many cells, a
        step's transfers collapse into at most W*(W-1) pair frames,
        so the fixed syscall term shrinks; the shm estimate (in-place
        reads, no framing) is indifferent to worker count."""
        config = BenchConfig.from_row(64, 1536, 12288)
        full = fabric_iteration_us(config, "socket")
        batched = fabric_iteration_us(config, "socket", n_workers=3)
        assert batched < full
        assert fabric_iteration_us(config, "shm", n_workers=3) \
            == fabric_iteration_us(config, "shm")

    def test_shm_barriers_dominate_small_grids(self):
        """On a small grid the shm cost is mostly synchronization —
        the term the sense-reversing barrier was built to shrink."""
        config = BenchConfig.from_row(4, 384, 3072)
        costs = FABRIC_COSTS["shm"]
        sync = (2 + 2 * config.intra_cpu_steps
                + 2 * config.inter_cpu_steps) * costs.barrier_us
        assert sync > fabric_iteration_us(config, "shm") / 2


# ----------------------------------------------------------------------
# teardown / leak regression
# ----------------------------------------------------------------------
class TestFabricTeardown:
    @pytest.mark.parametrize("fabric", ["shm", "socket"])
    def test_close_leaks_nothing_after_worker_death(self, fabric):
        """Kill a worker mid-run, exit the context manager, and assert
        no /dev/shm segment and no listening port survives."""
        before = shm_names()
        topology = clos_for_blocks(2)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=2, fabric=fabric) as engine:
            engine.add_flow(0, 0, topology.n_hosts - 1)
            engine.iterate(1)
            backend = engine.backend
            backend._workers[0].terminate()
            backend._workers[0].join(5.0)
            with pytest.raises(RuntimeError):
                engine.iterate(1)
        engine.close()  # idempotent double close
        for worker in backend._workers:
            worker.join(5.0)
            assert not worker.is_alive()
        assert shm_names() <= before, "leaked /dev/shm segments"
        if fabric == "socket":
            listener = backend.fabric._listener
            assert listener.fileno() == -1, "listening port left open"

    @pytest.mark.parametrize("fabric", ["shm", "socket"])
    def test_dead_worker_detected_during_churn_sync(self, fabric):
        """A worker death can surface while the parent publishes churn
        (reattach/snapshot send hits a broken channel) — that path
        must tear the pool down as eagerly as a mid-iteration death."""
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(7)
        engine = MulticoreNedEngine(topology, 2, backend="process",
                                    n_workers=2, fabric=fabric)
        try:
            engine.apply_churn(
                starts=random_starts(topology, rng, range(20)))
            engine.iterate(1)
            engine.backend._workers[0].terminate()
            engine.backend._workers[0].join(5.0)
            # Regrow every cell so the next _sync must message workers
            # (shm: reattach manifests; socket: cell snapshots).
            engine.apply_churn(
                starts=random_starts(topology, rng, range(1000, 1500)))
            with pytest.raises(RuntimeError):
                engine.iterate(1)
            assert engine.backend._closed
        finally:
            engine.close()

    def test_engine_close_is_idempotent_without_backend(self):
        engine = MulticoreNedEngine(clos_for_blocks(2), 2)
        engine.close()
        engine.close()

    def test_socket_fabric_close_releases_the_port(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2, backend="process",
                                    n_workers=2, fabric="socket")
        port = engine.backend.fabric.port
        engine.add_flow(0, 0, topology.n_hosts - 1)
        engine.iterate(1)
        engine.close()
        probe = socketlib.socket()
        try:
            # Closed listener: either refused outright or (port reuse
            # by an unrelated process aside) not our fabric answering.
            with pytest.raises(OSError):
                probe.connect(("127.0.0.1", port))
        finally:
            probe.close()


# ----------------------------------------------------------------------
# LocalCluster: multiple "hosts" on localhost
# ----------------------------------------------------------------------
class TestBootstrapHandshake:
    def test_stray_connections_are_dropped_not_accepted(self):
        """Connections that cannot present the fabric token must be
        dropped before any pickled frame is read, without consuming
        an accept slot; the authenticated connection still gets in."""
        import threading
        from repro.parallel.fabric import _accept_authenticated

        token = b"s" * 16
        listener = socketlib.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]

        def clients():
            garbage = socketlib.create_connection(("127.0.0.1", port))
            garbage.sendall(b"x" * 16)  # wrong token
            eof = socketlib.create_connection(("127.0.0.1", port))
            eof.close()  # closes before sending anything
            good = socketlib.create_connection(("127.0.0.1", port))
            good.sendall(token)
            good.sendall(b"payload-after-auth")
            time.sleep(0.5)
            garbage.close()
            good.close()

        thread = threading.Thread(target=clients, daemon=True)
        thread.start()
        try:
            sock = _accept_authenticated(
                listener, token, time.monotonic() + 10.0)
            assert sock.recv(32) == b"payload-after-auth"
            sock.close()
        finally:
            thread.join(5.0)
            listener.close()

    def test_bootstrap_times_out_instead_of_hanging(self):
        from repro.parallel.fabric import _accept_authenticated
        listener = socketlib.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            with pytest.raises(FabricError, match="bootstrap timed out"):
                _accept_authenticated(listener, b"t" * 16,
                                      time.monotonic() + 0.2)
        finally:
            listener.close()

    def test_token_is_required_and_random(self):
        from repro.parallel.fabric import SocketFabric
        a, b = SocketFabric(), SocketFabric()
        try:
            assert a.token_hex != b.token_hex
            assert len(bytes.fromhex(a.token_hex)) == 16
        finally:
            a.close()
            b.close()


class TestLocalCluster:
    def test_subprocess_hosts_match_simulated_engine(self):
        """Two freshly exec'd interpreters (no fork inheritance — the
        exact protocol a remote host would speak) reproduce the
        simulated engine's rates."""
        topology = clos_for_blocks(2)
        starts = random_starts(topology, np.random.default_rng(0),
                               range(40))
        simulated = MulticoreNedEngine(topology, 2)
        simulated.apply_churn(starts=starts)
        simulated.iterate(6)
        with LocalCluster(topology, 2, n_hosts=2) as engine:
            engine.apply_churn(starts=starts)
            engine.iterate(6)
            assert engine.rates() == simulated.rates()
            np.testing.assert_array_equal(engine.global_prices(),
                                          simulated.global_prices())
