"""The worker pool's shared-memory mechanisms: barrier, arena, teardown.

The cross-backend equivalence suite (``test_process_backend.py``)
proves the process backend reproduces the simulated engine's floats;
this file tests the mechanisms underneath — the sense-reversing
barrier's phase discipline under adversarial scheduling and its
timeout/abort paths, the arena's segment bookkeeping, and the
resource-teardown guarantees (no leaked ``/dev/shm`` segments, even
when a worker dies mid-run).
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.net import FabricError
from repro.parallel import (MulticoreNedEngine, SenseReversingBarrier,
                            SharedArena, measure_barrier_rate)
from repro.parallel.shm import attach
from repro.topology import TwoTierClos

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the process backend needs the fork start method")


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
            assert barrier.peer_phases().tolist() == [5]
        finally:
            arena.close()

    def test_measure_barrier_rate_smoke(self):
        assert measure_barrier_rate(2, 50) > 0

    def test_unknown_mode_rejected(self):
        with SharedArena() as arena:
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, multiprocessing.get_context("fork"), 2)
            with pytest.raises(ValueError):
                SenseReversingBarrier(phases, arrive, gates, 0, 2,
                                      mode="futex")

    def test_default_mode_follows_the_cpu_count(self):
        """Spin when every worker can own a core, block when the host
        is oversubscribed."""
        ctx = multiprocessing.get_context("fork")
        n_cpus = os.cpu_count() or 1
        with SharedArena() as arena:
            fits = SenseReversingBarrier(
                *SenseReversingBarrier.alloc(arena, ctx, n_cpus, tag="a"),
                0, n_cpus)
            over = SenseReversingBarrier(
                *SenseReversingBarrier.alloc(arena, ctx, n_cpus + 1,
                                             tag="b"),
                0, n_cpus + 1)
            assert fits.mode == "spin"
            assert over.mode == "block"
            assert over.for_worker(1).mode == "block"

    @pytest.mark.parametrize("mode,worker_id", [("spin", 0), ("block", 0),
                                                ("block", 1)])
    def test_missing_peer_times_out(self, mode, worker_id):
        """A peer that never arrives is reported within the timeout,
        whichever side of the blocking protocol the waiter is on."""
        ctx = multiprocessing.get_context("fork")
        with SharedArena() as arena:
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, ctx, 2)
            barrier = SenseReversingBarrier(phases, arrive, gates,
                                            worker_id, 2, mode=mode,
                                            timeout=0.2)
            started = time.monotonic()
            with pytest.raises(FabricError, match="timed out"):
                barrier.wait()
            assert time.monotonic() - started < 10.0

    def test_abort_is_seen_through_every_handle(self):
        ctx = multiprocessing.get_context("fork")
        with SharedArena() as arena:
            phases, arrive, gates = SenseReversingBarrier.alloc(
                arena, ctx, 1)
            barrier = SenseReversingBarrier(phases, arrive, gates, 0, 1)
            barrier.for_worker(0).abort()
            with pytest.raises(FabricError, match="aborted"):
                barrier.wait()


# ----------------------------------------------------------------------
# the arena
# ----------------------------------------------------------------------
class TestSharedArenaSegments:
    def test_close_unlinks_live_and_superseded_segments(self):
        before = shm_names()
        arena = SharedArena()
        arena.zeros("cell0/routes", (4, 3), np.int32)
        arena.zeros("cell0/weights", (4,))
        arena.zeros("cell0/weights", (8,))  # supersedes the first
        assert len(shm_names() - before) == 2
        arena.close()
        assert shm_names() <= before, "leaked /dev/shm segments"

    def test_superseded_segment_is_unlinked_at_once(self):
        with SharedArena() as arena:
            arena.zeros("cell0/data", (4,))
            old_name = arena.manifest("cell0")["data"][0]
            assert old_name.lstrip("/") in shm_names()
            arena.zeros("cell0/data", (8,))
            assert old_name.lstrip("/") not in shm_names()

    def test_manifest_is_scoped_to_the_prefix(self):
        """``cell1`` must not pick up ``cell10``'s arrays."""
        with SharedArena() as arena:
            arena.zeros("cell1/weights", (4,))
            arena.zeros("cell10/weights", (4,))
            arena.zeros("cell1/routes", (4, 2), np.int32)
            manifest = arena.manifest("cell1")
            assert set(manifest) == {"weights", "routes"}
            _, shape, dtype = manifest["routes"]
            assert shape == (4, 2) and np.dtype(dtype) == np.int32

    def test_full_and_zeros_initialise(self):
        with SharedArena() as arena:
            np.testing.assert_array_equal(
                arena.full("prices", (2, 3), 1.0), np.ones((2, 3)))
            counts = arena.zeros("counts", (5,), np.int64)
            assert counts.dtype == np.int64 and not counts.any()

    def test_empty_array_gets_a_valid_segment(self):
        """A cell with no flows yet still has a segment to attach."""
        with SharedArena() as arena:
            empty = arena.allocate("cell0/empty", (0, 3), np.int32)
            assert empty.shape == (0, 3)
            arrays, keepalive = attach(arena.manifest("cell0"))
            assert arrays["empty"].shape == (0, 3)
            assert arrays["empty"].dtype == np.int32
            del arrays, keepalive


# ----------------------------------------------------------------------
# teardown / leak regression
# ----------------------------------------------------------------------
class TestTeardown:
    def test_close_leaks_nothing_after_worker_death(self):
        """Kill a worker mid-run, exit the context manager, and assert
        no /dev/shm segment survives."""
        before = shm_names()
        topology = clos_for_blocks(2)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=2) as engine:
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

    def test_dead_worker_detected_during_churn_sync(self):
        """A worker death can surface while the parent publishes churn
        (a reattach send hits a broken pipe) — that path must tear the
        pool down as eagerly as a mid-iteration death."""
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(7)
        engine = MulticoreNedEngine(topology, 2, backend="process",
                                    n_workers=2)
        try:
            engine.apply_churn(
                starts=random_starts(topology, rng, range(20)))
            engine.iterate(1)
            engine.backend._workers[0].terminate()
            engine.backend._workers[0].join(5.0)
            # Regrow every cell so the next _sync must send reattach
            # manifests to the workers.
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
