"""Cross-backend equivalence: worker processes == simulated == NED.

The §5 design claim is that the FlowBlock/LinkBlock partitioning makes
the parallel allocator *numerically equivalent* to single-core NED.
The simulated engine asserts that in one process; this suite closes
the loop for the real worker-process backend — over **both
coordination fabrics**: shared memory (sense-reversing barrier, data
read in place) and sockets (LinkBlock slices as TCP frames, no shared
state at all).  Same grids, same churn schedules, same floats —
asserted bitwise: the fabrics ship byte-exact slices through the very
same kernels in the same reduction order — across worker counts that
do and don't divide the grid evenly, before and after mid-run churn
batches, and across the shared-buffer re-allocation (regrow →
re-attach / re-snapshot) path.
The socket cases double as the fast-lane multi-host smoke: nothing in
the worker protocol assumes a shared machine.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.ned import NedOptimizer
from repro.core.network import FlowTable
from repro.parallel import MulticoreNedEngine, SharedArena
from repro.topology import TwoTierClos

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process backend needs the fork start method")


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


def churn_schedule(topology, seed, rounds, burst, n_initial):
    """Deterministic (starts, ends) batches shared by all backends."""
    rng = np.random.default_rng(seed)
    alive = list(range(n_initial))
    next_id = n_initial
    batches = [(random_starts(topology, rng, alive), [])]
    for _ in range(rounds):
        n_ends = min(len(alive), int(rng.integers(0, burst)))
        ends = [alive.pop(int(rng.integers(len(alive))))
                for _ in range(n_ends)]
        new_ids = list(range(next_id, next_id + int(rng.integers(1, burst))))
        next_id = new_ids[-1] + 1
        alive.extend(new_ids)
        batches.append((random_starts(topology, rng, new_ids), ends))
    return batches


def run_schedule(engine, batches, iters_per_batch):
    for starts, ends in batches:
        engine.apply_churn(starts=starts, ends=ends)
        engine.iterate(iters_per_batch)
    return engine.rates(), engine.global_prices()


def single_core_rates(engine):
    """Rates a single-core NED with the engine's prices would emit."""
    reference = engine.reference_optimizer()
    reference.prices = engine.global_prices().copy()
    return dict(zip(reference.table.flow_ids(),
                    (float(r) for r in reference.rate_update())))


class TestCrossBackendEquivalence:
    """The headline suite: process == simulated == single-core NED."""

    @pytest.mark.parametrize("n_blocks,n_workers,fabric", [
        (2, 1, "shm"),
        (2, 2, "shm"),
        (2, 3, "shm"),   # does not divide the 4-cell grid
        (2, 4, "shm"),
        (2, 2, "socket"),
        (2, 3, "socket"),  # uneven ownership over TCP frames
    ])
    def test_static_flows_match_simulated_and_single_core(
            self, n_blocks, n_workers, fabric):
        topology = clos_for_blocks(n_blocks)
        batches = [(random_starts(topology, np.random.default_rng(0),
                                  range(60)), [])]
        simulated = MulticoreNedEngine(topology, n_blocks)
        r_sim, p_sim = run_schedule(simulated, batches, 15)
        with MulticoreNedEngine(topology, n_blocks, backend="process",
                                n_workers=n_workers,
                                fabric=fabric) as engine:
            r_proc, p_proc = run_schedule(engine, batches, 15)
            assert r_proc == r_sim
            np.testing.assert_array_equal(p_proc, p_sim)
            expected = single_core_rates(engine)
            assert r_proc == expected

    @pytest.mark.parametrize("n_blocks,n_workers,seed,fabric", [
        (2, 2, 1, "shm"),
        (2, 3, 2, "shm"),
        (2, 2, 1, "socket"),
        (2, 3, 2, "socket"),
    ])
    def test_mid_run_churn_batches_match(self, n_blocks, n_workers, seed,
                                         fabric):
        topology = clos_for_blocks(n_blocks)
        batches = churn_schedule(topology, seed, rounds=5, burst=25,
                                 n_initial=40)
        simulated = MulticoreNedEngine(topology, n_blocks)
        r_sim, p_sim = run_schedule(simulated, batches, 4)
        with MulticoreNedEngine(topology, n_blocks, backend="process",
                                n_workers=n_workers,
                                fabric=fabric) as engine:
            r_proc, p_proc = run_schedule(engine, batches, 4)
            assert r_proc == r_sim
            np.testing.assert_array_equal(p_proc, p_sim)

    @pytest.mark.parametrize("fabric", ["shm", "socket"])
    def test_refresh_capacity_stays_equivalent(self, fabric):
        """§7 path: in-place capacity changes must reach workers —
        the bottleneck column is flushed and the capacity/idle-price
        vectors republished (in place for shm, framed for sockets)."""
        topology = clos_for_blocks(2)
        batches = [(random_starts(topology, np.random.default_rng(2),
                                  range(50)), [])]
        simulated = MulticoreNedEngine(topology, 2)
        run_schedule(simulated, batches, 5)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=2, fabric=fabric) as engine:
            run_schedule(engine, batches, 5)
            for target in (simulated, engine):
                target.links.capacity *= 0.5
                target.refresh_capacity()
                target.iterate(5)
            r_sim, r_proc = simulated.rates(), engine.rates()
            assert r_proc == r_sim
            np.testing.assert_array_equal(engine.global_prices(),
                                          simulated.global_prices())

    @pytest.mark.parametrize("fabric", ["shm", "socket"])
    def test_dead_worker_raises_instead_of_hanging(self, fabric):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2, backend="process",
                                    n_workers=2, fabric=fabric)
        try:
            engine.add_flow(0, 0, topology.n_hosts - 1)
            engine.iterate(1)
            engine.backend._workers[0].terminate()
            engine.backend._workers[0].join(5.0)
            with pytest.raises(RuntimeError):
                engine.iterate(1)
            # the failed run tore the pool down; peers must have exited
            assert engine.backend._closed
            for worker in engine.backend._workers:
                worker.join(5.0)
                assert not worker.is_alive()
        finally:
            engine.close()

    @pytest.mark.parametrize("fabric", ["shm", "socket"])
    def test_regrow_reattaches_shared_buffers(self, fabric):
        """Bursts past the initial 64-slot capacity re-allocate a
        block's arrays; shm workers must follow via re-attach, socket
        workers via a fresh cell snapshot."""
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(9)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=2, fabric=fabric) as engine:
            engine.apply_churn(
                starts=random_starts(topology, rng, range(30)))
            engine.iterate(3)
            initial_capacity = max(len(p.table._weights)
                                   for p in engine.processors.values())
            engine.apply_churn(
                starts=random_starts(topology, rng, range(1000, 1400)))
            engine.iterate(3)
            assert max(len(p.table._weights)
                       for p in engine.processors.values()) \
                > initial_capacity
            expected = single_core_rates(engine)
            assert engine.rates() == expected

    def test_small_socket_buffers_cannot_deadlock_a_step(self):
        """The socket-fabric deadlock regression: ``SO_SNDBUF`` /
        ``SO_RCVBUF`` clamped far below one step's per-pair traffic on
        a 16-block grid.  The sendall-first protocol this repo used to
        ship wedges here — each worker blocked writing before reading
        anything — so completion itself is the assertion, plus the
        usual bitwise equivalence to the simulated engine through mid-run
        churn."""
        sockbuf = 2048
        # One direction's in-flight bytes are bounded by the sender's
        # send buffer plus the receiver's receive buffer; Linux doubles
        # the setsockopt request but also enforces floors (4608 snd /
        # 2304 rcv), so this is what the clamped mesh can absorb.
        in_flight = max(2 * sockbuf, 4608) + max(2 * sockbuf, 2304)
        topology = clos_for_blocks(4, racks_per_block=2,
                                   hosts_per_rack=128)
        batches = churn_schedule(topology, seed=6, rounds=2, burst=30,
                                 n_initial=60)
        simulated = MulticoreNedEngine(topology, 4)
        r_sim, p_sim = run_schedule(simulated, batches, 3)
        with MulticoreNedEngine(
                topology, 4, backend="process", n_workers=2,
                fabric="socket",
                fabric_options={"sockbuf": sockbuf,
                                "timeout": 120.0}) as engine:
            # The premise: one step's batched traffic between the two
            # workers really exceeds what the clamped mesh can hold.
            row_of = engine.backend._row_of
            owner = engine.backend._owner_of_row
            links = engine.partition.links_per_block
            worst = 0
            for step in engine._agg_steps:
                counts = {}
                for t in step:
                    pair = (owner[row_of[t.src]], owner[row_of[t.dst]])
                    if pair[0] != pair[1]:
                        counts[pair] = counts.get(pair, 0) + 1
                worst = max(worst, max(counts.values(), default=0))
            assert worst * 2 * links * 8 > 1.5 * in_flight, \
                "test premise broken: step traffic fits the buffers"
            r_proc, p_proc = run_schedule(engine, batches, 3)
            assert r_proc == r_sim
            np.testing.assert_array_equal(p_proc, p_sim)

    @pytest.mark.slow
    @pytest.mark.parametrize("n_workers,fabric", [
        (4, "shm"), (5, "shm"), (16, "shm"), (4, "socket"),
    ])
    def test_larger_grid_under_churn(self, n_workers, fabric):
        """16-cell grid, worker counts below/at/not dividing it."""
        topology = clos_for_blocks(4)
        batches = churn_schedule(topology, seed=3, rounds=4, burst=60,
                                 n_initial=200)
        simulated = MulticoreNedEngine(topology, 4)
        r_sim, p_sim = run_schedule(simulated, batches, 3)
        with MulticoreNedEngine(topology, 4, backend="process",
                                n_workers=n_workers,
                                fabric=fabric) as engine:
            r_proc, p_proc = run_schedule(engine, batches, 3)
            assert r_proc == r_sim
            np.testing.assert_array_equal(p_proc, p_sim)
            expected = single_core_rates(engine)
            assert r_proc == expected


class TestProcessBackendMechanics:
    @pytest.mark.parametrize("fabric", ["shm", "socket"])
    def test_stats_match_simulated_engine(self, fabric):
        topology = clos_for_blocks(4)
        simulated = MulticoreNedEngine(topology, 4)
        simulated.add_flow(0, 0, topology.n_hosts - 1)
        s_sim = simulated.iterate(2)
        with MulticoreNedEngine(topology, 4, backend="process",
                                n_workers=2, fabric=fabric) as engine:
            engine.add_flow(0, 0, topology.n_hosts - 1)
            s_proc = engine.iterate(2)
        for field in ("messages", "inter_cpu_messages",
                      "link_entries_moved", "aggregation_steps",
                      "max_flows_per_processor", "total_flows"):
            assert getattr(s_proc, field) == getattr(s_sim, field), field

    def test_worker_count_clamped_to_grid(self):
        topology = clos_for_blocks(2)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=64) as engine:
            assert engine.backend.n_workers == 4
            engine.add_flow(0, 0, topology.n_hosts - 1)
            engine.iterate(1)

    def test_close_is_idempotent_and_workers_exit(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2, backend="process",
                                    n_workers=2)
        engine.add_flow(0, 0, topology.n_hosts - 1)
        engine.iterate(1)
        workers = list(engine.backend._workers)
        engine.close()
        engine.close()
        assert all(not worker.is_alive() for worker in workers)
        with pytest.raises(RuntimeError):
            engine.iterate(1)

    def test_simulated_rejects_n_workers(self):
        with pytest.raises(ValueError):
            MulticoreNedEngine(clos_for_blocks(2), 2, n_workers=2)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            MulticoreNedEngine(clos_for_blocks(2), 2, backend="threads")

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError):
            MulticoreNedEngine(clos_for_blocks(2), 2, backend="process",
                               fabric="carrier-pigeon")

    def test_reserve_per_block_avoids_regrow(self):
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(4)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=2,
                                reserve_per_block=1024) as engine:
            capacities = [len(p.table._weights)
                          for p in engine.processors.values()]
            assert min(capacities) >= 1024
            engine.apply_churn(
                starts=random_starts(topology, rng, range(600)))
            engine.iterate(2)
            assert [len(p.table._weights)
                    for p in engine.processors.values()] == capacities

    def test_reserve_per_block_applies_to_simulated_backend(self):
        engine = MulticoreNedEngine(clos_for_blocks(2), 2,
                                    reserve_per_block=512)
        assert all(len(p.table._weights) >= 512
                   for p in engine.processors.values())


class TestEngineApplyChurn:
    """engine.apply_churn (batched) == add_flow/remove_flow loops."""

    def test_matches_per_event_churn(self):
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(5)
        starts = random_starts(topology, rng, range(50))
        batched = MulticoreNedEngine(topology, 2)
        sequential = MulticoreNedEngine(topology, 2)
        batched.apply_churn(starts=starts)
        for flow_id, src, dst in starts:
            sequential.add_flow(flow_id, src, dst)
        batched.iterate(5)
        sequential.iterate(5)
        ends = [flow_id for flow_id, _, _ in starts[::3]]
        batched.apply_churn(ends=ends)
        for flow_id in ends:
            sequential.remove_flow(flow_id)
        batched.iterate(5)
        sequential.iterate(5)
        r_batched, r_sequential = batched.rates(), sequential.rates()
        assert r_batched == r_sequential

    def test_restart_id_in_both_lists(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.add_flow("a", 0, topology.n_hosts - 1)
        engine.apply_churn(starts=[("a", 1, 2)], ends=["a"])
        assert engine.n_flows == 1
        cell = engine._flow_home["a"]
        assert "a" in engine.processors[cell].table

    def test_bad_end_id_leaves_engine_unchanged(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.apply_churn(starts=[(0, 0, 5), (1, 1, 6)])
        with pytest.raises(KeyError):
            engine.apply_churn(ends=[0, "ghost"])
        assert engine.n_flows == 2
        assert 0 in engine._flow_home
        engine.apply_churn(ends=[0, 1])  # still removable: no orphan
        assert engine.n_flows == 0

    def test_duplicate_start_leaves_engine_unchanged(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.apply_churn(starts=[(0, 0, 5)])
        for bad in ([(1, 1, 6), (1, 2, 7)],   # dup within batch
                    [(0, 1, 6)]):             # dup of active flow
            with pytest.raises(KeyError):
                engine.apply_churn(starts=bad)
            assert engine.n_flows == 1
            assert sum(p.table.n_flows
                       for p in engine.processors.values()) == 1

    def test_bad_weight_leaves_engine_unchanged(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        with pytest.raises(ValueError):
            engine.apply_churn(starts=[(0, 0, 5), (1, 1, 6, -1.0)])
        assert engine.n_flows == 0
        assert all(p.table.n_flows == 0
                   for p in engine.processors.values())

    def test_weighted_starts(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.apply_churn(starts=[("w", 0, topology.n_hosts - 1, 3.0)])
        cell = engine._flow_home["w"]
        table = engine.processors[cell].table
        assert table.weights[table.index_of("w")] == 3.0


class TestSharedArena:
    def test_allocate_manifest_attach_roundtrip(self):
        from repro.parallel.shm import attach
        arena = SharedArena()
        try:
            array = arena.zeros("cell0/data", (8,), np.float64)
            array[:] = np.arange(8)
            arrays, keepalive = attach(arena.manifest("cell0"))
            assert np.array_equal(arrays["data"], np.arange(8))
            arrays["data"][0] = 42.0
            assert array[0] == 42.0
            del arrays, keepalive
        finally:
            arena.close()

    def test_reallocate_supersedes_tag(self):
        arena = SharedArena()
        try:
            arena.zeros("cell0/data", (8,), np.float64)
            first = arena.manifest("cell0")["data"][0]
            bigger = arena.zeros("cell0/data", (16,), np.float64)
            name, shape, _ = arena.manifest("cell0")["data"]
            assert name != first and shape == (16,)
            assert bigger.shape == (16,)
        finally:
            arena.close()

    def test_flowtable_storage_in_shared_memory(self):
        """FlowTable's allocator hook places its columns in the arena,
        and growth re-allocates them under the same tags."""
        arena = SharedArena()
        try:
            links = TwoTierClos(n_racks=2, hosts_per_rack=4,
                                n_spines=2).link_set()
            table = FlowTable(links, allocator=arena.allocator("cell0"))
            manifest = arena.manifest("cell0")
            assert set(manifest) >= {"routes", "weights", "column0"}
            for i in range(100):  # past _INITIAL_CAPACITY: regrow
                table.add_flow(i, [0, 1])
            regrown = arena.manifest("cell0")
            assert regrown["routes"][0] != manifest["routes"][0]
            assert regrown["routes"][1][0] >= 100
            optimizer = NedOptimizer(table)
            optimizer.iterate(2)  # kernels work on shm-backed storage
        finally:
            arena.close()
