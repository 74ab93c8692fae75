"""Uniform resource lifecycle across the public API.

Every resource-owning object in the top-level namespace —
:class:`MulticoreNedEngine` (and the worker pool behind its process
backend), :class:`FlowtuneService`, :class:`FlowtuneClient` — promises
the same contract: usable as a context manager, idempotent
``close()``, and *nothing leaked* after the ``with`` block — no
``/dev/shm`` segments, no socket fds, no child processes, no threads.
One shared harness asserts exactly that for each of them.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro import (FlowtuneClient, FlowtuneService, MulticoreNedEngine,
                   TwoTierClos)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backed components need the fork start method")


def shm_names():
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


def socket_fds():
    """Inode labels of this process's open socket fds."""
    fds = set()
    try:
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target.startswith("socket:"):
                fds.add((fd, target))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        pass
    return fds


class Snapshot:
    """Resource census before a component runs; diffed after close."""

    def __init__(self):
        self.shm = shm_names()
        self.sockets = socket_fds()
        self.children = set(multiprocessing.active_children())
        self.threads = set(threading.enumerate())

    def assert_clean(self):
        assert shm_names() <= self.shm, "leaked /dev/shm segments"
        # Sockets and child processes can take a beat to disappear
        # after close() returns (TIME_WAIT never holds the fd, but a
        # reaped child's pipe fd close can race the assertion).
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            leaked_socks = socket_fds() - self.sockets
            leaked_children = (set(multiprocessing.active_children())
                               - self.children)
            leaked_threads = {t for t in set(threading.enumerate())
                              - self.threads if t.is_alive()}
            if not (leaked_socks or leaked_children or leaked_threads):
                return
            time.sleep(0.05)
        assert not leaked_socks, f"leaked sockets: {leaked_socks}"
        assert not leaked_children, f"leaked processes: {leaked_children}"
        assert not leaked_threads, f"leaked threads: {leaked_threads}"


def topo():
    return TwoTierClos(n_racks=2, hosts_per_rack=4, n_spines=2)


def _use_engine(engine):
    engine.add_flow(0, 0, 7)
    engine.iterate(1)


def run_engine_shm():
    with MulticoreNedEngine(topo(), 2, backend="process",
                            n_workers=2) as engine:
        _use_engine(engine)
        return engine


def run_engine_shm_uneven():
    with MulticoreNedEngine(topo(), 2, backend="process",
                            n_workers=3) as engine:
        _use_engine(engine)
        return engine


def run_engine_shm_regrow():
    """Table growth supersedes segments; the old ones must go too."""
    t = topo()
    with MulticoreNedEngine(t, 2, backend="process",
                            n_workers=2) as engine:
        _use_engine(engine)
        engine.apply_churn(starts=[(i, i % t.n_hosts, (i + 1) % t.n_hosts)
                                   for i in range(1, 400)])
        engine.iterate(1)
        return engine


def run_engine_shm_dead_worker():
    with MulticoreNedEngine(topo(), 2, backend="process",
                            n_workers=2) as engine:
        _use_engine(engine)
        engine.backend._workers[1].terminate()
        engine.backend._workers[1].join(5.0)
        with pytest.raises(RuntimeError):
            engine.iterate(1)
        return engine


def run_service_and_client():
    t = topo()
    with FlowtuneService(t, mode="auto") as service:
        with FlowtuneClient(service.address, service.token_hex) as client:
            client.flowlet_start(0, t.route(0, 4))
            client.wait_for_rates([0], timeout=10.0)
    return service


COMPONENTS = {
    "engine-shm": run_engine_shm,
    "engine-shm-uneven": run_engine_shm_uneven,
    "engine-shm-regrow": run_engine_shm_regrow,
    "engine-shm-dead-worker": run_engine_shm_dead_worker,
    "service-client": run_service_and_client,
}


@pytest.mark.parametrize("component", COMPONENTS.values(),
                         ids=COMPONENTS.keys())
def test_with_block_leaves_no_residue(component):
    before = Snapshot()
    owner = component()
    before.assert_clean()
    # close() after __exit__ must be a no-op, not an error.
    owner.close()
    before.assert_clean()


def test_engine_close_idempotent_and_reentrant():
    engine = MulticoreNedEngine(topo(), 2, backend="process", n_workers=2)
    engine.close()
    engine.close()


def test_service_close_idempotent():
    service = FlowtuneService(topo(), mode="manual")
    service.start()
    service.close()
    service.close()
    with pytest.raises(RuntimeError, match="closed"):
        service.start()


def test_client_close_idempotent():
    t = topo()
    with FlowtuneService(t, mode="manual") as service:
        client = FlowtuneClient(service.address, service.token_hex)
        client.close()
        client.close()


def test_unstarted_service_closes_clean():
    before = Snapshot()
    service = FlowtuneService(topo())
    service.close()
    before.assert_clean()


def test_shared_arena_context_manager_releases_segments():
    """SharedArena joined the context-manager contract in PR 9."""
    from repro.parallel.shm import SharedArena

    before = shm_names()
    with SharedArena() as arena:
        arena.zeros("scratch", (64,))
        assert shm_names() - before, "arena allocated nothing"
    assert shm_names() <= before, "leaked /dev/shm segments"
    # close() after __exit__ must be a no-op, not an error.
    arena.close()
