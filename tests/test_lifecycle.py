"""Uniform resource lifecycle across the public API.

Every resource-owning object in the top-level namespace —
:class:`FlowtuneService`, :class:`FlowtuneClient` — promises the same
contract: usable as a context manager, idempotent ``close()``, and
*nothing leaked* after the ``with`` block — no socket fds, no child
processes, no threads.  One shared harness asserts exactly that for
each of them.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro import FlowtuneClient, FlowtuneService, TwoTierClos

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-backed components need the fork start method")


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
        self.sockets = socket_fds()
        self.children = set(multiprocessing.active_children())
        self.threads = set(threading.enumerate())

    def assert_clean(self):
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


def run_service_and_client():
    t = topo()
    with FlowtuneService(t, mode="auto") as service:
        with FlowtuneClient(service.address, service.token_hex) as client:
            client.flowlet_start(0, t.route(0, 4))
            client.wait_for_rates([0], timeout=10.0)
    return service


COMPONENTS = {
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
