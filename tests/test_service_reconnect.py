"""The unreliable client: reconnect/replay, backpressure, slow readers.

PR 7's hardening paths, tested against live services: a killed socket
resumed mid-churn still matches the in-process allocator bitwise, a
stale resume nonce is rejected without disturbing the real session's
grace window, the ingest rate limiter answers with BUSY credits, a
grace-window expiry ends flows (and purges usage) exactly like the
old dead-client path, and a wedged reader is dropped without stalling
anyone else's rate pushes.  Plus the satellite regressions: usage
purged on flow end, duplicate ids inside one END batch rejected, and
``spawn_service`` surfacing a dead child's stderr instead of hanging.
Review regressions ride along: a poisoned START (bad route, NaN
weight) drops only its sender instead of killing the duty cycle,
REPLAY_DONE closes the resume reconcile window, and close() from
another thread waits out a caller-owned run() loop.
"""

import threading
import time

import pytest

from repro import (FlowtuneAllocator, FlowtuneClient, FlowtuneService,
                   TwoTierClos)
from repro.parallel.fabric import FabricError
from repro.service import ServiceError, spawn_service


@pytest.fixture
def topo():
    return TwoTierClos(n_racks=2, hosts_per_rack=4, n_spines=2)


def _wait(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.01)


# ----------------------------------------------------------------------
# reconnect / replay
# ----------------------------------------------------------------------
class TestReconnectReplay:
    def test_kill_mid_churn_replay_matches_in_process_bitwise(self, topo):
        """The acceptance bar: a churn trace with a socket kill and a
        RESUME in the middle reproduces the in-process allocator's
        rates bitwise — the replayed journal lands exactly the churn
        the reference saw, in the same batches."""
        first = [(0, topo.route(0, 4), 1.0), (1, topo.route(1, 5), 1.0),
                 (2, topo.route(0, 5), 2.0)]
        second_starts = [(3, topo.route(2, 6), 1.0)]
        second_ends = [2]
        ref = FlowtuneAllocator(topo.link_set())
        with FlowtuneService(topo, mode="manual", resume_grace=30.0) as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.apply_churn(starts=first)
                snap = cli.step(40)
                ref.apply_churn(starts=first)
                expected = ref.iterate(40).rates
                assert snap.keys() == expected.keys()
                assert all(snap[f] == r for f, r in expected.items())

                # The unreliable moment: hard socket death mid-churn —
                # the end is journaled but its send fails, so only the
                # replay can deliver it.
                cli.kill()
                with pytest.raises((FabricError, OSError)):
                    cli.flowlet_end(2)
                cli.reconnect()
                assert cli.reconnects == 1
                assert svc.stats["resumes"] == 1
                cli.apply_churn(starts=second_starts, ends=second_ends)
                snap = cli.step(30)
                ref.apply_churn(starts=second_starts, ends=second_ends)
                expected = ref.iterate(30).rates
                assert snap.keys() == expected.keys()
                worst = max(abs(snap[f] - r) for f, r in expected.items())
                assert worst == 0.0

    def test_replay_restores_unacked_flows(self, topo):
        """Flows started but never granted a rate (manual mode, no
        STEP yet) survive a kill: the journal replays them."""
        with FlowtuneService(topo, mode="manual", resume_grace=30.0) as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(5, topo.route(0, 4))
                cli.flowlet_start(6, topo.route(1, 5))
                assert cli.journal_depth[0] == 2
                cli.kill()
                cli.reconnect()
                snap = cli.step(20)
                assert set(snap) == {5, 6}
                ref = FlowtuneAllocator(topo.link_set())
                ref.apply_churn(starts=[(5, topo.route(0, 4), 1.0),
                                        (6, topo.route(1, 5), 1.0)])
                expected = ref.iterate(20).rates
                assert all(snap[f] == r for f, r in expected.items())

    def test_resume_stale_nonce_rejected(self, topo):
        with FlowtuneService(topo, mode="auto", resume_grace=30.0) as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(1, topo.route(0, 4))
                cli.wait_for_rates([1], timeout=10.0)
                cli.kill()
                good_nonce = cli.resume_nonce
                cli.resume_nonce = good_nonce ^ 0xDEAD
                with pytest.raises(ServiceError, match="stale resume"):
                    cli.reconnect()
                # The rejection must not disturb the real session: the
                # flow is still alive and the true nonce still resumes.
                assert svc.n_flows == 1
                cli.resume_nonce = good_nonce
                cli.reconnect()
                assert cli.wait_for_rates([1], timeout=10.0)[1] > 0

    def test_auto_reconnect_transparent(self, topo):
        with FlowtuneService(topo, mode="auto", resume_grace=30.0) as svc:
            with FlowtuneClient(svc.address, svc.token_hex,
                                auto_reconnect=True) as cli:
                cli.flowlet_start(1, topo.route(0, 4))
                cli.wait_for_rates([1], timeout=10.0)
                cli.kill()
                # Next send hits the dead socket, reconnects, replays,
                # and delivers the new start — no exception surfaces.
                cli.flowlet_start(2, topo.route(1, 5))
                rates = cli.wait_for_rates([1, 2], timeout=10.0)
                assert rates[1] > 0 and rates[2] > 0
                assert cli.reconnects >= 1
                assert svc.stats["resumes"] >= 1
                assert svc.n_flows == 2

    def test_replay_window_closes_after_resume(self, topo):
        """REPLAY_DONE ends the reconcile window: a genuine duplicate
        start on a long-lived resumed connection is a protocol
        violation again, not silently swallowed forever."""
        from repro.service import wire
        with FlowtuneService(topo, mode="manual", resume_grace=30.0) as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(1, topo.route(0, 4))
                cli.step(5)
                cli.kill()
                cli.reconnect()
                assert svc.stats["resumes"] == 1
                cli._send(wire.encode_start([(1, topo.route(0, 4), 1.0)]))
                with pytest.raises(ServiceError,
                                   match="duplicate flowlet start"):
                    cli.poll(10.0)

    def test_grace_window_expiry_ends_flows_and_purges_usage(self, topo):
        with FlowtuneService(topo, mode="auto", resume_grace=0.3) as svc:
            cli = FlowtuneClient(svc.address, svc.token_hex)
            cid = cli.client_id
            cli.flowlet_start(9, topo.route(0, 4))
            cli.report_usage([(9, 12345.0)])
            cli.wait_for_rates([9], timeout=10.0)
            _wait(lambda: svc.usage_bytes(cid, 9) == 12345.0, 5.0,
                  "usage report to land")
            cli.kill()    # no BYE: enters the grace window
            _wait(lambda: svc.n_flows == 0, 10.0, "grace expiry")
            assert svc.stats["sessions_expired"] == 1
            assert svc.usage_bytes(cid, 9) is None
            # The session is gone: a resume attempt must be rejected.
            with pytest.raises(ServiceError, match="stale resume"):
                cli.reconnect()


# ----------------------------------------------------------------------
# ingest backpressure / slow readers
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_busy_credit_round_trip(self, topo):
        with FlowtuneService(topo, mode="auto", churn_rate=5.0,
                             churn_burst=3.0) as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                for fid in range(6):   # twice the bucket in one gulp
                    cli.flowlet_start(fid, topo.route(fid % 4,
                                                      4 + fid % 4))
                def saw_busy():
                    cli.poll(0.2)
                    return cli.busy_count > 0

                _wait(saw_busy, 10.0, "a BUSY reply")
                assert cli.busy_count >= 1
                retry_after, credit = cli.last_busy
                assert retry_after > 0
                assert credit == 3
                assert svc.stats["busy_sent"] >= 1
                # The flows all still land (the pause delays, never
                # drops) and the paced client keeps working.
                rates = cli.wait_for_rates(range(6), timeout=15.0)
                assert all(r > 0 for r in rates.values())

    def test_slow_reader_dropped_without_stalling_others(self, topo):
        with FlowtuneService(topo, mode="auto", max_outbox=4096,
                             sockbuf=4096, resume_grace=0.0) as svc:
            victim = FlowtuneClient(svc.address, svc.token_hex,
                                    sockbuf=4096)
            with FlowtuneClient(svc.address, svc.token_hex) as survivor:
                # A victim holding many flows (big push frames) that
                # never reads, while the survivor churns shared links
                # so everyone's rates keep moving.  One batch: the
                # server may drop the victim as soon as the first push
                # overflows, and a victim still sending single starts
                # at that moment would raise out of its own send.
                victim.apply_churn(starts=[
                    (fid, topo.route(fid % 4, 4 + fid % 4))
                    for fid in range(150)])
                deadline = time.monotonic() + 30.0
                fid = 1000
                while (svc.stats["slow_readers_dropped"] == 0
                       and time.monotonic() < deadline):
                    survivor.apply_churn(
                        starts=[(fid, topo.route(0, 4), 5.0)],
                        ends=[fid - 1] if fid > 1000 else [])
                    survivor.poll(0.01)
                    fid += 1
                assert svc.stats["slow_readers_dropped"] >= 1
                # The survivor's pushes kept flowing throughout and
                # still do after the drop.
                survivor.flowlet_start(7, topo.route(1, 5))
                assert survivor.wait_for_rates([7], timeout=10.0)[7] > 0
            victim.kill()

    def test_max_pending_rejected_in_manual_mode(self, topo):
        with pytest.raises(ValueError, match="manual mode"):
            FlowtuneService(topo, mode="manual", max_pending=10)


# ----------------------------------------------------------------------
# churn validation: a poisoned frame drops its sender, not the loop
# ----------------------------------------------------------------------
class TestChurnValidation:
    @pytest.mark.parametrize("flow, match", [
        pytest.param((0, [10**6], 1.0), "unknown link index",
                     id="bad-link-index"),
        pytest.param((0, [], 1.0), "route must have", id="empty-route"),
        pytest.param((0, [0] * 9, 1.0), "route must have",
                     id="too-many-hops"),
        pytest.param((0, [0], float("nan")), "weight must be > 0",
                     id="nan-weight"),
    ])
    def test_poisoned_start_drops_only_sender(self, topo, flow, match):
        """A START that would blow up apply_churn is rejected at
        dispatch: the sender gets an ERROR and is dropped; the duty
        cycle — and every other client — keeps running."""
        from repro.service import wire
        with FlowtuneService(topo, mode="auto") as svc:
            victim = FlowtuneClient(svc.address, svc.token_hex)
            with FlowtuneClient(svc.address, svc.token_hex) as survivor:
                survivor.flowlet_start(1, topo.route(0, 4))
                survivor.wait_for_rates([1], timeout=10.0)
                victim._send(wire.encode_start([flow]))
                with pytest.raises(ServiceError, match=match):
                    victim.poll(10.0)
                # The poison never reached the allocator, and the
                # service still pushes rates for fresh churn.
                assert svc.stats["churn_rejected"] == 0
                survivor.flowlet_start(2, topo.route(1, 5))
                assert survivor.wait_for_rates([2], timeout=10.0)[2] > 0
            victim.kill()

    def test_apply_churn_exception_does_not_kill_loop(self, topo):
        """Defense in depth: even a poisoned batch that bypasses
        dispatch validation is rejected without taking down the
        serving loop for every client."""
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(1, topo.route(0, 4))
                cli.wait_for_rates([1], timeout=10.0)
                # Straight into the queue, skipping the wire checks.
                svc.queue.push_start(("rogue", 99), [10**6], 1.0)
                _wait(lambda: svc.stats["churn_rejected"] >= 1, 10.0,
                      "the poisoned batch to be rejected")
                cli.flowlet_start(2, topo.route(1, 5))
                assert cli.wait_for_rates([2], timeout=10.0)[2] > 0
                assert svc.n_flows == 2


# ----------------------------------------------------------------------
# lifecycle: close() vs a caller-owned run() thread
# ----------------------------------------------------------------------
class TestCallerOwnedRun:
    def test_close_waits_for_run_on_foreign_thread(self, topo):
        """close() from another thread must let run() leave the loop
        before tearing down the selector — no exception may escape
        the serving thread."""
        svc = FlowtuneService(topo, mode="auto")
        errors = []

        def serve():
            try:
                svc.run()
            except BaseException as exc:  # noqa: BLE001 - the assertion
                errors.append(exc)

        thread = threading.Thread(target=serve, name="caller-owned-run")
        thread.start()
        try:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(1, topo.route(0, 4))
                cli.wait_for_rates([1], timeout=10.0)
        finally:
            svc.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert errors == []
        # And run() after close() is a clean no-op, not a crash on
        # the closed selector.
        svc.run()


# ----------------------------------------------------------------------
# satellite regressions
# ----------------------------------------------------------------------
class TestSatelliteRegressions:
    def test_usage_purged_on_flow_end(self, topo):
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cid = cli.client_id
                cli.flowlet_start(3, topo.route(0, 4))
                cli.report_usage([(3, 999.0)])
                _wait(lambda: svc.usage_bytes(cid, 3) == 999.0, 5.0,
                      "usage report to land")
                cli.flowlet_end(3)
                _wait(lambda: svc.usage_bytes(cid, 3) is None, 5.0,
                      "usage purge on flow end")

    def test_usage_purged_on_client_bye(self, topo):
        with FlowtuneService(topo, mode="auto") as svc:
            cli = FlowtuneClient(svc.address, svc.token_hex)
            cid = cli.client_id
            cli.flowlet_start(3, topo.route(0, 4))
            cli.report_usage([(3, 42.0)])
            _wait(lambda: svc.usage_bytes(cid, 3) == 42.0, 5.0,
                  "usage report to land")
            cli.close()   # BYE ends the session immediately
            _wait(lambda: svc.usage_bytes(cid, 3) is None, 5.0,
                  "usage purge on client drop")
            assert svc.n_flows == 0

    def test_end_batch_duplicate_id_rejected(self, topo):
        from repro.service import wire
        with FlowtuneService(topo, mode="auto") as svc:
            with FlowtuneClient(svc.address, svc.token_hex) as cli:
                cli.flowlet_start(4, topo.route(0, 4))
                cli.wait_for_rates([4], timeout=10.0)
                cli._send(wire.encode_end([4, 4]))
                with pytest.raises(ServiceError, match="unknown flowlet"):
                    cli.poll(10.0)

    def test_spawn_service_surfaces_child_stderr(self):
        t0 = time.monotonic()
        with pytest.raises(RuntimeError) as exc_info:
            spawn_service(extra_args=["--definitely-not-a-flag"],
                          ready_timeout=20.0)
        assert time.monotonic() - t0 < 25.0   # bounded, not a hang
        message = str(exc_info.value)
        assert "failed to start" in message
        assert "unrecognized arguments" in message
