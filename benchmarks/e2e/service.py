"""``service_10k``: a real ``python -m repro.service`` child over loopback.

One generator process, one thread, one ``FlowtuneClient`` connection.
An arrival is ``client.apply_churn(starts=[new], ends=[oldest])``; its
latency runs from the time it was *due* to the first RATES update that
names the new flow.  Four phases share the measured window:

``idle``      closed loop, one arrival at a time into a quiet server
``light``     open-loop Poisson at 200 arrivals/s
``loaded``    open-loop Poisson at 500 arrivals/s
``saturate``  closed loop, 64 arrivals outstanding

The end-to-end latency comes from ``idle``: with nothing to wait
behind it tracks the work one admission costs, and held a 3-9 % spread
between runs on the shared sandbox where the open-loop medians moved
by 10-30 % (at 55-80 % server utilisation a few percent of host speed
turn into tens of percent of queueing).  The open-loop phases give the
capacity metric and the per-layer percentiles.

Traffic crosses the host's loopback interface only; no real link.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import time

import numpy as np

from repro import (FabricError, FlowtuneClient, paper_topology,
                   spawn_service)
from repro.service import ServiceError, WireError, wire

from .inputs import make_inputs, poisson_schedule
from .measure import Calibration, cpu_seconds, summary_ms, vm_hwm_mb

__all__ = ["run"]

GAMMA = 0.4
#: (name, arrivals per second — or how the loop is closed —, share of
#: the window)
PHASES = (("idle", "one at a time", 5 / 15), ("light", 200.0, 4 / 15),
          ("loaded", 500.0, 3 / 15), ("saturate", "outstanding", 3 / 15))
OUTSTANDING = 64
#: ``idle`` phase: the server counts as quiet once no update has come
#: for this long (its convergence cycles are 0.5 ms apart).
QUIET_S = 0.004
ANSWER_TIMEOUT_S = 1.0
WARMUP_FRAC = 0.10
LATE_LIMIT_MS = 5.0
SLO_P99_MS = 25.0
FRAME_HEADER = 8            # the fabric's "!II" length + tag
_END_BYTES = FRAME_HEADER + len(wire.encode_end([0]))
_START_BASE = FRAME_HEADER + len(wire.encode_start([(0, [], 1.0)]))
_RATES_BASE = FRAME_HEADER + len(wire.encode_rates(0, 1, [], []))

clock = time.perf_counter


N_LIVE = 10_000
SMOKE_LIVE = 1_000


def pin_plan():
    """(generator cpu, child cpu) when two CPUs are allowed, else None."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    return allowed[0], allowed[1]


class Generator:
    """Sends arrivals, matches RATES updates to them, keeps the books."""

    def __init__(self, client, inputs, n_live: int) -> None:
        self.client = client
        self.inputs = inputs
        self.next_id = n_live
        self.oldest = 0
        self.outstanding = {}     # fid -> (due, send start, send end)
        self.answered = []        # (due, send start, send end, rate seen)
        self.backlog = []         # arrivals unanswered, at each send
        self.sent = 0
        self.expired = 0
        self.updates = 0
        self.bytes_in = 0         # client -> server, framed
        self.frames_seen = 0      # polls that returned data (>= 1 frame)
        self.poll_cpu = 0.0

    def send(self, due: float) -> None:
        fid = self.next_id
        route = self.inputs.route(fid)
        self.next_id += 1
        starts = [(fid, route)]
        ends = [self.oldest]
        self.oldest += 1
        t0 = clock()
        self.client.apply_churn(starts=starts, ends=ends)
        t1 = clock()
        self.outstanding[fid] = (due, t0, t1)
        self.backlog.append(len(self.outstanding))
        self.sent += 1
        self.bytes_in += _END_BYTES + _START_BASE + 4 * len(route)

    def receive(self, timeout: float) -> int:
        """Pump the connection; returns how many updates came."""
        c0 = time.thread_time()
        updates = self.client.poll(timeout)
        self.poll_cpu += time.thread_time() - c0
        if not updates:
            return 0
        now = clock()
        self.updates += len(updates)
        self.frames_seen += 1
        outstanding = self.outstanding
        for fid, _ in updates:
            if fid in outstanding:
                self.answered.append(outstanding.pop(fid) + (now,))
        return len(updates)

    def expire(self, now: float) -> None:
        """An arrival with no rate after the timeout has failed."""
        late = [fid for fid, entry in self.outstanding.items()
                if now - entry[0] > ANSWER_TIMEOUT_S]
        for fid in late:
            del self.outstanding[fid]
        self.expired += len(late)

    def drain(self, deadline: float) -> None:
        while self.outstanding and clock() < deadline:
            self.receive(0.02)
        self.expire(clock() + ANSWER_TIMEOUT_S)

    def mark(self) -> dict:
        return {"sent": self.sent, "expired": self.expired,
                "updates": self.updates, "answered": len(self.answered),
                "bytes_in": self.bytes_in, "frames": self.frames_seen,
                "poll_cpu": self.poll_cpu, "backlog": len(self.backlog)}


def _open_loop(gen: Generator, due, t_end: float) -> None:
    i, n = 0, len(due)
    while True:
        now = clock()
        if i < n and now >= due[i]:
            gen.send(due[i])
            i += 1
            continue
        if i >= n and now >= t_end:
            break
        # Socket timeouts round up to whole milliseconds, so block only
        # until 1 ms before the next arrival is due and spin the rest.
        wait = (due[i] if i < n else t_end) - now - 0.001
        gen.receive(min(wait, 0.05) if wait > 0.0005 else 0.0)
        gen.expire(now)
    gen.drain(clock() + ANSWER_TIMEOUT_S)


def _one_at_a_time(gen: Generator, t_end: float, calibration) -> None:
    """Closed loop, one arrival outstanding, each sent into a server
    that has gone quiet: admission latency with nothing to wait behind.
    The reference op runs while the server converges, on this CPU."""
    while clock() < t_end:
        gen.send(clock())
        gen.drain(clock() + ANSWER_TIMEOUT_S)
        quiet_since = clock()
        while clock() - quiet_since < QUIET_S:
            if gen.receive(0.0):
                quiet_since = clock()
            else:
                calibration.sample()


def _closed_loop(gen: Generator, t_end: float) -> None:
    while clock() < t_end:
        while len(gen.outstanding) < OUTSTANDING:
            gen.send(clock())
        gen.receive(0.05)
        gen.expire(clock())
    gen.drain(clock() + ANSWER_TIMEOUT_S)


def _setup(seed: int, n_live: int, pin, calibration):
    """Spawn a child, connect, populate, wait for rates to settle."""
    before = calibration.burst()
    t0 = clock()
    inputs = make_inputs(seed)
    t1 = clock()
    handle = spawn_service(racks=9, hosts_per_rack=16, spines=4,
                           mode="auto", gamma=GAMMA)
    try:
        if pin is not None:
            os.sched_setaffinity(handle.process.pid, {pin[1]})
        client = FlowtuneClient(handle.address, handle.token_hex)
    except BaseException:
        handle.close()
        raise
    t2 = clock()
    try:
        client.apply_churn(starts=inputs.starts(0, n_live))
        client.wait_for_rates(range(n_live), timeout=60.0)
        t3 = clock()
        settled = t3
        while client.poll(0.15):
            settled = clock()
    except BaseException:
        client.close()
        handle.close()
        raise
    stages = {"routes_s": t1 - t0, "spawn_s": t2 - t1,
              "populate_s": t3 - t2, "converge_s": settled - t3,
              "slowdown": (before + calibration.burst()) / 2}
    return inputs, handle, client, stages


def _shutdown(handle, client, failures) -> None:
    """SHUTDOWN must end the child with exit code 0."""
    try:
        client.shutdown_service()
        code = handle.process.wait(timeout=10.0)
        if code != 0:
            failures.append(f"service child exited with code {code}")
    except (FabricError, OSError, subprocess.TimeoutExpired) as exc:
        failures.append(f"service shutdown failed: {exc!r}")
    finally:
        client.close()
        handle.close()


def _final_check(client, gen: Generator, inputs, n_live, failures) -> None:
    """After a quiesce, a fresh SNAPSHOT (forced through the public
    reconnect path) must hold exactly the live flows, at rates that
    fit every link."""
    while client.poll(0.2):
        pass
    live = set(range(gen.oldest, gen.next_id))
    if len(live) != n_live:
        failures.append(f"{len(live)} flows live, expected {n_live}")
    client.reconnect()
    deadline = clock() + 5.0
    rates = client.rates
    while set(rates) != live and clock() < deadline:
        client.poll(0.1)
        rates = client.rates
    if set(rates) != live:
        failures.append(
            f"client knows {len(rates)} rates, {len(live)} flows are live "
            f"({len(live - set(rates))} missing)")
        return
    values = np.array([rates[fid] for fid in live])
    if not (np.isfinite(values).all() and (values > 0).all()):
        failures.append("a client-side rate is not finite and positive")
    capacity = paper_topology().link_set().capacity
    routes = [inputs.route(fid) for fid in live]
    load = np.bincount(np.concatenate(routes),
                       weights=np.repeat(values, [len(r) for r in routes]),
                       minlength=len(capacity))
    if (load > capacity * (1.0 + 1e-9)).any():
        failures.append(f"client-side rates load a link to "
                        f"{float((load / capacity).max()):.6f} of capacity")


def _phase_stats(name, gen: Generator, before, after, t_begin, t_end,
                 cpu_used, warm_until) -> dict:
    answered = gen.answered[before["answered"]:after["answered"]]
    kept = [a for a in answered if a[0] >= warm_until]
    sent = after["sent"] - before["sent"]
    expired = after["expired"] - before["expired"]
    wall = t_end - t_begin
    stats = {
        "name": name, "sent": sent, "succeeded": len(answered),
        "failed": expired, "wall_s": wall, "cpu_s": cpu_used,
        "updates": after["updates"] - before["updates"],
        "bytes_in": after["bytes_in"] - before["bytes_in"],
        "frames": after["frames"] - before["frames"],
        "poll_cpu_s": after["poll_cpu"] - before["poll_cpu"],
        "answered_spans": kept,
    }
    if kept:
        stats["latency_ms"] = summary_ms([a[3] - a[0] for a in kept])
        stats["late_ms"] = summary_ms([a[1] - a[0] for a in kept])
        stats["send_us"] = float(np.mean([a[2] - a[1] for a in kept])) * 1e6
    # Backlog: unanswered arrivals sampled at each send; the phase has a
    # growing backlog when every quarter ends deeper than the one before
    # and the last is more than twice the first.
    backlog = gen.backlog[before["backlog"]:after["backlog"]]
    quarters = [float(np.mean(chunk)) for chunk in
                np.array_split(backlog, 4) if len(chunk)]
    stats["backlog_quarters"] = quarters
    stats["backlog_growing"] = (
        len(quarters) == 4
        and all(b > a for a, b in zip(quarters, quarters[1:]))
        and quarters[-1] > 2.0 * quarters[0] + 1.0)
    return stats


def run(seed: int, seconds: float, smoke: bool, recorder=None,
        mirror_factory=None, setups: int = 3) -> dict:
    n_live = SMOKE_LIVE if smoke else N_LIVE
    pin = pin_plan()
    if pin is not None:
        os.sched_setaffinity(0, {pin[0]})
    failures = []
    stage_samples = []
    calibration = Calibration()
    for _ in range(setups - 1):
        _, handle, client, stages = _setup(seed, n_live, pin, calibration)
        stage_samples.append(stages)
        _shutdown(handle, client, failures)
    inputs, handle, client, stages = _setup(seed, n_live, pin, calibration)
    stage_samples.append(stages)
    child = handle.process.pid

    gen = Generator(client, inputs, n_live)
    phases = {}
    schedule_hash = hashlib.sha256(inputs.digest.encode())
    error_frames = 0
    try:
        for name, rate, share in PHASES:
            duration = seconds * share
            before = gen.mark()
            cpu0 = cpu_seconds(child)
            t_begin = clock()
            t_end = t_begin + duration
            if rate == "one at a time":
                _one_at_a_time(gen, t_end, calibration)
            elif rate == "outstanding":
                _closed_loop(gen, t_end)
            else:
                due = poisson_schedule(seed, name, rate, duration)
                schedule_hash.update(due.tobytes())
                _open_loop(gen, t_begin + due, t_end)
            t_done = clock()
            phases[name] = _phase_stats(
                name, gen, before, gen.mark(), t_begin, t_done,
                cpu_seconds(child) - cpu0,
                warm_until=t_begin + WARMUP_FRAC * duration)
            if name == "idle":
                phases[name]["slowdown"] = calibration.slowdown(t_begin,
                                                                t_done)
        peak_rss = vm_hwm_mb(child)
        _final_check(client, gen, inputs, n_live, failures)
    except (ServiceError, WireError, FabricError, TimeoutError) as exc:
        error_frames += isinstance(exc, ServiceError)
        failures.append(f"service run aborted: {exc!r}")
        peak_rss = vm_hwm_mb(child) if handle.process.poll() is None else 0.0
    busy_frames = client.busy_count
    _shutdown(handle, client, failures)

    for stats in phases.values():
        if stats["failed"]:
            failures.append(f"{stats['name']}: {stats['failed']} arrivals "
                            f"had no rate within {ANSWER_TIMEOUT_S} s")
    t0 = clock()
    if recorder is not None:
        _record_spans(recorder, phases)
    record_spans_s = clock() - t0
    out = {
        "n_live": n_live,
        "input_hash": schedule_hash.hexdigest()[:16],
        "attempted": gen.sent, "failed_arrivals": gen.expired,
        "failures": failures, "stage_samples": stage_samples,
        "phases": phases, "peak_rss_mb": peak_rss,
        "busy_frames": busy_frames, "error_frames": error_frames,
        "pinned": pin, "rates_frame_base": _RATES_BASE,
        "record_spans_s": record_spans_s,
    }
    if mirror_factory is not None:
        out["mirror"] = mirror_factory(inputs, n_live)
    return out


def _record_spans(recorder, phases) -> None:
    op = 0
    for name, stats in phases.items():
        # One root name per phase, so each gets a layer table of its own.
        root_name = "op" if name == "idle" else f"op.{name}"
        for due, sent0, sent1, seen in stats["answered_spans"]:
            op += 1
            root = recorder.add(root_name, due, seen, op=op)
            if sent0 > due:
                recorder.add("bench.generator_late", due, sent0, root, op)
            recorder.add("service.client.apply_churn", sent0, sent1, root, op)
            recorder.add("wait", sent1, seen, root, op)
