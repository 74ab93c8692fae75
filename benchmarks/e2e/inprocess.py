"""The three in-process workloads: one scheduler, driven in a closed loop.

An op is what a driver does once per allocator tick: hand the
scheduler a batch of flowlet ends and starts, (sampled mode) report
the new flows' byte counts, run one iteration, and read the rates at
``update_indices``.  Population is held at ``n_live`` by ending the
oldest flowlet for every start.  Inputs for an op are built before its
clock starts; checks and probes run after it stops.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass

import numpy as np

from repro import make_scheduler, paper_topology

from .inputs import make_inputs
from .measure import (N_SLICES, Calibration, slice_rates, summary_ms,
                      vm_hwm_mb)

__all__ = ["InProcessSpec", "Driver", "setup", "run"]

GAMMA = 0.4
CONVERGE_ITERS = 50
REPLAY_OPS = 20
CHECK_EVERY = 200
PROBE_EVERY = 50
WARMUP_FRAC = 0.10
#: Traced and untraced ops alternate in blocks of this many (a
#: multiple of the sampled scheduler's 4-op mice-refresh period).
TRACE_BLOCK = 20
#: Sampled mode only: ops run during set-up so the priced set reaches
#: its steady size (elephants promoted at populate demote after the
#: detector's 100 idle epochs; its idle scan runs every 25).
SAMPLED_WARM_OPS = 150
#: Sampled mode only: further untimed ops on the measured scheduler
#: before its window opens, in turnovers of the population (n_live /
#: churn = 400 ops).  The scheme's update traffic takes about five
#: turnovers to become stationary — 63 updates per flowlet over the
#: first 500 ops, 8.2 from op 2000 on — and a window that opens earlier
#: measures a transient whose average depends on how many ops the host
#: gets through.
SAMPLED_SETTLE_TURNOVERS = 4.5

clock = time.perf_counter


@dataclass(frozen=True)
class InProcessSpec:
    name: str
    mode: str           # make_scheduler mode
    n_live: int
    churn: int          # flowlets started (and ended) per op
    smoke_live: int
    smoke_churn: int

    def sized(self, smoke: bool) -> tuple[int, int]:
        if smoke:
            return self.smoke_live, self.smoke_churn
        return self.n_live, self.churn


class CheckFailed(AssertionError):
    """An output of the program failed a correctness check."""


class Driver:
    """Feeds one scheduler its churn stream and runs ops on it."""

    def __init__(self, spec: InProcessSpec, inputs, scheduler, n_live: int,
                 churn: int) -> None:
        self.inputs = inputs
        self.scheduler = scheduler
        self.n_live = n_live
        self.churn = churn
        self.next_id = n_live
        self.oldest = 0
        self.sampled = spec.mode == "sampled"
        self.worst_load = 0.0

    def batch(self):
        """Inputs of the next op: ``(starts, ends, usage)``."""
        k = self.churn
        first = self.next_id
        starts = self.inputs.starts(first, k)
        ends = range(self.oldest, self.oldest + k)
        usage = None
        if self.sampled:
            size = self.inputs.size
            usage = [(fid, size(fid)) for fid in range(first, first + k)]
        self.next_id += k
        self.oldest += k
        return starts, ends, usage

    def op(self, batch):
        """One op; returns its boundary timestamps, result and rates."""
        starts, ends, usage = batch
        scheduler = self.scheduler
        t0 = clock()
        scheduler.apply_churn(starts=starts, ends=ends)
        t1 = clock()
        if usage is not None:
            report = scheduler.report_usage
            for fid, nbytes in usage:
                report(fid, nbytes)
        t2 = clock()
        result = scheduler.iterate(1)
        t3 = clock()
        rates = result.rate_vector[result.update_indices]
        t4 = clock()
        return (t0, t1, t2, t3, t4), result, rates

    # ------------------------------------------------------------------
    # correctness checks (never inside a timed region)
    # ------------------------------------------------------------------
    def check(self, batch, result) -> None:
        scheduler = self.scheduler
        rates = np.asarray(result.rate_vector, dtype=np.float64)
        if not (np.isfinite(rates).all() and (rates > 0.0).all()):
            raise CheckFailed("a rate is not finite and positive")
        load = scheduler.link_load(rates)
        capacity = scheduler.full_links.capacity
        self.worst_load = max(self.worst_load, float((load / capacity).max()))
        if self.sampled:
            # Only the priced half is normalized to capacity; the mice
            # are a fair-share model with a guaranteed floor, so the
            # merged vector is reported (``worst_load``), not asserted.
            priced = getattr(scheduler, "priced", None)
            load = (priced.link_load(rates[:priced.n_flows])
                    if priced is not None else None)
        if load is not None and (load > capacity * (1.0 + 1e-9)).any():
            worst = float((load / capacity).max())
            raise CheckFailed(f"a link is loaded to {worst:.6f} of capacity")
        notified = {update.flow_id for update in result.updates}
        missing = [start[0] for start in batch[0]
                   if start[0] not in notified]
        if missing:
            raise CheckFailed(f"{len(missing)} started flows were not "
                              "in update_indices")
        if scheduler.n_flows != self.n_live or len(rates) != self.n_live:
            raise CheckFailed(f"n_flows {scheduler.n_flows} != {self.n_live}")
        if self.sampled and not 0 < scheduler.n_priced < self.n_live:
            raise CheckFailed(f"n_priced {scheduler.n_priced} out of range")


def setup(spec: InProcessSpec, seed: int, smoke: bool):
    """Build inputs and a converged scheduler; returns the driver and
    the four set-up stage times."""
    n_live, churn = spec.sized(smoke)
    t0 = clock()
    inputs = make_inputs(seed)
    t1 = clock()
    scheduler = make_scheduler(paper_topology().link_set(), mode=spec.mode,
                               gamma=GAMMA)
    scheduler.apply_churn(starts=inputs.starts(0, n_live))
    driver = Driver(spec, inputs, scheduler, n_live, churn)
    if driver.sampled:
        for fid in range(n_live):
            scheduler.report_usage(fid, inputs.size(fid))
    t2 = clock()
    scheduler.iterate(CONVERGE_ITERS)
    if driver.sampled:
        for _ in range(SAMPLED_WARM_OPS):
            driver.op(driver.batch())
    t3 = clock()
    stages = {"routes_s": t1 - t0, "spawn_s": 0.0, "populate_s": t2 - t1,
              "converge_s": t3 - t2}
    return driver, stages


def _replay_reference(spec, seed, smoke):
    """Set a twin up from the same seed and record its first ops."""
    twin, stages = setup(spec, seed, smoke)
    reference = []
    for _ in range(REPLAY_OPS):
        _, result, _ = twin.op(twin.batch())
        reference.append((np.array(result.rate_vector, dtype=np.float64),
                          np.array(result.update_indices)))
    return reference, stages


def run(spec: InProcessSpec, seed: int, seconds: float, smoke: bool,
        recorder=None, probes=None, extra_setups: int = 1) -> dict:
    """Set up (twin, scheduler and ``extra_setups`` more, each timed),
    check, measure for ``seconds``.

    With a ``recorder`` the ops alternate, in blocks, between traced
    (spans recorded, probes run) and untraced; the E2E numbers of such
    a run are not reported, only its layers and the overhead.
    """
    # One CPU: on this host the second vCPU comes and goes (identical
    # runs used 0.99 or 1.28 CPU-seconds per busy second), which moved
    # the threaded kernels' op time by 20 % and which a single-threaded
    # reference op cannot see.
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})
    calibration = Calibration()
    stage_samples = []

    def timed_setup(build):
        before = calibration.burst()
        built, stages = build(spec, seed, smoke)
        stages["slowdown"] = (before + calibration.burst()) / 2
        stage_samples.append(stages)
        return built

    for _ in range(extra_setups):
        timed_setup(setup)
    # The twin is set up, run and dropped before the scheduler that is
    # measured exists, so peak RSS is that of one scheduler.
    reference = timed_setup(_replay_reference)
    gc.collect()
    driver = timed_setup(setup)

    failures = []
    attempted = 0
    for step, (ref_rates, ref_updates) in enumerate(reference):
        _, result, _ = driver.op(driver.batch())
        attempted += 1
        same = (np.array_equal(np.asarray(result.rate_vector), ref_rates)
                and np.array_equal(result.update_indices, ref_updates))
        if not same:
            failures.append(f"replay op {step}: rate vectors differ from "
                            "the twin's")
    del reference
    if driver.sampled:
        turnover = driver.n_live // driver.churn
        for _ in range(int(SAMPLED_SETTLE_TURNOVERS * turnover)):
            driver.op(driver.batch())
            attempted += 1

    durations, reference_s, cpu, traced_flags = [], [], [], []
    updates = starts = 0
    window_start = clock()
    window_end = window_start + seconds
    measured_from = window_start + WARMUP_FRAC * seconds
    index = 0
    mice = getattr(driver.scheduler, "mice", None)
    while True:
        batch = driver.batch()
        traced = recorder is not None and (index // TRACE_BLOCK) % 2 == 0
        refresh = traced and mice is not None and mice.will_refresh()
        cpu0 = time.process_time()
        stamps, result, _ = driver.op(batch)
        cpu1 = time.process_time()
        host = calibration.sample()
        attempted += 1
        index += 1
        if stamps[0] >= measured_from:
            durations.append(stamps[4] - stamps[0])
            reference_s.append(host)
            cpu.append(cpu1 - cpu0)
            traced_flags.append(traced)
            updates += len(result.update_indices)
            starts += driver.churn
            if traced:
                _record_op(recorder, driver, index, stamps, refresh)
        if index % CHECK_EVERY == CHECK_EVERY - 1:
            try:
                driver.check(batch, result)
            except CheckFailed as exc:
                failures.append(f"op {index}: {exc}")
        if probes is not None:
            probes.after_op(driver, batch, result, traced,
                            due=index % PROBE_EVERY == 0)
        if clock() >= window_end:
            break
    peak_rss = vm_hwm_mb()
    try:
        driver.check(batch, result)
    except CheckFailed as exc:
        failures.append(f"final op: {exc}")

    raw = np.asarray(durations)
    reference_s = np.asarray(reference_s)
    # Host calibration, slice by slice: every op time is divided by the
    # slowdown the reference op showed during the same run of ops.
    calibrated = raw.copy()
    slowdowns = []
    for chunk in np.array_split(np.arange(len(raw)), N_SLICES):
        if len(chunk):
            slowdown = (np.median(reference_s[chunk])
                        / Calibration.REFERENCE_S)
            calibrated[chunk] /= slowdown
            slowdowns.append(float(slowdown))
    rates = slice_rates(calibrated)
    out = {
        "n_live": driver.n_live, "churn": driver.churn,
        "pinned": [pinned],
        "input_hash": driver.inputs.digest,
        "attempted": attempted, "failures": failures,
        "stage_samples": stage_samples,
        "ops_measured": len(raw),
        "ops_per_s": float(np.median(rates)),
        "ops_per_s_quartiles": [float(q) for q in
                                np.percentile(rates, [25, 50, 75])],
        "ops_per_s_raw": float(np.median(slice_rates(raw))),
        "n_slices": len(rates),
        "op_ms": summary_ms(calibrated), "op_ms_raw": summary_ms(raw),
        "host_slowdown": float(np.median(slowdowns)),
        "host_slowdown_range": [min(slowdowns), max(slowdowns)],
        "cpu_s_per_busy_s": float(np.sum(cpu) / raw.sum()),
        "updates_per_flowlet": updates / starts,
        "peak_rss_mb": peak_rss, "worst_link_load": driver.worst_load,
        "durations": raw,
        "traced_flags": np.asarray(traced_flags, dtype=bool),
    }
    if driver.sampled:
        out["n_priced"] = driver.scheduler.n_priced
        out["priced_fraction"] = driver.scheduler.priced_fraction
    return out


def _record_op(recorder, driver, index, stamps, refresh):
    t0, t1, t2, t3, t4 = stamps
    root = recorder.add("op", t0, t4, op=index)
    if driver.sampled:
        recorder.add("sampling.sampled.apply_churn", t0, t1, root, index)
        recorder.add("sampling.detector.observe", t1, t2, root, index)
        name = ("sampling.sampled.iterate_refresh" if refresh
                else "sampling.sampled.iterate_plain")
        recorder.add(name, t2, t3, root, index)
    else:
        recorder.add("core.network.apply_churn", t0, t1, root, index)
        recorder.add("core.allocator.iterate", t2, t3, root, index)
    recorder.add("result.gather_rates", t3, t4, root, index)
