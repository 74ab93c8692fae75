"""Worker-process execution of the multicore NED engine (§5-6.1).

Where :class:`~repro.parallel.engine.SimulatedBackend` time-slices the
``n x n`` processor grid inside one Python process, this backend runs
it on a persistent pool of **real worker processes** on one host:

* each worker owns one or more FlowBlocks (grid cells, assigned
  round-robin so worker counts that don't divide the grid still work);
* every hot array lives in one :class:`~repro.parallel.shm.SharedArena`:
  per-cell ``FlowTable`` columns (through the table's allocator hook),
  the price/load/Hessian matrices one row per grid cell, the per-cell
  count/version vectors and the capacity/idle-price vectors.  Workers
  inherit the mappings over ``fork``, so churn reaches them when the
  parent refreshes the count/version vectors before an iterate; only
  a cell whose route storage grew or widened re-attaches by segment
  name;
* one iteration follows the exact phase structure of the simulated
  engine: local Equation-3 rate work, the fig. 3 diagonal aggregation
  schedule, the Equation-4 price update on the authoritative diagonal
  holders, and the reverse distribution schedule.  Within a step every
  transfer touches a disjoint LinkBlock slice, so each worker applies
  the transfers whose destination it owns by reading the source rows
  in place, without locks; a
  :class:`~repro.parallel.shm.SenseReversingBarrier` round closes
  every step.

Because both backends execute the same float operations in the same
order (they share :func:`~repro.parallel.engine.ned_price_update` and
the :mod:`repro.core.kernels` gather/scatter reductions), the process
backend reproduces the simulated engine's floats; the cross-backend
test suite asserts bitwise equality, churn included.

Control flow: the parent drives each worker over a pipe (iterate,
re-attach, stop); the workers' per-iteration exchanges stay entirely
in shared memory.  Needs the ``fork`` start method (Linux).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import traceback
from types import SimpleNamespace

import numpy as np

from ..core import kernels
from ..core.network import FlowTable
from ..net import FabricError
from .aggregation import final_down_holder, final_up_holder
from .cost_model import cpu_of
from .engine import ParallelBackend, _Processor, ned_price_update
from .shm import SenseReversingBarrier, SharedArena, attach

__all__ = ["ProcessBackend"]


class CellPlan:
    """Worker-side handle on one owned grid cell's flow state.

    The arrays are shared-memory views of the cell's ``FlowTable``
    storage, inherited over ``fork`` (or re-attached): the worker
    kernels read the very hop-major ``(width, capacity)`` route
    storage the parent's table writes.
    """

    __slots__ = ("row", "routes", "weights", "bottleneck", "floor",
                 "floor_version", "_keepalive")

    def __init__(self, row, routes, weights, bottleneck):
        self.row = row
        self.routes = routes
        self.weights = weights
        self.bottleneck = bottleneck
        self.floor = None
        self.floor_version = None
        self._keepalive = None

    def rebind(self, manifest):
        """Re-attach after the parent re-allocated this cell's shm
        arrays (FlowTable growth or a wider route); the old
        fork-inherited views stay valid until dropped, so swapping
        references is enough."""
        arrays, keepalive = attach(manifest)
        self.routes = arrays["routes"]
        self.weights = arrays["weights"]
        self.bottleneck = arrays["column0"]  # FlowTable's bottleneck
        self._keepalive = keepalive


def _compute_cell_rates(plan, shared, consts, scratch):
    """Phase 1 for one cell: Equation-3 rates and G/H partials.

    Mirrors the simulated engine's use of ``FlowTable.price_sums`` /
    ``link_totals2``: the same shared hop-major route storage (slack
    slots carry the pad link, bitwise-neutral in every kernel) through
    the same :mod:`repro.core.kernels` functions, in the same
    chunk → column → flow order, so the floats come out identical
    (the kernels carry no scratch state, so a worker holds none for
    them either).
    """
    n = int(shared.counts[plan.row])
    load_row = shared.load[plan.row]
    hessian_row = shared.hessian[plan.row]
    if n == 0:
        load_row[:] = 0.0
        hessian_row[:] = 0.0
        return
    n_links = consts["n_links"]
    utility = consts["utility"]
    weights = plan.weights[:n]
    version = int(shared.versions[plan.row])
    scratch[:n_links] = shared.prices[plan.row]
    scratch[n_links] = 0.0  # pad link: price zero
    rho = kernels.price_sums(scratch, plan.routes, n)
    if plan.floor_version != version:
        plan.floor = utility.inverse_rate(plan.bottleneck[:n], weights)
        plan.floor_version = version
    rho = np.maximum(rho, plan.floor)
    rates = utility.rate(rho, weights)
    derivative = utility.rate_derivative(rho, weights)
    totals_load, totals_hessian = kernels.link_totals2(
        rates, derivative, plan.routes, n, n_links + 1)
    load_row[:] = totals_load[:-1]
    hessian_row[:] = totals_hessian[:-1]


def _one_iteration(plans, shared, barrier, consts):
    """One full engine iteration from a single worker's point of view.

    Each schedule step lists the transfers whose destination this
    worker owns as ``(dst_row, src_row, link_idx)``; the source row is
    read straight out of shared memory.  Transfers within a step touch
    disjoint LinkBlock slices, so no peer writes what this worker
    reads, and the float reduction order matches the simulated
    engine's phase structure exactly.  A barrier round closes every
    step.
    """
    for plan in plans:
        _compute_cell_rates(plan, shared, consts, consts["scratch"])
    barrier.wait()

    load, hessian, prices = shared.load, shared.hessian, shared.prices
    for step in consts["agg_plan"]:
        for dst_row, src_row, idx in step:
            load[dst_row, idx] += load[src_row, idx]
            hessian[dst_row, idx] += hessian[src_row, idx]
        barrier.wait()

    for row, idx in consts["price_plan"]:
        ned_price_update(prices[row], load[row], hessian[row], idx,
                         shared.capacity, shared.idle_price,
                         consts["gamma"])
    barrier.wait()

    for step in consts["dist_plan"]:
        for dst_row, src_row, idx in step:
            prices[dst_row, idx] = prices[src_row, idx]
        barrier.wait()


def _worker_loop(conn, barrier, shared, plans, consts):
    """Command loop of one worker process."""
    consts["scratch"] = np.empty(consts["n_links"] + 1, dtype=np.float64)
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "stop":
                break
            elif command == "reattach":
                _, row, manifest = message
                for plan in plans:
                    if plan.row == row:
                        plan.rebind(manifest)
            elif command == "iterate":
                for _ in range(message[1]):
                    _one_iteration(plans, shared, barrier, consts)
                conn.send(("done",))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown command {command!r}")
    except Exception:  # noqa: BLE001 - forwarded to the parent
        barrier.abort()  # unblock peers; they error out and report too
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass


class ProcessBackend(ParallelBackend):
    """Persistent worker pool over one shared-memory arena.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.parallel.engine.MulticoreNedEngine`;
        its ``processors`` dict is populated here with shm-backed
        tables and price rows.
    n_workers:
        Worker processes; defaults to ``min(grid cells, cpu_count)``.
        Clamped to the number of grid cells.
    reserve_per_block:
        Pre-grow each FlowBlock's table to this many flows so steady
        churn never triggers a re-allocate + re-attach.
    timeout:
        Seconds to wait for a worker's iteration acknowledgement (and
        for a barrier round) before declaring the pool wedged.
    """

    name = "process"

    def __init__(self, engine, n_workers=None, reserve_per_block=0,
                 timeout=600.0):
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise RuntimeError("backend='process' needs the fork start "
                               "method (POSIX)") from exc
        self.engine = engine
        self.timeout = float(timeout)
        self._arena = SharedArena()
        self._workers = []
        self._conns = []
        self._barrier = None
        self._closed = False
        try:
            self._setup(engine, n_workers, reserve_per_block)
        except Exception:
            self.close()
            raise

    def _setup(self, engine, n_workers, reserve_per_block):
        partition = engine.partition
        n = partition.n_blocks
        n_procs = partition.n_processors
        n_links = engine.links.n_links
        if n_workers is None:
            n_workers = min(n_procs, os.cpu_count() or 1)
        self.n_workers = max(1, min(int(n_workers), n_procs))

        self._cells = partition.grid_cells()
        row_of = {cell: i for i, cell in enumerate(self._cells)}
        # Round-robin cell ownership: worker w owns rows w, w+W, ...
        owner = self._owner_of_row = [i % self.n_workers
                                      for i in range(n_procs)]

        arena = self._arena
        shared = self._shared = SimpleNamespace(
            prices=arena.full("prices", (n_procs, n_links), 1.0),
            load=arena.zeros("load", (n_procs, n_links)),
            hessian=arena.zeros("hessian", (n_procs, n_links)),
            counts=arena.zeros("counts", (n_procs,), np.int64),
            versions=arena.zeros("versions", (n_procs,), np.int64),
            capacity=arena.allocate("capacity", (n_links,), np.float64),
            idle_price=arena.allocate("idle_price", (n_links,), np.float64))
        shared.capacity[:] = engine.links.capacity
        shared.idle_price[:] = engine._idle_price
        # The §7 path (engine.refresh_capacity after an in-place
        # capacity change) must reach workers: the engine's idle-price
        # vector is re-pointed at the shared copy so its in-place
        # refresh is worker-visible with no extra message.
        engine._idle_price = shared.idle_price

        engine.processors = {}
        for i, cell in enumerate(self._cells):
            table = FlowTable(engine.links,
                              max_route_len=engine.max_route_len,
                              allocator=arena.allocator(f"cell{i}"))
            if reserve_per_block:
                table.reserve(int(reserve_per_block))
            engine.processors[cell] = _Processor(
                cell, engine.links, engine.max_route_len,
                table=table, prices=shared.prices[i])

        def split(steps):
            """Per worker, per step: the transfers it receives."""
            per_worker = [[] for _ in range(self.n_workers)]
            for step in steps:
                recvs = [[] for _ in range(self.n_workers)]
                for t in step:
                    dst_row = row_of[t.dst]
                    recvs[owner[dst_row]].append(
                        (dst_row, row_of[t.src],
                         partition.link_block(t.block, t.upward)))
                for w in range(self.n_workers):
                    per_worker[w].append(recvs[w])
            return per_worker

        agg_plans = split(engine._agg_steps)
        dist_plans = split(engine._dist_steps)

        price_plans = [[] for _ in range(self.n_workers)]
        for block in range(n):
            for holder, idx in (
                    (final_up_holder(n, block),
                     partition.upward_links[block]),
                    (final_down_holder(n, block),
                     partition.downward_links[block])):
                row = row_of[holder]
                price_plans[owner[row]].append((row, idx))

        # Static per-iteration §6.1 communication counts (identical to
        # what the simulated backend tallies while moving the data).
        messages = inter_cpu = entries = 0
        for step in engine._agg_steps + engine._dist_steps:
            for t in step:
                messages += 1
                entries += partition.links_per_block
                if cpu_of(t.src, n) != cpu_of(t.dst, n):
                    inter_cpu += 1
        self._per_iteration = (messages, inter_cpu, entries,
                               len(engine._agg_steps))

        # Each cell's route storage shape (width x capacity) as the
        # workers will inherit it: _sync re-attaches a worker whenever
        # the parent's table has re-allocated (grown or widened) since.
        self._shape_seen = [engine.processors[cell].table._routes.shape
                            for cell in self._cells]
        phases, arrive, gates = SenseReversingBarrier.alloc(
            arena, self._ctx, self.n_workers)
        self._barrier = SenseReversingBarrier(
            phases, arrive, gates, 0, self.n_workers, timeout=self.timeout)
        for w in range(self.n_workers):
            plans = []
            for i, cell in enumerate(self._cells):
                if owner[i] == w:
                    table = engine.processors[cell].table
                    plans.append(CellPlan(i, table._routes, table._weights,
                                          table._bottleneck._data))
            consts = {
                "n_links": n_links,
                "utility": engine.utility,
                "gamma": engine.gamma,
                "agg_plan": agg_plans[w],
                "dist_plan": dist_plans[w],
                "price_plan": price_plans[w],
            }
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_worker_loop,
                args=(child_conn, self._barrier.for_worker(w), shared,
                      plans, consts),
                daemon=True, name=f"ned-worker-{w}")
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._workers.append(process)

    # ------------------------------------------------------------------
    # parent-side operations
    # ------------------------------------------------------------------
    def _sync(self):
        """Publish per-cell flow counts/versions; re-attach any cell
        whose shared arrays were re-allocated (table growth or
        widening) since the owning worker last mapped them."""
        counts, versions = self._shared.counts, self._shared.versions
        for row, cell in enumerate(self._cells):
            table = self.engine.processors[cell].table
            # Flush the lazily-recomputed bottleneck column into the
            # shared array (O(1) unless refresh_capacity marked it
            # dirty) — workers read the raw column, not the property.
            table.bottleneck_capacity()
            counts[row] = table.n_flows
            versions[row] = table.version
            shape = table._routes.shape
            if shape != self._shape_seen[row]:
                self._send(self._owner_of_row[row],
                           ("reattach", row,
                            self._arena.manifest(f"cell{row}")))
                self._shape_seen[row] = shape

    def _send(self, worker, message):
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as exc:
            raise FabricError(f"worker {worker} is dead") from exc

    def _iterate(self, n):
        for w in range(len(self._conns)):
            self._send(w, ("iterate", n))
        errors = []
        # One shared deadline across workers: a wedged pool fails after
        # ~timeout total, not n_workers x timeout.
        deadline = time.monotonic() + self.timeout
        for w, conn in enumerate(self._conns):
            if not conn.poll(max(0.05, deadline - time.monotonic())):
                raise FabricError(f"worker {w} did not finish within "
                                  f"{self.timeout:.0f}s")
            try:
                message = conn.recv()
            except (EOFError, OSError) as exc:
                # Worker died without replying (killed, segfault).
                raise FabricError(
                    f"worker {w} died mid-iteration") from exc
            if message[0] == "error":
                errors.append(f"worker {w}:\n{message[1]}")
        if errors:
            raise FabricError("worker iteration failed\n" + "\n".join(errors))

    # ------------------------------------------------------------------
    # ParallelBackend interface
    # ------------------------------------------------------------------
    def refresh_capacity(self):
        """Republish the capacity vector to workers.  The idle-price
        vector is the engine's own (shared) array, already refreshed in
        place by ``engine.refresh_capacity``."""
        self._shared.capacity[:] = self.engine.links.capacity

    def run(self, n, stats):
        if self._closed:
            raise RuntimeError("process backend is closed")
        n = int(n)
        try:
            # A dead worker can surface during the churn publish (a
            # reattach hits a broken pipe) just as during the iteration
            # itself — both paths tear the pool down eagerly so peers
            # unwedge and resources release.
            self._sync()
            self._iterate(n)
        except FabricError as exc:
            self.close()
            raise RuntimeError(str(exc)) from exc
        messages, inter_cpu, entries, agg_steps = self._per_iteration
        stats.messages += n * messages
        stats.inter_cpu_messages += n * inter_cpu
        stats.link_entries_moved += n * entries
        stats.aggregation_steps += n * agg_steps
        stats.max_flows_per_processor = max(
            stats.max_flows_per_processor,
            max(p.table.n_flows for p in self.engine.processors.values()))
        stats.total_flows = self.engine.n_flows
        return stats

    def close(self):
        if self._closed:
            return
        self._closed = True
        # Unwedge any worker blocked at a phase barrier (a peer died
        # mid-iteration): aborting makes their wait raise, which they
        # report and then exit.  Harmless when workers are idle.
        if self._barrier is not None:
            try:
                self._barrier.abort()
            except Exception:  # pragma: no cover - defensive
                pass
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in self._workers:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join(timeout=5.0)
        for conn in self._conns:
            conn.close()
        self._arena.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass
