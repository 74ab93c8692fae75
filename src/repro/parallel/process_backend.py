"""Worker-process execution of the multicore NED engine (§5-6.1).

Where :class:`~repro.parallel.engine.SimulatedBackend` time-slices the
``n x n`` processor grid inside one Python process, this backend runs
it on a persistent pool of **real worker processes**:

* each worker owns one or more FlowBlocks (grid cells, assigned
  round-robin so worker counts that don't divide the grid still work);
* all inter-worker coordination — step synchronization, LinkBlock
  hand-offs of load/Hessian/price rows, churn/version/capacity
  broadcast — goes through a pluggable **fabric**
  (:mod:`repro.parallel.fabric`): ``fabric="shm"`` keeps every hot
  array in ``multiprocessing.shared_memory`` and synchronizes steps
  with a sense-reversing flag-array barrier; ``fabric="socket"`` keeps
  worker state private and moves the same LinkBlock slices as
  length-prefixed TCP frames — one batched payload per peer per step,
  driven by a nonblocking send/recv loop — which is multi-host capable
  and deadlock-free regardless of OS socket buffer sizes;
* one iteration follows the exact phase structure of the simulated
  engine: local Equation-3 rate work, the fig. 3 diagonal aggregation
  schedule, the Equation-4 price update on the authoritative diagonal
  holders, and the reverse distribution schedule.  Within a step every
  transfer touches a disjoint LinkBlock slice, so workers apply their
  steps' transfers concurrently without locks; between steps the shm
  fabric barriers while the socket fabric's frames carry the
  dependencies themselves.

Because all backends and fabrics execute the same float operations in
the same order (they share :func:`~repro.parallel.engine.ned_price_update`
and the FlowTable gather/scatter kernels' reduction shapes — and a
socket frame carries the byte-exact slice the shm fabric reads in
place), the process backend reproduces the simulated engine's floats;
the cross-backend test suite asserts bitwise equality for both
fabrics, churn included.

Control flow: the parent drives workers over one fabric control
channel per worker (a pipe for shm, a TCP connection for sockets) and
the workers' per-iteration exchanges stay entirely among themselves.
The shm fabric requires the ``fork`` start method (Linux); the socket
fabric can also boot workers from scratch over the wire (see
:class:`~repro.parallel.fabric.LocalCluster`).
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from ..core import kernels
from ..core.network import FlowTable
from .engine import ParallelBackend, _Processor, ned_price_update
from .cost_model import cpu_of
from .fabric import FABRICS, FabricError
from .shm import attach

__all__ = ["ProcessBackend", "CellPlan", "worker_loop"]


class CellPlan:
    """Worker-side handle on one owned grid cell's flow state.

    Under the shm fabric the arrays are shared-memory views inherited
    over ``fork``; under the socket fabric they are private arrays
    installed by churn frames.  The CSR route-index cache mirrors
    ``FlowTable._route_index`` — derived, worker-private, keyed on the
    cell's published version — so the worker kernels iterate the same
    pad-free view the single-process kernels do.
    """

    __slots__ = ("row", "routes", "weights", "bottleneck", "floor",
                 "floor_version", "csr_indices", "csr_width",
                 "csr_version", "_keepalive")

    def __init__(self, row, routes=None, weights=None, bottleneck=None):
        self.row = row
        self.routes = routes
        self.weights = weights
        self.bottleneck = bottleneck
        self.floor = None
        self.floor_version = None
        self.csr_indices = None
        self.csr_width = None
        self.csr_version = None
        self._keepalive = None

    def rebind(self, manifest):
        """Re-attach after the parent re-allocated this cell's shm
        arrays (FlowTable growth); the old fork-inherited views stay
        valid until dropped, so swapping references is enough."""
        arrays, keepalive = attach(manifest)
        self.routes = arrays["routes"]
        self.weights = arrays["weights"]
        self.bottleneck = arrays["column0"]  # FlowTable's bottleneck
        self.csr_version = None  # growth always bumps the version too
        self._keepalive = keepalive


def _compute_cell_rates(plan, fabric, consts, scratch):
    """Phase 1 for one cell: Equation-3 rates and G/H partials.

    Mirrors the simulated engine's use of ``FlowTable.price_sums`` /
    ``link_totals2`` — the same version-cached uniform-slot CSR view
    (slack slots carry the pad link, bitwise-neutral in every kernel)
    through the same :mod:`repro.core.kernels` functions, so the
    floats come out identical (the kernels carry no scratch state, so
    a worker holds none for them either).  The cell's CSR cache is
    rebuilt whole whenever the published version moves (cells are
    1/n_procs of the population; the parent-side tables do the finer
    incremental maintenance).
    """
    n = int(fabric.counts[plan.row])
    load_row = fabric.load[plan.row]
    hessian_row = fabric.hessian[plan.row]
    if n == 0:
        load_row[:] = 0.0
        hessian_row[:] = 0.0
        return
    n_links = consts["n_links"]
    utility = consts["utility"]
    weights = plan.weights[:n]
    version = int(fabric.versions[plan.row])
    if plan.csr_version != version:
        routes = plan.routes[:n]
        width = routes.shape[1]
        while width > 1 and np.all(routes[:, width - 1] == n_links):
            width -= 1
        plan.csr_indices = np.ascontiguousarray(
            routes[:, :width]).reshape(-1)
        plan.csr_width = width
        plan.csr_version = version
    indices = plan.csr_indices
    width = plan.csr_width
    scratch[:n_links] = fabric.prices[plan.row]
    scratch[n_links] = 0.0  # pad link: price zero
    rho = kernels.price_sums(scratch, indices, n, width)
    if plan.floor_version != version:
        plan.floor = utility.inverse_rate(plan.bottleneck[:n], weights)
        plan.floor_version = version
    rho = np.maximum(rho, plan.floor)
    rates = utility.rate(rho, weights)
    derivative = utility.rate_derivative(rho, weights)
    totals_load, totals_hessian = kernels.link_totals2(
        rates, derivative, indices, n, width, n_links + 1)
    load_row[:] = totals_load[:-1]
    hessian_row[:] = totals_hessian[:-1]


def _one_iteration(plans, fabric, consts):
    """One full engine iteration from a single worker's point of view.

    The loop is fabric-neutral: each schedule step hands the fabric
    its **per-peer frame groups** (every transfer this worker owes
    each peer, in plan order) plus the ordered receive list, and
    ``step_exchange`` returns the gathered parts aligned with the
    receives — an in-place shared-memory read for the shm fabric, one
    batched nonblocking frame per peer pair for the socket fabric.
    ``step_barrier`` closes each step (a sense-reversing barrier
    round, or nothing — socket frames already carry the step-to-step
    dependencies).  Transfers within a step touch disjoint LinkBlock
    slices, so the float reduction order is identical across fabrics
    and matches the simulated engine's phase structure exactly.
    """
    scratch = consts["scratch"]
    for plan in plans:
        _compute_cell_rates(plan, fabric, consts, scratch)
    fabric.step_barrier()

    load, hessian = fabric.load, fabric.hessian
    for send_groups, recvs in consts["agg_plan"]:
        for dst_row, idx, (load_part, hessian_part) in \
                fabric.step_exchange("agg", send_groups, recvs):
            load[dst_row, idx] += load_part
            hessian[dst_row, idx] += hessian_part
        fabric.step_barrier()

    prices = fabric.prices
    for row, idx in consts["price_plan"]:
        ned_price_update(prices[row], load[row], hessian[row], idx,
                         fabric.capacity, fabric.idle_price,
                         consts["gamma"])
    fabric.step_barrier()

    for send_groups, recvs in consts["dist_plan"]:
        for dst_row, idx, (prices_part,) in \
                fabric.step_exchange("dist", send_groups, recvs):
            prices[dst_row, idx] = prices_part
        fabric.step_barrier()


def worker_loop(endpoint, plans, consts):
    """Command loop of one worker process (any fabric)."""
    consts["scratch"] = np.empty(consts["n_links"] + 1, dtype=np.float64)
    try:
        while True:
            message = endpoint.recv_command()
            command = message[0]
            if command == "stop":
                break
            elif command == "reattach":
                _, row, manifest = message
                for plan in plans:
                    if plan.row == row:
                        plan.rebind(manifest)
            elif command == "churn":
                endpoint.apply_churn(message[1], plans)
            elif command == "iterate":
                for _ in range(message[1]):
                    _one_iteration(plans, endpoint, consts)
                endpoint.send_reply(("done", endpoint.done_payload(plans)))
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown command {command!r}")
    except Exception:  # noqa: BLE001 - forwarded to the parent
        endpoint.abort()  # unblock peers; they error out and report too
        try:
            endpoint.send_reply(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        endpoint.shutdown()


class ProcessBackend(ParallelBackend):
    """Persistent worker pool coordinated through a pluggable fabric.

    Parameters
    ----------
    engine:
        The owning :class:`~repro.parallel.engine.MulticoreNedEngine`;
        its ``processors`` dict is populated here with fabric-backed
        tables and price rows.
    n_workers:
        Worker processes; defaults to ``min(grid cells, cpu_count)``.
        Clamped to the number of grid cells.
    reserve_per_block:
        Pre-grow each FlowBlock's table to this many flows so steady
        churn never triggers a re-allocate + re-attach (shm fabric).
    timeout:
        Seconds to wait for a worker's iteration acknowledgement
        before declaring the pool wedged.
    fabric:
        ``"shm"`` (shared memory + sense-reversing barrier, default)
        or ``"socket"`` (TCP frames, multi-host capable).
    fabric_options:
        Extra keyword arguments for the fabric constructor (e.g.
        ``launcher="subprocess"`` or ``barrier_mode="block"``).
    """

    name = "process"

    def __init__(self, engine, n_workers=None, reserve_per_block=0,
                 timeout=600.0, fabric="shm", fabric_options=None):
        if fabric not in FABRICS:
            raise ValueError(f"unknown fabric {fabric!r}; choose from "
                             f"{sorted(FABRICS)}")
        options = dict(fabric_options or {})
        options.setdefault("timeout", timeout)
        try:
            self.fabric = FABRICS[fabric](**options)
        except FabricError as exc:
            raise RuntimeError(
                f"backend='process' fabric={fabric!r}: {exc}") from exc
        self.engine = engine
        # Timeout enforcement lives in the fabric; mirror its effective
        # value (fabric_options may override the backend argument).
        self.timeout = self.fabric.timeout
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
        self._row_of = {cell: i for i, cell in enumerate(self._cells)}
        # Round-robin cell ownership: worker w owns rows w, w+W, ...
        self._owner_of_row = [i % self.n_workers for i in range(n_procs)]

        state = self.fabric.alloc_state(n_procs, n_links,
                                        engine.links.capacity,
                                        engine._idle_price)
        if state is not None:
            # Capacity-derived constants live in shared memory so the
            # §7 path (engine.refresh_capacity after an in-place
            # capacity change) reaches workers; the engine's idle-price
            # vector is re-pointed at the shared copy so its in-place
            # refresh is worker-visible with no extra message.
            engine._idle_price = state["idle_price"]

        engine.processors = {}
        for i, cell in enumerate(self._cells):
            table = FlowTable(engine.links,
                              max_route_len=engine.max_route_len,
                              allocator=self.fabric.table_allocator(i))
            if reserve_per_block:
                table.reserve(int(reserve_per_block))
            engine.processors[cell] = _Processor(
                cell, engine.links, engine.max_route_len,
                table=table, prices=self.fabric.processor_prices(i))

        # Fabric-neutral transfer plans.  Within each fig. 3 step a
        # worker stages every slice it owns whose destination lives
        # elsewhere — grouped **per destination peer**, so the socket
        # fabric frames one batched payload per pair — then gathers +
        # applies every transfer whose destination it owns.  Both
        # sides of a pair derive the batch layout from this same plan
        # (the per-peer group order here is the step's transfer order
        # filtered to that pair on both ends), so frames carry no
        # per-slice metadata.
        owner = self._owner_of_row
        row_of = self._row_of

        def split(steps):
            per_worker = [[] for _ in range(self.n_workers)]
            for step in steps:
                sends = [{} for _ in range(self.n_workers)]
                recvs = [[] for _ in range(self.n_workers)]
                for t in step:
                    src_row = row_of[t.src]
                    dst_row = row_of[t.dst]
                    idx = partition.link_block(t.block, t.upward)
                    src_owner = owner[src_row]
                    dst_owner = owner[dst_row]
                    if src_owner != dst_owner:
                        sends[src_owner].setdefault(dst_owner, []) \
                            .append((src_row, idx))
                    recvs[dst_owner].append((src_owner, dst_row, src_row,
                                             idx))
                for w in range(self.n_workers):
                    send_groups = sorted(sends[w].items())
                    per_worker[w].append((send_groups, recvs[w]))
            return per_worker

        agg_plans = split(engine._agg_steps)
        dist_plans = split(engine._dist_steps)

        from .aggregation import final_down_holder, final_up_holder
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

        per_worker = []
        for w in range(self.n_workers):
            plans = [CellPlan(i,
                              engine.processors[cell].table._routes,
                              engine.processors[cell].table._weights,
                              engine.processors[cell].table
                              ._bottleneck._data)
                     for i, cell in enumerate(self._cells)
                     if owner[i] == w]
            consts = {
                "n_links": n_links,
                "utility": engine.utility,
                "gamma": engine.gamma,
                "agg_plan": agg_plans[w],
                "dist_plan": dist_plans[w],
                "price_plan": price_plans[w],
            }
            if state is None:
                # Socket workers bootstrap over the wire: ship the
                # shapes and capacity constants alongside the plans.
                consts["_n_procs"] = n_procs
                consts["_capacity"] = np.array(engine.links.capacity)
                consts["_idle_price"] = np.array(engine._idle_price)
            per_worker.append((plans, consts))
        self.fabric.launch(worker_loop, per_worker)

    # ------------------------------------------------------------------
    # churn synchronization
    # ------------------------------------------------------------------
    def _sync(self):
        """Hand every cell's table to the fabric, which publishes the
        churn its workers need: the shm fabric refreshes the shared
        count/version vectors and re-attaches regrown cells, the
        socket fabric frames snapshots of cells whose version moved.
        Each fabric keeps its own dirty-tracking — the backend stays
        fabric-neutral."""
        self.fabric.sync_churn(
            [(i, self.engine.processors[cell].table)
             for i, cell in enumerate(self._cells)],
            self._owner_of_row)

    # ------------------------------------------------------------------
    # ParallelBackend interface
    # ------------------------------------------------------------------
    def refresh_capacity(self):
        """Republish the capacity vector to workers.  Under shm the
        idle-price vector is the engine's own (shared) array, already
        refreshed in place by ``engine.refresh_capacity``; under
        sockets both vectors ship with the next churn frame."""
        self.fabric.refresh_capacity(self.engine.links.capacity,
                                     self.engine._idle_price)

    @property
    def _workers(self):
        return self.fabric.workers

    def run(self, n, stats):
        if self._closed:
            raise RuntimeError("process backend is closed")
        n = int(n)
        try:
            # A dead worker can surface during the churn publish (a
            # reattach or snapshot send hits a broken channel) just as
            # during the iteration itself — both paths tear the pool
            # down eagerly so peers unwedge and resources release.
            self._sync()
            row_prices = self.fabric.iterate(n)
        except FabricError as exc:
            self.close()
            raise RuntimeError(str(exc)) from exc
        if row_prices:
            # Socket fabric: the authoritative price rows come back
            # with the acknowledgements (shared memory needs no copy).
            for row, vector in row_prices.items():
                self.engine.processors[self._cells[row]].prices[:] = vector
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
        self.fabric.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass
