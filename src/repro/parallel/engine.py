"""Simulated multicore NED allocator (§5, figs. 2-3).

Executes NED with the FlowBlock/LinkBlock partitioning *exactly as the
paper's multicore implementation does*, with each "processor" as a
simulated core:

1. every processor computes Equation-3 rates for its FlowBlock using
   its private copies of the two LinkBlocks' prices, and accumulates
   load (``G``) and Hessian (``H``) partials into private LinkBlock
   copies — zero shared-state writes;
2. partials are aggregated to authoritative copies following the
   fig. 3 diagonal schedule (``log2 n`` steps, uniform bandwidth);
3. authoritative holders run the Equation-4 price update for their
   LinkBlocks;
4. updated prices are distributed back along the reverse schedule.

The result is numerically identical (up to float associativity) to
single-core NED — a property the test suite asserts — while the engine
counts the work and communication that the §6.1 cost model turns into
cycle estimates.

Execution is pluggable behind :class:`ParallelBackend`:

* ``backend="simulated"`` (default) runs every processor in this
  process, exactly as described above — fast to construct, counts the
  §6.1 work/communication stats, no real parallelism;
* ``backend="process"`` runs the same phase structure on a persistent
  pool of **worker processes** on one host (see
  :mod:`repro.parallel.process_backend`): shared memory plus a
  sense-reversing flag-array barrier, measuring *actual* parallel
  speedup instead of modeling it.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ..core.ned import NedOptimizer
from ..core.network import FlowTable, _pop_ends
from ..core.utility import LogUtility, Utility
from ..topology.graph import Topology
from .aggregation import (aggregation_schedule, distribution_schedule,
                          final_down_holder, final_up_holder)
from .blocks import BlockPartition
from .cost_model import cpu_of

__all__ = ["IterationStats", "MulticoreNedEngine", "ParallelBackend",
           "SimulatedBackend", "ned_price_update"]


def ned_price_update(prices_row, load_row, hessian_row, link_idx,
                     capacity, idle_price, gamma):
    """NED Equation 4 on one LinkBlock, in place.

    Factored out of the engine so the simulated and worker-process
    backends run the *same float operations in the same order* — the
    cross-backend equivalence suite leans on that.
    """
    over = load_row[link_idx] - capacity[link_idx]
    hessian = hessian_row[link_idx]
    prices = prices_row[link_idx]
    carrying = hessian < 0.0
    step = np.zeros_like(prices)
    step[carrying] = over[carrying] / hessian[carrying]
    new_prices = np.where(carrying, prices - gamma * step,
                          idle_price[link_idx])
    np.maximum(new_prices, 0.0, out=new_prices)
    prices_row[link_idx] = new_prices


class ParallelBackend:
    """Execution strategy for :class:`MulticoreNedEngine` iterations."""

    name = "base"

    def run(self, n, stats):
        """Execute ``n`` full iterations, accumulating into ``stats``."""
        raise NotImplementedError

    def close(self):
        """Release any resources (worker processes, shared memory)."""

    def refresh_capacity(self):
        """Republish capacity-derived state after
        :meth:`MulticoreNedEngine.refresh_capacity`; no-op for
        backends that read the engine's arrays directly."""


class SimulatedBackend(ParallelBackend):
    """In-process execution of the simulated processor grid."""

    name = "simulated"

    def __init__(self, engine):
        self.engine = engine

    def run(self, n, stats):
        for _ in range(n):
            self.engine._iterate_once(stats)


@dataclass
class IterationStats:
    """Work/communication counts for one engine iteration."""

    n_processors: int = 0
    aggregation_steps: int = 0
    #: LinkBlock transfers per phase (aggregate + distribute).
    messages: int = 0
    #: transfers crossing CPU sockets under the paper's core->CPU
    #: mapping — the §5 multi-machine story: these are the transfers
    #: that would ride the network in a multi-server allocator.
    inter_cpu_messages: int = 0
    #: total link-entries moved (messages x links per block).
    link_entries_moved: int = 0
    #: largest per-processor flow count (critical-path rate work).
    max_flows_per_processor: int = 0
    total_flows: int = 0
    links_per_block: int = 0


class _Processor:
    """One core's state: a FlowBlock plus private LinkBlock copies.

    For the simulated backend the table and price vector are ordinary
    process-local arrays; the process backend passes in a shared-memory
    FlowTable and a row view of the shared price matrix so the parent
    and the owning worker see the same bytes.
    """

    def __init__(self, coords, links, max_route_len, table=None,
                 prices=None):
        self.coords = coords
        self.table = (table if table is not None
                      else FlowTable(links, max_route_len=max_route_len))
        # Private, full-length price vector; only entries of this
        # processor's two LinkBlocks are ever read.
        self.prices = (prices if prices is not None
                       else np.ones(links.n_links, dtype=np.float64))
        self.partial_load = None
        self.partial_hessian = None
        # Per-flow price floor U'(bottleneck), cached between churn
        # events (same role as PriceOptimizer's cap cache).
        self.price_floor = None
        self.floor_version = -1


class MulticoreNedEngine:
    """NED across an ``n_blocks x n_blocks`` simulated processor grid.

    The engine deliberately mirrors :class:`~repro.core.ned.NedOptimizer`
    — same utility, same gamma, same idle-price rule — so that
    equivalence can be checked flow-for-flow.
    """

    def __init__(self, topology: Topology, n_blocks: int,
                 utility: Utility | None = None, gamma: float = 1.0,
                 max_route_len: int = 8, backend: str = "simulated",
                 n_workers: int | None = None,
                 reserve_per_block: int = 0) -> None:
        self.partition = BlockPartition(topology, n_blocks)
        self.links = topology.link_set()
        self.utility = utility if utility is not None else LogUtility()
        self.gamma = float(gamma)
        self.max_route_len = max_route_len
        n = self.partition.n_blocks
        self.grid_side = n
        self._agg_steps = aggregation_schedule(n)
        self._dist_steps = distribution_schedule(n)
        # Reference single-core optimizer state (prices) kept for the
        # idle-price constant only; cheap.
        self._idle_price = np.asarray(
            self.utility.inverse_rate(self.links.capacity, 1.0),
            dtype=np.float64)
        self._flow_home = {}
        if backend == "simulated":
            if n_workers is not None:
                raise ValueError("n_workers applies to backend='process'")
            self.processors = {
                cell: _Processor(cell, self.links, max_route_len)
                for cell in self.partition.grid_cells()
            }
            if reserve_per_block:
                for proc in self.processors.values():
                    proc.table.reserve(int(reserve_per_block))
            self.backend = SimulatedBackend(self)
        elif backend == "process":
            from .process_backend import ProcessBackend
            # The backend allocates the shared-memory state and
            # populates ``self.processors`` with shm-backed tables and
            # price rows.
            self.backend = ProcessBackend(
                self, n_workers=n_workers,
                reserve_per_block=reserve_per_block)
        else:
            raise ValueError(f"unknown backend {backend!r}; "
                             "choose 'simulated' or 'process'")

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: Hashable, src_host: int, dst_host: int,
                 route: npt.ArrayLike | None = None,
                 weight: float = 1.0) -> tuple[int, int]:
        if route is None:
            route = self.partition.topology.route(src_host, dst_host, flow_id)
        coords = self.partition.flowblock_of(src_host, dst_host)
        self.processors[coords].table.add_flow(flow_id, route, weight=weight)
        self._flow_home[flow_id] = coords
        return coords

    def remove_flow(self, flow_id: Hashable) -> None:
        coords = self._flow_home.pop(flow_id)
        self.processors[coords].table.remove_flow(flow_id)

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched flowlet churn routed to the owning FlowBlocks.

        ``ends`` is an iterable of flow ids; ``starts`` of ``(flow_id,
        src_host, dst_host)`` or ``(flow_id, src_host, dst_host,
        weight)`` tuples (routes are computed here, like
        :meth:`add_flow`).  The whole batch is validated before
        anything mutates — a bad id or weight raises with the engine
        unchanged.  Removals are applied first — batched per block
        through :meth:`FlowTable.remove_flows` — then the adds go
        through each block's vectorized ``apply_churn``, so an id
        appearing in both is restarted.  Under the process backend the
        block tables are shared memory, so a churn batch reaches the
        workers without rebuilding any buffer; only a block outgrowing
        its capacity or meeting a longer route than it has held
        triggers a (rare) re-attach message.
        """
        ends = list(ends)
        end_cells = _pop_ends(ends, self._flow_home)
        starts_by_cell = {}
        try:
            new_ids = set()
            for start in starts:
                flow_id, src_host, dst_host = start[:3]
                weight = float(start[3]) if len(start) > 3 else 1.0
                if flow_id in new_ids or flow_id in self._flow_home:
                    raise KeyError(f"flow {flow_id!r} is already active")
                if not weight > 0:
                    raise ValueError("flow weight must be positive")
                route = self.partition.topology.route(src_host, dst_host,
                                                      flow_id)
                if len(route) > self.max_route_len:
                    raise ValueError(
                        f"route has {len(route)} hops; engine supports "
                        f"{self.max_route_len}")
                new_ids.add(flow_id)
                cell = self.partition.flowblock_of(src_host, dst_host)
                starts_by_cell.setdefault(cell, []).append(
                    (flow_id, route, weight))
        except BaseException:  # a bad start: put the ends back
            self._flow_home.update(zip(ends, end_cells))
            raise
        # Batch validated; now mutate.
        ends_by_cell = {}
        for flow_id, cell in zip(ends, end_cells):
            ends_by_cell.setdefault(cell, []).append(flow_id)
        for cell, cell_ends in ends_by_cell.items():
            self.processors[cell].table.remove_flows(cell_ends)
        for cell, cell_starts in starts_by_cell.items():
            self.processors[cell].table.apply_churn(starts=cell_starts)
            for flow_id, _, _ in cell_starts:
                self._flow_home[flow_id] = cell

    def refresh_capacity(self) -> None:
        """Re-read link capacities after an in-place change (§7).

        This is the supported way to change capacities under the
        engine: it re-derives the idle-price constants, invalidates
        every FlowBlock's capacity-derived caches, and (through the
        backend) republishes capacity-derived state to worker
        processes — mutating ``links.capacity`` without calling this
        leaves the backends free to diverge.
        """
        self._idle_price[:] = self.utility.inverse_rate(
            self.links.capacity, 1.0)
        for proc in self.processors.values():
            proc.table.refresh_capacity()
        self.backend.refresh_capacity()

    @property
    def n_flows(self) -> int:
        return len(self._flow_home)

    # ------------------------------------------------------------------
    # one parallel iteration
    # ------------------------------------------------------------------
    def iterate(self, n: int = 1) -> IterationStats:
        stats = IterationStats(
            n_processors=self.partition.n_processors,
            links_per_block=self.partition.links_per_block)
        self.backend.run(n, stats)
        return stats

    def close(self) -> None:
        """Shut down the backend (worker pool, shared memory); no-op
        for the simulated backend.  Idempotent, and safe to call even
        if backend construction failed partway or a worker died mid-run
        — the backend tears down every process and segment it
        allocated.  The engine is unusable afterwards if the backend
        held real resources."""
        backend = getattr(self, "backend", None)
        if backend is not None:
            backend.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def _iterate_once(self, stats):
        # Phase 1: local rate computation and partial accumulation.
        max_flows = 0
        for proc in self.processors.values():
            table = proc.table
            max_flows = max(max_flows, table.n_flows)
            if table.n_flows:
                rho = table.price_sums(proc.prices)
                rho = np.maximum(rho, self._price_floor(proc))
                rates = self.utility.rate(rho, table.weights)
                derivative = self.utility.rate_derivative(rho, table.weights)
                proc.partial_load, proc.partial_hessian = \
                    table.link_totals2(rates, derivative)
            else:
                proc.partial_load = np.zeros(self.links.n_links)
                proc.partial_hessian = np.zeros(self.links.n_links)
        stats.max_flows_per_processor = max(stats.max_flows_per_processor,
                                            max_flows)
        stats.total_flows = self.n_flows

        # Phase 2: aggregate partials along the fig. 3 schedule.  Each
        # transfer moves only the entries of one LinkBlock.
        for step in self._agg_steps:
            staged = []
            for t in step:
                idx = self.partition.link_block(t.block, t.upward)
                src = self.processors[t.src]
                staged.append((t, idx, src.partial_load[idx].copy(),
                               src.partial_hessian[idx].copy()))
            # Apply after staging: transfers within a step are concurrent.
            for t, idx, load_part, hessian_part in staged:
                dst = self.processors[t.dst]
                dst.partial_load[idx] += load_part
                dst.partial_hessian[idx] += hessian_part
                stats.messages += 1
                stats.link_entries_moved += len(idx)
                if cpu_of(t.src, self.grid_side) != \
                        cpu_of(t.dst, self.grid_side):
                    stats.inter_cpu_messages += 1
        stats.aggregation_steps += len(self._agg_steps)

        # Phase 3: authoritative price update on the grid diagonals.
        n = self.grid_side
        for block in range(n):
            up_holder = self.processors[final_up_holder(n, block)]
            self._price_update(up_holder, self.partition.upward_links[block])
            down_holder = self.processors[final_down_holder(n, block)]
            self._price_update(down_holder,
                               self.partition.downward_links[block])

        # Phase 4: distribute updated prices along the reverse schedule.
        for step in self._dist_steps:
            staged = []
            for t in step:
                idx = self.partition.link_block(t.block, t.upward)
                staged.append((t, idx, self.processors[t.src].prices[idx].copy()))
            for t, idx, prices_part in staged:
                self.processors[t.dst].prices[idx] = prices_part
                stats.messages += 1
                stats.link_entries_moved += len(idx)
                if cpu_of(t.src, self.grid_side) != \
                        cpu_of(t.dst, self.grid_side):
                    stats.inter_cpu_messages += 1

    def _price_floor(self, proc):
        """Cached per-flow cap prices for one processor's FlowBlock."""
        table = proc.table
        if proc.floor_version != table.version:
            proc.price_floor = self.utility.inverse_rate(
                table.bottleneck_capacity(), table.weights)
            proc.floor_version = table.version
        return proc.price_floor

    def _price_update(self, proc, link_idx):
        """NED Equation 4 on one LinkBlock of the authoritative holder."""
        ned_price_update(proc.prices, proc.partial_load,
                         proc.partial_hessian, link_idx,
                         self.links.capacity, self._idle_price, self.gamma)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def rates(self) -> dict[Any, float]:
        """flow_id -> current rate, combining all processors."""
        out = {}
        for proc in self.processors.values():
            table = proc.table
            if not table.n_flows:
                continue
            rho = table.price_sums(proc.prices)
            rho = np.maximum(rho, self._price_floor(proc))
            rates = self.utility.rate(rho, table.weights)
            out.update(zip(table.flow_ids(), (float(r) for r in rates)))
        return out

    def global_prices(self) -> npt.NDArray[np.float64]:
        """Authoritative prices assembled from the diagonal holders."""
        prices = np.zeros(self.links.n_links)
        n = self.grid_side
        for block in range(n):
            up_idx = self.partition.upward_links[block]
            prices[up_idx] = self.processors[
                final_up_holder(n, block)].prices[up_idx]
            down_idx = self.partition.downward_links[block]
            prices[down_idx] = self.processors[
                final_down_holder(n, block)].prices[down_idx]
        return prices

    def reference_optimizer(self) -> NedOptimizer:
        """A single-core NED over the same flows (equivalence checks)."""
        table = FlowTable(self.links, max_route_len=self.max_route_len)
        for proc in self.processors.values():
            table.apply_churn(
                starts=proc.table.starts_of(proc.table.flow_ids()))
        return NedOptimizer(table, utility=self.utility, gamma=self.gamma)
