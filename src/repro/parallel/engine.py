"""Simulated multicore NED allocator (§5, figs. 2-3).

Executes NED with the FlowBlock/LinkBlock partitioning *exactly as the
paper's multicore implementation does*, with each "processor" as a
simulated core:

1. every processor runs Equation 3 over its FlowBlock at its private
   copies of the two LinkBlocks' prices, accumulating load (``G``) and
   Hessian (``H``) partials into private LinkBlock copies — zero
   shared-state writes;
2. partials are aggregated to authoritative copies following the
   fig. 3 diagonal schedule (``log2 n`` steps, uniform bandwidth);
3. authoritative holders run the Equation-4 price update for their
   LinkBlocks;
4. updated prices are distributed back along the reverse schedule.

Each processor is a :class:`~repro.core.ned.NedOptimizer` over its own
:class:`~repro.core.network.FlowTable`: phase 1 is its
:meth:`~repro.core.ned.NedOptimizer.partials` and phase 3 is
:func:`~repro.core.ned.ned_prices` on one LinkBlock's slice, so the
engine's prices differ from single-core NED's only by the order in
which phase 2 adds each link's partials.  The engine counts its work
and communication (LinkBlock messages, intra- and inter-CPU steps
under the paper's core->CPU mapping).  Every processor runs in this
process: the engine models §5's structure and §6.1's costs, and owns
no thread, process or shared memory.  Real parallelism is the
allocator's own: its compiled passes walk the flow table's chunks on
threads (:mod:`repro.core.kernels`).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np
import numpy.typing as npt

from ..core.ned import NedOptimizer, ned_prices
from ..core.network import FlowTable, _pop_ends
from ..core.utility import LogUtility, Utility
from ..topology.graph import Topology
from .aggregation import (aggregation_schedule, distribution_schedule,
                          final_down_holder, final_up_holder)
from .blocks import BlockPartition
from .paper_table import cpu_of

__all__ = ["IterationStats", "MulticoreNedEngine"]


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
    """One core's state: a FlowBlock and the NED over it.

    ``ned.prices`` is the processor's private, full-length price
    vector; only entries of its two LinkBlocks are ever read.
    ``partial_load`` / ``partial_hessian`` are the engine's own copies
    of its partials, which phase 2 adds other cells' partials into; the
    arrays ``ned.partials()`` returned (its load is the optimizer's
    ``link_load_for`` memo) keep this cell's own sums.
    """

    def __init__(self, coords, links, table_options, ned_options):
        self.coords = coords
        self.table = FlowTable(links, **table_options)
        self.ned = NedOptimizer(self.table, **ned_options)
        self.partial_load = np.empty(links.n_links)
        self.partial_hessian = np.empty(links.n_links)


class MulticoreNedEngine:
    """NED across an ``n_blocks x n_blocks`` simulated processor grid.

    Each processor runs :class:`~repro.core.ned.NedOptimizer`'s own
    pass and price step with the engine's utility and gamma, so its
    rates are single-core NED's at the engine's prices, flow for flow.
    ``gamma`` and ``max_route_len`` are passed on only when given, so
    NED and the flow tables otherwise keep their own defaults.
    """

    def __init__(self, topology: Topology, n_blocks: int,
                 utility: Utility | None = None, gamma: float | None = None,
                 max_route_len: int | None = None,
                 reserve_per_block: int = 0) -> None:
        self.partition = BlockPartition(topology, n_blocks)
        self.links = topology.link_set()
        self.utility = utility if utility is not None else LogUtility()
        n = self.partition.n_blocks
        self.grid_side = n
        self._agg_steps = aggregation_schedule(n)
        self._dist_steps = distribution_schedule(n)
        self._flow_home = {}
        table_options = ({} if max_route_len is None
                         else {"max_route_len": max_route_len})
        ned_options: dict[str, Any] = {"utility": self.utility}
        if gamma is not None:
            ned_options["gamma"] = gamma
        self.processors = {
            cell: _Processor(cell, self.links, table_options, ned_options)
            for cell in self.partition.grid_cells()
        }
        some = next(iter(self.processors.values()))
        self.gamma = some.ned.gamma
        self.max_route_len = some.table.max_route_len
        if reserve_per_block:
            for proc in self.processors.values():
                proc.table.reserve(int(reserve_per_block))

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: Hashable, src_host: int, dst_host: int,
                 weight: float = 1.0) -> None:
        """One start: :meth:`apply_churn` of ``(flow_id, src_host,
        dst_host, weight)``."""
        self.apply_churn(starts=[(flow_id, src_host, dst_host, weight)])

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched flowlet churn routed to the owning FlowBlocks.

        ``ends`` is an iterable of flow ids; ``starts`` of ``(flow_id,
        src_host, dst_host)`` or ``(flow_id, src_host, dst_host,
        weight)`` tuples (routes are computed here, from the
        topology).  The whole batch is validated before
        anything mutates — a bad id or weight raises with the engine
        unchanged.  Removals are applied first — batched per block
        through :meth:`FlowTable.remove_flows` — then the adds go
        through each block's vectorized ``apply_churn``, so an id
        appearing in both is restarted.
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
        for _ in range(n):
            self._iterate_once(stats)
        return stats

    def _iterate_once(self, stats):
        # Phase 1: local rate computation and partial accumulation.
        max_flows = 0
        for proc in self.processors.values():
            max_flows = max(max_flows, proc.table.n_flows)
            _, load, hessian = proc.ned.partials()
            proc.partial_load[:] = load
            proc.partial_hessian[:] = hessian
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
                staged.append(
                    (t, idx, self.processors[t.src].ned.prices[idx].copy()))
            for t, idx, prices_part in staged:
                self.processors[t.dst].ned.prices[idx] = prices_part
                stats.messages += 1
                stats.link_entries_moved += len(idx)
                if cpu_of(t.src, self.grid_side) != \
                        cpu_of(t.dst, self.grid_side):
                    stats.inter_cpu_messages += 1

    def _price_update(self, proc, link_idx):
        """NED Equation 4 on one LinkBlock of the authoritative holder."""
        ned = proc.ned
        ned.prices[link_idx] = ned_prices(
            ned.prices[link_idx],
            proc.partial_load[link_idx] - self.links.capacity[link_idx],
            proc.partial_hessian[link_idx], ned._idle_price[link_idx],
            self.gamma)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def rates(self) -> dict[Any, float]:
        """flow_id -> current rate, combining all processors."""
        out = {}
        for proc in self.processors.values():
            out.update(zip(proc.table.flow_ids(),
                           proc.ned.rate_update().tolist()))
        return out

    def global_prices(self) -> npt.NDArray[np.float64]:
        """Authoritative prices assembled from the diagonal holders.

        Reach: invariant — tests compare the engine with single-core NED at
        these prices.
        """
        prices = np.zeros(self.links.n_links)
        n = self.grid_side
        for block in range(n):
            up_idx = self.partition.upward_links[block]
            prices[up_idx] = self.processors[
                final_up_holder(n, block)].ned.prices[up_idx]
            down_idx = self.partition.downward_links[block]
            prices[down_idx] = self.processors[
                final_down_holder(n, block)].ned.prices[down_idx]
        return prices

    def reference_optimizer(self) -> NedOptimizer:
        """A single-core NED over the same flows (equivalence checks)."""
        table = FlowTable(self.links, max_route_len=self.max_route_len)
        for proc in self.processors.values():
            table.apply_churn(
                starts=proc.table.starts_of(proc.table.flow_ids()))
        return NedOptimizer(table, utility=self.utility, gamma=self.gamma)
