"""Cycle cost model reproducing the §6.1 multicore benchmark table.

Python cannot reproduce Nehalem cycle counts, so the §6.1 table is
reproduced in two parts:

* the *structure* — flows per processor, LinkBlock sizes, the number
  of intra- vs inter-CPU aggregation steps — is computed from the real
  partitioning and fig. 3 schedule (``repro.parallel``);
* the *constants* — cycles per flow, cycles per link-entry moved
  within a CPU vs across CPUs — are calibrated against the paper's
  seven measurements by least squares.

The model is then

    cycles = c0 + c1 * max_flows_per_core
                + c2 * links_per_block * intra_cpu_steps
                + c3 * links_per_block * inter_cpu_steps,

with intra/inter classified by the paper's core->CPU mapping ("In the
4-core run, we mapped all FlowBlocks to the same CPU.  With higher
number of cores, we divided all FlowBlocks into groups of 2-by-2, and
put two adjacent groups on each CPU").  A good fit (few percent error
per row) demonstrates the *scaling shape* — linear in per-core flows,
linear in LinkBlock size, log-like in cores — is the partitioning's,
not an artifact of the constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .aggregation import aggregation_schedule

__all__ = ["PAPER_TABLE", "PaperRow", "BenchConfig", "cpu_of",
           "step_breakdown", "CostModel", "fit_cost_model", "CLOCK_GHZ"]

#: E7-8870 nominal clock used by the paper to convert cycles to time.
CLOCK_GHZ = 2.4

#: §6.1 benchmark fabric shape: Facebook-pod-like, 48 servers per rack.
HOSTS_PER_RACK = 48
N_SPINES = 4


@dataclass(frozen=True)
class PaperRow:
    """One row of the §6.1 table."""

    cores: int
    nodes: int
    flows: int
    cycles: float
    time_us: float


#: The seven measurements of §6.1.
PAPER_TABLE = [
    PaperRow(4, 384, 3072, 19896.6, 8.29),
    PaperRow(16, 768, 6144, 21267.8, 8.86),
    PaperRow(64, 1536, 12288, 30317.6, 12.63),
    PaperRow(64, 1536, 24576, 33576.2, 13.99),
    PaperRow(64, 1536, 49152, 40628.5, 16.93),
    PaperRow(64, 3072, 49152, 57035.9, 23.76),
    PaperRow(64, 4608, 49152, 73703.2, 30.71),
]


@dataclass(frozen=True)
class BenchConfig:
    """Derived structural quantities for one benchmark configuration."""

    cores: int
    nodes: int
    flows: int
    grid_side: int
    racks: int
    racks_per_block: int
    links_per_block: int
    flows_per_core: float
    intra_cpu_steps: int
    inter_cpu_steps: int

    @classmethod
    def from_row(cls, cores, nodes, flows, hosts_per_rack=HOSTS_PER_RACK,
                 n_spines=N_SPINES):
        grid_side = int(round(np.sqrt(cores)))
        if grid_side * grid_side != cores:
            raise ValueError("cores must be a perfect square (n x n grid)")
        racks = nodes // hosts_per_rack
        if racks % grid_side:
            raise ValueError("blocks must divide racks evenly")
        racks_per_block = racks // grid_side
        links_per_block = racks_per_block * (hosts_per_rack + n_spines)
        intra, inter = step_breakdown(grid_side)
        return cls(cores=cores, nodes=nodes, flows=flows,
                   grid_side=grid_side, racks=racks,
                   racks_per_block=racks_per_block,
                   links_per_block=links_per_block,
                   flows_per_core=flows / cores,
                   intra_cpu_steps=intra, inter_cpu_steps=inter)


def cpu_of(coords, grid_side):
    """Paper's core->CPU mapping.

    A 2x2 grid fits one CPU.  Larger grids tile processors into 2x2
    groups and place two horizontally-adjacent groups on each CPU
    (8 cores per 10-core E7-8870, leaving 2 for housekeeping).
    """
    row, col = coords
    if grid_side <= 2:
        return 0
    group_row, group_col = row // 2, col // 2
    groups_per_row = grid_side // 2
    return group_row * (groups_per_row // 2) + group_col // 2


def step_breakdown(grid_side):
    """(intra_cpu_steps, inter_cpu_steps) for the fig. 3 schedule.

    A step counts as inter-CPU if *any* of its transfers crosses CPUs
    — the slowest transfer gates the barrier at the end of the step.
    """
    intra = inter = 0
    for step in aggregation_schedule(grid_side):
        crosses = any(cpu_of(t.src, grid_side) != cpu_of(t.dst, grid_side)
                      for t in step)
        if crosses:
            inter += 1
        else:
            intra += 1
    return intra, inter


class CostModel:
    """Calibrated cycles model (see module docstring for the form).

    Features: constant, per-core flow work, per-link-entry intra-CPU
    transfer work, per-link-entry inter-CPU transfer work, and a fixed
    per-inter-step barrier latency (QPI hop + synchronization).
    """

    N_CONSTANTS = 5

    def __init__(self, constants):
        self.constants = np.asarray(constants, dtype=np.float64)
        if self.constants.shape != (self.N_CONSTANTS,):
            raise ValueError(f"expected {self.N_CONSTANTS} constants")

    def features(self, config: BenchConfig):
        # Aggregate + distribute both traverse the schedule: factor 2.
        return np.array([
            1.0,
            config.flows_per_core,
            2.0 * config.links_per_block * config.intra_cpu_steps,
            2.0 * config.links_per_block * config.inter_cpu_steps,
            2.0 * config.inter_cpu_steps,
        ])

    def cycles(self, config: BenchConfig) -> float:
        return float(self.features(config) @ self.constants)

    def time_us(self, config: BenchConfig) -> float:
        return self.cycles(config) / (CLOCK_GHZ * 1e3)

    def throughput_tbps(self, config: BenchConfig,
                        link_gbps: float = 40.0) -> float:
        """Aggregate traffic the allocation covers per wall-clock-
        second of allocator work, as §6.1 reports (e.g. "4 cores
        allocate 15.36 Tbit/s" = 384 nodes x 40 Gbit/s)."""
        return config.nodes * link_gbps / 1e3


def fit_cost_model(rows=None, hosts_per_rack=HOSTS_PER_RACK,
                   n_spines=N_SPINES):
    """Least-squares calibration against the §6.1 table.

    Returns ``(model, configs, predictions)``.
    """
    rows = rows if rows is not None else PAPER_TABLE
    configs = [BenchConfig.from_row(r.cores, r.nodes, r.flows,
                                    hosts_per_rack, n_spines)
               for r in rows]
    probe = CostModel(np.zeros(CostModel.N_CONSTANTS))
    design = np.vstack([probe.features(c) for c in configs])
    target = np.array([r.cycles for r in rows])
    # Non-negative least squares: negative cycle costs are unphysical.
    constants, _ = nnls(design, target)
    model = CostModel(constants)
    predictions = np.array([model.cycles(c) for c in configs])
    return model, configs, predictions
