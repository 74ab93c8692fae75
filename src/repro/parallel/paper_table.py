"""The §6.1 multicore table and the paper's core->CPU mapping.

The paper measures its multicore allocator on an E7-8870; Python
cannot reproduce those microseconds, so :data:`PAPER_TABLE` keeps them
as paper values.  What this repo does reproduce is each row's
*structure* — flows per processor, LinkBlock size, and how many of the
fig. 3 aggregation steps stay within one CPU or cross CPUs — computed
from the real partitioning and schedule (``repro.parallel``), with the
core->CPU classification of :func:`cpu_of` ("In the 4-core run, we
mapped all FlowBlocks to the same CPU.  With higher number of cores,
we divided all FlowBlocks into groups of 2-by-2, and put two adjacent
groups on each CPU").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aggregation import aggregation_schedule

__all__ = ["PAPER_TABLE", "PaperRow", "cpu_of", "step_breakdown"]

#: §6.1 benchmark fabric shape: Facebook-pod-like, 48 servers per rack.
HOSTS_PER_RACK = 48
N_SPINES = 4


@dataclass(frozen=True)
class PaperRow:
    """One row of the §6.1 table: the paper's measured µs per iteration."""

    cores: int
    nodes: int
    flows: int
    time_us: float

    @property
    def grid_side(self) -> int:
        return math.isqrt(self.cores)

    @property
    def flows_per_core(self) -> int:
        return self.flows // self.cores

    @property
    def links_per_block(self) -> int:
        """Links one LinkBlock holds: its racks' host and spine links."""
        racks_per_block = self.nodes // HOSTS_PER_RACK // self.grid_side
        return racks_per_block * (HOSTS_PER_RACK + N_SPINES)


#: The seven measurements of §6.1.
PAPER_TABLE = [
    PaperRow(4, 384, 3072, 8.29),
    PaperRow(16, 768, 6144, 8.86),
    PaperRow(64, 1536, 12288, 12.63),
    PaperRow(64, 1536, 24576, 13.99),
    PaperRow(64, 1536, 49152, 16.93),
    PaperRow(64, 3072, 49152, 23.76),
    PaperRow(64, 4608, 49152, 30.71),
]


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
