"""Multicore allocator: FlowBlock/LinkBlock partitioning (§5) + §6.1 table."""

from .aggregation import (Transfer, aggregation_schedule,
                          distribution_schedule, final_down_holder,
                          final_up_holder)
from .blocks import BlockPartition
from .engine import IterationStats, MulticoreNedEngine
from .paper_table import PAPER_TABLE, PaperRow, cpu_of, step_breakdown

__all__ = ["BlockPartition", "MulticoreNedEngine", "IterationStats",
           "Transfer", "aggregation_schedule", "distribution_schedule",
           "final_up_holder", "final_down_holder", "PaperRow",
           "PAPER_TABLE", "cpu_of", "step_breakdown"]
