"""Multicore allocator: FlowBlock/LinkBlock partitioning (§5) + §6.1 table."""

from .aggregation import (Transfer, aggregation_schedule,
                          distribution_schedule, final_down_holder,
                          final_up_holder)
from .blocks import BlockPartition
from .engine import (IterationStats, MulticoreNedEngine, ParallelBackend,
                     SimulatedBackend, ned_price_update)
from .paper_table import PAPER_TABLE, PaperRow, cpu_of, step_breakdown
from .shm import SenseReversingBarrier, SharedArena, measure_barrier_rate

__all__ = ["BlockPartition", "MulticoreNedEngine", "IterationStats",
           "ParallelBackend", "SimulatedBackend", "SharedArena",
           "ned_price_update", "SenseReversingBarrier",
           "measure_barrier_rate",
           "Transfer", "aggregation_schedule", "distribution_schedule",
           "final_up_holder", "final_down_holder", "PaperRow",
           "PAPER_TABLE", "cpu_of", "step_breakdown"]
