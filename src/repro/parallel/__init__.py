"""Multicore allocator: FlowBlock/LinkBlock partitioning (§5) + §6.1 model."""

from .aggregation import (Transfer, aggregation_schedule,
                          distribution_schedule, final_down_holder,
                          final_up_holder)
from .blocks import BlockPartition
from .cost_model import (CLOCK_GHZ, PAPER_TABLE, BenchConfig, CostModel,
                         PaperRow, cpu_of, fit_cost_model, step_breakdown)
from .engine import (IterationStats, MulticoreNedEngine, ParallelBackend,
                     SimulatedBackend, ned_price_update)
from .shm import SenseReversingBarrier, SharedArena, measure_barrier_rate

__all__ = ["BlockPartition", "MulticoreNedEngine", "IterationStats",
           "ParallelBackend", "SimulatedBackend", "SharedArena",
           "ned_price_update", "SenseReversingBarrier",
           "measure_barrier_rate",
           "Transfer", "aggregation_schedule", "distribution_schedule",
           "final_up_holder", "final_down_holder", "BenchConfig",
           "CostModel", "PaperRow", "PAPER_TABLE",
           "fit_cost_model", "cpu_of", "step_breakdown", "CLOCK_GHZ"]
