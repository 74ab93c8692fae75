"""Flowlet-level (fluid) simulation of the Flowtune allocator."""

from .churn import FluidFlowRecord, FluidMetrics, FluidSimulator
from .experiments import (OVERALLOCATION_ALGORITHMS, build_fluid_setup,
                          measure_update_traffic, normalization_throughput,
                          over_allocation_by_algorithm, threshold_reduction)

__all__ = ["FluidSimulator", "FluidMetrics", "FluidFlowRecord",
           "build_fluid_setup", "measure_update_traffic",
           "threshold_reduction", "over_allocation_by_algorithm",
           "normalization_throughput", "OVERALLOCATION_ALGORITHMS"]
