"""Workload generation: flow-size distributions + Poisson flowlet churn."""

from .distributions import (WORKLOADS, EmpiricalSizeDistribution,
                            cache_workload, hadoop_workload, web_workload)
from .generator import FlowletArrival, PoissonFlowletGenerator

__all__ = ["EmpiricalSizeDistribution", "WORKLOADS", "web_workload",
           "cache_workload", "hadoop_workload", "FlowletArrival",
           "PoissonFlowletGenerator"]
