"""Flowtune's core contribution: NUM optimizers, normalization, allocator.

Public API re-exports; see individual modules for the algorithms:

* :mod:`repro.core.network` — link/flow state (:class:`LinkSet`,
  :class:`FlowTable`).
* :mod:`repro.core.utility` — NUM objectives.
* :mod:`repro.core.ned` — Newton-Exact-Diagonal (the paper's §3).
* :mod:`repro.core.gradient`, :mod:`repro.core.newton_like`,
  :mod:`repro.core.fgm` — the compared price-update baselines.
* :mod:`repro.core.realtime` — float32 NED-RT / Gradient-RT (fig. 12).
* :mod:`repro.core.normalization` — U-NORM / F-NORM (§4).
* :mod:`repro.core.allocator` — the centralized allocator (fig. 1).
"""

from .allocator import (AllocationResult, ChurnQueue, FlowtuneAllocator,
                        RateUpdate, threshold_update_mask)
from .external import ExternalTrafficManager
from .fgm import FgmOptimizer
from .gradient import GradientOptimizer
from .ned import NedOptimizer
from .network import FlowTable, LinkSet
from .newton_like import NewtonLikeOptimizer
from .normalization import (FNormalizer, Normalizer, NullNormalizer,
                            UNormalizer, f_norm, link_ratios, u_norm)
from .optimizer import PriceOptimizer, solve_to_optimal
from .realtime import GradientRtOptimizer, NedRtOptimizer, fast_reciprocal
from .utility import AlphaFairUtility, LogUtility, Utility

__all__ = [
    "AllocationResult", "ChurnQueue", "FlowtuneAllocator", "RateUpdate",
    "threshold_update_mask",
    "ExternalTrafficManager",
    "FgmOptimizer", "GradientOptimizer", "NedOptimizer",
    "NewtonLikeOptimizer", "NedRtOptimizer", "GradientRtOptimizer",
    "FlowTable", "LinkSet", "PriceOptimizer", "solve_to_optimal",
    "FNormalizer", "Normalizer", "NullNormalizer", "UNormalizer",
    "f_norm", "link_ratios", "u_norm", "fast_reciprocal",
    "AlphaFairUtility", "LogUtility", "Utility",
]
