"""Post-processing metrics for the paper's figures."""

from .convergence import convergence_time
from .fairness import flow_rates, relative_fairness
from .fct import (SIZE_BINS, bin_of, ideal_fct, normalized_fcts,
                  p99_by_bin, speedup_by_bin)
from .tables import format_table

__all__ = ["SIZE_BINS", "bin_of", "ideal_fct", "normalized_fcts",
           "p99_by_bin", "speedup_by_bin", "flow_rates",
           "relative_fairness", "convergence_time", "format_table"]
