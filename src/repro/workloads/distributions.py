"""Flowlet-size distributions for the §6.2 workloads.

The paper draws flowlet sizes from "the Web, Cache, and Hadoop
workloads published by Facebook" (Roy et al., SIGCOMM 2015).  The raw
traces are not public, so we encode piecewise log-linear CDFs
approximating the published figures.  What the Flowtune evaluation
actually relies on is the *ordering and churn structure*:

* **Web** has the smallest mean flowlet, hence the highest flowlet
  arrival rate at a given load and the most allocator update traffic
  (§6.4: 1.13 % of capacity, the most stressful workload);
* **Cache** sits in the middle (0.57 %) — bimodal: tiny metadata
  responses plus large object transfers;
* **Hadoop** has the largest mean (0.17 %) — bulk shuffle/replication
  traffic.

Those properties hold for these approximations by construction, and
every distribution exposes its exact mean so generators can hit load
targets precisely.  DESIGN.md records this substitution.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EmpiricalSizeDistribution", "WORKLOADS", "web_workload",
           "cache_workload", "hadoop_workload"]


class EmpiricalSizeDistribution:
    """Inverse-CDF sampler over piecewise log-linear flow sizes.

    ``points`` is a sequence of ``(size_bytes, cdf)`` pairs with
    strictly increasing sizes and CDF values spanning [0, 1].
    Interpolation is linear in ``log(size)``, which matches how such
    CDFs are published (log-x axes) and keeps heavy tails heavy.
    """

    def __init__(self, name, points):
        sizes = np.array([p[0] for p in points], dtype=np.float64)
        cdf = np.array([p[1] for p in points], dtype=np.float64)
        if np.any(np.diff(sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if np.any(np.diff(cdf) < 0) or cdf[0] != 0.0 or cdf[-1] != 1.0:
            raise ValueError("cdf must be non-decreasing from 0 to 1")
        self.name = name
        self._log_sizes = np.log(sizes)
        self._cdf = cdf
        self.min_bytes = float(sizes[0])
        self.max_bytes = float(sizes[-1])
        self.mean_bytes = self._numeric_mean()

    def _numeric_mean(self):
        """Mean of the piecewise log-linear distribution (exact).

        Within a segment the CDF is linear in ``u = log s``, so the
        density in ``u`` is uniform and ``E[s | segment] =
        (e^{u2} - e^{u1}) / (u2 - u1)``.
        """
        total = 0.0
        for i in range(len(self._cdf) - 1):
            du = self._log_sizes[i + 1] - self._log_sizes[i]
            dp = self._cdf[i + 1] - self._cdf[i]
            if dp <= 0:
                continue
            if du < 1e-12:
                segment_mean = np.exp(self._log_sizes[i])
            else:
                segment_mean = ((np.exp(self._log_sizes[i + 1])
                                 - np.exp(self._log_sizes[i])) / du)
            total += dp * segment_mean
        return float(total)

    def sample(self, rng: np.random.Generator, n=None):
        """Draw flow sizes in bytes (scalar when ``n`` is None)."""
        sizes = self.quantile(rng.random(n))
        if n is None:
            return float(sizes)
        return sizes

    def quantile(self, q):
        """Inverse CDF at ``q`` (scalar or array), in bytes."""
        return np.exp(np.interp(q, self._cdf, self._log_sizes))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"EmpiricalSizeDistribution({self.name!r}, "
                f"mean={self.mean_bytes:.0f}B)")


def web_workload():
    """Facebook web servers: small request/response flows, modest tail.

    Smallest mean of the three — the highest-churn workload (§6.2
    "stresses Flowtune the most").
    """
    return EmpiricalSizeDistribution("web", [
        (70, 0.0),
        (200, 0.15),
        (600, 0.40),
        (1_500, 0.60),
        (5_000, 0.80),
        (20_000, 0.92),
        (100_000, 0.975),
        (1_000_000, 0.997),
        (10_000_000, 1.0),
    ])


def cache_workload():
    """Facebook cache followers: bimodal — tiny hits, large objects."""
    return EmpiricalSizeDistribution("cache", [
        (100, 0.0),
        (400, 0.30),
        (2_000, 0.55),
        (10_000, 0.62),
        (100_000, 0.70),
        (500_000, 0.80),
        (1_000_000, 0.90),
        (5_000_000, 0.99),
        (20_000_000, 1.0),
    ])


def hadoop_workload():
    """Facebook Hadoop: bulk transfers dominate bytes; largest mean."""
    return EmpiricalSizeDistribution("hadoop", [
        (300, 0.0),
        (1_000, 0.10),
        (10_000, 0.30),
        (100_000, 0.50),
        (1_000_000, 0.75),
        (10_000_000, 0.95),
        (100_000_000, 1.0),
    ])


#: name -> factory, the three §6.2 workloads.
WORKLOADS = {
    "web": web_workload,
    "cache": cache_workload,
    "hadoop": hadoop_workload,
}
