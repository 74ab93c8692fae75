"""Pre-wired fluid experiments for figures 5-7, 12 and 13.

Each function builds the §6.2 setup (two-tier Clos, Poisson churn from
a Facebook workload, 10 µs allocator iterations) at a configurable
scale and returns the series the corresponding paper figure plots.
The benchmark harness and the examples call these; tests run them at
tiny scale.
"""

from __future__ import annotations

import numpy as np

from ..core.fgm import FgmOptimizer
from ..core.gradient import GradientOptimizer
from ..core.ned import NedOptimizer
from ..core.normalization import FNormalizer, NullNormalizer, UNormalizer
from ..core.realtime import GradientRtOptimizer, NedRtOptimizer
from ..sampling import SCHEDULER_MODES, make_scheduler
from ..topology.clos import TwoTierClos
from ..workloads.distributions import WORKLOADS
from ..workloads.generator import PoissonFlowletGenerator
from .churn import FluidSimulator

__all__ = [
    "build_fluid_setup", "measure_update_traffic", "threshold_reduction",
    "over_allocation_by_algorithm", "normalization_throughput",
    "fct_by_scheme", "OVERALLOCATION_ALGORITHMS",
]

#: fig. 12's algorithm set.
OVERALLOCATION_ALGORITHMS = {
    "NED": (NedOptimizer, {"gamma": 1.0}),
    "NED-RT": (NedRtOptimizer, {"gamma": 1.0}),
    "Gradient": (GradientOptimizer, {"gamma": 0.02}),
    "Gradient-RT": (GradientRtOptimizer, {"gamma": 0.02}),
    "FGM": (FgmOptimizer, {}),
}


def build_fluid_setup(workload="web", load=0.6, n_racks=9, hosts_per_rack=16,
                      n_spines=4, threshold=0.01, optimizer_cls=NedOptimizer,
                      optimizer_kwargs=None, normalizer=None, gamma=0.4,
                      tick=10e-6, seed=0, optimal_every=0, mode="flowtune",
                      scheduler_kwargs=None):
    """Construct (topology, scheduler, generator, simulator) for §6.2.

    ``mode`` selects the rate-assignment scheme through
    :func:`repro.make_scheduler` (``"flowtune"``, ``"sampled"``,
    ``"ecmp"``); the NUM knobs (``optimizer_cls`` … ``gamma``) apply
    to the priced modes only, and ``scheduler_kwargs`` passes extra
    construction arguments (detector knobs, ``mice_refresh``, …)
    straight to the factory.
    """
    topology = TwoTierClos(n_racks=n_racks, hosts_per_rack=hosts_per_rack,
                           n_spines=n_spines)
    extra = dict(scheduler_kwargs or {})
    if mode == "ecmp":
        allocator = make_scheduler(topology.link_set(), mode="ecmp",
                                   update_threshold=threshold, **extra)
    else:
        kwargs = dict(optimizer_kwargs or {})
        if "gamma" not in kwargs and optimizer_cls is not FgmOptimizer:
            kwargs["gamma"] = gamma
        allocator = make_scheduler(
            topology.link_set(), mode=mode, optimizer_cls=optimizer_cls,
            normalizer=(normalizer if normalizer is not None
                        else FNormalizer()),
            update_threshold=threshold, optimizer_kwargs=kwargs, **extra)
    workload_dist = WORKLOADS[workload]() if isinstance(workload, str) else workload
    generator = PoissonFlowletGenerator(
        workload_dist, n_hosts=topology.n_hosts, load=load,
        host_capacity_gbps=topology.host_capacity, seed=seed)
    simulator = FluidSimulator(topology, allocator, generator, tick=tick,
                               optimal_every=optimal_every)
    return topology, allocator, generator, simulator


def measure_update_traffic(workload="web", load=0.6, threshold=0.01,
                           duration=5e-3, warmup=1e-3, seed=0, **scale):
    """Fig. 5 point: control-traffic fractions of network capacity."""
    topology, _, _, simulator = build_fluid_setup(
        workload=workload, load=load, threshold=threshold, seed=seed, **scale)
    metrics = simulator.run(duration, warmup=warmup)
    capacity = topology.bisection_capacity()
    return {
        "workload": workload if isinstance(workload, str) else workload.name,
        "load": load,
        "threshold": threshold,
        "from_allocator": metrics.fraction_of_capacity(capacity, "from"),
        "to_allocator": metrics.fraction_of_capacity(capacity, "to"),
        "n_rate_updates": metrics.n_rate_updates,
        "n_start_messages": metrics.n_start_messages,
        "metrics": metrics,
    }


def threshold_reduction(workload="web", load=0.6, thresholds=(0.01, 0.02,
                        0.03, 0.04, 0.05), duration=5e-3, warmup=1e-3,
                        seed=0, **scale):
    """Fig. 6 series: % reduction in from-allocator traffic vs 0.01."""
    results = {}
    for threshold in thresholds:
        point = measure_update_traffic(workload=workload, load=load,
                                       threshold=threshold,
                                       duration=duration, warmup=warmup,
                                       seed=seed, **scale)
        results[threshold] = point["from_allocator"]
    baseline = max(results[thresholds[0]], 1e-12)
    return {t: 100.0 * (1.0 - results[t] / baseline) for t in thresholds}


def fct_by_scheme(workload="web", load=0.6, duration=5e-3, warmup=1e-3,
                  seed=0, schemes=SCHEDULER_MODES, scheduler_kwargs=None,
                  **scale):
    """Fig. 8-style series: flow-completion times per allocation scheme.

    Replays the *same* Poisson flowlet sequence (same workload, load
    and seed) under each scheme — full Flowtune pricing, sieve-sampled
    pricing (elephants only, fed by the simulator's per-tick usage
    stream), and pure ECMP fair share — and reports the FCT
    percentiles the paper's fig. 8 compares, plus each scheme's
    priced-set size so the sampled point is interpretable.
    ``scheduler_kwargs`` maps scheme name -> extra construction
    arguments (e.g. detector knobs for ``"sampled"``).
    """
    per_scheme_kwargs = dict(scheduler_kwargs or {})
    results = {}
    for scheme in schemes:
        _, allocator, _, simulator = build_fluid_setup(
            workload=workload, load=load, seed=seed, mode=scheme,
            scheduler_kwargs=per_scheme_kwargs.get(scheme), **scale)
        metrics = simulator.run(duration, warmup=warmup)
        fcts = metrics.fcts()
        n_flows = getattr(allocator, "n_flows", 0)
        n_priced = n_flows
        if hasattr(allocator, "n_priced"):
            n_priced = allocator.n_priced
        elif scheme == "ecmp":
            n_priced = 0
        results[scheme] = {
            "n_completed": int(len(fcts)),
            "p50_fct_us": 1e6 * float(np.percentile(fcts, 50)) if len(fcts) else None,
            "p99_fct_us": 1e6 * float(np.percentile(fcts, 99)) if len(fcts) else None,
            "mean_fct_us": 1e6 * float(fcts.mean()) if len(fcts) else None,
            "n_active_end": int(simulator.n_active),
            "n_priced_end": int(n_priced),
            "priced_fraction_end": (float(n_priced) / n_flows
                                    if n_flows else 0.0),
        }
    return results


def over_allocation_by_algorithm(load=0.6, workload="web", duration=3e-3,
                                 warmup=0.5e-3, seed=0,
                                 algorithms=None, **scale):
    """Fig. 12 series: mean over-capacity Gbit/s without normalization."""
    algorithms = algorithms if algorithms is not None \
        else OVERALLOCATION_ALGORITHMS
    results = {}
    for name, (cls, kwargs) in algorithms.items():
        _, _, _, simulator = build_fluid_setup(
            workload=workload, load=load, optimizer_cls=cls,
            optimizer_kwargs=dict(kwargs), normalizer=NullNormalizer(),
            threshold=0.0, seed=seed, **scale)
        metrics = simulator.run(duration, warmup=warmup)
        results[name] = metrics.mean_over_allocation()
    return results


def normalization_throughput(load=0.6, workload="web", duration=3e-3,
                             warmup=0.5e-3, seed=0, optimal_every=20,
                             **scale):
    """Fig. 13 series: achieved/optimal throughput per (algo, norm)."""
    combos = {
        ("NED", "F-NORM"): (NedOptimizer, {"gamma": 1.0}, FNormalizer()),
        ("NED", "U-NORM"): (NedOptimizer, {"gamma": 1.0}, UNormalizer()),
        ("Gradient", "F-NORM"): (GradientOptimizer, {"gamma": 0.02},
                                 FNormalizer()),
        ("Gradient", "U-NORM"): (GradientOptimizer, {"gamma": 0.02},
                                 UNormalizer()),
    }
    results = {}
    for (algo, norm), (cls, kwargs, normalizer) in combos.items():
        _, _, _, simulator = build_fluid_setup(
            workload=workload, load=load, optimizer_cls=cls,
            optimizer_kwargs=dict(kwargs), normalizer=normalizer,
            threshold=0.0, seed=seed, optimal_every=optimal_every, **scale)
        metrics = simulator.run(duration, warmup=warmup)
        results[(algo, norm)] = metrics.throughput_fraction_of_optimal()
    return results
