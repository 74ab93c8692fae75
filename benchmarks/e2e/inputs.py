"""Seeded input generation: the program only ever sees generated inputs.

Every workload draws from one pool of (src, dst) pairs on the paper's
9x16x4 Clos, produced by the repo's own Poisson flowlet generator, so a
seed fixes the routes, the byte counts the sampled workload reports,
and the service workload's arrival schedule.  ``digest`` hashes all of
it; two runs measured the same inputs iff their digests match.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro import paper_topology
from repro.workloads import (PoissonFlowletGenerator, cache_workload,
                             web_workload)

__all__ = ["Inputs", "make_inputs", "poisson_schedule", "POOL_SIZE",
           "N_HOSTS"]

POOL_SIZE = 20_000
N_HOSTS = 144
_LOAD = 0.6


@dataclass(frozen=True)
class Inputs:
    routes: list            # POOL_SIZE link-index arrays
    sizes: np.ndarray       # cache-workload byte counts, one per pool slot
    digest: str

    def route(self, flow_id: int) -> np.ndarray:
        return self.routes[flow_id % POOL_SIZE]

    def size(self, flow_id: int) -> float:
        return float(self.sizes[flow_id % POOL_SIZE])

    def starts(self, first: int, count: int) -> list:
        routes = self.routes
        return [(fid, routes[fid % POOL_SIZE])
                for fid in range(first, first + count)]


def make_inputs(seed: int) -> Inputs:
    topology = paper_topology()
    generator = PoissonFlowletGenerator(web_workload(), N_HOSTS, load=_LOAD,
                                        seed=seed)
    routes = []
    for slot in range(POOL_SIZE):
        arrival = next(generator)
        routes.append(topology.route(arrival.src, arrival.dst, slot))
    sizes = cache_workload().sample(np.random.default_rng(seed), POOL_SIZE)
    digest = hashlib.sha256()
    digest.update(np.concatenate(routes).tobytes())
    digest.update(np.ascontiguousarray(sizes).tobytes())
    return Inputs(routes=routes, sizes=sizes,
                  digest=digest.hexdigest()[:16])


def poisson_schedule(seed: int, phase: str, rate: float,
                     duration: float) -> np.ndarray:
    """Due times (seconds from phase start) of an open-loop Poisson
    arrival process at ``rate``/s, cut at ``duration``."""
    rng = np.random.default_rng([seed, sum(phase.encode())])
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    due = np.cumsum(gaps)
    return due[due < duration]
