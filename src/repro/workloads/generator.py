"""Poisson flowlet arrival processes targeting a server load (§6.2).

"To model micro-bursts, flowlets follow a Poisson arrival process...
The Poisson rate at which flows enter the system is chosen to reach a
specific average server load, where 100 % load is when the rate equals
server link capacity divided by the mean flow size.  Sources and
destinations are chosen uniformly at random."

Loads are per *source server*: at load ``u`` each server originates
flowlets at rate ``u * C / E[size]`` where ``C`` is its access-link
capacity.  The aggregate process over all servers is Poisson with the
summed rate, which is how we generate it (one exponential clock for
the whole fabric, then a uniform source choice).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import EmpiricalSizeDistribution

__all__ = ["FlowletArrival", "PoissonFlowletGenerator"]


@dataclass(frozen=True)
class FlowletArrival:
    """One flowlet entering the system."""

    flow_id: int
    time: float          # seconds
    src: int             # host index
    dst: int             # host index
    size_bytes: float


@dataclass
class PoissonFlowletGenerator:
    """Open-loop Poisson flowlet source over a host population.

    Parameters
    ----------
    workload:
        Flow-size distribution.
    n_hosts:
        Number of servers; sources and destinations are uniform over
        them (destination resampled until it differs from the source).
    load:
        Target per-server load in (0, 1]; 1.0 saturates access links.
    host_capacity_gbps:
        Server access-link capacity (the load denominator).
    seed:
        Deterministic RNG seed.
    first_flow_id:
        Starting id (ids increase by 1 per arrival).
    """

    workload: EmpiricalSizeDistribution
    n_hosts: int
    load: float
    host_capacity_gbps: float = 10.0
    seed: int = 0
    first_flow_id: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _time: float = field(init=False, default=0.0)
    _next_id: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.load <= 2.0:
            raise ValueError("load must be in (0, 2] (1.0 = line rate)")
        if self.n_hosts < 2:
            raise ValueError("need at least two hosts for src != dst")
        self._rng = np.random.default_rng(self.seed)
        self._next_id = self.first_flow_id

    @property
    def per_host_rate(self):
        """Flowlet arrivals per second per server."""
        capacity_bits = self.host_capacity_gbps * 1e9
        return self.load * capacity_bits / (self.workload.mean_bytes * 8.0)

    @property
    def aggregate_rate(self):
        """Flowlet arrivals per second over the whole fabric."""
        return self.per_host_rate * self.n_hosts

    def __iter__(self):
        """Reach: interface — the iterator protocol next() relies on."""
        return self

    def __next__(self) -> FlowletArrival:
        self._time += self._rng.exponential(1.0 / self.aggregate_rate)
        src = int(self._rng.integers(self.n_hosts))
        dst = int(self._rng.integers(self.n_hosts - 1))
        if dst >= src:
            dst += 1
        size = float(self.workload.sample(self._rng))
        arrival = FlowletArrival(self._next_id, self._time, src, dst, size)
        self._next_id += 1
        return arrival

    def arrivals_until(self, t_end):
        """All arrivals with time <= ``t_end`` (list, consumes the stream)."""
        out = []
        while True:
            arrival = self.peek()
            if arrival.time > t_end:
                break
            out.append(self.take())
        return out

    # one-item lookahead so callers can interleave with other event sources
    _peeked: FlowletArrival | None = field(init=False, default=None)

    def peek(self) -> FlowletArrival:
        if self._peeked is None:
            self._peeked = next(self)
        return self._peeked

    def take(self) -> FlowletArrival:
        arrival = self.peek()
        self._peeked = None
        return arrival
