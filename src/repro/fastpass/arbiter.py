"""A Fastpass-style centralized arbiter (Perry et al., SIGCOMM 2014).

Fastpass is the throughput-comparison baseline of §6.1: it allocates
*individual packet timeslots* by computing a maximal matching between
sources and destinations every MTU-time (1.2 µs at 10 Gbit/s), so its
arbiter work scales with *packets*, while Flowtune's scales with
flowlet churn and allocator iterations.  That structural difference —
not constant factors — is what produces the paper's 10.4x/core gap,
and it is what this implementation reproduces.

The matching is the greedy maximal matching Fastpass's "pipelined"
timeslot allocation effectively computes: scan backlogged (src, dst)
demands in arrival order, admit a pair iff both endpoints are still
free in the slot.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["FastpassArbiter", "TIMESLOT_BYTES"]

#: One timeslot carries one MTU.
TIMESLOT_BYTES = 1500


class FastpassArbiter:
    """Greedy maximal-matching timeslot allocator.

    Demands are FIFO per (src, dst) pair, matching Fastpass's
    list-processing arbiter.  ``allocate_timeslot`` returns the set of
    (src, dst) pairs that may send one MTU in this slot.
    """

    def __init__(self, n_hosts):
        self.n_hosts = int(n_hosts)
        # (src, dst) -> backlog in packets; OrderedDict preserves
        # arrival order for the greedy scan.
        self._demands = OrderedDict()
        self.timeslots_run = 0
        self.packets_allocated = 0
        #: operations performed (pair scans).
        self.operations = 0

    def add_demand(self, src, dst, n_packets=1):
        if not 0 <= src < self.n_hosts or not 0 <= dst < self.n_hosts:
            raise ValueError("endpoint out of range")
        if src == dst:
            raise ValueError("src == dst")
        if n_packets <= 0:
            raise ValueError("demand must be positive")
        key = (src, dst)
        self._demands[key] = self._demands.get(key, 0) + int(n_packets)

    @property
    def backlog(self):
        """Reach: invariant — tests check demand conservation with it."""
        return sum(self._demands.values())

    def allocate_timeslot(self):
        """One timeslot: greedy maximal matching over backlogged pairs."""
        src_busy = set()
        dst_busy = set()
        matched = []
        exhausted = []
        for (src, dst), backlog in self._demands.items():
            self.operations += 1
            if src in src_busy or dst in dst_busy:
                continue
            src_busy.add(src)
            dst_busy.add(dst)
            matched.append((src, dst))
            if backlog == 1:
                exhausted.append((src, dst))
            else:
                self._demands[(src, dst)] = backlog - 1
            if len(src_busy) == self.n_hosts:
                break
        for key in exhausted:
            del self._demands[key]
        self.timeslots_run += 1
        self.packets_allocated += len(matched)
        return matched

    def is_maximal(self, matched):
        """Check maximality of a matching (test aid): no remaining
        demand could be added without conflicting.

        Reach: invariant — tests check allocate_timeslot's matchings with it.
        """
        src_busy = {s for s, _ in matched}
        dst_busy = {d for _, d in matched}
        return all(s in src_busy or d in dst_busy
                   for (s, d) in self._demands)
