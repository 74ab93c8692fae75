#!/usr/bin/env python3
"""§5/§6.1: the FlowBlock/LinkBlock multicore allocator, demonstrated.

Runs the same flow population through 2x2, 4x4 and 8x8 simulated
processor grids, verifies the parallel result is bit-identical to
single-core NED, and prints the fig. 3 communication structure plus
the §6.1 table: the paper's measured µs per row next to the structure
the partitioning computes for it.

Run:  python examples/multicore_scaling.py
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.parallel import PAPER_TABLE, MulticoreNedEngine, step_breakdown
from repro.topology import TwoTierClos


def main():
    rows = []
    for n_blocks in (2, 4, 8):
        topology = TwoTierClos(n_racks=n_blocks * 2, hosts_per_rack=8,
                               n_spines=4)
        engine = MulticoreNedEngine(topology, n_blocks)
        rng = np.random.default_rng(1)
        for i in range(6 * topology.n_hosts):
            src = int(rng.integers(topology.n_hosts))
            dst = int(rng.integers(topology.n_hosts - 1))
            if dst >= src:
                dst += 1
            engine.add_flow(i, src, dst)
        reference = engine.reference_optimizer()
        start = time.perf_counter()
        stats = engine.iterate(10)
        elapsed = (time.perf_counter() - start) / 10
        reference.iterate(10)
        expected = dict(zip(reference.table.flow_ids(),
                            reference.rate_update()))
        worst = max(abs(rate - expected[fid])
                    for fid, rate in engine.rates().items())
        rows.append([f"{n_blocks}x{n_blocks}", engine.n_flows,
                     stats.aggregation_steps, stats.messages // 10,
                     f"{elapsed * 1e3:.2f} ms", f"{worst:.1e}"])
    print(format_table(
        ["grid", "flows", "agg steps", "msgs/iter", "wall/iter",
         "max |Δrate| vs 1-core"],
        rows, title="simulated multicore NED (fig. 2/3 partitioning)"))

    rows = [[row.cores, row.nodes, row.flows, row.flows_per_core,
             row.links_per_block, *step_breakdown(row.grid_side),
             f"{row.time_us:.2f}"]
            for row in PAPER_TABLE]
    print()
    print(format_table(
        ["cores", "nodes", "flows", "flows/core", "LinkBlock links",
         "intra-CPU steps", "inter-CPU steps", "paper us"],
        rows, title="§6.1 table: paper µs (E7-8870, not reproduced) next "
                    "to the partitioning's structure"))


if __name__ == "__main__":
    main()
