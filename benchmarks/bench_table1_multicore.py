"""§6.1 table: multicore allocator runtime vs cores, flows, nodes.

Prints the seven rows two ways:

1. the paper's µs per iteration, measured on an E7-8870 and shown as
   paper values, next to the structure the *real* partitioning and
   fig. 3 schedule compute for each row (flows per core, LinkBlock
   size, intra- and inter-CPU aggregation steps) — Python reproduces
   the structure, not the E7-8870 timings; and
2. actual wall-clock of the simulated multicore engine on scaled-down
   fabrics (shape check: runtime grows with flows/core and LinkBlock
   size, sub-linearly with cores).
"""

import numpy as np
import pytest

from repro.analysis import format_table
from repro.parallel import PAPER_TABLE, MulticoreNedEngine, step_breakdown
from repro.topology import TwoTierClos

from _common import report


def test_paper_table_structure():
    rows = [[row.cores, row.nodes, row.flows, row.flows_per_core,
             row.links_per_block, *step_breakdown(row.grid_side),
             f"{row.time_us:.2f}"]
            for row in PAPER_TABLE]
    report(format_table(
        ["cores", "nodes", "flows", "flows/core", "LinkBlock links",
         "intra-CPU steps", "inter-CPU steps", "paper us"],
        rows, title="\n[§6.1 table] paper µs (E7-8870, not reproduced) "
                    "next to the partitioning's structure"))
    # One CPU holds the 4-core grid; every larger grid crosses CPUs.
    assert [step_breakdown(row.grid_side)[1] for row in PAPER_TABLE] == \
        [0, 1, 2, 2, 2, 2, 2]


@pytest.mark.parametrize("n_blocks,flows_per_host", [(2, 8), (4, 8), (8, 8)])
def test_engine_wall_clock(benchmark, n_blocks, flows_per_host):
    """Wall time of one parallel iteration on a scaled fabric."""
    topology = TwoTierClos(n_racks=n_blocks * 2, hosts_per_rack=8,
                           n_spines=4)
    engine = MulticoreNedEngine(topology, n_blocks)
    rng = np.random.default_rng(0)
    for i in range(flows_per_host * topology.n_hosts):
        src = int(rng.integers(topology.n_hosts))
        dst = int(rng.integers(topology.n_hosts - 1))
        if dst >= src:
            dst += 1
        engine.add_flow(i, src, dst)
    engine.iterate(3)  # warm up
    stats = benchmark(engine.iterate, 1)
    report(f"[§6.1 engine] {n_blocks * n_blocks} procs, "
           f"{engine.n_flows} flows: {stats.messages} LinkBlock msgs, "
           f"{stats.aggregation_steps} agg steps")
    assert stats.aggregation_steps == int(np.log2(n_blocks))
