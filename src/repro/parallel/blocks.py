"""FlowBlock / LinkBlock partitioning of network state (§5, fig. 2).

Racks are grouped into ``n_blocks`` blocks.  All links going *up* from
a block's racks (server->ToR and ToR->spine) form its **upward
LinkBlock**; all links going *down* toward the block (spine->ToR and
ToR->server) form its **downward LinkBlock**.  Flows are partitioned
by (source block, destination block) into **FlowBlocks**; the flows of
FlowBlock (i, j) touch *only* upward LinkBlock i and downward
LinkBlock j — that locality is what eliminates cache-coherence traffic
in the multicore allocator.
"""

from __future__ import annotations

import numpy as np

from ..topology.clos import TwoTierClos

__all__ = ["BlockPartition"]


class BlockPartition:
    """The §5 partitioning for a two-tier Clos.

    Parameters
    ----------
    topology:
        A :class:`~repro.topology.TwoTierClos`.
    n_blocks:
        Number of rack groups; processors form an ``n_blocks x
        n_blocks`` grid.  Must divide ``topology.n_racks`` evenly and,
        for the aggregation schedule of fig. 3, be a power of two.
    """

    def __init__(self, topology: TwoTierClos, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("n_blocks must be positive")
        if n_blocks & (n_blocks - 1):
            raise ValueError("n_blocks must be a power of two (fig. 3)")
        self.topology = topology
        self.n_blocks = int(n_blocks)
        self.rack_groups = topology.rack_blocks(n_blocks)
        self.upward_links = [topology.upward_link_block(g)
                             for g in self.rack_groups]
        self.downward_links = [topology.downward_link_block(g)
                               for g in self.rack_groups]
        # All LinkBlocks are the same size by construction (§5: "each
        # LinkBlock contains exactly the same number of links").
        sizes = {len(b) for b in self.upward_links}
        sizes |= {len(b) for b in self.downward_links}
        assert len(sizes) == 1, "unequal LinkBlock sizes"
        self.links_per_block = sizes.pop()
        self._hosts_per_block = (topology.hosts_per_rack
                                 * len(self.rack_groups[0]))

    @property
    def n_processors(self):
        return self.n_blocks * self.n_blocks

    def grid_cells(self):
        """Row-major processor coordinates — the engine's cell order."""
        n = self.n_blocks
        return [(r, c) for r in range(n) for c in range(n)]

    def link_block(self, block, upward):
        """Link indices of one LinkBlock (the payload of a fig. 3
        transfer): upward block ``block`` if ``upward`` else downward."""
        return self.upward_links[block] if upward else \
            self.downward_links[block]

    def block_of_host(self, host):
        """The rack group a host belongs to."""
        return self.topology.rack_of(host) // len(self.rack_groups[0])

    def flowblock_of(self, src_host, dst_host):
        """Processor-grid coordinates (source block, destination block)."""
        return self.block_of_host(src_host), self.block_of_host(dst_host)

    def verify_locality(self, src_host, dst_host, route):
        """True iff ``route``'s links lie in the flow's two LinkBlocks.

        This is the invariant the whole §5 design rests on; the test
        suite checks it property-style over random flows.

        Reach: invariant — tests check that every route stays inside its
        FlowBlock's LinkBlocks with it.
        """
        i, j = self.flowblock_of(src_host, dst_host)
        allowed = set(self.upward_links[i].tolist())
        allowed |= set(self.downward_links[j].tolist())
        return all(int(link) in allowed for link in np.asarray(route))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"BlockPartition(n_blocks={self.n_blocks}, "
                f"links_per_block={self.links_per_block})")
