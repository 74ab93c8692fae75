"""Golden hashes of the route kernels on a fixed multi-chunk table.

The kernels' reduction order (:mod:`repro.core.kernels`) rests on
numpy's ``bincount``, float64 ``np.add.at`` and complex128
``np.add.at`` loops adding their entries one at a time in index
order.  None of that is documented numpy API, so this test pins the
bits they produce against constants: it fails on a numpy whose loops
round differently, or on a change to the kernels that moves a float,
with no second checkout to compare against.

The table is ``paper_topology()`` with :data:`N_FLOWS` seeded flows:
two full ``BLOCK_ROWS`` chunks (the column-by-column path and the
chunk fold) plus a tail of at most ``SMALL_CHUNK`` flows (the one-call
``bincount`` path).  :data:`CHURN_GOLDEN` follows the same table through
a seeded churn program (:data:`CHURN_OPS` ops of :data:`CHURN` ends and
as many starts, one allocator iteration each), so swap-remove order,
warm-started prices and the §6.4 mask's ``last``/``pending`` columns
are pinned too.  A change that moves floats on purpose updates the
constants and says which and why.
"""

import hashlib

import numpy as np
import pytest

from repro import paper_topology
from repro.core import FlowtuneAllocator, kernels

N_FLOWS = 34_000
CHURN, CHURN_OPS = 500, 5

GOLDEN = {
    "price_sums":
        "30de4340b64e7f28b1ca843749500bdeffff9f8e82aac8716d0035e4fc2b6c4e",
    "link_totals":
        "de3a437553b3dcd61c0cddb81c29131c86c45c223af47cf641cfef5b1819193e",
    "link_totals2":
        "b5dd7cb5008a92befb761784d96be22582f1df0c86c5b054d419fbda5dac0419",
    "max_link_value":
        "9ce44728af8b467906ae94d1d12c055742c3d85bab01362b0424e784054f627f",
    "iterate":
        "e3f9cd466b90e5147c696df77a2f68d59506f0923a78c5309d9018e1c3b3620b",
}

# One per churn op, recorded before the two-pass iteration existed.
CHURN_GOLDEN = [
    "319c70c4e1344ecf96b2e2aa52a090e45275f8ea45c286f24e3e9b7089a8a7ac",
    "30197564928c44a43c3ba702b431b51067508d76566b55b22e1b110f8a1f2dd7",
    "dfd4ef1dbede1b41693557d995c669794782ac3e3dc62fd3d44dc6fc7619d1a7",
    "b953eeb8a235f1be3e5b3ed00a5c6789787b75083a78841f1009c23e169101d4",
    "3fe37f150a724279faef7013d430a861c9c0ef1bd434a48d1d7f3acebbda5f40",
]


def digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def seeded_starts(topology, rng, first_id, count):
    src = rng.integers(0, topology.n_hosts, count)
    dst = rng.integers(0, topology.n_hosts - 1, count)
    dst += dst >= src
    return [(i, topology.route(s, d, i))
            for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()),
                                       start=first_id)]


def build_allocator():
    topology = paper_topology()
    allocator = FlowtuneAllocator(topology.link_set())
    allocator.apply_churn(starts=seeded_starts(
        topology, np.random.default_rng(2024), 0, N_FLOWS))
    return topology, allocator


@pytest.fixture(scope="module")
def allocator():
    return build_allocator()[1]


def outputs(allocator):
    table = allocator.table
    rng = np.random.default_rng(7)
    n_links, n = table.links.n_links, table.n_flows
    prices = rng.random(n_links)
    a, b = rng.random(n), -rng.random(n)
    per_link = rng.random(n_links)
    result = allocator.iterate(1)
    return {
        "price_sums": digest(table.price_sums(prices)),
        "link_totals": digest(table.link_totals(a)),
        "link_totals2": digest(*table.link_totals2(a, b)),
        "max_link_value": digest(table.max_link_value(per_link)),
        "iterate": digest(result.rate_vector, result.update_indices,
                          allocator.optimizer.prices),
    }


def test_table_spans_both_scatter_paths(allocator):
    spans = kernels.chunk_spans(allocator.table.n_flows)
    assert [r1 - r0 for r0, r1 in spans[:-1]] == [kernels.BLOCK_ROWS] * 2
    assert 0 < spans[-1][1] - spans[-1][0] <= kernels.SMALL_CHUNK


def test_kernel_outputs_match_golden(allocator):
    assert outputs(allocator) == GOLDEN


def churn_digests():
    """sha256 of (rates, update indices, prices) after each churn op."""
    topology, allocator = build_allocator()
    allocator.iterate(1)
    rng = np.random.default_rng(11)
    next_id = N_FLOWS
    digests = []
    for _ in range(CHURN_OPS):
        live = allocator.table.flow_id_array()
        ends = rng.choice(live, CHURN, replace=False).tolist()
        allocator.apply_churn(
            starts=seeded_starts(topology, rng, next_id, CHURN), ends=ends)
        next_id += CHURN
        result = allocator.iterate(1)
        digests.append(digest(result.rate_vector, result.update_indices,
                              allocator.optimizer.prices))
    return digests


def test_churn_program_matches_golden():
    assert churn_digests() == CHURN_GOLDEN
