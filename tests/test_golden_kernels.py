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
``bincount`` path).  A change that moves floats on purpose updates the
constants and says which and why.
"""

import hashlib

import numpy as np
import pytest

from repro import paper_topology
from repro.core import FlowtuneAllocator, kernels

N_FLOWS = 34_000

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


def digest(*arrays):
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def allocator():
    topology = paper_topology()
    rng = np.random.default_rng(2024)
    src = rng.integers(0, topology.n_hosts, N_FLOWS)
    dst = rng.integers(0, topology.n_hosts - 1, N_FLOWS)
    dst += dst >= src
    allocator = FlowtuneAllocator(topology.link_set())
    allocator.apply_churn(starts=[
        (i, topology.route(s, d, i))
        for i, (s, d) in enumerate(zip(src.tolist(), dst.tolist()))])
    return allocator


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
