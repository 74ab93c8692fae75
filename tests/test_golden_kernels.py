"""Golden hashes of the route kernels on fixed multi-chunk tables.

The kernels' reduction order (:mod:`repro.core.kernels`, spelled out
in the header of its C source) was first carried by numpy's
``bincount``, float64 ``np.add.at`` and complex128 ``np.add.at`` loops
adding their entries one at a time in index order.  These constants
were recorded on that numpy path and pass unedited on the C loops that
replaced it: they fail on a change to the kernels that moves a float,
with no second checkout to compare against.

The table is ``paper_topology()`` with :data:`N_FLOWS` seeded flows:
two full ``BLOCK_ROWS`` chunks plus a short tail, so the chunk fold is
pinned.  :data:`CHURN_GOLDEN` follows the same table through
a seeded churn program (:data:`CHURN_OPS` ops of :data:`CHURN` ends and
as many starts, one allocator iteration each), so swap-remove order,
warm-started prices and the §6.4 mask's ``last``/``pending`` columns
are pinned too.  :data:`SPANNING_GOLDEN` pins a route set whose links
span storage columns.  A change that moves floats on purpose updates
the constants and says which and why.
"""

import hashlib

import numpy as np
import pytest

from repro import make_scheduler, paper_topology
from repro.core import FlowtuneAllocator, LinkSet, kernels

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


def test_table_spans_two_chunks_and_a_tail(allocator):
    spans = kernels.chunk_spans(allocator.table.n_flows)
    assert [r1 - r0 for r0, r1 in spans[:-1]] == [kernels.BLOCK_ROWS] * 2
    assert 0 < spans[-1][1] - spans[-1][0] < kernels.BLOCK_ROWS


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


# The same churn program through the other two schedulers, hashing
# (ids, rates, update indices) after every op: the id column pins each
# flow's row, so a churn path that moved a flow changes the digest even
# where the rates tie.  "sampled" also feeds seeded cumulative byte
# counts, so flows promote into the priced table (and, with a short
# idle limit, demote back) and the mice refresh runs; both tables then
# churn through the batched insert and removal paths.  Recorded on the
# tree before flow handles replaced the id -> row map.
SCHEDULER_CHURN_GOLDEN = {
    "ecmp": [
        "604bccc75645c16140cbc36ecb73c8f26a1770ed080dc8995ff5572a1a84c5ac",
        "d070db21cbd8f6242ad0eb4d4f0fe81ef231fff99442092f09e246debeadaf20",
        "6b1810dca3f513163375bc150b8dd30471e37f9ea38bf4b9c0fa8888e2577928",
        "e52ce412c9809f6c8c5c68ce1c0ee7cdd1e9335994e0b317ca09f2fb7647605f",
        "028c86fb7a2e10f044eba67044b4e1687e1c9c24c69f773227d99f940098a26a",
    ],
    "sampled": [
        "47623d02b2ba8229f1cf230b319e2d8792d6d7ed4349b6e0041eaec2f81f0865",
        "a0dd2d357ef03cc69e9883be0006c631c99e67e3e5fa7cc38363eab2c5e36b21",
        "1c893013ca118526fc68e5b7657bbee56f36129faf0dec9299e69695b563a615",
        "1f618a8ec74b7d6fd5c359051171b982cec038c69c727a17be0149657e39777b",
        "9ebd1af4a2cf141cd0d88cb9bc2f5f9512809b11b57015e7ed3c2e9920f050c9",
    ],
}
REPORTS = 3000


def scheduler_churn_digests(mode):
    topology = paper_topology()
    extra = {"idle_epochs": 2} if mode == "sampled" else {}
    scheduler = make_scheduler(topology.link_set(), mode=mode, **extra)
    scheduler.apply_churn(starts=seeded_starts(
        topology, np.random.default_rng(2024), 0, N_FLOWS))
    scheduler.iterate(1)
    rng = np.random.default_rng(11)
    usage_rng = np.random.default_rng(13)
    live = list(range(N_FLOWS))
    sent = dict.fromkeys(live, 0)
    next_id = N_FLOWS
    digests = []
    for _ in range(CHURN_OPS):
        picked = set(rng.choice(len(live), CHURN, replace=False).tolist())
        ends = [live[j] for j in sorted(picked)]
        live = [flow_id for j, flow_id in enumerate(live)
                if j not in picked]
        starts = seeded_starts(topology, rng, next_id, CHURN)
        scheduler.apply_churn(starts=starts, ends=ends)
        live += [flow_id for flow_id, _ in starts]
        next_id += CHURN
        for flow_id in ends:
            del sent[flow_id]
        sent.update((flow_id, 0) for flow_id, _ in starts)
        reporting = usage_rng.choice(len(live), REPORTS, replace=False)
        grants = usage_rng.integers(0, 1 << 20, REPORTS)
        for j, grant in zip(reporting.tolist(), grants.tolist()):
            flow_id = live[j]
            sent[flow_id] += grant
            scheduler.report_usage(flow_id, float(sent[flow_id]))
        result = scheduler.iterate(1)
        ids = np.fromiter(result.flow_ids, dtype=np.int64)
        digests.append(digest(ids, result.rate_vector,
                              result.update_indices))
    return scheduler, digests


@pytest.mark.parametrize("mode", sorted(SCHEDULER_CHURN_GOLDEN))
def test_scheduler_churn_program_matches_golden(mode):
    scheduler, digests = scheduler_churn_digests(mode)
    if mode == "sampled":  # the program reaches both tables
        assert 0 < scheduler.n_priced < scheduler.n_flows
    assert digests == SCHEDULER_CHURN_GOLDEN[mode]


# A route set whose links span storage columns: random routes of 1-5
# hops over N_SPAN_LINKS links, middle-aligned, so one link sits in
# column 0 of a one-hop route and in the last column of a two-hop one.
# Only here does the contract's chunk -> column -> flow order differ
# from a flow-major (chunk -> flow -> hop) one; the shipped fabrics
# keep every link in one column.  The constants were recorded on the
# tree whose scatters were numpy's bincount / np.add.at, before the
# kernels moved to C, and pass unedited on both.
N_SPAN_LINKS, N_SPAN_FLOWS, SPAN_ITERATIONS = 160, 2 * 16384 + 1500, 3

SPANNING_GOLDEN = {
    "price_sums":
        "3661d5996d03cbb90548357219095a4076fc146dd0042ccaae776b91a53e233a",
    "link_totals":
        "97361d345e79281b3a2020abe1104604c1451e16ca0b6adf7cd0d845a130a8dd",
    "link_totals2":
        "91cb52d101daa3b487121bfd39b439b027762b962bdc19d8f62620bf97ee75e9",
    "max_link_value":
        "ea47c8fe436689161cb95acd008824ebca4ea01e0f6e78852188542dcf97f71a",
    "bottleneck_capacity":
        "0d00ae7164e69da6d4085755a79fb17fef0351c243423fa82e8d5b8048e6693e",
    "iterate": [
        "0f4163857a6fa3a945a75b858017fdef35b0b723aa81990ceb9ea6ac926675c3",
        "f6bc490fccd417d54b45f0bb3f1f259b4b296592eb77670d3a013122fbc7e244",
        "c7675de65ea928cbc02536111bd04e3428f8d6faab5d7ff0e45294f2cd9b5594",
    ],
}


@pytest.fixture(scope="module")
def spanning_allocator():
    rng = np.random.default_rng(36)
    links = LinkSet(1.0 + 10.0 * rng.random(N_SPAN_LINKS))
    lengths = rng.integers(1, 6, N_SPAN_FLOWS)
    allocator = FlowtuneAllocator(links)
    allocator.apply_churn(starts=[
        (i, rng.choice(N_SPAN_LINKS, k, replace=False))
        for i, k in enumerate(lengths.tolist())])
    return allocator


def test_spanning_table_spans_columns_and_chunks(spanning_allocator):
    table = spanning_allocator.table
    n = table.n_flows
    routes = table._routes[:, :n]
    columns_of = [set(np.flatnonzero((routes == link).any(axis=1)))
                  for link in range(N_SPAN_LINKS)]
    assert all(len(columns) > 1 for columns in columns_of)
    assert len(kernels.chunk_spans(n)) == 3
    # The golden tells the orders apart: per chunk, a flow-major
    # bincount rounds differently from the column-major contract.
    values = np.random.default_rng(8).random(n)
    flow_major = np.zeros(N_SPAN_LINKS + 1)
    for r0, r1 in kernels.chunk_spans(n):
        flow_major += np.bincount(
            routes[:, r0:r1].T.ravel(),
            weights=np.repeat(values[r0:r1], len(routes)),
            minlength=N_SPAN_LINKS + 1)
    assert np.any(flow_major[:-1] != table.link_totals(values))


def test_spanning_kernels_match_golden(spanning_allocator):
    table = spanning_allocator.table
    rng = np.random.default_rng(8)
    n_links, n = table.links.n_links, table.n_flows
    prices = rng.random(n_links)
    a, b = rng.random(n), -rng.random(n)
    per_link = rng.random(n_links)
    got = {
        "price_sums": digest(table.price_sums(prices)),
        "link_totals": digest(table.link_totals(a)),
        "link_totals2": digest(*table.link_totals2(a, b)),
        "max_link_value": digest(table.max_link_value(per_link)),
        "bottleneck_capacity": digest(table.bottleneck_capacity()),
        "iterate": [],
    }
    for _ in range(SPAN_ITERATIONS):
        result = spanning_allocator.iterate(1)
        got["iterate"].append(digest(
            result.rate_vector, result.update_indices,
            spanning_allocator.optimizer.prices))
    assert got == SPANNING_GOLDEN
