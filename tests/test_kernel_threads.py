"""The compiled passes' bits do not depend on their thread count.

``_kernels.c`` walks a table's chunks on T threads, chunk k on thread
k mod T, and combines the scatter partials in chunk order on the
calling thread.  T is the size of the CPU affinity mask in use; these
tests force it through the extension's private ``_force_threads`` and
compare every whole-table entry point's outputs by bytes with T = 1, on
a table of many chunks plus a tail and on the golden tables, and every
allocator's, optimizer's and scheduler's churn program by bytes at
every T over chunks small enough that each thread walks several.  (The
error of a bad slot at T > 1 is ``test_kernel_args.py``'s.)
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro import make_scheduler, paper_topology
from repro.core import (AlphaFairUtility, FgmOptimizer, FlowtuneAllocator,
                        GradientOptimizer, GradientRtOptimizer,
                        NedRtOptimizer, NewtonLikeOptimizer, UNormalizer,
                        kernels)

THREADS = (1, 2, 3, 7)


@contextmanager
def threads(t):
    kernels._lib._force_threads(t)
    try:
        yield
    finally:
        kernels._lib._force_threads(0)


def case(n, block, seed=5, width=3, n_links=40):
    """Random hop-major routes (links span columns) over ``n`` flows,
    with spare storage past ``n``, and the per-flow / per-link inputs."""
    assert n > 3 * block and n % block
    rng = np.random.default_rng(seed)
    routes = rng.integers(0, n_links + 1, size=(width, n + 5))
    inputs = {
        "padded": np.append(rng.random(n_links), 0.0),
        "ratios": np.append(rng.random(n_links), -np.inf),
        "a": rng.random(n), "b": -rng.random(n), "caps": rng.random(n),
        "last": np.where(rng.random(n) < 0.9, rng.random(n), np.nan),
        "pending": rng.random(n) < 0.1,
    }
    return routes, inputs, n_links + 1


def every_output(routes, x, n, bins, block):
    """The bytes of every entry point's outputs, in a fixed order."""
    out = [kernels.price_sums(x["padded"], routes, n),
           kernels.max_link_value(x["padded"], routes, n, np.empty(n)),
           kernels.min_link_value(x["padded"], routes, n, np.empty(n)),
           kernels.link_totals(x["a"], routes, n, bins),
           *kernels.link_totals2(x["a"], x["b"], routes, n, bins)]
    # Rows arriving over two scatter calls, in chunk order.
    part = np.zeros(bins)
    split = 2 * block
    kernels._lib.scatter(x["a"], None, routes, 0, split, block, part, None)
    kernels._lib.scatter(x["a"][split:], None, routes, split, n, block,
                         part, None)
    out.append(part)
    for caps in (x["caps"], None):
        rates = np.empty(n)
        out += [*kernels.log_rate_pass(x["padded"], routes, n, caps,
                                       x["a"], rates), rates]
    for scale_up in (True, False):
        last, pending = x["last"].copy(), x["pending"].copy()
        changed = np.empty(n, dtype=bool)
        out += [kernels.f_norm_pass(x["ratios"], routes, n, x["a"], 1e-12,
                                    scale_up, (last, pending, 0.01,
                                               changed)),
                last, pending, changed]
    out.append(kernels.f_norm_pass(x["ratios"], routes, n, x["a"], 1e-12,
                                   True))
    return [array.tobytes() for array in out]


@pytest.mark.parametrize("n,block", [(23, 7), (500, 7), (50_000, 16_384)])
def test_entry_points_match_at_every_thread_count(monkeypatch, n, block):
    """Three chunks plus a tail (T = 7 capped at four), 72 chunks, and
    the real chunk size: every output is byte-identical to T = 1."""
    monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
    routes, x, bins = case(n, block)
    with threads(1):
        want = every_output(routes, x, n, bins, block)
    for t in THREADS[1:]:
        with threads(t):
            assert every_output(routes, x, n, bins, block) == want, t


@pytest.mark.parametrize("t", THREADS)
def test_golden_tables_at_every_thread_count(t):
    """The golden constants hold at every forced T, unedited."""
    import test_golden_kernels as golden

    with threads(t):
        assert golden.outputs(golden.build_allocator()[1]) == golden.GOLDEN
        assert golden.churn_digests() == golden.CHURN_GOLDEN
        golden.test_spanning_kernels_match_golden(
            golden.build_spanning_allocator())
        for mode, want in golden.SCHEDULER_CHURN_GOLDEN.items():
            assert golden.scheduler_churn_digests(mode)[1] == want, mode


#: A chunk size that gives the churn programs below ~20 chunks.
SMALL_BLOCK = 64

ALLOCATORS = {
    "ned": {},
    "gradient": {"optimizer_cls": GradientOptimizer},
    "fgm": {"optimizer_cls": FgmOptimizer},
    "newton_like": {"optimizer_cls": NewtonLikeOptimizer},
    "ned_rt": {"optimizer_cls": NedRtOptimizer},
    "gradient_rt": {"optimizer_cls": GradientRtOptimizer},
    "alpha_fair": {"utility": AlphaFairUtility(2.0)},
    "u_norm": {"normalizer": UNormalizer()},
}


def seeded_starts(topology, rng, first, count):
    src = rng.integers(0, topology.n_hosts, count)
    dst = rng.integers(0, topology.n_hosts - 1, count)
    dst += dst >= src
    return [(i, topology.route(s, d, i)) for i, (s, d)
            in enumerate(zip(src.tolist(), dst.tolist()), start=first)]


def churn_program(scheduler, topology, n_flows=1200, ops=4, churn=150):
    """The bytes of (ids, rates, update indices) after a first batch and
    after each of ``ops`` churn ops, usage reported between ops."""
    rng = np.random.default_rng(17)
    scheduler.apply_churn(starts=seeded_starts(topology, rng, 0, n_flows))
    out = []
    next_id = n_flows
    for op in range(ops + 1):
        if op:
            live = np.asarray(sorted(scheduler.current_rates()))
            ends = rng.choice(live, churn, replace=False).tolist()
            scheduler.apply_churn(
                starts=seeded_starts(topology, rng, next_id, churn),
                ends=ends)
            next_id += churn
            for flow_id in rng.choice(live, churn, replace=False).tolist():
                if flow_id not in ends:
                    scheduler.report_usage(flow_id, float(1 << 21))
        result = scheduler.iterate(2)
        out += [np.fromiter(result.flow_ids, dtype=np.int64).tobytes(),
                np.asarray(result.rate_vector).tobytes(),
                np.asarray(result.update_indices).tobytes()]
    return out


def at_every_thread_count(run):
    """``run()`` at T = 1, then at every other T, must give equal bytes."""
    with threads(1):
        want = run()
    for t in THREADS[1:]:
        with threads(t):
            assert run() == want, t


@pytest.mark.parametrize("name", ALLOCATORS)
def test_allocators_match_at_every_thread_count(monkeypatch, name):
    """Every optimizer and normalizer of the allocator, under churn."""
    monkeypatch.setattr(kernels, "BLOCK_ROWS", SMALL_BLOCK)
    topology = paper_topology()

    def run():
        allocator = FlowtuneAllocator(topology.link_set(),
                                      **ALLOCATORS[name])
        out = churn_program(allocator, topology)
        assert len(kernels.chunk_spans(allocator.n_flows)) > 7
        return out + [allocator.optimizer.prices.tobytes()]

    at_every_thread_count(run)


@pytest.mark.parametrize("mode", ["flowtune", "sampled", "ecmp"])
def test_schedulers_match_at_every_thread_count(monkeypatch, mode):
    """The three schedulers' churn programs, the sampled one reaching
    both its priced and its fair-share table."""
    monkeypatch.setattr(kernels, "BLOCK_ROWS", SMALL_BLOCK)
    topology = paper_topology()
    extra = {"idle_epochs": 2} if mode == "sampled" else {}

    def run():
        scheduler = make_scheduler(topology.link_set(), mode=mode, **extra)
        out = churn_program(scheduler, topology)
        if mode == "sampled":
            assert 0 < scheduler.n_priced < scheduler.n_flows
        return out

    at_every_thread_count(run)


def test_capacity_change_matches_at_every_thread_count(monkeypatch):
    """Links lose capacity in place (section 7's external traffic): the
    bottleneck column is re-folded on T threads to the same bytes."""
    monkeypatch.setattr(kernels, "BLOCK_ROWS", SMALL_BLOCK)
    topology = paper_topology()

    def run():
        allocator = FlowtuneAllocator(topology.link_set())
        out = churn_program(allocator, topology, ops=1)
        links = allocator.table.links
        links.capacity[::3] *= 0.25
        allocator.table.refresh_capacity()
        result = allocator.iterate(3)
        return out + [allocator.table.bottleneck_capacity().tobytes(),
                      result.rate_vector.tobytes(),
                      result.update_indices.tobytes()]

    at_every_thread_count(run)
