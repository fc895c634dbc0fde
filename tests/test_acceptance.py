"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line (the test outcome itself is the gate; the print
carries the measured numbers).

Criterion 7's score-recount requirement is asserted inside the criterion 3
and 4 loops (after every update), and its rank-error half has its own test.
"""

import math
import random
import statistics
import time
from collections import Counter

import pytest

from dynbc import (
    Batch,
    DynGraph,
    EdgeEvent,
    INF,
    SamplingParams,
    VDTracker,
    apply_batch,
    approximate_bc,
    brandes_exact,
    compute_extended_sssp,
    connected_components,
    dist_eq,
    exact_vertex_diameter,
    generate,
    init_bc,
    rank_error,
    recount_scores,
    sample_path,
    scores,
    update_bc,
    update_sssp,
    vd_upper_bound,
)

from helpers import WEIGHT_CHOICES, diamond, random_graph, random_valid_batch, three_path_pair


# ---------------------------------------------------------------------------
# shared instances (n ~ 1000) for criteria 3, 4 and 7


def _undirected_suite():
    return [
        ("dm-1", generate("dorogovtsev-mendes", n=1000, seed=1)),
        ("dm-2", generate("dorogovtsev-mendes", n=1000, seed=2)),
        ("dm-3", generate("dorogovtsev-mendes", n=1000, seed=3)),
        ("er-1", generate("erdos-renyi", n=1000, p=0.004, seed=4)),
        ("er-2", generate("erdos-renyi", n=1000, p=0.006, seed=5)),
    ]


def _directed_suite():
    return [
        ("er-d1", generate("erdos-renyi", n=1000, p=0.004, seed=6, directed=True)),
        ("er-d2", generate("erdos-renyi", n=1000, p=0.006, seed=7, directed=True)),
    ]


@pytest.fixture(scope="module")
def undirected_suite():
    return _undirected_suite()


def _assert_recount(state):
    got = scores(state)
    rec = recount_scores(state)
    drift = max(abs(a - b) for a, b in zip(got, rec))
    assert drift <= 1e-12, f"score drift {drift}"


# ---------------------------------------------------------------------------


def test_criterion_1_dynamic_sssp_oracle_equivalence():
    """Updated (d, sigma) must equal a fresh search after randomized batches:
    1000 trials per weight mode, n up to 200, batch sizes {1,4,16,64}."""
    t0 = time.perf_counter()
    sizes = (12, 30, 60, 120, 200)
    batch_sizes = (1, 4, 16, 64)
    trials_per_mode = 1000
    for weighted in (False, True):
        rng = random.Random(515151 + int(weighted))
        for trial in range(trials_per_mode):
            n = sizes[trial % len(sizes)]
            directed = trial % 2 == 1
            g = random_graph(rng, n, avg_deg=2.2, directed=directed, weighted=weighted)
            src = rng.randrange(n)
            st = compute_extended_sssp(g, src)
            events = random_valid_batch(rng, g, batch_sizes[trial % 4])
            eff = apply_batch(g, Batch(events))
            update_sssp(g, st, eff)
            fresh = compute_extended_sssp(g, src)
            for v in range(n):
                assert st.sigma[v] == fresh.sigma[v]
                if weighted:
                    assert dist_eq(st.d[v], fresh.d[v])
                else:
                    assert st.d[v] == fresh.d[v]
    took = time.perf_counter() - t0
    assert took < 120, f"criterion 1 exceeded its runtime budget ({took:.0f}s)"
    print(
        f"ACCEPTANCE 1 PASS: {2 * trials_per_mode} randomized update trials "
        f"matched fresh searches exactly ({took:.1f}s)"
    )


def test_criterion_2_path_sampling_distribution():
    """Two-way and three-way splits of the backward path sampler."""
    g = diamond()
    st = compute_extended_sssp(g, 0)
    rng = random.Random(1002)
    draws = 100_000
    counts = Counter(tuple(sample_path(g, st, 3, rng).internal) for _ in range(draws))
    assert set(counts) == {(1,), (2,)}
    dev2 = max(abs(c / draws - 0.5) for c in counts.values())
    assert dev2 <= 0.02

    g3 = three_path_pair()
    st3 = compute_extended_sssp(g3, 0)
    counts3 = Counter(tuple(sample_path(g3, st3, 4, rng).internal) for _ in range(draws))
    assert set(counts3) == {(1,), (2,), (3,)}
    dev3 = max(abs(c / draws - 1 / 3) for c in counts3.values())
    assert dev3 <= 0.02
    print(
        f"ACCEPTANCE 2 PASS: sampler split 0.5/0.5 within {dev2:.4f} and "
        f"1/3 each within {dev3:.4f} over {draws} draws"
    )


def test_criterion_3_static_guarantee(undirected_suite):
    """epsilon=0.1, delta=0.1, 10 seeded runs per graph: at most one run per
    graph may exceed the max-error budget; average error stays under 1e-2."""
    eps = 0.1
    summaries = []
    for name, g0 in undirected_suite:
        exact = brandes_exact(g0)
        failures = 0
        worst = 0.0
        for run in range(10):
            params = SamplingParams(eps, 0.1, seed=1000 + run)
            state = approximate_bc(g0, params)
            _assert_recount(state)
            approx = scores(state)
            errs = [abs(a - b) for a, b in zip(exact, approx)]
            max_err = max(errs)
            avg_err = sum(errs) / len(errs)
            worst = max(worst, max_err)
            if max_err > eps:
                failures += 1
            assert avg_err <= 1e-2, f"{name} run {run}: avg error {avg_err}"
        assert failures <= 1, f"{name}: {failures}/10 runs above epsilon"
        summaries.append(f"{name} worst={worst:.3f} fails={failures}")
    print("ACCEPTANCE 3 PASS: " + "; ".join(summaries))


def _fixed_batches(g0, stream_seed, batches=10, size=16, allow_weight=False):
    """One deterministic mixed-event stream per graph, shared by all runs."""
    sim = g0.copy()
    rng = random.Random(stream_seed)
    out = []
    for _ in range(batches):
        events = random_valid_batch(rng, sim, size, allow_weight=allow_weight)
        apply_batch(sim, Batch(events))
        out.append(events)
    return out


def _dynamic_guarantee(graphs, mode, eps=0.1):
    summaries = []
    for name, g0 in graphs:
        batch_stream = _fixed_batches(g0, stream_seed=777)
        final_exact = None
        failures = 0
        worst = 0.0
        for run in range(10):
            params = SamplingParams(eps, 0.1, seed=9000 + run)
            g = g0.copy()
            state = init_bc(g, params, mode)
            for events in batch_stream:
                eff = apply_batch(g, Batch(events))
                update_bc(g, state, eff)
                _assert_recount(state)
            if final_exact is None:
                final_exact = brandes_exact(g)
            approx = scores(state)
            max_err = max(abs(a - b) for a, b in zip(final_exact, approx))
            worst = max(worst, max_err)
            if max_err > eps:
                failures += 1
        assert failures <= 1, f"{mode}/{name}: {failures}/10 runs above epsilon"
        summaries.append(f"{mode}/{name} worst={worst:.3f} fails={failures}")
    return summaries


def test_criterion_4_dynamic_guarantee(undirected_suite):
    """10 batches of 16 mixed events through da (undirected) and dad
    (directed); final scores within epsilon of exact in >= 9/10 runs."""
    summaries = _dynamic_guarantee(undirected_suite, "da")
    summaries += _dynamic_guarantee(_directed_suite(), "dad")
    print("ACCEPTANCE 4 PASS: " + "; ".join(summaries))


def test_criterion_5_vd_bound_soundness_and_envelopes():
    """200 random graphs per bound class: the bound is never below the exact
    vertex diameter and the per-class tightness envelopes hold."""
    rng = random.Random(1234)
    per_class = 200

    for t in range(per_class):  # undirected unweighted
        n = rng.randrange(3, 41)
        g = generate(
            "erdos-renyi", n=n, p=rng.choice((0.08, 0.15, 0.3)), seed=3000 + t
        )
        vd = exact_vertex_diameter(g)
        b = vd_upper_bound(g).value
        assert vd <= b < 2 * vd

    for t in range(per_class):  # strongly connected
        n = rng.randrange(3, 41)
        g = generate(
            "erdos-renyi", n=n, p=rng.choice((0.05, 0.1, 0.2)), seed=2000 + t,
            directed=True,
        )
        for i in range(n):
            j = (i + 1) % n
            if i != j and not g.has_edge(i, j):
                g.insert_edge(i, j)
        vd = exact_vertex_diameter(g)
        b = vd_upper_bound(g).value
        assert vd <= b < 2 * vd

    for t in range(per_class):  # directed
        n = rng.randrange(3, 41)
        g = generate(
            "erdos-renyi", n=n, p=rng.choice((0.03, 0.06, 0.1, 0.2, 0.3)),
            seed=1000 + t, directed=True,
        )
        vd = exact_vertex_diameter(g)
        b = vd_upper_bound(g).value
        assert vd <= b < 2 * vd * vd

    for t in range(per_class):  # weighted undirected (connected)
        n = rng.randrange(3, 41)
        g = DynGraph(n, weighted=True)
        for i in range(n - 1):
            g.insert_edge(i, i + 1, rng.choice(WEIGHT_CHOICES))
        for u in range(n):
            for v in range(u + 2, n):
                if rng.random() < 2.0 / n:
                    g.insert_edge(u, v, rng.choice(WEIGHT_CHOICES))
        vd = exact_vertex_diameter(g)
        b = vd_upper_bound(g).value
        ws = [w for _, _, w in g.edges()]
        assert vd <= b < 2 * vd * max(ws) / min(ws)

    for t in range(per_class):  # directed weighted
        n = rng.randrange(3, 31)
        g = DynGraph(n, directed=True, weighted=True)
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 2.2 / n:
                    g.insert_edge(u, v, rng.choice(WEIGHT_CHOICES))
        vd = exact_vertex_diameter(g)
        b = vd_upper_bound(g).value
        assert vd <= b
        ws = [w for _, _, w in g.edges()]
        if ws:
            assert b < 2 * (max(ws) / min(ws)) * vd * vd

    print(f"ACCEPTANCE 5 PASS: {5 * per_class} bounds sound, envelopes held")


def test_criterion_6_dynamic_vd_tracker():
    """500 randomized merge/split batch sequences: after every batch the
    counters read one everywhere, components and tracked sources pair up
    one to one, and the bound dominates the exact vertex diameter."""
    t0 = time.perf_counter()
    rng = random.Random(606060)
    sequences = 500
    batches_total = 0
    for trial in range(sequences):
        n = rng.randrange(6, 61)
        weighted = trial % 3 == 0
        g = random_graph(rng, n, avg_deg=1.2, weighted=weighted)
        tracker = VDTracker(g)
        for _ in range(3):
            events = random_valid_batch(rng, g, rng.choice((1, 4, 8)))
            eff = apply_batch(g, Batch(events))
            bound = tracker.refresh(g, eff)
            batches_total += 1
            assert all(x == 1 for x in tracker.vis.vis)
            labels, count = connected_components(g)
            assert len(tracker.sources) == count
            assert sorted(labels[st.source] for st in tracker.sources) == list(
                range(count)
            )
            assert bound >= exact_vertex_diameter(g)
    took = time.perf_counter() - t0
    assert took < 60, f"criterion 6 exceeded its runtime budget ({took:.0f}s)"
    print(
        f"ACCEPTANCE 6 PASS: {sequences} sequences, {batches_total} batches, "
        f"coverage and soundness held ({took:.1f}s)"
    )


def test_criterion_7_rank_error_of_top_nodes(undirected_suite):
    """At epsilon=0.01 the ten highest-betweenness nodes keep their rank
    within a factor of 4 on a 1000-node instance."""
    name, g = undirected_suite[0]
    exact = brandes_exact(g)
    params = SamplingParams(0.01, 0.1, seed=424242)
    state = approximate_bc(g, params)
    _assert_recount(state)
    errs = rank_error(exact, scores(state), top_k=10)
    worst = max(errs.values())
    assert worst <= 4.0, f"top-10 rank error {worst}"
    print(
        f"ACCEPTANCE 7 PASS: top-10 rank error {worst:.2f} <= 4 at eps=0.01 "
        f"on {name} (r={state.r}); recounts asserted in criteria 3-4"
    )


def test_criterion_8_update_speedup_over_recompute():
    """On a ~1e5-edge graph with single-event batches, the combined update
    beats a from-scratch recomputation by at least 10x (median of 10)."""
    t0 = time.perf_counter()
    g = generate("dorogovtsev-mendes", n=50_000, seed=42)
    assert 90_000 <= g.m <= 110_000
    params = SamplingParams(0.1, 0.1, seed=7)
    state = init_bc(g, params, "da")
    t_start = time.perf_counter()
    approximate_bc(g, params)
    t_static = time.perf_counter() - t_start
    rng = random.Random(3)
    update_times = []
    for _ in range(10):
        events = random_valid_batch(rng, g, 1)
        t_up = time.perf_counter()
        eff = apply_batch(g, Batch(events))
        update_bc(g, state, eff)
        update_times.append(time.perf_counter() - t_up)
    median_update = statistics.median(update_times)
    speedup = t_static / median_update
    assert speedup >= 10.0, f"speedup {speedup:.1f} below the 10x gate"
    took = time.perf_counter() - t0
    assert took < 300, f"criterion 8 exceeded its runtime budget ({took:.0f}s)"
    print(
        f"ACCEPTANCE 8 PASS: median update {median_update * 1e3:.1f}ms vs "
        f"recompute {t_static:.1f}s, speedup {speedup:.0f}x ({took:.0f}s)"
    )
