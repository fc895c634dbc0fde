import random

import pytest

from dynbc import (
    DynGraph,
    INF,
    brandes_exact,
    compute_extended_sssp,
    dist_eq,
    exact_vertex_diameter,
    generate,
    max_shortest_path_hops,
    predecessors,
    sample_path,
)
from dynbc.errors import InvalidNode, InvalidParams, Unreachable
from dynbc.exact import bidirectional_sssp

from helpers import (
    NEAR_TIE_WEIGHTS,
    WEIGHT_CHOICES,
    diamond,
    naive_betweenness,
    naive_vertex_diameter,
    random_graph,
)


def test_extended_sssp_path():
    g = generate("path", n=3)
    st = compute_extended_sssp(g, 0)
    assert st.d == [0, 1, 2]
    assert st.sigma == [1, 1, 1]


def test_extended_sssp_diamond_counts_both_routes():
    st = compute_extended_sssp(diamond(), 0)
    assert st.d[3] == 2 and st.sigma[3] == 2


def test_extended_sssp_weighted_triangle():
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 1.0)
    g.insert_edge(1, 2, 1.0)
    g.insert_edge(0, 2, 3.0)
    st = compute_extended_sssp(g, 0)
    assert dist_eq(st.d[2], 2.0) and st.sigma[2] == 1


def test_extended_sssp_unreachable():
    g = DynGraph(3)
    g.insert_edge(0, 1)
    st = compute_extended_sssp(g, 0)
    assert st.d[2] == INF and st.sigma[2] == 0


def _shortest_path_nodes(g, full, t):
    """Every node on a shortest full.source-t path, by the predecessor DAG."""
    seen, todo = {t}, [t]
    while todo:
        for u in predecessors(g, full, todo.pop()):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen


def test_bidirectional_search_draws_what_the_forward_search_draws():
    rng = random.Random(20261022)
    pairs = empty = 0
    for k in range(80):
        g = random_graph(rng, rng.randint(2, 30), avg_deg=rng.choice((0.7, 1.5, 3.0)),
                         directed=k % 2 == 1)
        for s in range(g.n):
            full = compute_extended_sssp(g, s)
            for t in range(g.n):
                if t == s:
                    continue
                bi = bidirectional_sssp(g, s, t)
                fwd = compute_extended_sssp(g, s, stop_at=t)
                a, b = (sample_path(g, st, t, random.Random(pairs)) for st in (bi, fwd))
                assert a == b, (k, s, t)  # same pair, internal nodes and empty flag
                pairs += 1
                assert bi.d[t] == full.d[t]
                if full.d[t] == INF:
                    empty += 1
                    continue
                for v in _shortest_path_nodes(g, full, t):
                    assert (bi.d[v], bi.sigma[v]) == (full.d[v], full.sigma[v])
    assert pairs > 10_000 and 0 < empty < pairs


def test_bidirectional_search_rejects_weighted_graphs_and_bad_nodes():
    with pytest.raises(InvalidParams):
        bidirectional_sssp(generate("path", n=3, weighted=True), 0, 2)
    for s, t in ((0, 3), (-1, 2)):
        with pytest.raises(InvalidNode):
            bidirectional_sssp(generate("path", n=3), s, t)


def test_truncated_search_agrees_up_to_target():
    rng = random.Random(11)
    for weighted in (False, True):
        for _ in range(30):
            g = random_graph(rng, 30, avg_deg=2.5, weighted=weighted)
            s, t = 0, 17
            full = compute_extended_sssp(g, s)
            trunc = compute_extended_sssp(g, s, stop_at=t)
            if full.d[t] == INF:
                assert trunc.d == full.d
                continue
            for v in range(g.n):
                if full.d[v] != INF and full.d[v] <= full.d[t]:
                    assert dist_eq(trunc.d[v], full.d[v])
            assert trunc.sigma[t] == full.sigma[t]


def test_predecessors():
    g = diamond()
    st = compute_extended_sssp(g, 0)
    assert predecessors(g, st, 3) == [1, 2]
    assert predecessors(g, st, 0) == []
    p3 = generate("path", n=3)
    st3 = compute_extended_sssp(p3, 0)
    assert predecessors(p3, st3, 2) == [1]
    lone = DynGraph(2)
    stl = compute_extended_sssp(lone, 0)
    with pytest.raises(Unreachable):
        predecessors(lone, stl, 1)


def test_sigma_equals_sum_over_predecessors():
    rng = random.Random(5)
    for weighted in (False, True):
        for directed in (False, True):
            g = random_graph(rng, 25, avg_deg=2.5, directed=directed, weighted=weighted)
            st = compute_extended_sssp(g, 0)
            for v in range(g.n):
                if v == 0 or st.d[v] == INF:
                    continue
                assert st.sigma[v] == sum(st.sigma[u] for u in predecessors(g, st, v))


def test_brandes_small_examples():
    p3 = generate("path", n=3)
    assert brandes_exact(p3) == pytest.approx([0.0, 1 / 3, 0.0], abs=1e-14)
    star = generate("star", n=4)
    bc = brandes_exact(star)
    assert bc[0] == pytest.approx(0.5, abs=1e-14)
    assert bc[1:] == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)
    k4 = DynGraph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            k4.insert_edge(u, v)
    assert brandes_exact(k4) == [0.0] * 4
    with pytest.raises(InvalidParams):
        brandes_exact(DynGraph(1))


def test_brandes_matches_path_enumeration_oracle():
    rng = random.Random(17)
    cases = []
    for _ in range(6):
        cases.append(random_graph(rng, rng.randrange(4, 9), avg_deg=2.0))
    for _ in range(6):
        cases.append(random_graph(rng, rng.randrange(4, 9), avg_deg=2.0, directed=True))
    for _ in range(6):
        cases.append(random_graph(rng, rng.randrange(4, 9), avg_deg=2.0, weighted=True))
    for _ in range(4):
        cases.append(
            random_graph(rng, rng.randrange(4, 8), avg_deg=2.0, directed=True, weighted=True)
        )
    for directed in (False, True):
        for _ in range(4):
            cases.append(
                random_graph(rng, rng.randrange(4, 8), avg_deg=2.0, directed=directed,
                             weighted=True, weights=NEAR_TIE_WEIGHTS)
            )
    for g in cases:
        got = brandes_exact(g)
        want = naive_betweenness(g)
        for a, b in zip(got, want):
            assert abs(a - b) <= 1e-12


def test_max_shortest_path_hops_rejects_bad_source():
    for weighted in (False, True):
        g = generate("path", n=3, weighted=weighted)
        for s in (-1, 3):
            with pytest.raises(InvalidNode):
                max_shortest_path_hops(g, s)


def test_exact_vertex_diameter_matches_path_enumeration():
    rng = random.Random(23)
    for directed in (False, True):
        for weights in (None, WEIGHT_CHOICES, NEAR_TIE_WEIGHTS):
            for _ in range(10):
                g = random_graph(rng, rng.randrange(2, 9), avg_deg=2.0, directed=directed,
                                 weighted=weights is not None, weights=weights)
                assert exact_vertex_diameter(g) == naive_vertex_diameter(g)
