import random

import pytest

from dynbc import (
    Batch,
    DynGraph,
    DynSSSP,
    EdgeEvent,
    INF,
    VisCounters,
    apply_batch,
    compute_extended_sssp,
    dist_eq,
    exact_vertex_diameter,
    local_vd_estimate,
    update_sssp,
    update_sssp_u,
    update_sssp_w,
)
from dynbc.errors import InconsistentState, InvalidParams

from helpers import NEAR_TIE_WEIGHTS, all_min_paths, random_graph, random_valid_batch


def assert_matches_fresh(g, state):
    fresh = compute_extended_sssp(g, state.source)
    for v in range(g.n):
        assert state.sigma[v] == fresh.sigma[v], (v, state.sigma[v], fresh.sigma[v])
        assert dist_eq(state.d[v], fresh.d[v]), (v, state.d[v], fresh.d[v])


def test_empty_batch_no_op():
    g = DynGraph(4, weighted=True)
    g.insert_edge(0, 1, 1.0)
    st = compute_extended_sssp(g, 0)
    before_d = list(st.d)
    before_sig = list(st.sigma)
    aff = update_sssp_w(g, st, [])
    assert aff.nodes == set()
    assert st.d == before_d and st.sigma == before_sig


def test_weighted_insert_shortcut():
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 1.0)
    g.insert_edge(1, 2, 2.0)
    st = compute_extended_sssp(g, 0)
    assert st.d[2] == 3.0
    eff = apply_batch(g, [EdgeEvent(0, 2, "insert", 1.0)])
    aff = update_sssp_w(g, st, eff)
    assert st.d[2] == 1.0 and st.sigma[2] == 1
    assert aff.nodes == {2}
    assert_matches_fresh(g, st)


def test_delete_only_edge_marks_unreachable():
    g = DynGraph(2)
    g.insert_edge(0, 1)
    vis = VisCounters.zeros(2)
    st = DynSSSP.initial(g, 0, vis)
    assert vis.vis == [1, 1]
    eff = apply_batch(g, [EdgeEvent(0, 1, "delete")])
    update_sssp(g, st, eff, vis)
    assert st.d[1] == INF and st.sigma[1] == 0
    assert vis.vis[1] == 0 and 1 in vis.U
    assert_matches_fresh(g, st)


def test_unweighted_chord_matches_bfs():
    g = DynGraph(4)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.insert_edge(u, v)
    st = compute_extended_sssp(g, 0)
    assert st.d[2] == 2 and st.sigma[2] == 2
    eff = apply_batch(g, [EdgeEvent(0, 2)])
    update_sssp_u(g, st, eff)
    assert st.d[2] == 1 and st.sigma[2] == 1
    assert_matches_fresh(g, st)


def test_batch_outside_component_leaves_state_alone():
    g = DynGraph(6)
    g.insert_edge(0, 1)
    g.insert_edge(3, 4)
    st = compute_extended_sssp(g, 0)
    before_d = list(st.d)
    before_sig = list(st.sigma)
    eff = apply_batch(g, [EdgeEvent(4, 5), EdgeEvent(3, 4, "delete")])
    aff = update_sssp_u(g, st, eff)
    assert aff.nodes == set()
    assert st.d == before_d and st.sigma == before_sig


def test_wrong_updater_rejected():
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 1.0)
    st = compute_extended_sssp(g, 0)
    with pytest.raises(InvalidParams):
        update_sssp_u(g, st, [])
    gu = DynGraph(3)
    stu = compute_extended_sssp(gu, 0)
    with pytest.raises(InvalidParams):
        update_sssp_w(gu, stu, [])


def test_update_rejects_inconsistent_state():
    # a stored level above the best incoming level
    g = DynGraph(3)
    for u, v in ((0, 1), (1, 2), (0, 2)):
        g.insert_edge(u, v)
    st = compute_extended_sssp(g, 0)
    st.d[2] = 2
    eff = apply_batch(g, [EdgeEvent(1, 2, "delete")])
    with pytest.raises(InconsistentState, match="below best incoming level 1"):
        update_sssp_u(g, st, eff)
    # a stored level no simple path can have
    g = DynGraph(3)
    for u, v in ((0, 1), (1, 2)):
        g.insert_edge(u, v)
    st = compute_extended_sssp(g, 0)
    st.d[1] = 7
    st.d[2] = 8
    eff = apply_batch(g, [EdgeEvent(1, 2, "delete")])
    with pytest.raises(InconsistentState, match="beyond any simple path"):
        update_sssp_u(g, st, eff)


def test_oracle_equivalence_randomized():
    rng = random.Random(424242)
    trials_per_mode = 400
    for weighted in (False, True):
        for trial in range(trials_per_mode):
            n = rng.randrange(8, 120)
            directed = rng.random() < 0.5
            g = random_graph(rng, n, avg_deg=2.2, directed=directed, weighted=weighted)
            src = rng.randrange(n)
            st = compute_extended_sssp(g, src)
            size = rng.choice((1, 4, 16))
            events = random_valid_batch(rng, g, size)
            eff = apply_batch(g, Batch(events))
            update_sssp(g, st, eff)
            assert_matches_fresh(g, st)


def _assert_matches_path_oracle(g, st, t):
    """sigma[t] counts the minimum paths to t found by enumeration, and d[t]
    is their length within dist_eq."""
    paths = all_min_paths(g, st.source, t)
    assert st.sigma[t] == len(paths), (st.source, t)
    if paths:
        p = paths[0]
        assert dist_eq(st.d[t], sum(map(g.edge_weight, p, p[1:]))), (st.source, t)
    else:
        assert st.d[t] == INF


def test_near_tie_weights_match_path_oracle():
    # NEAR_TIE_WEIGHTS' equal-length paths sum to floats that differ in the
    # last bits, so the searches and repairs take their tolerance branches
    rng = random.Random(1213)
    for trial in range(120):
        n = rng.randrange(5, 11)
        g = random_graph(
            rng, n, avg_deg=2.5, directed=trial % 2 == 1, weighted=True,
            weights=NEAR_TIE_WEIGHTS,
        )
        src = rng.randrange(n)
        targets = [t for t in range(n) if t != src]
        st = compute_extended_sssp(g, src)
        for t in targets:
            _assert_matches_path_oracle(g, st, t)
            _assert_matches_path_oracle(g, compute_extended_sssp(g, src, stop_at=t), t)
        for _ in range(3):
            events = random_valid_batch(
                rng, g, rng.choice((1, 3)), weights=NEAR_TIE_WEIGHTS
            )
            update_sssp(g, st, apply_batch(g, Batch(events)))
            assert_matches_fresh(g, st)
            for t in targets:
                _assert_matches_path_oracle(g, st, t)


def test_non_affected_nodes_keep_bit_identical_values():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(10, 60)
        g = random_graph(rng, n, avg_deg=2.0, weighted=True)
        st = compute_extended_sssp(g, 0)
        before_d = list(st.d)
        before_sig = list(st.sigma)
        eff = apply_batch(g, Batch(random_valid_batch(rng, g, 6)))
        aff = update_sssp(g, st, eff)
        assert aff.nodes <= aff.old_d.keys()
        assert all(aff.old_d[v] == before_d[v] for v in aff.old_d)
        for v in range(n):
            if v not in aff.nodes:
                assert st.d[v] == before_d[v]
                assert st.sigma[v] == before_sig[v]


def test_vis_recount_invariant():
    rng = random.Random(9)
    for trial in range(200):
        n = rng.randrange(8, 40)
        g = random_graph(rng, n, avg_deg=1.5, weighted=trial % 2 == 1)
        vis = VisCounters.zeros(n)
        sources = [DynSSSP.initial(g, s, vis) for s in (0, n // 2, n - 1)]
        eff = apply_batch(g, Batch(random_valid_batch(rng, g, 5)))
        for st in sources:
            update_sssp(g, st, eff, vis)
            assert_matches_fresh(g, st)
            finite = sorted(dv for dv in st.d if dv != INF)
            assert st.reach == len(finite)
            # running maxima stay at or above the current top two
            assert st.d1 >= finite[-1]
            if len(finite) > 1:
                assert st.d1 + st.d2 >= finite[-1] + finite[-2]
            if st.reach > 1:  # a lone source scores 1
                assert local_vd_estimate(g, st) == 1 + g.max_hops(st.d1 + st.d2)
        for v in range(n):
            expect = sum(1 for st in sources if st.d[v] != INF)
            assert vis.vis[v] == expect


def test_local_vd_estimate_arithmetic():
    g = DynGraph(3)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    st = DynSSSP.initial(g, 0, VisCounters.zeros(3))
    # d1 = 2, d2 = 1, unit weights
    assert local_vd_estimate(g, st) == 4.0

    gw = DynGraph(3, weighted=True)
    gw.insert_edge(0, 1, 3.0)
    gw.insert_edge(0, 2, 2.0)
    stw = DynSSSP.initial(gw, 0, VisCounters.zeros(3))
    # d1 = 3, d2 = 2, so L = 5; sorted weights 2, 3 sum to 2, 5 <= 5: two
    # hops fit, and the bound is 1 + 2 = 3 (the exact VD, path 1-0-2)
    assert local_vd_estimate(gw, stw) == 3.0 == exact_vertex_diameter(gw)

    lone = DynSSSP.initial(DynGraph(2), 0, VisCounters.zeros(2))
    assert local_vd_estimate(DynGraph(2), lone) == 1.0


def test_estimate_explicit_values():
    # two light edges hang off the source: 0-3 (0.5) and 3-4 (0.5). d1 = 3
    # (node 1), d2 = 2 (node 2), so L = 5. Sorted weights 0.5, 0.5, 2, 3 sum
    # to 0.5, 1, 3, 6: three hops fit within 5 and four do not, so the bound
    # is 1 + 3 = 4, the exact VD (path 1-0-3-4). Dividing by the lightest
    # weight would have given 1 + 5 / 0.5 = 11.
    g = DynGraph(5, weighted=True)
    g.insert_edge(0, 1, 3.0)
    g.insert_edge(0, 2, 2.0)
    g.insert_edge(0, 3, 0.5)
    g.insert_edge(3, 4, 0.5)
    st = DynSSSP.initial(g, 0, VisCounters.zeros(5))
    assert (st.d1, st.d2) == (3.0, 2.0)
    assert local_vd_estimate(g, st) == 4.0 == exact_vertex_diameter(g)


def test_estimate_stays_above_component_vd_under_updates():
    rng = random.Random(10)
    for weighted in (False, True):
        for _ in range(120):
            n = rng.randrange(6, 40)
            g = random_graph(rng, n, avg_deg=1.8, weighted=weighted)
            vis = VisCounters.zeros(n)
            st = DynSSSP.initial(g, 0, vis)
            for _ in range(3):
                eff = apply_batch(g, Batch(random_valid_batch(rng, g, 4)))
                update_sssp(g, st, eff, vis)
                est = local_vd_estimate(g, st)
                comp = _component_subgraph(g, st)
                assert est >= exact_vertex_diameter(comp) - 1e-9


def _component_subgraph(g, st):
    nodes = [v for v in range(g.n) if st.d[v] != INF]
    remap = {v: i for i, v in enumerate(nodes)}
    sub = DynGraph(len(nodes), weighted=g.weighted)
    for u, v, w in g.edges():
        if u in remap and v in remap:
            sub.insert_edge(remap[u], remap[v], w if g.weighted else 1.0)
    return sub
