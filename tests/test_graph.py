import math
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from dynbc import (
    DynGraph,
    EdgeEvent,
    apply_batch,
    exact_vertex_diameter,
    generate,
    strongly_connected_components,
    weakly_connected_components,
)
from dynbc.errors import (
    DuplicateInsert,
    InvalidNode,
    InvalidParams,
    MissingEdge,
)

from helpers import random_graph, random_valid_batch, spread_weight, uf_components


def test_edge_event_validation():
    with pytest.raises(InvalidParams):
        EdgeEvent(1, 1)
    with pytest.raises(InvalidParams):
        EdgeEvent(0, 1, "delete", 2.0)
    with pytest.raises(InvalidParams):
        EdgeEvent(0, 1, "insert", -1.0)
    with pytest.raises(InvalidParams):
        EdgeEvent(0, 1, "frobnicate")
    ev = EdgeEvent(0, 1)
    assert ev.weight == 1.0


def test_edge_event_rejects_non_finite_weights():
    for op in ("insert", "set-weight"):
        for w in (float("inf"), float("nan")):
            with pytest.raises(InvalidParams):
                EdgeEvent(0, 1, op, w)


def test_insert_edge_rejects_non_finite_weight():
    # an infinite edge would leave its far end at d = inf with sigma = 1
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 1.0)
    for w in (float("inf"), float("nan")):
        with pytest.raises(InvalidParams):
            g.insert_edge(1, 2, w)
    assert not g.has_edge(1, 2) and g.m == 1


def test_set_weight_rejects_non_finite_weight():
    g = DynGraph(2, weighted=True)
    g.insert_edge(0, 1, 2.0)
    for w in (float("inf"), float("nan")):
        with pytest.raises(InvalidParams):
            g.set_weight(0, 1, w)
    assert g.edge_weight(0, 1) == 2.0


def test_graph_primitives():
    g = DynGraph(3)
    g.insert_edge(0, 1)
    assert g.has_edge(1, 0) and g.m == 1
    with pytest.raises(DuplicateInsert):
        g.insert_edge(1, 0)
    with pytest.raises(MissingEdge):
        g.delete_edge(0, 2)
    with pytest.raises(InvalidParams):
        g.insert_edge(0, 2, 3.0)  # unweighted graphs carry unit weights
    with pytest.raises(InvalidNode):
        g.insert_edge(0, 7)
    g.delete_edge(0, 1)
    assert g.m == 0


def test_max_hops_counts_the_lightest_weights():
    g = DynGraph(4, weighted=True)
    g.insert_edge(0, 1, 3.0)
    g.insert_edge(1, 2, 1.0)
    g.insert_edge(2, 3, 2.0)
    # prefix sums of the sorted weights 1, 2, 3 are 1, 3, 6
    assert [g.max_hops(x) for x in (0.0, 1.0, 2.9, 3.0, 5.9, 6.0, 100.0)] == [
        0, 1, 1, 2, 2, 3, 3]
    assert g.max_hops(3.0 * (1 - 1e-12)) == 2  # within REL_TOL of 3
    unweighted = DynGraph(2)
    unweighted.insert_edge(0, 1)
    assert unweighted.max_hops(7) == 7 and unweighted._wsorted is None


def test_sorted_weights_follow_every_mutation():
    rng = random.Random(17)
    for directed in (False, True):
        g = random_graph(rng, 12, avg_deg=2.0, directed=directed, weighted=True)
        assert g._wsorted is None
        g.max_hops(0.0)
        for _ in range(40):
            events = [
                ev if ev.op == "delete" else replace(ev, weight=spread_weight(rng))
                for ev in random_valid_batch(rng, g, 3)
            ]
            apply_batch(g, events)
            assert g._wsorted == sorted(w for *_, w in g.edges())
        assert g.copy()._wsorted is None


def test_set_weight_keeps_edge_positions():
    # weighted searches keep the first of two near-equal sums, so a weight
    # change must not move the edge within either endpoint's map
    rng = random.Random(5)
    for directed in (False, True):
        g = random_graph(rng, 12, avg_deg=3.0, directed=directed, weighted=True)
        g.max_hops(0.0)
        for step, (u, v, _) in enumerate(list(g.edges())):
            out_order, in_order = list(g._adj[u]), list(g._radj[v])
            w = spread_weight(rng)
            if step % 2:
                g.set_weight(u, v, w)
            else:
                assert len(apply_batch(g, [EdgeEvent(u, v, "set-weight", w)])) == 1
            assert list(g._adj[u]) == out_order and list(g._radj[v]) == in_order
            assert g._adj[u][v] == g._radj[v][u] == w
            assert g._wsorted == sorted(x for *_, x in g.edges())


def test_directed_reverse_adjacency():
    g = DynGraph(3, directed=True)
    g.insert_edge(0, 1)
    assert dict(g.out_edges(0)) == {1: 1.0}
    assert dict(g.in_edges(1)) == {0: 1.0}
    assert dict(g.out_edges(1)) == {}


def test_apply_batch_empty_is_identity():
    g = DynGraph(3)
    g.insert_edge(0, 1)
    assert apply_batch(g, []) == []
    assert g.m == 1


def test_apply_batch_insert_then_delete_cancels():
    g = DynGraph(3)
    eff = apply_batch(g, [EdgeEvent(0, 1), EdgeEvent(0, 1, "delete")])
    assert eff == []
    assert g.m == 0


def test_apply_batch_insert_then_set_weight_merges():
    g = DynGraph(3, weighted=True)
    eff = apply_batch(
        g, [EdgeEvent(0, 1, "insert", 3.0), EdgeEvent(0, 1, "set-weight", 2.0)]
    )
    assert len(eff) == 1
    assert eff[0].op == "insert" and eff[0].weight == 2.0
    assert g.edge_weight(0, 1) == 2.0


def test_apply_batch_validation_and_atomicity():
    g = DynGraph(4)
    g.insert_edge(0, 1)
    with pytest.raises(DuplicateInsert):
        apply_batch(g, [EdgeEvent(2, 3), EdgeEvent(0, 1)])
    # the valid prefix must not have been applied
    assert not g.has_edge(2, 3)
    with pytest.raises(MissingEdge):
        apply_batch(g, [EdgeEvent(1, 2, "delete")])
    with pytest.raises(InvalidNode):
        apply_batch(g, [EdgeEvent(0, 9)])


def test_apply_batch_rechecks_events_changed_after_construction():
    # events are frozen, so the checks made when one was built still hold
    # when apply_batch reads it
    ev = EdgeEvent(0, 1, "set-weight", 3.0)
    for field, value in (("weight", -1.0), ("v", 0), ("op", "bogus")):
        with pytest.raises(FrozenInstanceError):
            setattr(ev, field, value)
    assert ev == EdgeEvent(0, 1, "set-weight", 3.0)


def test_set_weight_needs_a_weight_and_a_weighted_graph():
    with pytest.raises(InvalidParams):
        EdgeEvent(0, 1, "set-weight")
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 2.0)
    with pytest.raises(InvalidParams):
        g.set_weight(0, 1, None)
    assert g.edge_weight(0, 1) == 2.0
    # the graph's kind is checked before the edge's presence, by the
    # mutator and by apply_batch alike
    for call in (
        lambda: apply_batch(DynGraph(3), [EdgeEvent(0, 1, "set-weight", 2.0)]),
        lambda: DynGraph(3).set_weight(0, 1, 2.0),
    ):
        with pytest.raises(InvalidParams):
            call()


def test_non_numbers_raise_invalid_params():
    g = DynGraph(3, weighted=True)
    for call in (
        lambda: EdgeEvent(0, 1, "insert", "2"),
        lambda: EdgeEvent(0, 1, "set-weight", 1j),
        lambda: EdgeEvent(0, 1, timestamp="x"),
        lambda: g.insert_edge(0, 1, "2"),
    ):
        with pytest.raises(InvalidParams):
            call()
    assert g.m == 0
    # any ordered number passes, not only floats
    g.insert_edge(0, 1, Fraction(3, 2))
    assert EdgeEvent(1, 2, "insert", 2, timestamp=Fraction(1, 2)).weight == 2
    assert g.edge_weight(0, 1) == 1.5


def _snapshot(g):
    ws = g._wsorted
    return (
        [list(a.items()) for a in g._adj],
        [list(a.items()) for a in g._radj],
        g.m,
        None if ws is None else list(ws),
    )


def test_each_mutator_fault_leaves_graph_unchanged():
    rng = random.Random(11)
    for directed in (False, True):
        for weighted in (False, True):
            g = random_graph(rng, 8, avg_deg=2.0, directed=directed, weighted=weighted)
            if weighted:
                g.max_hops(0.0)
            (a, b, w), n = next(g.edges()), g.n
            c, d = next(
                (u, v) for u in range(n) for v in range(n)
                if u != v and not g.has_edge(u, v)
            )
            faults = [
                (InvalidNode, g.insert_edge, (c, n)),
                (InvalidNode, g.insert_edge, (-1, d)),
                (InvalidNode, g.delete_edge, (n, b)),
                (InvalidParams, g.insert_edge, (c, c)),
                (DuplicateInsert, g.insert_edge, (a, b, w)),
                (MissingEdge, g.delete_edge, (c, d)),
            ]
            for bad in (0.0, -1.0, math.inf, math.nan):
                faults.append((InvalidParams, g.insert_edge, (c, d, bad)))
            if weighted:
                faults += [
                    (InvalidNode, g.set_weight, (a, n, 2.0)),
                    (MissingEdge, g.set_weight, (c, d, 2.0)),
                ]
                for bad in (0.0, -1.0, math.inf, math.nan):
                    faults.append((InvalidParams, g.set_weight, (a, b, bad)))
            else:
                faults += [
                    (InvalidParams, g.insert_edge, (c, d, 2.0)),
                    (InvalidParams, g.set_weight, (a, b, 1.0)),
                ]
            before = _snapshot(g)
            for exc, mutator, args in faults:
                with pytest.raises(exc):
                    mutator(*args)
                assert _snapshot(g) == before, (mutator.__name__, args)


def test_apply_batch_records_old_weights():
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 4.0)
    g.insert_edge(1, 2, 5.0)
    eff = apply_batch(
        g, [EdgeEvent(0, 1, "set-weight", 1.5), EdgeEvent(1, 2, "delete")]
    )
    by_op = {ev.op: ev for ev in eff}
    assert by_op["set-weight"].old_weight == 4.0
    assert by_op["delete"].old_weight == 5.0 and by_op["delete"].weight is None


def test_apply_batch_matches_sequential_replay():
    # canonical application must reproduce the net effect of literal replay
    rng = random.Random(20240801)
    for trial in range(1000):
        n = rng.randrange(4, 50)
        directed = trial % 2 == 0
        weighted = trial % 3 == 0
        g = random_graph(rng, n, directed=directed, weighted=weighted)
        events = random_valid_batch(rng, g, rng.randrange(1, 12))
        replayed = g.copy()
        for ev in events:
            if ev.op == "insert":
                replayed.insert_edge(ev.u, ev.v, ev.weight)
            elif ev.op == "delete":
                replayed.delete_edge(ev.u, ev.v)
            else:
                replayed.set_weight(ev.u, ev.v, ev.weight)
        eff = apply_batch(g, events)
        assert g._adj == replayed._adj
        if directed:
            assert g._radj == replayed._radj
        pairs = [(ev.u, ev.v) for ev in eff]
        assert len(pairs) == len(set(pairs))


def test_scc_directed_cycle_is_one_component():
    g = DynGraph(4, directed=True)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.insert_edge(u, v)
    cond = strongly_connected_components(g)
    assert cond.n_comps == 1
    assert cond.dag == [set()]


def test_scc_two_cycles_linked():
    g = DynGraph(4, directed=True)
    for u, v in ((0, 1), (1, 0), (2, 3), (3, 2), (1, 2)):
        g.insert_edge(u, v)
    cond = strongly_connected_components(g)
    assert cond.n_comps == 2
    c01 = cond.comp_of[0]
    c23 = cond.comp_of[2]
    assert cond.comp_of[1] == c01 and cond.comp_of[3] == c23
    assert cond.dag[c01] == {c23} and cond.dag[c23] == set()


def test_scc_dag_input_is_isomorphic():
    g = DynGraph(5, directed=True)
    edges = ((0, 1), (1, 2), (0, 3), (3, 4), (1, 4))
    for u, v in edges:
        g.insert_edge(u, v)
    cond = strongly_connected_components(g)
    assert cond.n_comps == 5
    mapped = {
        (cond.comp_of[u], cond.comp_of[v]) for u, v in edges
    }
    dag_edges = {(c, c2) for c in range(5) for c2 in cond.dag[c]}
    assert mapped == dag_edges


def test_condensation_is_acyclic_and_reverse_topological():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(3, 30)
        g = random_graph(rng, n, avg_deg=2.0, directed=True)
        cond = strongly_connected_components(g)
        # Kahn's algorithm must consume every component
        indeg = [0] * cond.n_comps
        for c in range(cond.n_comps):
            for c2 in cond.dag[c]:
                indeg[c2] += 1
        queue = [c for c in range(cond.n_comps) if indeg[c] == 0]
        seen = 0
        while queue:
            c = queue.pop()
            seen += 1
            for c2 in cond.dag[c]:
                indeg[c2] -= 1
                if indeg[c2] == 0:
                    queue.append(c2)
        assert seen == cond.n_comps
        # Tarjan ids ascend against edge direction (used by the bounds)
        for c in range(cond.n_comps):
            assert all(c2 < c for c2 in cond.dag[c])


def test_connected_components_basics():
    p3 = generate("path", n=3)
    labels, count = weakly_connected_components(p3)
    assert count == 1
    g = DynGraph(4)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    labels, count = weakly_connected_components(g)
    assert count == 2
    assert labels[3] != labels[0]


def test_connected_components_match_union_find():
    # directed graphs are compared with union-find on their undirected shadow
    rng = random.Random(7)
    for trial in range(100):
        g = random_graph(rng, 10, avg_deg=1.2, directed=trial >= 50)
        labels, count = weakly_connected_components(g)
        uf_labels, uf_count = uf_components(g)
        assert count == uf_count
        pairing = {}
        for a, b in zip(labels, uf_labels):
            assert pairing.setdefault(a, b) == b


def test_weakly_connected_components_ignore_direction():
    g = DynGraph(4, directed=True)
    g.insert_edge(0, 1)
    g.insert_edge(2, 1)
    labels, count = weakly_connected_components(g)
    assert count == 2
    assert labels[0] == labels[1] == labels[2] != labels[3]


def test_exact_vertex_diameter_examples():
    assert exact_vertex_diameter(generate("path", n=5)) == 5
    assert exact_vertex_diameter(generate("cycle", n=4)) == 3
    tri = DynGraph(3, weighted=True)
    tri.insert_edge(0, 1, 1.0)
    tri.insert_edge(1, 2, 1.0)
    tri.insert_edge(0, 2, 3.0)
    # the two-hop route of weight 2 beats the direct edge of weight 3
    assert exact_vertex_diameter(tri) == 3
    lonely = DynGraph(1)
    assert exact_vertex_diameter(lonely) == 1


def test_exact_vertex_diameter_unweighted_matches_bfs_diameter():
    rng = random.Random(3)
    for _ in range(40):
        g = random_graph(rng, rng.randrange(4, 25), avg_deg=2.0)
        if g.m == 0:
            assert exact_vertex_diameter(g) == 1
            continue
        assert exact_vertex_diameter(g) >= 2
        # 1 + longest BFS distance over all sources
        best = 0
        from dynbc import max_shortest_path_hops

        for s in range(g.n):
            best = max(best, max_shortest_path_hops(g, s))
        assert exact_vertex_diameter(g) == best + 1


def test_generate_models():
    assert generate("path", n=3).m == 2
    assert generate("cycle", n=5).m == 5
    star = generate("star", n=6)
    assert star.m == 5 and star.degree(0) == 5
    for n in (3, 10, 57):
        assert generate("dorogovtsev-mendes", n=n).m == 2 * n - 3
    a = generate("erdos-renyi", n=50, p=0.1, seed=7)
    b = generate("erdos-renyi", n=50, p=0.1, seed=7)
    assert sorted(a.edges()) == sorted(b.edges())
    c = generate("erdos-renyi", n=50, p=0.1, seed=8)
    assert sorted(a.edges()) != sorted(c.edges())
    with pytest.raises(InvalidParams):
        generate("erdos-renyi", n=10)
    with pytest.raises(InvalidParams):
        generate("nonsense", n=5)
    w = generate("dorogovtsev-mendes", n=20, seed=1, weighted=True)
    assert all(wt > 0 for _, _, wt in w.edges())
