import random

import pytest

from dynbc import (
    DynGraph,
    exact_vertex_diameter,
    generate,
    vd_ub_directed,
    vd_ub_directed_weighted,
    vd_ub_strongly_connected,
    vd_ub_unweighted_undirected,
    vd_ub_weighted_undirected,
    vd_upper_bound,
    weakly_connected_components,
)
from dynbc.errors import InvalidParams, NotStronglyConnected

from helpers import random_graph, spread_weight


def test_uu_path_endpoint_levels():
    g = generate("path", n=3)
    b = vd_ub_unweighted_undirected(g)
    assert b.value == 4 and b.kind == "UU"
    assert b.value >= exact_vertex_diameter(g)


def test_uu_singleton_component():
    assert vd_ub_unweighted_undirected(DynGraph(1)).value == 1


def test_uu_four_cycle():
    # top two BFS levels from node 0 are 2 and 1, so 1 + 2 + 1
    g = generate("cycle", n=4)
    b = vd_ub_unweighted_undirected(g)
    assert b.value == 4
    assert b.value >= exact_vertex_diameter(g) == 3


def test_sc_directed_cycle():
    g = DynGraph(4, directed=True)
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0)):
        g.insert_edge(u, v)
    b = vd_ub_strongly_connected(g, 0)
    vd = exact_vertex_diameter(g)
    assert b.value == 7 and b.kind == "SC"
    assert vd == 4 and vd <= b.value < 2 * vd


def test_sc_trivial_and_two_cycle():
    assert vd_ub_strongly_connected(DynGraph(1, directed=True), 0).value == 1
    g = DynGraph(2, directed=True)
    g.insert_edge(0, 1)
    g.insert_edge(1, 0)
    b = vd_ub_strongly_connected(g, 0)
    assert b.value == 3
    assert 2 <= b.value < 4


def test_sc_requires_strong_connectivity():
    g = DynGraph(3, directed=True)
    g.insert_edge(0, 1)
    with pytest.raises(NotStronglyConnected):
        vd_ub_strongly_connected(g, 0)


def test_dir_dag_path_of_singletons():
    g = DynGraph(3, directed=True)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    b = vd_ub_directed(g)
    assert b.value == 3 == exact_vertex_diameter(g)
    assert b.kind == "DIR"


def test_dir_two_linked_two_cycles():
    g = DynGraph(4, directed=True)
    for u, v in ((0, 1), (1, 0), (2, 3), (3, 2), (1, 2)):
        g.insert_edge(u, v)
    b = vd_ub_directed(g)
    vd = exact_vertex_diameter(g)
    assert b.value == 6
    assert vd == 4
    assert vd <= b.value < 2 * vd * vd


def test_dir_reduces_to_sc_when_strongly_connected():
    g = DynGraph(5, directed=True)
    for i in range(5):
        g.insert_edge(i, (i + 1) % 5)
    assert vd_ub_directed(g).value == vd_ub_strongly_connected(g, 0).value


def test_dir_complete_dag_regression():
    # The condensation accumulation sums every singleton on the long chain,
    # while every reachable pair is adjacent. This pins the known behavior:
    # the bound stays sound but the quadratic envelope does not bind here.
    n = 12
    g = DynGraph(n, directed=True)
    for u in range(n):
        for v in range(u + 1, n):
            g.insert_edge(u, v)
    assert exact_vertex_diameter(g) == 2
    assert vd_ub_directed(g).value == n


def test_w_examples():
    g = DynGraph(3, weighted=True)
    g.insert_edge(0, 1, 1.0)
    g.insert_edge(1, 2, 2.0)
    b = vd_ub_weighted_undirected(g)
    # from node 0: d1 = 3, d2 = 1, so L = 4; sorted weights 1, 2 sum to 1, 3
    # <= 4, so both hops fit and the bound is 1 + 2 = 3, the exact VD
    assert b.value == 3 and b.kind == "W"
    assert b.value == exact_vertex_diameter(g) == 3

    single = DynGraph(2, weighted=True)
    single.insert_edge(0, 1, 5.0)
    assert vd_ub_weighted_undirected(single).value == 2 == exact_vertex_diameter(single)


def test_w_unit_weights_reduce_to_uu():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(3, 25), avg_deg=2.0)
        gw = DynGraph(g.n, weighted=True)
        for u, v, _ in g.edges():
            gw.insert_edge(u, v, 1.0)
        assert vd_ub_weighted_undirected(gw).value == vd_ub_unweighted_undirected(g).value


def test_scw_examples():
    g = DynGraph(2, directed=True, weighted=True)
    g.insert_edge(0, 1, 2.0)
    g.insert_edge(1, 0, 2.0)
    b = vd_ub_directed_weighted(g)
    assert b.value == 3 and b.kind == "SCW"
    assert b.value >= exact_vertex_diameter(g) == 2

    dag = DynGraph(4, directed=True, weighted=True)
    dag.insert_edge(0, 1, 0.5)
    dag.insert_edge(1, 2, 3.0)
    dag.insert_edge(2, 3, 1.0)
    assert vd_ub_directed_weighted(dag).value == 4  # node count of the chain


def test_scw_sound_on_random_instances():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(3, 30), avg_deg=2.0, directed=True, weighted=True)
        assert vd_ub_directed_weighted(g).value >= exact_vertex_diameter(g)


def test_weighted_bounds_sound_with_spread_weights():
    # directed and undirected, sparse enough that many are disconnected,
    # weights spread over three orders of magnitude
    rng = random.Random(16)
    disconnected = 0
    for trial in range(400):
        g = random_graph(rng, rng.randrange(3, 26), avg_deg=rng.choice((0.8, 1.5, 2.5)),
                         directed=trial % 2 == 1, weighted=True)
        for u, v, _ in list(g.edges()):
            g.set_weight(u, v, spread_weight(rng))
        disconnected += weakly_connected_components(g)[1] > 1
        assert vd_upper_bound(g).value >= exact_vertex_diameter(g)
    assert disconnected >= 100


def test_dispatcher_picks_class():
    assert vd_upper_bound(generate("path", n=4)).kind == "UU"
    assert vd_upper_bound(generate("erdos-renyi", n=8, p=0.3, seed=1, directed=True)).kind == "DIR"
    assert vd_upper_bound(generate("path", n=4, weighted=True)).kind == "W"
    gw = DynGraph(3, directed=True, weighted=True)
    gw.insert_edge(0, 1, 1.0)
    assert vd_upper_bound(gw).kind == "SCW"


def test_wrong_class_rejected():
    with pytest.raises(InvalidParams):
        vd_ub_unweighted_undirected(DynGraph(3, directed=True))
    with pytest.raises(InvalidParams):
        vd_ub_weighted_undirected(DynGraph(3))
    with pytest.raises(InvalidParams):
        vd_ub_directed(DynGraph(3))
