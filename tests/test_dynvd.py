"""Tests of ``bc.VDTracker``, the fully dynamic vertex-diameter tracker.
The file keeps the name of ``dynvd``, the module the tracker used to live
in, so that its test ids stay stable."""

import random

import pytest

from dynbc import (
    DynGraph,
    EdgeEvent,
    apply_batch,
    exact_vertex_diameter,
    VDTracker,
    generate,
    local_vd_estimate,
    vd_upper_bound,
    weakly_connected_components,
)
from dynbc.errors import InvalidParams

from helpers import induced_subgraph, random_graph, random_valid_batch, spread_weight


def check_tracker(g, tracker):
    labels, count = weakly_connected_components(g)
    assert all(x == 1 for x in tracker.vis.vis)
    assert len(tracker.sources) == count
    assert sorted(labels[st.source] for st in tracker.sources) == list(range(count))
    assert tracker.bound >= exact_vertex_diameter(g)


def test_init_connected_graph_has_one_source():
    g = generate("dorogovtsev-mendes", n=30, seed=1)
    tr = VDTracker(g)
    assert len(tr.sources) == 1
    check_tracker(g, tr)


def test_init_one_source_per_component():
    g = DynGraph(9)
    g.insert_edge(0, 1)
    g.insert_edge(3, 4)
    g.insert_edge(6, 7)
    tr = VDTracker(g)
    assert len(tr.sources) == 6  # three edges plus isolated nodes 2, 5, 8
    check_tracker(g, tr)


def test_init_bound_p5_union_p3():
    g = DynGraph(8)
    for i in range(4):
        g.insert_edge(i, i + 1)
    g.insert_edge(5, 6)
    g.insert_edge(6, 7)
    tr = VDTracker(g)
    assert tr.bound >= 5
    assert tr.bound == 8  # endpoint source on the P5 side: 1 + 4 + 3
    check_tracker(g, tr)


def test_directed_graph_rejected():
    with pytest.raises(InvalidParams):
        VDTracker(DynGraph(3, directed=True))


def test_merge_drops_redundant_source():
    g = DynGraph(4)
    g.insert_edge(0, 1)
    g.insert_edge(2, 3)
    tr = VDTracker(g)
    assert len(tr.sources) == 2
    eff = apply_batch(g, [EdgeEvent(1, 2)])
    tr.refresh(g, eff)
    assert len(tr.sources) == 1
    check_tracker(g, tr)


def test_split_creates_new_source():
    g = generate("path", n=6)
    tr = VDTracker(g)
    eff = apply_batch(g, [EdgeEvent(2, 3, "delete")])
    tr.refresh(g, eff)
    assert len(tr.sources) == 2
    check_tracker(g, tr)


def test_untouched_component_structure_keeps_sources():
    g = generate("cycle", n=6)
    tr = VDTracker(g)
    before = [st.source for st in tr.sources]
    eff = apply_batch(g, [EdgeEvent(0, 3)])  # chord: no component change
    tr.refresh(g, eff)
    assert [st.source for st in tr.sources] == before
    check_tracker(g, tr)


def test_merge_plus_split_in_one_batch_keeps_coverage():
    # component {0,1,2} merges with {3,4} while node 2 splits off:
    # the dropped source's stale claims must not mask the orphan.
    g = DynGraph(5)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    g.insert_edge(3, 4)
    tr = VDTracker(g)
    assert [st.source for st in tr.sources] == [0, 3]
    eff = apply_batch(g, [EdgeEvent(1, 3), EdgeEvent(1, 2, "delete")])
    tr.refresh(g, eff)
    check_tracker(g, tr)


def test_randomized_merge_split_sequences():
    rng = random.Random(60321)
    for trial in range(200):
        n = rng.randrange(6, 40)
        g = random_graph(rng, n, avg_deg=1.2)
        tr = VDTracker(g)
        check_tracker(g, tr)
        for _ in range(3):
            events = random_valid_batch(rng, g, rng.choice((1, 3, 6)))
            eff = apply_batch(g, events)
            bound = tr.refresh(g, eff)
            assert bound == tr.bound
            check_tracker(g, tr)


def test_randomized_weighted_sequences():
    rng = random.Random(60322)
    for trial in range(100):
        n = rng.randrange(6, 30)
        g = random_graph(rng, n, avg_deg=1.3, weighted=True)
        tr = VDTracker(g)
        for _ in range(3):
            events = random_valid_batch(rng, g, rng.choice((2, 5)))
            eff = apply_batch(g, events)
            tr.refresh(g, eff)
            check_tracker(g, tr)


def test_tracker_estimates_cover_each_component_vd():
    rng = random.Random(60324)
    for trial in range(80):
        n = rng.randrange(6, 25)
        g = random_graph(rng, n, avg_deg=1.3, weighted=True)
        for u, v, _ in list(g.edges()):
            g.set_weight(u, v, spread_weight(rng))
        tr = VDTracker(g)
        for _ in range(4):
            events = random_valid_batch(rng, g, rng.choice((1, 3, 6)))
            for ev in events:
                if ev.op != "delete":
                    ev.weight = spread_weight(rng)
            tr.refresh(g, apply_batch(g, events))
            labels, _ = weakly_connected_components(g)
            for st in tr.sources:
                members = [v for v in range(n) if labels[v] == labels[st.source]]
                comp = induced_subgraph(g, members)
                assert local_vd_estimate(g, st) >= exact_vertex_diameter(comp)


def test_static_bound_equals_tracker_bound():
    # both root one search at the lowest-index node of every component and
    # score it from d1 + d2 by the same hop rule, so the values agree exactly
    rng = random.Random(60323)
    split = 0
    for weighted in (False, True):
        for trial in range(100):
            n = rng.randrange(4, 40)
            g = random_graph(rng, n, avg_deg=1.0, weighted=weighted)
            split += weakly_connected_components(g)[1] > 1
            assert vd_upper_bound(g).value == VDTracker(g).bound
    assert split > 100
