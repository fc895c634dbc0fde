import hashlib
import math
import random
from collections import Counter

import pytest

from dynbc import (
    Batch,
    DynGraph,
    DynSSSP,
    EdgeEvent,
    ExtendedSSSP,
    INF,
    MODES,
    SamplingParams,
    apply_batch,
    approximate_bc,
    brandes_exact,
    compute_extended_sssp,
    connected_components,
    dist_eq,
    exact_vertex_diameter,
    generate,
    init_bc,
    recount_scores,
    sample_path,
    sample_size,
    scores,
    update_bc,
    vd_upper_bound,
)
import dynbc.bc
from dynbc.bc import BOUNDS, BCState, SampleRecord, _SAMPLE_DOMAIN
from dynbc.errors import DeletionInIncrementalMode, InvalidParams
from dynbc.rng import stream

from helpers import (
    CHI2_CRIT_1E3,
    NEAR_TIE_WEIGHTS,
    WEIGHT_CHOICES,
    all_min_paths,
    random_graph,
    random_valid_batch,
    state_digest,
)


def forced_state(g, params, mode, pairs):
    """Assemble a score state with hand-picked sample pairs (white box).
    Samples and the mode's bound object are built as init_bc builds them;
    r is len(pairs), whatever the bound asks for."""
    r = len(pairs)
    vals = [0.0] * g.n
    samples = []
    for i, (s, t) in enumerate(pairs):
        sssp = compute_extended_sssp(g, s)
        rng = stream(params.seed, _SAMPLE_DOMAIN, i)
        path = sample_path(g, sssp, t, rng)
        samples.append(SampleRecord(s, t, sssp, path))
        for v in path.internal:
            vals[v] += 1.0 / r
    return BCState(g.n, mode, params, vals, samples, BOUNDS[mode](g))


def test_init_matches_static_runner():
    g = generate("dorogovtsev-mendes", n=60, seed=5)
    params = SamplingParams(0.2, 0.1, seed=31)
    assert scores(approximate_bc(g, params)) == scores(init_bc(g, params, "ia"))
    gw = generate("dorogovtsev-mendes", n=60, seed=5, weighted=True)
    assert scores(approximate_bc(gw, params)) == scores(init_bc(gw, params, "iaw"))


def test_init_mode_validation():
    g = generate("path", n=4)
    params = SamplingParams(0.3, 0.3)
    with pytest.raises(InvalidParams):
        init_bc(g, params, "iaw")  # weighted mode on unweighted graph
    with pytest.raises(InvalidParams):
        init_bc(g, params, "nope")
    gd = DynGraph(4, directed=True)
    gd.insert_edge(0, 1)
    with pytest.raises(InvalidParams):
        init_bc(gd, params, "da")  # combined modes are undirected only


def test_init_combined_connected_graph_needs_no_aux():
    # a connected graph needs one tracker search and nothing beyond it
    g = generate("dorogovtsev-mendes", n=40, seed=2)
    params = SamplingParams(0.3, 0.3, seed=1)
    st = init_bc(g, params, "da")
    assert [aux.source for aux in st.bound.sources] == [0]
    assert all(v == 1 for v in st.bound.vis.vis)
    # samples keep plain searches; only the tracker's are DynSSSPs
    assert all(type(rec.sssp) is ExtendedSSSP for rec in st.samples)
    assert all(type(aux) is DynSSSP for aux in st.bound.sources)
    static = approximate_bc(g, params)
    assert static.samples and all(rec.sssp is None for rec in static.samples)


def test_init_combined_uncovered_component_gets_aux_source():
    g = DynGraph(20)
    for i in range(17):
        g.insert_edge(i, i + 1)
    g.insert_edge(18, 19)
    params = None
    found = None
    for seed in range(200):
        params = SamplingParams(0.9, 0.9, seed=seed)
        st = init_bc(g, params, "da")
        if all(rec.sssp.d[18] == INF for rec in st.samples):
            found = st
            break
    assert found is not None, "no seed left the 2-node component unsampled"
    assert len(found.bound.sources) >= 1
    assert any(aux.d[18] != INF for aux in found.bound.sources)
    assert all(v >= 1 for v in found.bound.vis.vis)


def test_scores_snapshot_and_sum_rule():
    g = generate("dorogovtsev-mendes", n=50, seed=8)
    st = init_bc(g, SamplingParams(0.2, 0.2, seed=3), "ia")
    snap = scores(st)
    assert snap == scores(st)
    snap[0] = 99.0
    assert scores(st)[0] != 99.0  # snapshot is a copy
    total = sum(len(rec.path.internal) for rec in st.samples if not rec.path.empty)
    assert sum(scores(st)) == pytest.approx(total / st.r, abs=1e-9)
    k4 = DynGraph(4)
    for u in range(4):
        for v in range(u + 1, 4):
            k4.insert_edge(u, v)
    assert scores(init_bc(k4, SamplingParams(0.3, 0.3), "ia")) == [0.0] * 4


def test_incremental_rejects_deletions_and_increases():
    g = generate("path", n=5)
    st = init_bc(g, SamplingParams(0.3, 0.3), "ia")
    g2 = g.copy()
    eff = apply_batch(g2, [EdgeEvent(1, 3)])
    eff_del = [EdgeEvent(0, 1, "delete")]
    with pytest.raises(DeletionInIncrementalMode):
        update_bc(g2, st, eff_del)
    gw = generate("path", n=5, weighted=True, wmin=1.0, wmax=1.0)
    stw = init_bc(gw, SamplingParams(0.3, 0.3), "iaw")
    inc = [EdgeEvent(0, 1, "set-weight", 9.0, old_weight=1.0)]
    with pytest.raises(DeletionInIncrementalMode):
        update_bc(gw, stw, inc)
    # without the old weight the change cannot be shown to be a decrease
    unknown = [EdgeEvent(0, 1, "set-weight", 0.5)]
    with pytest.raises(DeletionInIncrementalMode):
        update_bc(gw, stw, unknown)


def test_update_bc_rejects_static_state():
    g = generate("path", n=5)
    st = approximate_bc(g, SamplingParams(0.3, 0.3))
    with pytest.raises(InvalidParams):
        update_bc(g, st, [])


def test_rejected_incremental_batch_leaves_state_as_it_was():
    # The rejection touches no state, but the graph already holds the
    # batch. Once the batch is undone on the graph, later rounds match a
    # twin state that never saw it. The twin runs on a copy of the restored
    # graph: re-inserting an edge moves it in the adjacency order, which
    # path draws read.
    g = generate("dorogovtsev-mendes", n=200, seed=4)
    params = SamplingParams(0.3, 0.3, seed=9)
    st = init_bc(g, params, "ia")
    twin = init_bc(g.copy(), params, "ia")
    before = state_digest(st)
    assert state_digest(twin) == before
    u, v, _ = next(iter(g.edges()))
    eff = apply_batch(g, [EdgeEvent(u, v, "delete")])
    with pytest.raises(DeletionInIncrementalMode):
        update_bc(g, st, eff)
    assert state_digest(st) == before
    apply_batch(g, [EdgeEvent(u, v)])
    g_twin = g.copy()
    rng = random.Random(17)
    for _ in range(20):
        batch = random_valid_batch(rng, g, 2, allow_delete=False)
        update_bc(g, st, apply_batch(g, batch))
        update_bc(g_twin, twin, apply_batch(g_twin, batch))
        assert state_digest(st) == state_digest(twin)


def test_incremental_untouched_batch_is_bit_identical():
    g = DynGraph(7)
    for i in range(4):
        g.insert_edge(i, i + 1)
    # at the refreshed bound (8) these params ask for r = 2, the forced r
    params = SamplingParams(0.9, 0.9, seed=9)
    st = forced_state(g, params, "ia", [(0, 4), (1, 3)])
    before = scores(st)
    paths_before = [st.samples[i].path for i in range(2)]
    # edge in a far corner: distances and counts of both pairs are untouched
    eff = apply_batch(g, [EdgeEvent(5, 6)])
    update_bc(g, st, eff)
    assert scores(st) == before
    assert [st.samples[i].path for i in range(2)] == paths_before
    assert st.samples[0].path is paths_before[0]


def test_incremental_replaces_shortened_path():
    # P5 with both sampled pairs spanning it; a shortcut rewires the paths
    g = generate("path", n=5)
    # at the refreshed bound (8) these params ask for r = 2, the forced r
    params = SamplingParams(0.9, 0.9, seed=4)
    st = forced_state(g, params, "ia", [(0, 4), (4, 0)])
    assert scores(st) == [0.0, 1.0, 1.0, 1.0, 0.0]
    eff = apply_batch(g, [EdgeEvent(1, 4)])
    update_bc(g, st, eff)
    # old internal nodes 2 and 3 lose 1/r, the new route keeps only node 1
    assert scores(st) == [0.0, 1.0, 0.0, 0.0, 0.0]
    assert st.samples[0].path.internal == [1]
    assert st.r == 2


def test_incremental_posterior_path_distribution():
    # third equal-length route appears; replacement must be uniform over all
    # three (frequency check plus chi-square at significance 1e-3)
    draws = 100_000
    counts = Counter()
    for seed in range(draws):
        g = DynGraph(5)
        for u, v in ((0, 1), (1, 3), (0, 2), (2, 3)):
            g.insert_edge(u, v)
        # a tiny c pins r at 1, so no sample is added by the update
        params = SamplingParams(0.3, 0.3, c=1e-9, seed=seed)
        st = forced_state(g, params, "ia", [(0, 3)])
        eff = apply_batch(g, [EdgeEvent(0, 4), EdgeEvent(4, 3)])
        update_bc(g, st, eff)
        assert st.r == 1
        path = st.samples[0].path
        assert len(path.internal) == 1
        counts[path.internal[0]] += 1
    assert set(counts) == {1, 2, 4}
    expect = draws / 3
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 <= CHI2_CRIT_1E3[2]
    se = math.sqrt((1 / 3) * (2 / 3) / draws)
    for c in counts.values():
        assert abs(c / draws - 1 / 3) <= 4 * se + 1e-9


def _ev(u, v, op="insert", w=None):
    return EdgeEvent(u, v, op, w)


# Keep-or-redraw cases for deletions, weight increases and mixed batches:
# (mode, edges (u, v, w), batch), for the pair (0, 5) on six nodes.
_FAN = [(0, i, 1.0) for i in (1, 2, 3)] + [(i, 5, 1.0) for i in (1, 2, 3)]
_POSTERIOR_CASES = {
    # sigma 3 -> 2, d[t] unchanged: the first redraw is accepted
    "delete-unweighted": (
        "dad",
        [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (1, 4, 1.0), (2, 4, 1.0),
         (3, 5, 1.0), (4, 5, 1.0)],
        [_ev(1, 4, "delete")],
    ),
    # d[t] grows 2 -> 3 and both stored paths stay shortest beside a new one
    "increase-d-grows-weighted": (
        "dadw",
        [(0, 1, 1.0), (1, 5, 1.0), (0, 2, 1.0), (2, 5, 1.0), (0, 3, 1.5),
         (3, 5, 1.5)],
        [_ev(0, 1, "set-weight", 2.0), _ev(0, 2, "set-weight", 2.0)],
    ),
    # sigma 3 -> 2 under a weight increase, d[t] unchanged
    "increase-same-d-weighted": (
        "dadw", _FAN, [_ev(3, 5, "set-weight", 1.5)],
    ),
    # one route dies, an equal-length one appears: sigma 2 -> 2
    "mixed-unweighted": (
        "dad",
        _FAN[:2] + _FAN[3:5],
        [_ev(1, 5, "delete"), _ev(0, 3), _ev(3, 5)],
    ),
    "mixed-weighted": (
        "dadw",
        _FAN[:5] + [(3, 5, 2.0)],
        [_ev(1, 5, "set-weight", 2.0), _ev(3, 5, "set-weight", 1.0)],
    ),
    # sigma 3 -> 2 with one old route kept: old draws accepted w.p. 1/3
    "mixed-shrinks-unweighted": (
        "dad",
        _FAN,
        [_ev(1, 5, "delete"), _ev(2, 5, "delete"), _ev(0, 4), _ev(4, 5)],
    ),
    # a weight decrease raises sigma 2 -> 3 with d[t] unchanged
    "decrease-raises-sigma-weighted": (
        "iaw",
        _FAN[:5] + [(3, 5, 2.0)],
        [_ev(3, 5, "set-weight", 1.0)],
    ),
}


@pytest.mark.parametrize("case", sorted(_POSTERIOR_CASES))
def test_keep_or_redraw_posterior_path_distribution(case):
    # after the batch the stored path must be uniform over the pair's new
    # shortest paths (frequency check plus chi-square at significance 1e-3)
    mode, edges, batch = _POSTERIOR_CASES[case]
    draws = 15_000
    counts = Counter()
    for seed in range(draws):
        g = DynGraph(6, weighted=mode.endswith("w"))
        for u, v, w in edges:
            g.insert_edge(u, v, w)
        # a tiny c pins r at 1, so no sample is added by the update
        params = SamplingParams(0.3, 0.3, c=1e-9, seed=seed)
        st = forced_state(g, params, mode, [(0, 5)])
        eff = apply_batch(g, batch)
        update_bc(g, st, eff)
        assert st.r == 1
        counts[tuple(st.samples[0].path.internal)] += 1
    want = {tuple(p[1:-1]) for p in all_min_paths(g, 0, 5)}
    assert set(counts) == want
    k = len(want)
    expect = draws / k
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 <= CHI2_CRIT_1E3[k - 1]
    se = math.sqrt((1 / k) * (1 - 1 / k) / draws)
    for c in counts.values():
        assert abs(c / draws - 1 / k) <= 4 * se + 1e-9


def test_untouched_weight_increase_draws_nothing(monkeypatch):
    # a heavy chord lies on no shortest path, so raising it changes no
    # sample's d[t] or sigma[t]: no path is drawn and every path object stays
    g = generate("path", n=8, weighted=True)
    g.insert_edge(0, 7, 100.0)
    params = SamplingParams(0.2, 0.2, seed=3)
    st = init_bc(g, params, "daw")
    before = [rec.path for rec in st.samples]
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_path(*args)

    monkeypatch.setattr("dynbc.bc.sample_path", counting)
    eff = apply_batch(g, [EdgeEvent(0, 7, "set-weight", 200.0)])
    update_bc(g, st, eff)
    assert st.r == len(before)
    assert calls == []
    assert all(rec.path is p for rec, p in zip(st.samples, before))


def test_fully_dynamic_disconnect_and_reconnect():
    g = generate("path", n=3)
    params = SamplingParams(0.99, 0.99, seed=5)
    st = forced_state(g, params, "dad", [(0, 2)])
    assert scores(st) == [0.0, 1.0, 0.0]
    eff = apply_batch(g, [EdgeEvent(1, 2, "delete")])
    update_bc(g, st, eff)
    # the severed sample keeps its slot but contributes nothing
    assert st.samples[0].path.empty
    assert scores(st) == [0.0] * 3
    eff = apply_batch(g, [EdgeEvent(1, 2)])
    update_bc(g, st, eff)
    # connectivity came back, so the slot is resampled on the next batch
    assert not st.samples[0].path.empty
    assert st.samples[0].path.internal == [1]
    got = scores(st)
    rec = recount_scores(st)
    assert max(abs(a - b) for a, b in zip(got, rec)) <= 1e-12
    assert got[1] > 0.0


def test_fully_dynamic_rescales_when_sample_count_grows():
    # P3 plus three isolated nodes has bound 4 (sample size 216); extending
    # it to P6 takes the refreshed bound to 1 + 5 + 4 = 10 (sample size 316)
    g = DynGraph(6)
    g.insert_edge(0, 1)
    g.insert_edge(1, 2)
    params = SamplingParams(0.1, 0.1, seed=13)
    st = init_bc(g, params, "dad")
    assert (st.vd_bound, st.r) == (4.0, 216)
    eff = apply_batch(g, [EdgeEvent(2, 3), EdgeEvent(3, 4), EdgeEvent(4, 5)])
    update_bc(g, st, eff)
    assert (st.vd_bound, st.r) == (10.0, 316)
    assert len(st.samples) == 316
    got = scores(st)
    rec = recount_scores(st)
    assert max(abs(a - b) for a, b in zip(got, rec)) <= 1e-12
    # shrinking bounds never shrink r
    update_bc(g, st, apply_batch(g, [EdgeEvent(3, 4, "delete")]))
    assert st.vd_bound < 10.0
    assert st.r == 316


def test_combined_pure_insertions_equal_incremental():
    g = generate("path", n=7)
    params = SamplingParams(0.2, 0.2, seed=21)
    st_ia = init_bc(g.copy(), params, "ia")
    st_da = init_bc(g.copy(), params, "da")
    assert scores(st_ia) == scores(st_da)
    assert st_ia.r == st_da.r
    g_ia = g.copy()
    g_da = g.copy()
    batch = [EdgeEvent(0, 2), EdgeEvent(3, 5)]
    update_bc(g_ia, st_ia, apply_batch(g_ia, Batch(list(batch))))
    update_bc(g_da, st_da, apply_batch(g_da, Batch(list(batch))))
    assert scores(st_ia) == scores(st_da)
    assert st_ia.r == st_da.r


def _kept_bound_cases(mode):
    """A graph for mode and one batch that raises its vertex diameter past
    the bound kept at init. iaw: a chain 0..119 of weight 1 plus hub 120
    joined to every chain node; lowering the chain weights to 0.01 takes
    the exact VD from 3 to 120 (init bound 5). ia: two 65-node paths joined
    by edge (64, 65); the exact VD goes to 130 (init bound 128)."""
    if mode == "iaw":
        g = DynGraph(121, weighted=True)
        for i in range(119):
            g.insert_edge(i, i + 1, 1.0)
        for i in range(120):
            g.insert_edge(120, i, 1.0)
        return g, [EdgeEvent(i, i + 1, "set-weight", 0.01) for i in range(119)]
    g = DynGraph(130)
    for i in range(129):
        if i != 64:
            g.insert_edge(i, i + 1)
    return g, [EdgeEvent(64, 65)]


@pytest.mark.parametrize("mode", ("ia", "iaw"))
def test_incremental_bound_covers_vertex_diameter(mode):
    g, events = _kept_bound_cases(mode)
    params = SamplingParams(0.1, 0.1)
    st = init_bc(g, params, mode)
    update_bc(g, st, apply_batch(g, Batch(events)))
    vd = exact_vertex_diameter(g)
    assert st.vd_bound >= vd
    assert st.r >= sample_size(vd, params)


def _incremental_batch(rng, g, size):
    """Up to ``size`` events on random pairs: an absent edge is inserted
    with weight 1, and on a weighted graph a present one has its weight
    lowered."""
    events = []
    seen = set()
    for _ in range(size):
        u, v = rng.sample(range(g.n), 2)
        k = (u, v) if g.directed else (min(u, v), max(u, v))
        if k in seen:
            continue
        seen.add(k)
        if not g.has_edge(*k):
            events.append(EdgeEvent(k[0], k[1], "insert", 1.0))
        elif g.weighted:
            w = g.edge_weight(*k) * rng.uniform(0.02, 1.0)
            events.append(EdgeEvent(k[0], k[1], "set-weight", w))
    return events


@pytest.mark.parametrize("directed", (False, True), ids=("undirected", "directed"))
@pytest.mark.parametrize("mode", ("ia", "iaw"))
def test_incremental_bound_covers_vertex_diameter_over_streams(mode, directed):
    # sparse graphs start in pieces that the insertions merge, and with unit
    # weights, so the init bound is as tight as the unweighted one; in iaw
    # weight decreases can also add hops to a shortest path
    rng = random.Random(2000 + 2 * MODES.index(mode) + directed)
    for _ in range(15):
        g = random_graph(
            rng, rng.randrange(12, 41), avg_deg=1.2, directed=directed,
            weighted=mode == "iaw", weights=(1.0,),
        )
        params = SamplingParams(0.3, 0.2, seed=rng.randrange(1000))
        st = init_bc(g, params, mode)
        for _ in range(10):
            events = _incremental_batch(rng, g, rng.choice((1, 2, 4)))
            update_bc(g, st, apply_batch(g, Batch(events)))
            vd = exact_vertex_diameter(g)
            assert st.vd_bound >= vd
            assert st.r >= sample_size(vd, params)


@pytest.mark.parametrize(
    "mode, directed",
    (("ia", False), ("ia", True), ("dad", True), ("da", False)),
    ids=("ia", "ia-directed", "dad", "da"),
)
def test_bound_calls_go_through_bc_names(mode, directed, monkeypatch):
    # perfbench/tracing.py counts the repairs' and the bound's work by
    # patching these names in dynbc.bc; work done through any other name
    # would count as 0
    calls = Counter()
    for name in ("vd_upper_bound", "local_vd_estimate", "update_sssp"):
        orig = getattr(dynbc.bc, name)

        def counted(*args, _name=name, _orig=orig):
            calls[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(dynbc.bc, name, counted)
    rng = random.Random(808)
    g = random_graph(rng, 30, avg_deg=1.2, directed=directed)
    st = init_bc(g, SamplingParams(0.3, 0.3, seed=1), mode)
    # undirected ia and da refresh the tracker, directed ia and dad the
    # static bound
    assert len(st.aux_sources) > 1 if not directed else not st.aux_sources
    for _ in range(4):
        events = random_valid_batch(rng, g, 3, allow_delete=mode != "ia")
        calls.clear()
        searches = len({id(rec.sssp) for rec in st.samples})
        tracker = set(map(id, st.aux_sources))
        update_bc(g, st, apply_batch(g, Batch(events)))
        if directed:
            want = {"vd_upper_bound": 1, "update_sssp": searches}
        else:
            # one repair per sample search and per tracker search kept
            kept = len(tracker & set(map(id, st.aux_sources)))
            want = {
                "local_vd_estimate": len(st.aux_sources),
                "update_sssp": searches + kept,
            }
        assert calls == Counter(want)


def test_combined_split_grows_aux_sources():
    g = generate("path", n=8)
    params = SamplingParams(0.5, 0.5, seed=2)
    st = forced_state(g, params, "da", [(0, 2), (1, 3)])
    assert [aux.source for aux in st.bound.sources] == [0]
    eff = apply_batch(g, [EdgeEvent(5, 6, "delete")])
    update_bc(g, st, eff)
    # the split-off half {6, 7} gets its own search, rooted at its lowest node
    assert [aux.source for aux in st.bound.sources] == [0, 6]
    assert [aux.reach for aux in st.bound.sources] == [6, 2]
    assert all(v == 1 for v in st.bound.vis.vis)
    assert st.vd_bound >= exact_vertex_diameter(g)


def test_combined_merge_drops_annexed_aux_source():
    # the tracker search from 0 annexes the one rooted at 2
    g = DynGraph(4)
    g.insert_edge(0, 1)
    g.insert_edge(2, 3)
    params = SamplingParams(0.5, 0.5, seed=3)
    st = forced_state(g, params, "da", [(0, 1)])
    assert [aux.source for aux in st.bound.sources] == [0, 2]
    eff = apply_batch(g, [EdgeEvent(1, 2)])
    update_bc(g, st, eff)
    assert [aux.source for aux in st.bound.sources] == [0]
    assert all(v == 1 for v in st.bound.vis.vis)


def _combined_stream(rng, mode, n):
    """A random graph for mode and a list of five random mixed batches for
    it, weight changes included on weighted graphs."""
    g = random_graph(rng, n, avg_deg=1.6, weighted=mode == "daw")
    batches = []
    shadow = g.copy()
    for _ in range(5):
        events = random_valid_batch(rng, shadow, rng.choice((1, 3, 6)))
        apply_batch(shadow, Batch(list(events)))
        batches.append(events)
    return g, batches


def test_combined_bound_does_not_depend_on_sampling_seed():
    rng = random.Random(2024)
    for trial in range(40):
        mode = ("da", "daw")[trial % 2]
        g0, batches = _combined_stream(rng, mode, rng.randrange(12, 41))
        runs = []
        for seed in (1, 2):
            g = g0.copy()
            st = init_bc(g, SamplingParams(0.3, 0.3, seed=seed), mode)
            bounds = [st.vd_bound]
            for events in batches:
                update_bc(g, st, apply_batch(g, Batch(list(events))))
                bounds.append(st.vd_bound)
            runs.append(bounds)
        assert runs[0] == runs[1], (trial, mode)


def test_combined_tracker_invariants_through_update_bc():
    rng = random.Random(4242)
    batches_seen = 0
    for trial in range(80):
        mode = ("da", "daw")[trial % 2]
        g, batches = _combined_stream(rng, mode, rng.randrange(12, 41))
        params = SamplingParams(0.3, 0.3, seed=trial)
        st = init_bc(g, params, mode)
        assert st.vd_bound == vd_upper_bound(g).value
        for events in batches:
            update_bc(g, st, apply_batch(g, Batch(list(events))))
            batches_seen += 1
            labels, count = connected_components(g)
            assert sorted(labels[aux.source] for aux in st.bound.sources) == list(
                range(count)
            )
            assert all(v == 1 for v in st.bound.vis.vis)
            assert st.vd_bound >= exact_vertex_diameter(g)
    assert batches_seen == 400


def test_combined_matches_fully_dynamic_on_encoded_graph():
    # the same undirected instance once as-is (da) and once with both arcs
    # (dad): their bounds differ but ask for the same r, so the same seed
    # gives identical scores
    n = 6
    und = generate("path", n=n)
    enc = DynGraph(n, directed=True)
    for u, v, _ in und.edges():
        enc.insert_edge(u, v)
        enc.insert_edge(v, u)
    params = SamplingParams(0.2, 0.2, seed=77)
    st_da = init_bc(und, params, "da")
    st_dad = init_bc(enc, params, "dad")
    assert st_da.r == st_dad.r
    assert scores(st_da) == scores(st_dad)
    eff_und = apply_batch(und, [EdgeEvent(0, 3), EdgeEvent(2, 5, "insert")])
    eff_enc = apply_batch(
        enc,
        [EdgeEvent(0, 3), EdgeEvent(3, 0), EdgeEvent(2, 5), EdgeEvent(5, 2)],
    )
    update_bc(und, st_da, eff_und)
    update_bc(enc, st_dad, eff_enc)
    assert st_da.r == st_dad.r
    assert scores(st_da) == scores(st_dad)


# One digest per mode over the six states of a seeded five-batch stream.
# A change to any state in any mode shows here.
PINNED_DIGESTS = {
    "ia": "a599b01aa9f6b3f0d48ab8cea6fc293da4051a7400bdeeee06d6c19893e6c364",
    "iaw": "3f706e50905ce371b0eec9e8d9180424eb3001d7f2879a61447a5a7f1a98a551",
    "dad": "1e8e5db45e9589c6a49bb839538450c057aacfa655cec00965b748f2f8f51b50",
    "dadw": "ba7b9980a8b50c0b0e1308fdc9b225367c3bda4d3607acbbdc466977709cb8e4",
    "da": "f6d7433212056093cdd890bfe056990c4cf7038c4c546fe0b0ca15d9cafd4fc0",
    "daw": "e5ccb7701aa78eec3352ddf640c6742e196342f02f957773d71fb8e09acf7ba3",
}


# The same over near-tie weights (``NEAR_TIE_WEIGHTS``), whose path sums
# meet only within dist_eq's tolerance; each stream grows r at least once.
NEAR_TIE_SEEDS = {"iaw": 1900, "dadw": 1901, "daw": 1903}
NEAR_TIE_DIGESTS = {
    "iaw": "4cb2b7fb30d805c267a3e188940804b2fbfd933fe4c9c1e99c6352c3ae9e6414",
    "dadw": "aed7a55ccf5ed29092705ef4d064dce984b2b408ab6de46623a949987e2dfd8b",
    "daw": "bf4f3c773cb50e46283d1c5b44b878dfd476e9b9131f2f7056039167ce865da6",
}


def _stream_digest(mode, seed, weights=WEIGHT_CHOICES, rs=None):
    """Init on a random graph for mode (directed for ia, dad and dadw), then
    five random batches (insertions only in ia/iaw), and hash the digest of
    every state on the way. ``rs``, if given, collects r after each step."""
    rng = random.Random(seed)
    incremental = mode in ("ia", "iaw")
    g = random_graph(
        rng,
        24,
        avg_deg=1.4,
        directed=mode in ("ia", "dad", "dadw"),
        weighted=mode in ("iaw", "dadw", "daw"),
        weights=weights,
    )
    st = init_bc(g, SamplingParams(0.25, 0.2, seed=seed), mode)
    digests = [state_digest(st)]
    for _ in range(5):
        if rs is not None:
            rs.append(st.r)
        events = random_valid_batch(
            rng,
            g,
            rng.choice((1, 3, 6)),
            allow_delete=not incremental,
            allow_weight=not incremental,
            weights=weights,
        )
        update_bc(g, st, apply_batch(g, Batch(events)))
        digests.append(state_digest(st))
    if rs is not None:
        rs.append(st.r)
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("mode", MODES)
def test_states_match_pinned_digests(mode):
    assert _stream_digest(mode, 1700 + MODES.index(mode)) == PINNED_DIGESTS[mode]


@pytest.mark.parametrize("mode", sorted(NEAR_TIE_DIGESTS))
def test_near_tie_states_match_pinned_digests(mode):
    rs = []
    digest = _stream_digest(mode, NEAR_TIE_SEEDS[mode], NEAR_TIE_WEIGHTS, rs)
    assert digest == NEAR_TIE_DIGESTS[mode]
    if mode != "iaw":
        assert rs[-1] > rs[0]  # growth draws samples in an update round


def test_samples_share_one_search_per_source(monkeypatch):
    # the daw near-tie stream: many samples per source on 24 nodes, and r
    # grows in its fourth round
    seed = NEAR_TIE_SEEDS["daw"]
    rng = random.Random(seed)
    g = random_graph(rng, 24, avg_deg=1.4, weighted=True, weights=NEAR_TIE_WEIGHTS)
    st = init_bc(g, SamplingParams(0.25, 0.2, seed=seed), "daw")
    assert len({id(rec.sssp) for rec in st.samples}) == len({rec.s for rec in st.samples})
    assert len(st.samples) > len({rec.s for rec in st.samples})
    assert all(rec.sssp.source == rec.s for rec in st.samples)
    repaired = []
    real = dynbc.bc.update_sssp

    def counting(g, state, events, vis=None):
        repaired.append(id(state))
        return real(g, state, events, vis)

    monkeypatch.setattr(dynbc.bc, "update_sssp", counting)
    grew = False
    for _ in range(5):
        searches = {id(rec.sssp) for rec in st.samples}
        tracker = set(map(id, st.bound.sources))
        r_old = st.r
        repaired.clear()
        events = random_valid_batch(
            rng, g, rng.choice((1, 3, 6)), weights=NEAR_TIE_WEIGHTS
        )
        update_bc(g, st, apply_batch(g, Batch(events)))
        # once per distinct sample search, leaving out the tracker's repairs
        assert sorted(i for i in repaired if i not in tracker) == sorted(searches)
        if st.r > r_old:
            grew = True
            new = st.samples[r_old:]
            assert not {id(rec.sssp) for rec in new} & searches
            assert len({id(rec.sssp) for rec in new}) == len({rec.s for rec in new})
        for rec in st.samples:
            fresh = compute_extended_sssp(g, rec.s)
            assert rec.sssp.source == rec.s
            assert rec.sssp.sigma == fresh.sigma
            assert all(map(dist_eq, rec.sssp.d, fresh.d))
    assert grew


def test_update_bc_dispatch_and_recount():
    rng = random.Random(55)
    for mode, weighted in (("ia", False), ("iaw", True), ("dad", False), ("da", False), ("daw", True)):
        g = random_graph(rng, 30, avg_deg=2.2, weighted=weighted)
        if g.m < 4:
            continue
        params = SamplingParams(0.25, 0.25, seed=rng.randrange(1000))
        st = init_bc(g, params, mode)
        for _ in range(3):
            allow_del = mode not in ("ia", "iaw")
            events = random_valid_batch(
                rng, g, 4, allow_delete=allow_del, allow_weight=False
            )
            if not allow_del:
                events = [ev for ev in events if ev.op == "insert"]
            eff = apply_batch(g, Batch(events))
            update_bc(g, st, eff)
            got = scores(st)
            rec = recount_scores(st)
            assert max(abs(a - b) for a, b in zip(got, rec)) <= 1e-12


def test_sampled_paths_stay_shortest_after_updates():
    rng = random.Random(66)
    for weighted in (False, True):
        mode = "daw" if weighted else "da"
        g = random_graph(rng, 25, avg_deg=2.5, weighted=weighted)
        if g.m < 5:
            continue
        params = SamplingParams(0.3, 0.3, seed=1)
        st = init_bc(g, params, mode)
        for _ in range(4):
            events = random_valid_batch(rng, g, 5, allow_weight=weighted)
            eff = apply_batch(g, Batch(events))
            update_bc(g, st, eff)
            for rec in st.samples:
                fresh = compute_extended_sssp(g, rec.s)
                if rec.path.empty:
                    assert fresh.d[rec.t] == INF
                    continue
                nodes = [rec.s] + rec.path.internal + [rec.t]
                total = 0.0
                for a, b in zip(nodes, nodes[1:]):
                    assert g.has_edge(a, b)
                    total += g.edge_weight(a, b)
                assert dist_eq(total, fresh.d[rec.t])
            for aux in st.bound.sources:
                assert st.bound.vis.vis[aux.source] == 1


def test_identical_inputs_give_identical_states():
    g = generate("dorogovtsev-mendes", n=80, seed=12)
    params = SamplingParams(0.2, 0.2, seed=99)
    a = approximate_bc(g, params)
    b = approximate_bc(g, params)
    assert scores(a) == scores(b) and a.r == b.r
    assert [(r.s, r.t, tuple(r.path.internal)) for r in a.samples] == [
        (r.s, r.t, tuple(r.path.internal)) for r in b.samples
    ]
    batch = [EdgeEvent(0, 40), EdgeEvent(10, 60)]
    outs = []
    for _ in range(2):
        gg = g.copy()
        st = init_bc(gg, params, "da")
        eff = apply_batch(gg, Batch(list(batch)))
        update_bc(gg, st, eff)
        outs.append(scores(st))
    assert outs[0] == outs[1]


def test_scores_stay_in_unit_interval():
    rng = random.Random(14)
    for _ in range(10):
        g = random_graph(rng, 40, avg_deg=2.5)
        if g.m < 3:
            continue
        st = init_bc(g, SamplingParams(0.3, 0.3, seed=rng.randrange(100)), "da")
        eff = apply_batch(g, Batch(random_valid_batch(rng, g, 4)))
        update_bc(g, st, eff)
        assert all(0.0 <= x <= 1.0 + 1e-12 for x in scores(st))


def test_statistical_guarantee_monte_carlo():
    # failure event {max abs error > epsilon} must stay within the allowance
    # delta = 0.1: P(Binomial(100, 0.1) > 19) < 2e-3, so 19 is the gate
    g = generate("dorogovtsev-mendes", n=500, seed=77)
    exact = brandes_exact(g)
    eps = 0.1
    failures = 0
    for run in range(100):
        params = SamplingParams(eps, 0.1, seed=run)
        approx = scores(approximate_bc(g, params))
        err = max(abs(a - b) for a, b in zip(exact, approx))
        if err > eps:
            failures += 1
    assert failures <= 19
