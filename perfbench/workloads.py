"""Seeded inputs for the benchmark workloads.

Every graph and event stream is built here, using only ``DynGraph``,
``insert_edge`` and ``EdgeEvent`` from the package (and ``delete_edge`` to
strip the edges a churn workload re-inserts). The Dorogovtsev-Mendes model
and the ``random`` / ``weights`` scenario rules are reproduced rather than
called through ``generate`` or ``build_scenario``, so a change to those
functions cannot change what the benchmark measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dynbc import DELETE, INSERT, SET_WEIGHT, DynGraph, EdgeEvent, SamplingParams

EPSILON = 0.1
DELTA = 0.1


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is in BENCHMARK.json and README.md."""

    name: str
    mode: str
    n: int
    weighted: bool
    rule: str  # "insert", "random" or "weights"
    batch_size: int
    batches: int
    # chunks per pass, each followed by one recompute: a recompute that
    # takes 0.7 s needs more draws than one of 1.2 s to meet a fast stretch
    chunks: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dm-insert-b1", "da", 10_000, False, "insert", 1, 400, 2),
        Workload("dm-churn-b16", "da", 10_000, False, "random", 16, 100, 2),
        Workload("dmw-weights-b1", "daw", 1_000, True, "weights", 1, 100, 8),
    )
}


@dataclass
class Inputs:
    """What one run replays: the initial graph, its batches and the
    sampling parameters. The graph is never mutated; runs copy it."""

    graph: DynGraph
    batches: list[list[EdgeEvent]]
    params: SamplingParams


def _rng(seed, *labels):
    # str seeds go through sha512, so the stream is the same on every run
    return random.Random(":".join(str(x) for x in (seed, *labels)))


def dorogovtsev_mendes(n, rng, weighted=False, wmin=0.5, wmax=2.0):
    """Start from a triangle; each new node joins both ends of an edge
    chosen uniformly from all edges so far. Weights, if any, are uniform in
    [wmin, wmax], drawn in edge order once the topology is fixed."""
    edge_list = [(0, 1), (0, 2), (1, 2)]
    for i in range(3, n):
        u, v = edge_list[rng.randrange(len(edge_list))]
        edge_list.append((i, u))
        edge_list.append((i, v))
    g = DynGraph(n, weighted=weighted)
    for u, v in edge_list:
        g.insert_edge(u, v, rng.uniform(wmin, wmax) if weighted else 1.0)
    return g


def _chunk(events, size):
    return [events[i : i + size] for i in range(0, len(events), size)]


def _insertions(g, count, rng):
    """``count`` insertions between distinct pairs not adjacent in g."""
    taken = set()
    events = []
    while len(events) < count:
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        k = (min(u, v), max(u, v))
        if k in taken or g.has_edge(*k):
            continue
        taken.add(k)
        events.append(EdgeEvent(k[0], k[1], INSERT))
    return events


def _churn(g, count, rng):
    """The ``random`` scenario's events: remove ``count`` random edges from
    g, then half the events re-insert a removed edge and half delete an edge
    still present, so that in any order each event is a re-insertion with
    probability 1/2. Each pair appears once, so no batch touches a pair
    twice. Mutates g into the initial graph."""
    removed = rng.sample([(u, v) for u, v, _ in g.edges()], count)
    for u, v in removed:
        g.delete_edge(u, v)
    kept = rng.sample([(u, v) for u, v, _ in g.edges()], count - count // 2)
    return [EdgeEvent(u, v, INSERT) for u, v in removed[: count // 2]] + [
        EdgeEvent(u, v, DELETE) for u, v in kept
    ]


def _reweighting(g, count, rng):
    """The ``weights`` scenario's events: ``count`` distinct edges, each
    multiplied once by a factor uniform in (0, 2)."""
    chosen = rng.sample(list(g.edges()), count)
    events = []
    for u, v, w in chosen:
        factor = rng.uniform(0.0, 2.0)
        while factor == 0.0:
            factor = rng.uniform(0.0, 2.0)
        events.append(EdgeEvent(u, v, SET_WEIGHT, w * factor))
    return events


_RULES = {"insert": _insertions, "random": _churn, "weights": _reweighting}


def build_inputs(workload, seed, n=None, batches=None):
    """The workload's inputs for ``seed``. ``batches`` overrides the batch
    count; ``n`` shrinks the graph for the self-test only.

    The graph and the set of edge changes do not depend on the seed; the
    seed draws the order of the changes and the sampling seed. Every seed
    thus starts and ends on the same graph, so set-up and recompute do the
    same work for each: the sample count steps with the diameter bound, and
    drawing graphs or changes per seed moved it by 16-50% between seeds
    (316 or 366 at n=10k; 566 to 866 after the weight changes, set by the
    smallest factor drawn).
    """
    n = workload.n if n is None else n
    batches = workload.batches if batches is None else batches
    count = batches * workload.batch_size
    g = dorogovtsev_mendes(n, _rng("graph", n, workload.weighted), workload.weighted)
    changes = _RULES[workload.rule](g, count, _rng("changes", workload.name, n, count))
    _rng(seed, workload.name, "order").shuffle(changes)
    if workload.rule == "weights":
        # The lightest edge sets the weighted diameter bound, and so r, for
        # every batch after it; leading with it keeps that r for the whole run
        # rather than for a seed-drawn share of it.
        lightest = min(range(count), key=lambda i: changes[i].weight)
        changes.insert(0, changes.pop(lightest))
    sampling_seed = _rng(seed, workload.name, "sampling").getrandbits(32)
    params = SamplingParams(EPSILON, DELTA, seed=sampling_seed)
    return Inputs(g, _chunk(changes, workload.batch_size), params)
