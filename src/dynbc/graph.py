"""Mutable simple graphs with batched edge updates.

Nodes are dense integers in [0, n) and the node set is fixed when a graph is
built. Edges carry positive finite weights (pinned to 1 on unweighted graphs).
Every change to the edges goes through one private writer,
``DynGraph._write``. A batch is any iterable of ``EdgeEvent``; ``apply_batch``
validates and canonicalizes it before it touches the adjacency structure, so
an update algorithm downstream sees at most one effective event per node
pair.

The module also houses the component labelers (weak components, which are
the connected components of an undirected graph, and SCCs), small
deterministic generators and the brute-force vertex-diameter computation
that the test suite uses as an oracle.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from collections import deque
from dataclasses import dataclass
from itertools import chain

from .errors import (
    DuplicateInsert,
    InvalidNode,
    InvalidParams,
    MissingEdge,
)

INF = float("inf")

INSERT = "insert"
DELETE = "delete"
SET_WEIGHT = "set-weight"
_OPS = (INSERT, DELETE, SET_WEIGHT)

#: Relative tolerance for comparing weighted path lengths. Path sums are
#: floating point; exact arithmetic would misclassify equal-length paths.
REL_TOL = 1e-9


def dist_eq(a, b):
    """Distance equality under the package-wide relative tolerance. Its
    per-edge tests are written out in ``dynsssp.update_sssp_w`` and in the
    Dijkstra of ``exact.compute_extended_sssp``; change them with it."""
    if a == b:
        return True
    if a == INF or b == INF:
        return False
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def dist_lt(a, b):
    """Strictly-less for distances (beyond tolerance); written out in the
    same two places as ``dist_eq``."""
    return a < b and not dist_eq(a, b)


@dataclass
class EdgeEvent:
    """One edge operation. Deletes carry no weight; the other ops require a
    positive finite one (defaulting to 1). ``old_weight`` is filled in by
    apply_batch on effective delete/set-weight events so that consumers can
    classify the change without re-reading the pre-batch graph."""

    u: int
    v: int
    op: str = INSERT
    weight: float | None = None
    timestamp: int | None = None
    old_weight: float | None = None

    def __post_init__(self):
        if self.op not in _OPS:
            raise InvalidParams(f"unknown edge op {self.op!r}")
        if self.u == self.v:
            raise InvalidParams(f"self-loop ({self.u}, {self.v}) rejected")
        if self.op == DELETE:
            if self.weight is not None:
                raise InvalidParams("delete events carry no weight")
        else:
            if self.weight is None:
                self.weight = 1.0
            if not (self.weight > 0 and math.isfinite(self.weight)):
                raise InvalidParams(f"{self.op} weight must be positive and finite")
        if self.timestamp is not None and self.timestamp < 0:
            raise InvalidParams("timestamp must be non-negative")


class DynGraph:
    """Adjacency-map graph over a fixed node set.

    Undirected graphs store each edge under both endpoints with one shared
    weight. Directed graphs keep forward and reverse maps, so in-edges are
    as cheap as out-edges. Any number of readers may share an instance;
    mutation requires exclusive access.

    ``_wsorted`` holds every edge weight (one per undirected edge) in
    ascending order. It is built by the first ``max_hops`` call and kept
    sorted by each mutation after that; ``copy`` leaves it unbuilt.
    """

    __slots__ = ("n", "directed", "weighted", "_adj", "_radj", "_m", "_wsorted")

    def __init__(self, n, directed=False, weighted=False):
        if n < 0:
            raise InvalidParams("node count must be non-negative")
        self.n = n
        self.directed = bool(directed)
        self.weighted = bool(weighted)
        self._adj = [dict() for _ in range(n)]
        # Aliasing the reverse map onto the forward one makes in_edges and
        # out_edges uniform for undirected graphs.
        self._radj = [dict() for _ in range(n)] if directed else self._adj
        self._m = 0
        self._wsorted = None

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self):
        return self._m

    def _check_node(self, v):
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise InvalidNode(f"node {v!r} outside [0, {self.n})")

    def has_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def edge_weight(self, u, v):
        self._check_node(u)
        self._check_node(v)
        try:
            return self._adj[u][v]
        except KeyError:
            raise MissingEdge(f"edge ({u}, {v}) not present") from None

    def out_edges(self, v):
        return self._adj[v].items()

    def in_edges(self, v):
        return self._radj[v].items()

    def neighbors(self, v):
        return self._adj[v].keys()

    def degree(self, v):
        return len(self._adj[v])

    def edges(self):
        """Iterate (u, v, w); undirected edges appear once with u < v."""
        if self.directed:
            for u in range(self.n):
                for v, w in self._adj[u].items():
                    yield u, v, w
        else:
            for u in range(self.n):
                for v, w in self._adj[u].items():
                    if u < v:
                        yield u, v, w

    def max_hops(self, length):
        """Most edges a simple path of weight at most ``length`` can have.

        Unweighted, that is ``length`` itself. Weighted, it is the largest h
        whose h lightest edge weights sum to no more than ``length`` (within
        REL_TOL): a path with h edges weighs at least that sum. Costs O(h)
        once the sorted weights exist."""
        if not self.weighted:
            return length
        ws = self._wsorted
        if ws is None:
            ws = self._wsorted = sorted(w for *_, w in self.edges())
        limit = length * (1 + REL_TOL)
        total = 0.0
        for h, w in enumerate(ws):
            total += w
            if total > limit:
                return h
        return len(ws)

    def copy(self):
        g = DynGraph(self.n, self.directed, self.weighted)
        g._adj = [dict(a) for a in self._adj]
        g._radj = [dict(a) for a in self._radj] if self.directed else g._adj
        g._m = self._m
        return g

    # -- single-edge mutation ----------------------------------------------

    def insert_edge(self, u, v, w=1.0):
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise InvalidParams("self-loops are rejected")
        if v in self._adj[u]:
            raise DuplicateInsert(f"edge ({u}, {v}) already present")
        if not (w > 0 and math.isfinite(w)):
            raise InvalidParams("edge weight must be positive and finite")
        if not self.weighted and w != 1.0:
            raise InvalidParams("unweighted graphs carry unit weights")
        self._write(u, v, w)

    def delete_edge(self, u, v):
        self._check_node(u)
        self._check_node(v)
        if v not in self._adj[u]:
            raise MissingEdge(f"edge ({u}, {v}) not present")
        self._write(u, v, None)

    def set_weight(self, u, v, w):
        if not self.weighted:
            raise InvalidParams("set-weight needs a weighted graph")
        self._check_node(u)
        self._check_node(v)
        if v not in self._adj[u]:
            raise MissingEdge(f"edge ({u}, {v}) not present")
        if not (w > 0 and math.isfinite(w)):
            raise InvalidParams("edge weight must be positive and finite")
        self._write(u, v, w)

    def _write(self, u, v, w):
        """Give edge (u, v) weight w, or remove it when w is None, with no
        checks. The only writer of the maps, ``_m`` and ``_wsorted``. On an
        undirected graph ``_radj`` is ``_adj``, so the one assignment covers
        both directions. An existing edge is assigned in place: weighted
        searches keep the first of two near-equal sums, so moving an edge
        within its dict would change their results."""
        out, rev = self._adj[u], self._radj[v]
        old = out.get(v)
        if w is None:
            del out[v], rev[u]
        else:
            out[v] = rev[u] = w
        self._m += (w is not None) - (old is not None)
        ws = self._wsorted
        if ws is not None:
            if old is not None:
                del ws[bisect.bisect_left(ws, old)]
            if w is not None:
                bisect.insort(ws, w)


def apply_batch(g, batch):
    """Apply a batch, any iterable of EdgeEvent, and return the canonical
    list of effective events.

    Events are validated in order against the running per-pair state, so
    insert(a,b) followed by delete(a,b) is legal (and cancels), while two
    inserts on one pair are not. Validation happens before any mutation, so
    a rejected batch leaves the graph untouched. The returned list holds at
    most one event per node pair: the net change between the pre- and
    post-batch graphs, in first-touched order. Effective delete/set-weight
    events record the pre-batch weight in ``old_weight``.
    """
    pair_state = {}
    initial = {}  # pre-batch weight of each touched pair, first-touched order
    for ev in batch:
        g._check_node(ev.u)
        g._check_node(ev.v)
        k = (ev.u, ev.v) if g.directed or ev.u < ev.v else (ev.v, ev.u)
        if k not in pair_state:
            pair_state[k] = initial[k] = g._adj[k[0]].get(k[1])
        cur = pair_state[k]
        if ev.op == INSERT:
            if cur is not None:
                raise DuplicateInsert(f"insert on existing edge {k}")
            if not g.weighted and ev.weight != 1.0:
                raise InvalidParams("unweighted graphs carry unit weights")
            pair_state[k] = ev.weight
        elif ev.op == DELETE:
            if cur is None:
                raise MissingEdge(f"delete on absent edge {k}")
            pair_state[k] = None
        else:  # SET_WEIGHT
            if cur is None:
                raise MissingEdge(f"set-weight on absent edge {k}")
            if not g.weighted:
                raise InvalidParams("set-weight needs a weighted graph")
            pair_state[k] = ev.weight

    effective = []
    for (u, v), before in initial.items():
        after = pair_state[u, v]
        if before == after:
            continue
        if before is None:
            g.insert_edge(u, v, after)
            effective.append(EdgeEvent(u, v, INSERT, after))
        elif after is None:
            g.delete_edge(u, v)
            effective.append(EdgeEvent(u, v, DELETE, old_weight=before))
        else:
            g.set_weight(u, v, after)
            effective.append(EdgeEvent(u, v, SET_WEIGHT, after, old_weight=before))
    return effective


# -- components ------------------------------------------------------------


def weakly_connected_components(g):
    """Label components with edge direction ignored; on an undirected graph
    these are its connected components.

    Returns (labels, count) with labels assigned in order of the lowest
    node index contained in each component.
    """
    adj, radj, directed = g._adj, g._radj, g.directed
    labels = [-1] * g.n
    count = 0
    for start in range(g.n):
        if labels[start] != -1:
            continue
        labels[start] = count
        dq = deque([start])
        while dq:
            u = dq.popleft()
            for v in chain(adj[u], radj[u]) if directed else adj[u]:
                if labels[v] == -1:
                    labels[v] = count
                    dq.append(v)
        count += 1
    return labels, count


@dataclass
class Condensation:
    """SCC labeling plus the acyclic component graph.

    Tarjan emits components in reverse topological order, so iterating
    component ids ascending visits every component after all components it
    can reach (the tests assert this property).
    """

    comp_of: list[int]
    n_comps: int
    dag: list[set[int]]
    members: list[list[int]]


def strongly_connected_components(g):
    """Iterative Tarjan SCCs with the condensation DAG, in linear time."""
    if not g.directed:
        raise InvalidParams("SCCs are defined for directed graphs")
    n = g.n
    adj = g._adj
    idx = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack = []
    comp_of = [-1] * n
    members = []
    counter = 0
    for root in range(n):
        if idx[root] != -1:
            continue
        idx[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if idx[w] == -1:
                    idx[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w] and idx[w] < low[v]:
                    low[v] = idx[w]
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                if low[v] < low[pv]:
                    low[pv] = low[v]
            if low[v] == idx[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = 0
                    comp_of[w] = len(members)
                    comp.append(w)
                    if w == v:
                        break
                members.append(comp)
    k = len(members)
    dag = [set() for _ in range(k)]
    for u in range(n):
        cu = comp_of[u]
        for v in adj[u]:
            cv = comp_of[v]
            if cu != cv:
                dag[cu].add(cv)
    return Condensation(comp_of, k, dag, members)


# -- exact vertex diameter (test-scale oracle) -------------------------------


def max_shortest_path_hops(g, s):
    """Most edges on any shortest path leaving s.

    Unweighted graphs: the eccentricity of s. Weighted graphs: among all
    minimum-weight paths from s, the hop count of the hop-richest one
    (full Dijkstra plus a pass over the shortest-path DAG). 0 when nothing
    else is reachable.
    """
    n = g.n
    adj = g._adj
    if not g.weighted:
        dist = [-1] * n
        dist[s] = 0
        dq = deque([s])
        ecc = 0
        while dq:
            u = dq.popleft()
            du = dist[u]
            if du > ecc:
                ecc = du
            for v in adj[u]:
                if dist[v] == -1:
                    dist[v] = du + 1
                    dq.append(v)
        return ecc
    dist = [INF] * n
    dist[s] = 0.0
    settled = bytearray(n)
    heap = [(0.0, s)]
    order = []
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        order.append(u)
        for v, w in adj[u].items():
            if settled[v]:
                continue
            c = du + w
            if dist_lt(c, dist[v]):
                dist[v] = c
                heapq.heappush(heap, (c, v))
    radj = g._radj
    hops = [-1] * n
    hops[s] = 0
    best = 0
    for v in order:
        if v == s:
            continue
        dv = dist[v]
        h = -1
        for u, w in radj[v].items():
            if hops[u] >= 0 and dist_eq(dist[u] + w, dv):
                if hops[u] > h:
                    h = hops[u]
        hops[v] = h + 1
        if hops[v] > best:
            best = hops[v]
    return best


def exact_vertex_diameter(g):
    """Number of nodes on the hop-richest shortest path, by exhaustion.

    Every ordered reachable pair is considered; among equal-weight shortest
    paths the one with the most nodes counts. An isolated node yields 1 by
    convention (an edgeless graph has no two-node shortest path). Intended
    for test-scale graphs only.
    """
    if g.n == 0:
        raise InvalidParams("empty graph")
    best = 0
    for s in range(g.n):
        h = max_shortest_path_hops(g, s)
        if h > best:
            best = h
    return best + 1


# -- generators --------------------------------------------------------------


def generate(model, seed=0, **params):
    """Deterministic small-graph generators.

    Models: path(n), cycle(n), star(n), dorogovtsev-mendes(n), and
    erdos-renyi(n, p, directed=False). All models accept weighted=True with
    uniform weights drawn from [wmin, wmax] using the same seed.
    """
    weighted = bool(params.pop("weighted", False))
    wmin = params.pop("wmin", 0.5)
    wmax = params.pop("wmax", 2.0)
    rng = random.Random(seed)

    if model == "path":
        n = _need_n(params, 1)
        g = DynGraph(n, weighted=weighted)
        for i in range(n - 1):
            g.insert_edge(i, i + 1)
    elif model == "cycle":
        n = _need_n(params, 3)
        g = DynGraph(n, weighted=weighted)
        for i in range(n - 1):
            g.insert_edge(i, i + 1)
        g.insert_edge(n - 1, 0)
    elif model == "star":
        n = _need_n(params, 2)
        g = DynGraph(n, weighted=weighted)
        for i in range(1, n):
            g.insert_edge(0, i)
    elif model == "dorogovtsev-mendes":
        n = _need_n(params, 3)
        g = DynGraph(n, weighted=weighted)
        edge_list = [(0, 1), (0, 2), (1, 2)]
        for u, v in edge_list:
            g.insert_edge(u, v)
        for i in range(3, n):
            u, v = edge_list[rng.randrange(len(edge_list))]
            g.insert_edge(i, u)
            g.insert_edge(i, v)
            edge_list.append((i, u))
            edge_list.append((i, v))
    elif model == "erdos-renyi":
        n = _need_n(params, 1)
        p = params.pop("p", None)
        directed = bool(params.pop("directed", False))
        if p is None or not 0.0 <= p <= 1.0:
            raise InvalidParams("erdos-renyi needs p in [0, 1]")
        g = DynGraph(n, directed=directed, weighted=weighted)
        if directed:
            for u in range(n):
                for v in range(n):
                    if u != v and rng.random() < p:
                        g.insert_edge(u, v)
        else:
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < p:
                        g.insert_edge(u, v)
    else:
        raise InvalidParams(f"unknown model {model!r}")

    if params:
        raise InvalidParams(f"unused params for {model!r}: {sorted(params)}")
    if weighted:
        if not wmin > 0 or wmax < wmin:
            raise InvalidParams("need 0 < wmin <= wmax")
        for u, v, _ in list(g.edges()):
            g.set_weight(u, v, rng.uniform(wmin, wmax))
    return g


def _need_n(params, minimum):
    n = params.pop("n", None)
    if n is None or n < minimum:
        raise InvalidParams(f"model needs n >= {minimum}")
    return n
