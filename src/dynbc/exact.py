"""Exact shortest-path machinery: single-source and bidirectional searches
with path counting, on-demand predecessor queries, and the test-scale
oracles: Brandes betweenness and the exact vertex diameter.

Everything here is a pure function over an immutable graph snapshot, so
running many sources concurrently is safe. Path counts are plain Python
integers (arbitrary precision), so they cannot overflow. The search result,
``ExtendedSSSP``, is also what each sample of a dynamic score state keeps;
``dynsssp`` repairs it in place after each batch. The oracles stay separate
from the searches they check; their weighted branches share one Dijkstra.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import InvalidParams, Unreachable
from .graph import INF, REL_TOL, dist_eq, dist_lt


@dataclass(slots=True)
class ExtendedSSSP:
    """Distances and shortest-path counts from one source.

    Invariants: d[source] = 0 and sigma[source] = 1; sigma[v] is the sum of
    sigma over the predecessors of v; sigma[v] = 0 exactly when v is
    unreachable (and not the source). ``weighted`` records which graph kind
    the search ran on; ``update_sssp`` checks it before a repair. From
    ``bidirectional_sssp`` both are sparse dicts; d reads INF for the rest.
    """

    source: int
    weighted: bool
    d: list
    sigma: list


def compute_extended_sssp(g, s, stop_at=None):
    """BFS (unweighted) or Dijkstra (weighted) from s with path counts.

    With ``stop_at`` the search halts once that node is settled; d and sigma
    are then final for every node no farther than stop_at, which is all that
    path sampling back from stop_at ever reads.
    """
    s = g._check_node(s)
    n = g.n
    d = [INF] * n
    sigma = [0] * n
    sigma[s] = 1
    adj = g._adj
    if not g.weighted:
        d[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            if u == stop_at:
                break
            du1 = d[u] + 1
            su = sigma[u]
            for v in adj[u]:
                dv = d[v]
                if dv == INF:
                    d[v] = du1
                    sigma[v] = su
                    dq.append(v)
                elif dv == du1:
                    sigma[v] += su
        return ExtendedSSSP(s, False, d, sigma)

    d[s] = 0.0
    settled = bytearray(n)
    heap = [(0.0, s)]
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        if u == stop_at:
            break
        su = sigma[u]
        for v, w in adj[u].items():
            if settled[v]:
                continue
            c = du + w
            dv = d[v]
            # dist_lt/dist_eq written out for non-negative distances
            if c < dv and (dv == INF or dv - c > REL_TOL * dv):
                d[v] = c
                sigma[v] = su
                heapq.heappush(heap, (c, v))
            elif c < dv or c - dv <= REL_TOL * c:
                sigma[v] += su
    return ExtendedSSSP(s, True, d, sigma)


class _Distances(dict):
    """A sparse distance map: a node it does not hold is at INF."""

    def __missing__(self, v):
        return INF


def bidirectional_sssp(g, s, t):
    """d and sigma from s on every shortest s-t path of an unweighted graph.
    Each step of this balanced bidirectional BFS expands one full layer of
    the side (forward from s with counts, backward from t over in-edges)
    whose frontier has the smaller degree sum, until a layer meets the other
    ball. Its meeting nodes are all the shortest-path nodes of their level,
    and the backward levels below them, walked down to t, hold the rest."""
    if g.weighted:
        raise InvalidParams("the bidirectional search is unweighted")
    s, t = g._check_node(s), g._check_node(t)
    adj, radj = g._adj, g._radj
    d, sigma, back = {s: 0}, {s: 1}, {t: 0}
    front, rfront = [s], [t]
    meet = [s] if s == t else []
    while front and rfront and not meet:
        nxt = []
        fwd = sum(len(adj[u]) for u in front) <= sum(len(radj[u]) for u in rfront)
        if fwd:
            for u in front:
                du1 = d[u] + 1
                su = sigma[u]
                for v in adj[u]:
                    if v not in d:
                        d[v] = du1
                        nxt.append(v)
                    if d[v] == du1:
                        sigma[v] = sigma.get(v, 0) + su
            front = nxt
        else:
            for u in rfront:
                bu1 = back[u] + 1
                for v in radj[u]:
                    if v not in back:
                        back[v] = bu1
                        nxt.append(v)
            rfront = nxt
        meet = [v for v in nxt if v in (back if fwd else d)]
    for j in reversed(range(back[meet[0]] if meet else 0)):
        level, meet = meet, []
        for u in level:
            du1 = d[u] + 1
            su = sigma[u]
            for v in adj[u]:
                if back.get(v) == j:  # one level nearer t: a shortest-path edge
                    if v not in d:
                        d[v] = du1
                        meet.append(v)
                    sigma[v] = sigma.get(v, 0) + su
    return ExtendedSSSP(s, False, _Distances(d), sigma)


def predecessors(g, state, v):
    """Nodes immediately preceding v on shortest paths from state.source.

    Recomputed from the adjacency on demand (never stored), sorted by node
    index for reproducible sampling. Raises Unreachable when v has no
    finite distance.
    """
    dv = state.d[v]
    if dv == INF:
        raise Unreachable(f"node {v} unreachable from {state.source}")
    if v == state.source:
        return []
    d = state.d
    incoming = g._radj[v]
    preds = []
    for u in sorted(incoming):
        du = d[u]
        if du != INF and dist_eq(du + incoming[u], dv):
            preds.append(u)
    return preds


def _weighted_dag(g, s):
    """Dijkstra from s that records the shortest-path DAG: returns the
    settling order, path counts and predecessor lists. A strictly shorter
    path (``dist_lt``) resets a node's list; a ``dist_eq`` tie extends it."""
    n = g.n
    adj = g._adj
    d = [INF] * n
    sigma = [0] * n
    preds = [[] for _ in range(n)]
    settled = bytearray(n)
    order = []
    d[s] = 0.0
    sigma[s] = 1
    heap = [(0.0, s)]
    while heap:
        du, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        order.append(u)
        su = sigma[u]
        for v, w in adj[u].items():
            if settled[v]:
                continue
            c = du + w
            if dist_lt(c, d[v]):
                d[v] = c
                sigma[v] = su
                preds[v] = [u]
                heapq.heappush(heap, (c, v))
            elif dist_eq(c, d[v]):
                sigma[v] += su
                preds[v].append(u)
    return order, sigma, preds


def _accumulate(bc, s, order, sigma, preds):
    """Brandes' backward pass: add each node's dependency on s to bc."""
    delta = [0.0] * len(bc)
    for u in reversed(order):
        coeff = (1.0 + delta[u]) / sigma[u]
        for p in preds[u]:
            delta[p] += sigma[p] * coeff
        if u != s:
            bc[u] += delta[u]


def brandes_exact(g):
    """Exact normalized betweenness, one augmented SSSP per source.

    Uses the ordered-pair normalization 1/(n(n-1)) for directed and
    undirected graphs alike, which keeps exact and sampled scores on one
    scale. Returns a per-node list of floats in [0, 1].
    """
    n = g.n
    if n < 2:
        raise InvalidParams("betweenness needs at least two nodes")
    bc = [0.0] * n
    if not g.weighted:
        adj = g._adj
        d = [-1] * n
        sigma = [0] * n
        preds = [[] for _ in range(n)]
        for s in range(n):
            order = []
            d[s] = 0
            sigma[s] = 1
            dq = deque([s])
            while dq:
                u = dq.popleft()
                order.append(u)
                du1 = d[u] + 1
                su = sigma[u]
                for v in adj[u]:
                    if d[v] < 0:
                        d[v] = du1
                        dq.append(v)
                    if d[v] == du1:
                        sigma[v] += su
                        preds[v].append(u)
            _accumulate(bc, s, order, sigma, preds)
            for u in order:
                d[u] = -1
                sigma[u] = 0
                preds[u].clear()
    else:
        for s in range(n):
            _accumulate(bc, s, *_weighted_dag(g, s))
    scale = 1.0 / (n * (n - 1))
    return [x * scale for x in bc]


def max_shortest_path_hops(g, s):
    """Most edges on any shortest path leaving s.

    Unweighted graphs: the eccentricity of s. Weighted graphs: among all
    minimum-weight paths from s, the hop count of the hop-richest one, read
    off the shortest-path DAG in settling order. 0 when nothing else is
    reachable.
    """
    s = g._check_node(s)
    if not g.weighted:
        adj = g._adj
        dist = [-1] * g.n
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
    order, _, preds = _weighted_dag(g, s)
    hops = [0] * g.n
    for v in order[1:]:
        hops[v] = 1 + max(hops[u] for u in preds[v])
    return max(hops)


def exact_vertex_diameter(g):
    """Number of nodes on the hop-richest shortest path, by exhaustion.

    Every ordered reachable pair is considered; among equal-weight shortest
    paths the one with the most nodes counts. An isolated node yields 1 by
    convention (an edgeless graph has no two-node shortest path). Intended
    for test-scale graphs only.
    """
    if g.n == 0:
        raise InvalidParams("empty graph")
    return 1 + max(max_shortest_path_hops(g, s) for s in range(g.n))
