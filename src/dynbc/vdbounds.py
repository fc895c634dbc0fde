"""Upper bounds on the vertex diameter: ``vd_upper_bound`` for any graph,
and the same per-component rule read off a tracker search.

The vertex diameter (the node count of the hop-richest shortest path) feeds
the sample-size formula, so only an upper bound is needed and it must be
cheap: one or two searches per (strongly) connected component, each kept
inside it. Sources are always the lowest-index node of their component,
which keeps the values deterministic. Undirected bounds find those sources
with the searches themselves: scanning nodes in index order, each node that
no earlier search reached roots the next one.

Each search yields L, an upper bound on the weight of any shortest path in
its component: d(s, x) + d(s, y) <= d1 + d2, the two largest distances from
the source s (undirected), or d(x, s) + d(s, y) (strongly connected). The
bound is 1 + ``DynGraph.max_hops(L)``. Unweighted, such a path has at most
L edges. Weighted, a path with h edges weighs at least the sum of the h
lightest edge weights in the graph, so the vertex diameter is at most
1 + max{h : w(1) + ... + w(h) <= L}, with REL_TOL slack for rounding.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .graph import INF, dist_lt, strongly_connected_components


@dataclass
class VDBound:
    value: float
    kind: str


def _bfs_dists(adj, s, comp_of=None):
    """BFS distance map from s; with comp_of the search never leaves the
    component ``comp_of[s]``."""
    cid = comp_of[s] if comp_of is not None else None
    dist = {s: 0}
    dq = deque([s])
    while dq:
        u = dq.popleft()
        du1 = dist[u] + 1
        for v in adj[u]:
            if v not in dist and (comp_of is None or comp_of[v] == cid):
                dist[v] = du1
                dq.append(v)
    return dist


def _dijkstra_dists(adj, s, comp_of=None):
    cid = comp_of[s] if comp_of is not None else None
    dist = {s: 0.0}
    heap = [(0.0, s)]
    done = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u].items():
            if v in done or (comp_of is not None and comp_of[v] != cid):
                continue
            c = du + w
            if dist_lt(c, dist.get(v, INF)):
                dist[v] = c
                heapq.heappush(heap, (c, v))
    return dist


def _cc_local_bounds(g):
    """Per connected component: 1 + max_hops(d1 + d2), with d1 and d2 the
    two largest distances from the lowest-index member. Single-node
    components score 1. A node that no earlier search reached is the
    lowest-index member of a component not yet seen."""
    search = _dijkstra_dists if g.weighted else _bfs_dists
    seen = bytearray(g.n)
    bounds = []
    for s in range(g.n):
        if seen[s]:
            continue
        dists = search(g._adj, s)
        for v in dists:
            seen[v] = 1
        if len(dists) == 1:
            bounds.append(1.0)
            continue
        d1, d2 = heapq.nlargest(2, dists.values())
        bounds.append(1.0 + g.max_hops(d1 + d2))
    return bounds


def local_vd_estimate(g, state):
    """``_cc_local_bounds``'s 1 + max_hops(d1 + d2) for the component of a
    tracker search (``dynsssp.DynSSSP``). Its d1/d2 are running maxima,
    which only make d1 + d2 larger. A component holding only the source
    scores 1."""
    if state.reach <= 1:
        return 1.0
    return 1.0 + g.max_hops(state.d1 + state.d2)


def _scc_local_bounds(g, cond):
    """Per-SCC bound: forward and backward searches from the lowest-index
    member s, stopped at the SCC boundary, give 1 + max_hops of fwd max +
    bwd max. A shortest path between members stays inside the SCC.
    Single-node SCCs score 1."""
    search = _dijkstra_dists if g.weighted else _bfs_dists
    bounds = []
    for members in cond.members:
        if len(members) == 1:
            bounds.append(1.0)
            continue
        s = min(members)
        fwd = search(g._adj, s, cond.comp_of)
        bwd = search(g._radj, s, cond.comp_of)
        bounds.append(1.0 + g.max_hops(max(fwd.values()) + max(bwd.values())))
    return bounds


def _accumulate_over_dag(cond, local):
    """Longest local-bound sum over condensation paths.

    Component ids ascend in reverse topological order (Tarjan emission), so
    one ascending pass sees every out-neighbour before its parent.
    """
    acc = [0.0] * cond.n_comps
    for c in range(cond.n_comps):
        best_succ = 0.0
        for c2 in cond.dag[c]:
            if acc[c2] > best_succ:
                best_succ = acc[c2]
        acc[c] = local[c] + best_succ
    return max(acc) if acc else 1.0


def vd_upper_bound(g):
    """Static upper bound on g's vertex diameter. Undirected: the largest
    per-component bound. Directed: per-SCC bounds summed along the longest
    path of the condensation DAG, since a shortest path crosses each SCC
    at most once."""
    if g.directed:
        cond = strongly_connected_components(g)
        value = _accumulate_over_dag(cond, _scc_local_bounds(g, cond))
        return VDBound(value, "SCW" if g.weighted else "DIR")
    value = max(_cc_local_bounds(g), default=1.0)
    return VDBound(value, "W" if g.weighted else "UU")
