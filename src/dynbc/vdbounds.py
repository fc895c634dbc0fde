"""Static upper bounds on the vertex diameter, one per graph class.

The vertex diameter (the node count of the hop-richest shortest path) feeds
the sample-size formula, so only an upper bound is needed and it must be
cheap: each bound here costs one or two searches per component, each kept
inside it. Sources are always the lowest-index node of their component,
which keeps the values deterministic. Undirected bounds find those sources
with the searches themselves: scanning nodes in index order, each node that
no earlier search reached roots the next one. Weighted bounds may be
fractional; consumers round up before use.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import InvalidParams, NotStronglyConnected
from .graph import INF, dist_lt, strongly_connected_components


@dataclass
class VDBound:
    value: float
    kind: str


def _check(g, directed, weighted, name):
    if g.directed != directed or g.weighted != weighted:
        want = f"{'directed' if directed else 'undirected'} {'weighted' if weighted else 'unweighted'}"
        raise InvalidParams(f"{name} needs a {want} graph")


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


def _min_weight(g, nodes, comp_of=None):
    """Smallest weight on an edge out of nodes; with comp_of only edges
    that stay inside their tail's component count."""
    omega = INF
    for u in nodes:
        for v, w in g._adj[u].items():
            if w < omega and (comp_of is None or comp_of[v] == comp_of[u]):
                omega = w
    return omega


def _cc_local_bounds(g):
    """Per connected component: 1 + (two largest distances from the
    lowest-index member) / omega, where omega is the component's minimum
    edge weight, or 1 when unweighted. Single-node components score 1.
    A node that no earlier search reached is the lowest-index member of a
    component not yet seen."""
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
        omega = _min_weight(g, dists) if g.weighted else 1
        d1, d2 = heapq.nlargest(2, dists.values())
        bounds.append(1.0 + (d1 + d2) / omega)
    return bounds


def vd_ub_unweighted_undirected(g):
    """Per component: 1 + the two largest BFS distances from one source."""
    _check(g, False, False, "vd_ub_unweighted_undirected")
    return VDBound(max(_cc_local_bounds(g), default=1.0), "UU")


def vd_ub_strongly_connected(g, s):
    """Max forward distance from s plus max backward distance to s, plus 1.

    Never below the vertex diameter and always below twice it.
    """
    _check(g, True, False, "vd_ub_strongly_connected")
    g._check_node(s)
    fwd = _bfs_dists(g._adj, s)
    bwd = _bfs_dists(g._radj, s)
    if len(fwd) != g.n or len(bwd) != g.n:
        raise NotStronglyConnected("graph is not strongly connected")
    return VDBound(1.0 + max(fwd.values()) + max(bwd.values()), "SC")


def _scc_local_bounds(g, cond):
    """Per-SCC bound: forward and backward searches from the lowest-index
    member, stopped at the SCC boundary. Single-node SCCs score 1."""
    search = _dijkstra_dists if g.weighted else _bfs_dists
    bounds = []
    for members in cond.members:
        if len(members) == 1:
            bounds.append(1.0)
            continue
        s = min(members)
        fwd = search(g._adj, s, cond.comp_of)
        bwd = search(g._radj, s, cond.comp_of)
        reach = max(fwd.values()) + max(bwd.values())
        if g.weighted:
            bounds.append(1.0 + reach / _min_weight(g, members, cond.comp_of))
        else:
            bounds.append(1.0 + reach)
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


def vd_ub_directed(g):
    """Per-SCC bounds accumulated along the condensation DAG."""
    _check(g, True, False, "vd_ub_directed")
    cond = strongly_connected_components(g)
    local = _scc_local_bounds(g, cond)
    return VDBound(_accumulate_over_dag(cond, local), "DIR")


def vd_ub_weighted_undirected(g):
    """Per component: 1 + (two largest distances)/(minimum edge weight)."""
    _check(g, False, True, "vd_ub_weighted_undirected")
    return VDBound(max(_cc_local_bounds(g), default=1.0), "W")


def vd_ub_directed_weighted(g):
    """Weighted per-SCC bounds accumulated along the condensation DAG."""
    _check(g, True, True, "vd_ub_directed_weighted")
    cond = strongly_connected_components(g)
    local = _scc_local_bounds(g, cond)
    return VDBound(_accumulate_over_dag(cond, local), "SCW")


def vd_upper_bound(g):
    """The class-appropriate bound for g."""
    if g.directed:
        return vd_ub_directed_weighted(g) if g.weighted else vd_ub_directed(g)
    return vd_ub_weighted_undirected(g) if g.weighted else vd_ub_unweighted_undirected(g)
