"""Static upper bounds on the vertex diameter, one per graph class.

The vertex diameter (the node count of the hop-richest shortest path) feeds
the sample-size formula, so only an upper bound is needed and it must be
cheap: each bound here costs one or two truncated searches per component.
Sources are always the lowest-index node of their component, which keeps the
values deterministic. Weighted bounds may be fractional; consumers round up
before use.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import InvalidParams, NotStronglyConnected
from .graph import INF, dist_lt, connected_components, strongly_connected_components


@dataclass
class VDBound:
    value: float
    kind: str


def _check(g, directed, weighted, name):
    if g.directed != directed or g.weighted != weighted:
        want = f"{'directed' if directed else 'undirected'} {'weighted' if weighted else 'unweighted'}"
        raise InvalidParams(f"{name} needs a {want} graph")


def _bfs_dists(adj, s, allowed=None, comp_of=None):
    """BFS distance map from s; with allowed/comp_of the search never leaves
    the component labelled ``allowed``."""
    dist = {s: 0}
    dq = deque([s])
    while dq:
        u = dq.popleft()
        du1 = dist[u] + 1
        for v in adj[u]:
            if v not in dist and (allowed is None or comp_of[v] == allowed):
                dist[v] = du1
                dq.append(v)
    return dist


def _dijkstra_dists(adj, s, allowed=None, comp_of=None):
    dist = {s: 0.0}
    heap = [(0.0, s)]
    done = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u].items():
            if v in done or (allowed is not None and comp_of[v] != allowed):
                continue
            c = du + w
            if dist_lt(c, dist.get(v, INF)):
                dist[v] = c
                heapq.heappush(heap, (c, v))
    return dist


def _top_two(dists):
    """Largest and second-largest distance over distinct nodes (the source
    itself, at distance 0, may supply the second value)."""
    d1 = d2 = -1.0
    for dv in dists.values():
        if dv > d1:
            d1, d2 = dv, d1
        elif dv > d2:
            d2 = dv
    return d1, d2


def _cc_local_bounds(g, weighted):
    """Per connected component: 1 + (two largest distances from the
    lowest-index member) / omega, where omega is the component's minimum
    edge weight, or 1 when unweighted. Single-node components score 1."""
    labels, count = connected_components(g)
    first = [-1] * count
    for v in range(g.n):
        if first[labels[v]] == -1:
            first[labels[v]] = v
    search = _dijkstra_dists if weighted else _bfs_dists
    bounds = []
    for s in first:
        dists = search(g._adj, s)
        if len(dists) == 1:
            bounds.append(1.0)
            continue
        omega = 1
        if weighted:
            omega = INF
            for u in dists:
                for v, w in g._adj[u].items():
                    if w < omega:
                        omega = w
        d1, d2 = _top_two(dists)
        bounds.append(1.0 + (d1 + d2) / omega)
    return bounds


def vd_ub_unweighted_undirected(g):
    """Per component: 1 + the two largest BFS distances from one source."""
    _check(g, False, False, "vd_ub_unweighted_undirected")
    return VDBound(max(_cc_local_bounds(g, False), default=1.0), "UU")


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


def _scc_local_bounds(g, cond, weighted):
    """Per-SCC bound: forward and backward searches from the lowest-index
    member, truncated at the SCC boundary. Single-node SCCs score 1."""
    search = _dijkstra_dists if weighted else _bfs_dists
    bounds = []
    for cid, members in enumerate(cond.members):
        if len(members) == 1:
            bounds.append(1.0)
            continue
        s = min(members)
        fwd = search(g._adj, s, cid, cond.comp_of)
        bwd = search(g._radj, s, cid, cond.comp_of)
        reach = max(fwd.values()) + max(bwd.values())
        if weighted:
            omega = INF
            for u in members:
                for v, w in g._adj[u].items():
                    if cond.comp_of[v] == cid and w < omega:
                        omega = w
            bounds.append(1.0 + reach / omega)
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
    local = _scc_local_bounds(g, cond, weighted=False)
    return VDBound(_accumulate_over_dag(cond, local), "DIR")


def vd_ub_weighted_undirected(g):
    """Per component: 1 + (two largest distances)/(minimum edge weight)."""
    _check(g, False, True, "vd_ub_weighted_undirected")
    return VDBound(max(_cc_local_bounds(g, True), default=1.0), "W")


def vd_ub_directed_weighted(g):
    """Weighted per-SCC bounds accumulated along the condensation DAG."""
    _check(g, True, True, "vd_ub_directed_weighted")
    cond = strongly_connected_components(g)
    local = _scc_local_bounds(g, cond, weighted=True)
    return VDBound(_accumulate_over_dag(cond, local), "SCW")


def vd_upper_bound(g):
    """The class-appropriate bound for g."""
    if g.directed:
        return vd_ub_directed_weighted(g) if g.weighted else vd_ub_directed(g)
    return vd_ub_weighted_undirected(g) if g.weighted else vd_ub_unweighted_undirected(g)
