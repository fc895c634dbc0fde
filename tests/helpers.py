"""Shared test utilities: independent brute-force oracles and randomized
instance builders. The oracles deliberately avoid the production search code
paths (path enumeration instead of Dijkstra/BFS machinery) so mismatches
point at real defects."""

import hashlib
import random

from dynbc import DynGraph, EdgeEvent, dist_eq

# chi-square critical values at significance 1e-3, by degrees of freedom
CHI2_CRIT_1E3 = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515}


def all_min_paths(g, s, t):
    """Every minimum-length s-t path, by exhaustive simple-path enumeration.

    Only usable at tiny scale. Unweighted edges count 1 each, so hop count
    and weight coincide.
    """
    adjw = [list(g.out_edges(v)) for v in range(g.n)]
    found = []
    stack = [(s, (s,), 0.0, 1 << s)]
    while stack:
        v, path, w, mask = stack.pop()
        if v == t:
            found.append((w, path))
            continue
        for u, wt in adjw[v]:
            if not mask & (1 << u):
                stack.append((u, path + (u,), w + wt, mask | (1 << u)))
    if not found:
        return []
    best = min(w for w, _ in found)
    return [list(p) for w, p in found if dist_eq(w, best)]


def naive_betweenness(g):
    """Path-enumeration betweenness oracle (ordered-pair normalization)."""
    n = g.n
    bc = [0.0] * n
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            paths = all_min_paths(g, s, t)
            if not paths:
                continue
            frac = 1.0 / len(paths)
            for p in paths:
                for v in p[1:-1]:
                    bc[v] += frac
    scale = 1.0 / (n * (n - 1))
    return [x * scale for x in bc]


def naive_vertex_diameter(g):
    """Max node count over all minimum-length paths, by enumeration."""
    best = 1
    for s in range(g.n):
        for t in range(g.n):
            if s == t:
                continue
            for p in all_min_paths(g, s, t):
                if len(p) > best:
                    best = len(p)
    return best


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def uf_components(g):
    """Union-find component count and representative labeling."""
    uf = UnionFind(g.n)
    for u, v, _ in g.edges():
        uf.union(u, v)
    reps = {}
    labels = []
    for v in range(g.n):
        r = uf.find(v)
        if r not in reps:
            reps[r] = len(reps)
        labels.append(reps[r])
    return labels, len(reps)


WEIGHT_CHOICES = (0.5, 1.0, 2.0, 3.0)


def random_graph(rng, n, avg_deg=2.5, directed=False, weighted=False):
    """Sparse uniform random graph; discrete weights keep float ties real."""
    g = DynGraph(n, directed=directed, weighted=weighted)
    if directed:
        pairs = ((u, v) for u in range(n) for v in range(n) if u != v)
        p = avg_deg / max(n - 1, 1)
    else:
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
        p = 2.0 * avg_deg / max(n - 1, 1)
    for u, v in pairs:
        if rng.random() < p:
            w = rng.choice(WEIGHT_CHOICES) if weighted else 1.0
            g.insert_edge(u, v, w)
    return g


def spread_weight(rng):
    """A weight drawn log-uniformly over three orders of magnitude."""
    return 10 ** rng.uniform(-1.5, 1.5)


def induced_subgraph(g, nodes):
    """The subgraph on nodes, relabelled 0..len(nodes)-1 in the given order."""
    remap = {v: i for i, v in enumerate(nodes)}
    sub = DynGraph(len(nodes), directed=g.directed, weighted=g.weighted)
    for u, v, w in g.edges():
        if u in remap and v in remap:
            sub.insert_edge(remap[u], remap[v], w)
    return sub


def random_valid_batch(rng, g, size, allow_delete=True, allow_weight=True):
    """A random event list that apply_batch will accept: every event is
    consistent with the per-pair state produced by the events before it."""
    events = []
    state = {}
    tries = 0
    while len(events) < size and tries < size * 20:
        tries += 1
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if u == v:
            continue
        k = (u, v) if g.directed else (min(u, v), max(u, v))
        present = state[k] if k in state else g.has_edge(*k)
        if present:
            if allow_weight and g.weighted and rng.random() < 0.5:
                events.append(
                    EdgeEvent(k[0], k[1], "set-weight", rng.choice(WEIGHT_CHOICES))
                )
                state[k] = True
            elif allow_delete:
                events.append(EdgeEvent(k[0], k[1], "delete"))
                state[k] = False
        else:
            w = rng.choice(WEIGHT_CHOICES) if g.weighted else 1.0
            events.append(EdgeEvent(k[0], k[1], "insert", w))
            state[k] = True
    return events


def state_digest(state):
    """sha256 over the repr of a dynamic score state: mode, r, bound, round
    and scores; each sample's pair, distances, path counts and path; and
    each diameter-tracker search's source, distances, path counts, reach
    and top-two distances. Equal digests mean bit-identical states."""
    data = [state.mode, state.r, state.vd_bound, state.round, state.scores]
    for rec in state.samples:
        p = rec.path
        data.append((rec.s, rec.t, rec.sssp.d, rec.sssp.sigma, p.internal, p.empty))
    for st in state.aux_sources:
        data.append(
            (st.source, st.d, st.sigma, st.reach, st.d1, st.n1, st.d2, st.n2)
        )
    return hashlib.sha256(repr(data).encode()).hexdigest()


def diamond():
    """4-node diamond: 0-1, 0-2, 1-3, 2-3 (two shortest 0-3 paths)."""
    g = DynGraph(4)
    for u, v in ((0, 1), (0, 2), (1, 3), (2, 3)):
        g.insert_edge(u, v)
    return g


def three_path_pair():
    """5 nodes, sigma(0,4) = 3: middle nodes 1, 2, 3."""
    g = DynGraph(5)
    for mid in (1, 2, 3):
        g.insert_edge(0, mid)
        g.insert_edge(mid, 4)
    return g
