"""End-of-run correctness checks, the exact-score oracle and state sizing.

Each check returns None when it passes and a one-line reason when it fails;
the runner counts a failure as one failed operation.
"""

from __future__ import annotations

import sys

from dynbc import INF, brandes_exact, compute_extended_sssp, dist_eq, recount_scores, scores

FRESH_SAMPLES = 8
SCORE_TOL = 1e-9


def path_is_shortest(g, d, path):
    """Whether a stored path is a shortest path under distances d on g:
    every edge present with d[b] == d[a] + w. An empty path is valid while
    its target stays unreachable."""
    if path.empty:
        return d[path.t] == INF
    nodes = [path.s, *path.internal, path.t]
    if d[path.s] != 0:
        return False
    for a, b in zip(nodes, nodes[1:]):
        if not g.has_edge(a, b) or d[a] == INF:
            return False
        if not dist_eq(d[b], d[a] + g.edge_weight(a, b)):
            return False
    return True


def check_paths(g, state):
    """Every stored path is a shortest path under its sample's search."""
    for i, rec in enumerate(state.samples):
        if (rec.path.s, rec.path.t) != (rec.s, rec.t):
            return f"sample {i}: path endpoints differ from the pair"
        if not path_is_shortest(g, rec.sssp.d, rec.path):
            return f"sample {i}: stored path is not a shortest path"
    return None


def check_fresh(g, state, k=FRESH_SAMPLES):
    """For k samples spread evenly over the index range, d and sigma equal
    a fresh search on the final graph."""
    r = len(state.samples)
    for i in sorted({j * r // k for j in range(k)}):
        st = state.samples[i].sssp
        fresh = compute_extended_sssp(g, st.source)
        if fresh.sigma != st.sigma:
            return f"sample {i}: sigma differs from a fresh search"
        if not all(map(dist_eq, fresh.d, st.d)):
            return f"sample {i}: d differs from a fresh search"
    return None


def check_scores(state):
    """The incrementally kept scores equal a recount from the samples."""
    diff = max(abs(a - b) for a, b in zip(scores(state), recount_scores(state)))
    if diff > SCORE_TOL:
        return f"scores drift from recount_scores by {diff:.3g}"
    return None


def max_abs_error(g, state):
    """Largest per-node gap between the state's scores and exact ones."""
    exact = exact_scores(g)
    return max(abs(a - b) for a, b in zip(scores(state), exact))


def exact_scores(g):
    """Exact normalized betweenness of g.

    Unweighted undirected graphs use a vectorized Brandes when numpy and
    scipy import; the self-test holds it equal to ``brandes_exact``, which
    every other graph uses. At n=10k it takes seconds, not minutes.
    """
    if not (g.weighted or g.directed):
        try:
            return _brandes_numpy(g)
        except ImportError:  # numpy or scipy is not installed
            pass
    return brandes_exact(g)


def _brandes_numpy(g, chunk=16):
    """Brandes for a chunk of sources at a time, one column per source.
    Each BFS level is one sparse product that yields the next level's path
    counts, and the dependencies flow back one level per product. Arrays
    are n x chunk, kept flat; each level is a list of flat indices."""
    import numpy as np
    from scipy.sparse import csr_matrix

    n = g.n
    src = np.array([u for u in range(n) for _ in g.neighbors(u)], dtype=np.int64)
    dst = np.array([v for u in range(n) for v in g.neighbors(u)], dtype=np.int64)
    adj = csr_matrix((np.ones(len(src)), (src, dst)), shape=(n, n))
    bc = np.zeros(n)
    for lo in range(0, n, chunk):
        k = min(n, lo + chunk) - lo
        cols = np.arange(k)
        roots = (lo + cols) * k + cols
        sigma = np.zeros(n * k)
        sigma[roots] = 1.0
        seen = np.zeros(n * k, dtype=bool)
        seen[roots] = True
        front = np.zeros(n * k)
        front[roots] = 1.0
        levels = [roots]
        while True:
            reach = (adj @ front.reshape(n, k)).reshape(-1)
            hit = np.flatnonzero(reach)
            new = hit[~seen[hit]]
            if not len(new):
                break
            front[levels[-1]] = 0.0
            seen[new] = True
            sigma[new] = front[new] = reach[new]
            levels.append(new)
        delta = np.zeros(n * k)
        coeff = np.zeros(n * k)
        for deep, shallow in zip(levels[:0:-1], levels[-2::-1]):
            coeff[deep] = (1.0 + delta[deep]) / sigma[deep]
            pull = (adj @ coeff.reshape(n, k)).reshape(-1)
            delta[shallow] = sigma[shallow] * pull[shallow]
            coeff[deep] = 0.0
        delta[roots] = 0.0
        bc += delta.reshape(n, k).sum(axis=1)
    scale = 1.0 / (n * (n - 1))
    return [float(x) * scale for x in bc]


# -- state size ---------------------------------------------------------------

_LEAF = (int, float, bool, type(None), str)
# objects the interpreter shares with everything else, which a state
# therefore does not hold: the small-int cache and the package's INF
_SHARED = frozenset([id(i) for i in range(-5, 257)] + [id(INF), id(None),
                                                       id(True), id(False)])


def state_bytes(state):
    """Bytes held by the objects reachable from state, each object counted
    once, with interpreter-wide singletons left out. Numbers inside one
    list are deduplicated by identity; the walk takes no allocation
    tracing and repeats exactly for an identical state."""
    getsizeof = sys.getsizeof
    seen = set(_SHARED)
    stack = [state]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += getsizeof(obj)
        if isinstance(obj, (list, tuple, set, frozenset)):
            if set(map(type, obj)) <= set(_LEAF):
                uniq = dict(zip(map(id, obj), obj))
                for key in uniq.keys() - seen:
                    total += getsizeof(uniq[key])
            else:
                stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif not isinstance(obj, _LEAF):
            if hasattr(obj, "__dict__"):
                # an instance dict's own size depends on the key table it
                # shares with other instances; a copy's size does not
                attrs = dict(vars(obj))
                total += getsizeof(attrs)
                stack.extend(attrs.values())
            for cls in type(obj).__mro__:
                for name in cls.__dict__.get("__slots__", ()):
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return total
