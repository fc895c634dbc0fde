"""Fully-dynamic vertex-diameter upper bound for undirected graphs.

One tracked shortest-path state per connected component. Shared vis counters
detect merges (a source visited by another source's updated search becomes
redundant) and splits (nodes whose count drops to zero seed new sources), so
after every update round the tracker again holds exactly one source per
component and every node is counted once.

``cover`` and ``refresh_sources`` are the only code that roots, drops and
re-roots such searches. ``VDTracker`` here and the combined score modes
(``da`` / ``daw`` in ``bc``, which set their bound from it) use them.
"""

from __future__ import annotations

from .dynsssp import DynSSSP, VisCounters, local_vd_estimate, update_sssp
from .errors import InvalidParams


class VDTracker:
    __slots__ = ("sources", "vis", "bound")

    def __init__(self, sources, vis, bound):
        self.sources = sources
        self.vis = vis
        self.bound = bound


def cover(g, vis, candidates):
    """Root a tracked search at each candidate (in the given order) that no
    maintained search reaches yet, and return the new searches."""
    fresh = []
    for v in candidates:
        if vis.vis[v] == 0:
            fresh.append(DynSSSP.initial(g, v, vis))
    return fresh


def refresh_sources(g, sources, vis, events):
    """Bring tracked sources up to date with a batch already applied to g.

    A source whose own node was annexed by an earlier search's update
    (``vis[source] > 1``) is dropped; it first hands back every node its
    stale search still claims, so nodes left uncovered surface in U with
    count zero. The others are updated. Draining U (ascending node index)
    then roots fresh sources for split-off components. U is empty between
    rounds, since only updates fill it and this drains it. Returns the new
    source list.
    """
    kept = []
    for st in sources:
        if vis.vis[st.source] > 1:
            st.release(vis)
        else:
            update_sssp(g, st, events, vis)
            kept.append(st)
    kept += cover(g, vis, sorted(set(vis.U)))
    vis.U.clear()
    return kept


def init_vd_tracker(g):
    """Scan nodes in index order, rooting a tracked search at every node not
    yet covered; the bound is the max of the per-component estimates."""
    if g.directed:
        raise InvalidParams("the tracker handles undirected graphs")
    vis = VisCounters.zeros(g.n)
    sources = cover(g, vis, range(g.n))
    bound = max((local_vd_estimate(g, st) for st in sources), default=1.0)
    return VDTracker(sources, vis, bound)


def update_vd_tracker(g, tracker, events):
    """Refresh the tracker after a batch already applied to g (see
    refresh_sources). Returns the new bound."""
    tracker.sources = refresh_sources(g, tracker.sources, tracker.vis, events)
    tracker.bound = max(
        (local_vd_estimate(g, st) for st in tracker.sources), default=1.0
    )
    return tracker.bound
