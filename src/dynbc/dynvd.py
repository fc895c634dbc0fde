"""Fully-dynamic vertex-diameter upper bound for undirected graphs.

One tracked shortest-path state per connected component. Shared vis counters
detect merges (a source visited by another source's updated search becomes
redundant) and splits (nodes whose count drops to zero seed new sources), so
after every update round the tracker again holds exactly one source per
component and every node is counted once.

``cover`` and ``refresh_sources`` root, drop and re-root such searches for
``bc.VDTracker``, the bound object of the ``da`` / ``daw`` modes.
"""

from __future__ import annotations

from .dynsssp import DynSSSP, update_sssp


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
