"""Batch-dynamic single-source shortest paths with path counting.

Updates a stored distance/path-count state after a canonical batch of edge
events has already been applied to the graph, touching only the neighbourhood
of nodes whose values can actually change. The weighted routine settles
candidate distances through a priority queue; the unweighted one replaces the
queue with one plain list per distance level, walked level by level in
insertion order, and node colors. Both repair only d and sigma, all a score
sample's plain ``ExtendedSSSP`` holds, and record the pre-repair distance of
every node they touch. From that record a search of the diameter tracker
(``bc.VDTracker``), a ``DynSSSP``, updates its reach, the tracker's shared
reachability counters (``vis``) and its vertex-diameter ingredient: the two
largest distances seen from the source.

Rules the update loops rely on:

* A popped candidate (w, p) is settled when the cheapest current in-edge
  path ``con(w)`` equals p; ``con(w) < p`` means the stored state never
  described the pre-batch graph and raises InconsistentState.
* When ``con(w) > p`` the node lost its known shortest path: it goes
  unreachable (distance inf, count 0) and is re-queued at con(w) so a later
  settlement can restore it; nodes that routed through it are re-queued at
  their own distance.
* Equal-distance neighbours are re-queued only when the settled node's
  distance or count actually changed, which keeps the touched region
  proportional to the affected neighbourhood instead of flooding the whole
  downstream shortest-path DAG.

One state is updated by one execution context at a time.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .errors import InconsistentState, InvalidParams
from .exact import compute_extended_sssp
from .graph import DELETE, INF, INSERT, REL_TOL, SET_WEIGHT, dist_eq, dist_lt


@dataclass
class VisCounters:
    """Shared per-node count of maintained sources that reach the node.

    ``U`` collects nodes whose count dropped to zero during the current
    round. Entries are provisional (a later source update may re-cover the
    node), so consumers must re-check vis before acting on them.
    """

    vis: list[int]
    U: list[int] = field(default_factory=list)

    @classmethod
    def zeros(cls, n):
        return cls([0] * n)


@dataclass
class AffectedSet:
    """Nodes whose distance or path count changed, an edge-scan count kept
    for instrumentation, and the pre-repair distance of every node the
    repair touched, in settling order (a node that only lost its distance
    stays where it was first touched)."""

    nodes: set[int] = field(default_factory=set)
    touched_edges: int = 0
    old_d: dict[int, float] = field(default_factory=dict)


class DynSSSP:
    """The diameter tracker's search: an extended SSSP rooted at one source,
    counted in the tracker's shared ``VisCounters``.

    Besides d and sigma it carries reach (nodes at finite distance) and
    d1/d2 (largest and second-largest finite distance, over distinct
    nodes). d1/d2 are maintained as running maxima: they never miss an
    increase, and after decreases they may lag high, which keeps the
    derived diameter estimate a valid upper bound. Every repair must pass
    the same counters (``update_sssp(g, st, events, vis)``), and every
    change to a count is made here.
    """

    __slots__ = (
        "source",
        "weighted",
        "d",
        "sigma",
        "reach",
        "d1",
        "n1",
        "d2",
        "n2",
    )

    # Always False: the estimate rescans nothing. perfbench/tracing.py
    # still reads it to count omega rescans, which therefore stay 0.
    vd_dirty = False

    def __init__(self, source, weighted, d, sigma):
        self.source = source
        self.weighted = weighted
        self.d = d
        self.sigma = sigma
        self.reach = 0
        self.d1 = -1.0
        self.n1 = -1
        self.d2 = -1.0
        self.n2 = -1

    @classmethod
    def initial(cls, g, source, vis):
        """Fresh full search from source, counted in vis, as a repair that
        settled every node it reaches (in node order) from nothing."""
        base = compute_extended_sssp(g, source)
        st = cls(source, g.weighted, base.d, base.sigma)
        st.absorb({v: INF for v, dv in enumerate(base.d) if dv != INF}, vis)
        return st

    def absorb(self, old_d, vis):
        """Bring reach, vis and d1/d2 in line with a repair of d and sigma,
        given its ``AffectedSet.old_d``.

        A node that lost its distance is released (queued in ``vis.U`` once
        no search reaches it). One that gained a distance is claimed. Touched
        nodes' new finite distances are observed in settling order, which
        decides n1/n2 among ties.
        """
        d = self.d
        counters = vis.vis
        for v, od in old_d.items():
            dv = d[v]
            if dv != INF:
                if od == INF:
                    self.reach += 1
                    counters[v] += 1
                self._observe(v, dv)
            elif od != INF:
                self.reach -= 1
                counters[v] -= 1
                if counters[v] == 0:
                    vis.U.append(v)

    def release(self, vis):
        """Hand back every node this search reaches, before it is dropped:
        the bookkeeping of a repair that leaves it reaching nothing."""
        old_d = {v: dv for v, dv in enumerate(self.d) if dv != INF}
        self.d = [INF] * len(self.d)
        self.absorb(old_d, vis)

    def _observe(self, v, dv):
        if v == self.n1:
            if dv > self.d1:
                self.d1 = dv
        elif dv > self.d1:
            self.n2, self.d2 = self.n1, self.d1
            self.n1, self.d1 = v, dv
        elif v == self.n2:
            if dv > self.d2:
                self.d2 = dv
        elif dv > self.d2:
            self.n2, self.d2 = v, dv


def local_vd_estimate(g, state):
    """Upper bound on the vertex diameter of the source's component.

    Any shortest path x..y in the (undirected) component weighs at most
    d(s, x) + d(s, y) <= d1 + d2, and running maxima only make d1 + d2
    larger, so the bound is 1 + g.max_hops(d1 + d2): 1 + d1 + d2 when
    unweighted; weighted, a path with h edges weighs at least the sum of
    the h lightest edge weights in the graph. A component holding only the
    source scores 1.
    """
    if state.reach <= 1:
        return 1.0
    return 1.0 + g.max_hops(state.d1 + state.d2)


def update_sssp(g, state, events, vis=None):
    """Repair d and sigma with the weighted or unweighted update for g; any
    search with source, weighted, d and sigma will do. With ``vis`` the
    state is a tracker ``DynSSSP``, which then absorbs the repair."""
    if g.weighted != state.weighted:
        raise InconsistentState("state and graph disagree about weighting")
    aff = (update_sssp_w if g.weighted else update_sssp_u)(g, state, events)
    if vis is not None:
        state.absorb(aff.old_d, vis)
    return aff


def update_sssp_w(g, state, events):
    """Weighted batch repair of d and sigma (priority-queue scheme).

    The graph must already reflect the batch; ``events`` is the canonical
    effective list. Returns an AffectedSet: the nodes whose distance or
    count changed, and the pre-repair distance of every node touched; an
    empty one, built before anything else, when no event can move the
    state. Distances and counts afterwards equal a fresh Dijkstra with
    counting on the post-batch graph.
    """
    if not g.weighted or not state.weighted:
        raise InvalidParams("update_sssp_w needs a weighted graph and state")
    d = state.d
    sigma = state.sigma
    heap = []
    key = {}

    def push(v, p):
        cur = key.get(v)
        if cur is None or p < cur:
            key[v] = p
            heapq.heappush(heap, (p, v))

    # Seed the queue from the batch. Only the endpoint that is (or may
    # become) farther from the source can be affected; slack deletions and
    # slack weight increases are filtered out via the recorded old weight.
    for ev in events:
        op = ev.op
        a, b = ev.u, ev.v
        if not g.directed and d[a] > d[b]:
            a, b = b, a
        da, db = d[a], d[b]
        if op == DELETE:
            if da == INF or db == INF:
                continue
            if ev.old_weight is None or dist_eq(db, da + ev.old_weight):
                push(b, db)
        else:
            if da == INF:
                continue
            c = da + ev.weight
            if dist_lt(c, db):
                push(b, c)
            elif dist_eq(c, db):
                push(b, db)
            elif op == SET_WEIGHT and db != INF and (
                ev.old_weight is None or dist_eq(db, da + ev.old_weight)
            ):
                push(b, db)
    if not heap:
        return AffectedSet()

    out_adj = g._adj
    in_adj = g._radj
    old_d = {}
    old_sig = {}
    touched = 0
    # dist_eq/dist_lt written out: for 0 <= a <= b < INF, dist_eq(a, b) is
    # b - a <= REL_TOL * b, and dist_lt(a, b) is a < b and not dist_eq(a, b).
    while heap:
        p, w = heapq.heappop(heap)
        if key.get(w) != p:
            continue
        del key[w]
        con = INF
        touched += len(adj := in_adj[w])
        for z, wt in adj.items():
            dz = d[z]
            if dz != INF:
                c = dz + wt
                if c < con:
                    con = c
        if con != INF and (  # dist_eq(con, p); every queued p is finite
            p - con <= REL_TOL * p if con < p else con - p <= REL_TOL * con
        ):
            prev_d = d[w]
            prev_sig = sigma[w]
            old_d[w] = old_d.pop(w, prev_d)  # re-inserted: settling order
            old_sig.setdefault(w, prev_sig)
            nd = con
            s = 0
            touched += len(adj)
            for z, wt in adj.items():  # every dz + wt >= nd, their minimum
                dz = d[z]
                if dz != INF:
                    c = dz + wt
                    if c - nd <= REL_TOL * c:
                        s += sigma[z]
            d[w] = nd
            sigma[w] = s
            changed = prev_d != nd or prev_sig != s
            touched += len(adj := out_adj[w])
            for z, wt in adj.items():
                dz = d[z]
                c = nd + wt
                if c < dz and (dz == INF or dz - c > REL_TOL * dz):
                    push(z, c)
                elif changed and (c < dz or c - dz <= REL_TOL * c):
                    push(z, dz)
        elif con > p:
            if d[w] != INF:
                prev = d[w]
                old_d.setdefault(w, prev)
                old_sig.setdefault(w, sigma[w])
                d[w] = INF
                sigma[w] = 0
                if con != INF:
                    push(w, con)
                touched += len(adj := out_adj[w])
                for z, wt in adj.items():
                    dz = d[z]
                    c = prev + wt
                    if dz != INF and (
                        c - dz <= REL_TOL * c if dz < c else dz - c <= REL_TOL * dz
                    ):
                        push(z, dz)
            elif con != INF:
                # the candidate that queued us is gone but a costlier path
                # remains; try again at its price
                push(w, con)
        else:
            raise InconsistentState(
                f"candidate {p} below best incoming path {con} at node {w}"
            )

    affected = {
        v for v, od in old_d.items() if d[v] != od or sigma[v] != old_sig[v]
    }
    return AffectedSet(affected, touched, old_d)


def update_sssp_u(g, state, events):
    """Unweighted batch repair of d and sigma (per-level lists and colors).

    Same contract as update_sssp_w, early return included. Candidate
    levels replace priorities; a node is colored black once its final
    level is known and black nodes are skipped on later pops. Colors live
    only for the duration of the call, so every node is white again when
    it returns.
    """
    if g.weighted or state.weighted:
        raise InvalidParams("update_sssp_u needs an unweighted graph and state")
    d = state.d
    sigma = state.sigma
    buckets = {}
    for ev in events:
        op = ev.op
        if op == SET_WEIGHT:
            raise InvalidParams("set-weight events on an unweighted graph")
        a, b = ev.u, ev.v
        if not g.directed and d[a] > d[b]:
            a, b = b, a
        da, db = d[a], d[b]
        if op == INSERT:
            if da != INF and da + 1 <= db:
                buckets.setdefault(da + 1, []).append(b)
        else:  # DELETE: only edges on some shortest path matter
            if da != INF and db != INF and db == da + 1:
                buckets.setdefault(db, []).append(b)
    if not buckets:
        return AffectedSet()

    out_adj = g._adj
    in_adj = g._radj
    n = g.n
    color = bytearray(n)
    old_d = {}
    old_sig = {}
    touched = 0
    # A node processed at level k only queues nodes at levels above k: its
    # out-neighbours at k + 1, itself at con > k, and the nodes that routed
    # through it at d[w] + 1, where d[w] >= k for every uncolored node popped
    # at level k. So once level k's list is taken nothing joins it or any
    # lower level, and the walk steps k up by one until no list is left.
    k = min(buckets)
    while buckets:
        if k > n:
            raise InconsistentState("candidate level beyond any simple path")
        k1 = k + 1
        nxt = buckets.setdefault(k1, [])
        for w in buckets.pop(k, ()):
            if color[w]:
                continue
            # one pass: the lowest in-neighbour level and its sigma sum
            con = INF
            s = 0
            touched += len(adj := in_adj[w])
            for z in adj:
                dz = d[z]
                if dz < con:
                    con = dz
                    s = sigma[z]
                elif dz == con:
                    s += sigma[z]
            if con != INF:
                con += 1
            if con == k:
                prev_d = d[w]
                prev_sig = sigma[w]
                old_d[w] = old_d.pop(w, prev_d)  # re-inserted: settling order
                old_sig.setdefault(w, prev_sig)
                d[w] = k
                sigma[w] = s
                color[w] = 1
                changed = prev_d != k or prev_sig != s
                touched += len(adj := out_adj[w])
                for z in adj:
                    dz = d[z]
                    if dz == INF or dz > k1 or (dz == k1 and changed):
                        nxt.append(z)
            elif con > k:
                if d[w] != INF:
                    prev = d[w]
                    old_d.setdefault(w, prev)
                    old_sig.setdefault(w, sigma[w])
                    d[w] = INF
                    sigma[w] = 0
                    if con != INF:
                        buckets.setdefault(con, []).append(w)
                    prev1 = prev + 1
                    touched += len(adj := out_adj[w])
                    for z in adj:
                        if d[z] == prev1:
                            buckets.setdefault(prev1, []).append(z)
                elif con != INF:
                    buckets.setdefault(con, []).append(w)
            else:
                raise InconsistentState(
                    f"candidate level {k} below best incoming level {con} at {w}"
                )
        if not nxt:
            del buckets[k1]
        k = k1

    affected = {
        v for v, od in old_d.items() if d[v] != od or sigma[v] != old_sig[v]
    }
    return AffectedSet(affected, touched, old_d)
