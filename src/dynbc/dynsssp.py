"""Batch-dynamic single-source shortest paths with path counting.

Updates a stored distance/path-count state after a canonical batch of edge
events has already been applied to the graph, touching only the neighbourhood
of nodes whose values can actually change. The weighted routine settles
candidate distances through a priority queue; the unweighted one replaces the
queue with one plain list per distance level, walked level by level in
insertion order, and node colors. Both repair only d and sigma, all a score
sample's plain ``ExtendedSSSP`` holds, and record the pre-repair distance of
every node they touch. From that record the diameter tracker's ``DynSSSP``
updates its reach, the tracker's shared reachability counters (``vis``) and
its vertex-diameter ingredients: the two largest distances seen from the
source and the smallest edge weight in the source's component.

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
from .graph import DELETE, INF, INSERT, SET_WEIGHT, dist_eq, dist_lt


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

    Besides d and sigma it carries reach (nodes at finite distance), d1/d2
    (largest and second-largest finite distance, over distinct nodes) and
    the minimum edge weight of the source's component. d1/d2 are maintained
    as running maxima: they never miss an increase, and after decreases
    they may lag high, which keeps the derived diameter estimate a valid
    upper bound. The minimum weight is re-scanned lazily (see
    local_vd_estimate) after any event that could have lowered or removed
    it. Every repair must pass the same counters (``update_sssp(g, st,
    events, vis)``), and every change to a count is made here.
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
        "omega_min",
        "vd_dirty",
    )

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
        self.omega_min = INF
        self.vd_dirty = False

    @classmethod
    def initial(cls, g, source, vis):
        """Fresh full search from source, counted in vis, as a repair that
        settled every node it reaches (in node order) from nothing."""
        base = compute_extended_sssp(g, source)
        st = cls(source, g.weighted, base.d, base.sigma)
        st.absorb({v: INF for v, dv in enumerate(base.d) if dv != INF}, (), vis)
        if g.weighted:
            st._rescan_omega(g)
        return st

    def absorb(self, old_d, events, vis):
        """Bring reach, vis, d1/d2 and omega in line with a repair of d and
        sigma by ``events``, given its ``AffectedSet.old_d``.

        A node that lost its distance is released (queued in ``vis.U`` once
        no search reaches it). One that gained a distance is claimed, which
        on a weighted graph flags the omega scan dirty: the annexed region
        brings edges it has never seen. Touched nodes' new finite distances
        are observed in settling order, which decides n1/n2 among ties. An
        event with an endpoint reachable before the repair (on the tracker's
        undirected graphs, both were) may lower or have held omega_min.
        """
        d = self.d
        counters = vis.vis
        for v, od in old_d.items():
            dv = d[v]
            if dv != INF:
                if od == INF:
                    self.reach += 1
                    counters[v] += 1
                    if self.weighted:
                        self.vd_dirty = True
                self._observe(v, dv)
            elif od != INF:
                self.reach -= 1
                counters[v] -= 1
                if counters[v] == 0:
                    vis.U.append(v)
        if not self.weighted:
            return
        for ev in events:
            if min(old_d.get(ev.u, d[ev.u]), old_d.get(ev.v, d[ev.v])) == INF:
                continue
            if ev.op != DELETE and ev.weight < self.omega_min:
                self.omega_min = ev.weight
            if ev.op != INSERT:
                self.vd_dirty = True

    def release(self, vis):
        """Hand back every node this search reaches, before it is dropped:
        the bookkeeping of a repair that leaves it reaching nothing."""
        old_d = {v: dv for v, dv in enumerate(self.d) if dv != INF}
        self.d = [INF] * len(self.d)
        self.absorb(old_d, (), vis)

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

    def _rescan_omega(self, g):
        omega = INF
        d = self.d
        for u in range(g.n):
            if d[u] == INF:
                continue
            for v, w in g._adj[u].items():
                if d[v] != INF and w < omega:
                    omega = w
        self.omega_min = omega
        self.vd_dirty = False


def local_vd_estimate(g, state):
    """Upper bound on the vertex diameter of the source's component.

    1 + (d1 + d2) / omega_min, with omega_min fixed at 1 for unweighted
    graphs. A component holding only the source scores 1. When the state is
    flagged dirty (weight deletions/increases, or a merge that annexed
    previously unscanned edges) the minimum weight is recomputed here first,
    which restores both soundness and tightness of the divisor.
    """
    if state.reach <= 1:
        return 1.0
    if state.weighted:
        if state.vd_dirty:
            state._rescan_omega(g)
        return 1.0 + (state.d1 + state.d2) / state.omega_min
    return 1.0 + state.d1 + state.d2


def update_sssp(g, state, events, vis=None):
    """Repair d and sigma with the weighted or unweighted update for g; any
    search with source, weighted, d and sigma will do. With ``vis`` the
    state is a tracker ``DynSSSP``, which then absorbs the repair."""
    if g.weighted != state.weighted:
        raise InconsistentState("state and graph disagree about weighting")
    aff = (update_sssp_w if g.weighted else update_sssp_u)(g, state, events)
    if vis is not None:
        state.absorb(aff.old_d, events, vis)
    return aff


def update_sssp_w(g, state, events):
    """Weighted batch repair of d and sigma (priority-queue scheme).

    The graph must already reflect the batch; ``events`` is the canonical
    effective list. Returns an AffectedSet: the nodes whose distance or
    count changed, and the pre-repair distance of every node touched.
    Distances and counts afterwards equal a fresh Dijkstra with counting on
    the post-batch graph.
    """
    if not g.weighted or not state.weighted:
        raise InvalidParams("update_sssp_w needs a weighted graph and state")
    d = state.d
    sigma = state.sigma
    out_adj = g._adj
    in_adj = g._radj

    heap = []
    key = {}
    old_d = {}
    old_sig = {}
    touched = 0

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

    while heap:
        p, w = heapq.heappop(heap)
        if key.get(w) != p:
            continue
        del key[w]
        con = INF
        for z, wt in in_adj[w].items():
            touched += 1
            dz = d[z]
            if dz != INF:
                c = dz + wt
                if c < con:
                    con = c
        if dist_eq(con, p):
            prev_d = d[w]
            prev_sig = sigma[w]
            old_d[w] = old_d.pop(w, prev_d)  # re-inserted: settling order
            old_sig.setdefault(w, prev_sig)
            nd = con
            s = 0
            for z, wt in in_adj[w].items():
                touched += 1
                dz = d[z]
                if dz != INF and dist_eq(dz + wt, nd):
                    s += sigma[z]
            d[w] = nd
            sigma[w] = s
            changed = prev_d != nd or prev_sig != s
            for z, wt in out_adj[w].items():
                touched += 1
                dz = d[z]
                c = nd + wt
                if dz > c and not dist_eq(dz, c):
                    push(z, c)
                elif changed and dz != INF and dist_eq(dz, c):
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
                for z, wt in out_adj[w].items():
                    touched += 1
                    dz = d[z]
                    if dz != INF and dist_eq(dz, prev + wt):
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

    Same contract as update_sssp_w. Candidate levels replace priorities;
    a node is colored black once its final level is known and black nodes
    are skipped on later pops. Colors live only for the duration of the
    call, so every node is white again when it returns.
    """
    if g.weighted or state.weighted:
        raise InvalidParams("update_sssp_u needs an unweighted graph and state")
    d = state.d
    sigma = state.sigma
    out_adj = g._adj
    in_adj = g._radj
    n = g.n

    buckets = {}
    color = bytearray(n)
    old_d = {}
    old_sig = {}
    touched = 0

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

    # A node processed at level k only queues nodes at levels above k: its
    # out-neighbours at k + 1, itself at con > k, and the nodes that routed
    # through it at d[w] + 1, where d[w] >= k for every uncolored node popped
    # at level k. So once level k's list is taken nothing joins it or any
    # lower level, and the walk steps k up by one until no list is left.
    k = min(buckets) if buckets else 0
    while buckets:
        if k > n:
            raise InconsistentState("candidate level beyond any simple path")
        km1 = k - 1
        k1 = k + 1
        for w in buckets.pop(k, ()):
            if color[w]:
                continue
            con = INF
            for z in in_adj[w]:
                touched += 1
                dz = d[z]
                if dz != INF and dz < con:
                    con = dz
            if con != INF:
                con += 1
            if con == k:
                prev_d = d[w]
                prev_sig = sigma[w]
                old_d[w] = old_d.pop(w, prev_d)  # re-inserted: settling order
                old_sig.setdefault(w, prev_sig)
                s = 0
                for z in in_adj[w]:
                    touched += 1
                    if d[z] == km1:
                        s += sigma[z]
                d[w] = k
                sigma[w] = s
                color[w] = 1
                changed = prev_d != k or prev_sig != s
                for z in out_adj[w]:
                    touched += 1
                    dz = d[z]
                    if dz == INF or dz > k1 or (dz == k1 and changed):
                        buckets.setdefault(k1, []).append(z)
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
                    for z in out_adj[w]:
                        touched += 1
                        if d[z] == prev1:
                            buckets.setdefault(prev1, []).append(z)
                elif con != INF:
                    buckets.setdefault(con, []).append(w)
            else:
                raise InconsistentState(
                    f"candidate level {k} below best incoming level {con} at {w}"
                )
        k += 1

    affected = {
        v for v, od in old_d.items() if d[v] != od or sigma[v] != old_sig[v]
    }
    return AffectedSet(affected, touched, old_d)
