"""Approximate betweenness scores and their dynamic maintenance.

A score state holds r sampled (pair, search, path) triples; each node's
score is the fraction of sampled paths it is internal to. A dynamic state's
search is a plain full ``ExtendedSSSP`` (distances and path counts only);
samples drawn together from one source share it. The static runner draws
the samples once and keeps only the paths. ``update_bc`` keeps the samples
valid across batches of edge events. Every mode runs the same round: each
distinct search is repaired once, each sample's path is kept or redrawn by
one exact rule (see ``update_bc``) that leaves it uniform over the target's
new shortest paths and draws nothing when the batch left them as they were,
and the state's bound object is refreshed; if its bound asks for more
samples, they are drawn and the scores renormalized. Only that object
differs between the modes (``BOUNDS``):

* ``ia`` / ``iaw`` (incremental): only insertions and weight decreases are
  allowed. The bound comes from ``VDTracker`` on an undirected graph and
  from ``StaticBound`` on a directed one.
* ``dad`` / ``dadw`` (fully dynamic, any direction), ``StaticBound``: the
  static bound is recomputed from scratch.
* ``da`` / ``daw`` (combined, undirected only), ``VDTracker``: the fully
  dynamic diameter tracker, one search per connected component.

Per-sample updates are independent given split random streams (stream
coordinates are (seed, domain, [round,] index)), so identical inputs give
identical states no matter how iterations are scheduled. Reference
semantics, used here, are sequential in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass

# vd_upper_bound, local_vd_estimate and update_sssp are called through this
# module's names, so a profiler or a test can patch them here.
from .dynsssp import DynSSSP, VisCounters, update_sssp
from .errors import DeletionInIncrementalMode, InvalidParams
from .exact import ExtendedSSSP, compute_extended_sssp
from .graph import INSERT, SET_WEIGHT, dist_eq
from .rng import stream
from .sampling import SampledPath, sample_pair, sample_path, sample_size
from .vdbounds import local_vd_estimate, vd_upper_bound

_SAMPLE_DOMAIN = 1
_RESAMPLE_DOMAIN = 2


@dataclass
class SampleRecord:
    s: int
    t: int
    sssp: ExtendedSSSP | None  # None in the static runner's state
    path: SampledPath


class StaticBound:
    """``dad``/``dadw``, directed ``ia``/``iaw`` and the static runner:
    ``vd_upper_bound``, recomputed every round. A bound object holds its
    bound in ``bound``, computed at construction, and ``refresh(g, events)``
    renews and returns it after the sample repairs."""

    __slots__ = ("bound",)

    def __init__(self, g):
        self.bound = vd_upper_bound(g).value

    def refresh(self, g, events):
        self.bound = vd_upper_bound(g).value
        return self.bound


class VDTracker:
    """``da``/``daw``, undirected ``ia``/``iaw``: the fully dynamic
    vertex-diameter bound, one ``DynSSSP`` per connected component, rooted
    at its lowest node. The bound is the max of their
    ``local_vd_estimate``, at first equal to the static one.

    The searches share the ``vis`` counters, which detect merges (a source
    visited by another source's updated search becomes redundant) and
    splits (nodes whose count drops to zero seed new sources), so after
    every round the tracker again holds exactly one source per component
    and every node is counted once. The bound, and with it r, does not
    depend on which sources were sampled."""

    __slots__ = ("sources", "vis", "bound")

    def __init__(self, g):
        if g.directed:
            raise InvalidParams("the tracker handles undirected graphs")
        self.vis = VisCounters.zeros(g.n)
        self.sources = self._cover(g, range(g.n))
        self.bound = self._estimate(g)

    def _cover(self, g, candidates):
        """Root a search at each candidate (in the given order) that no
        maintained search reaches yet, and return the new searches."""
        vis = self.vis
        return [DynSSSP.initial(g, v, vis) for v in candidates if vis.vis[v] == 0]

    def _estimate(self, g):
        return max((local_vd_estimate(g, st) for st in self.sources), default=1.0)

    def refresh(self, g, events):
        """Bring the searches up to date with a batch already applied to g
        and return the new bound.

        A source whose own node was annexed by an earlier search's update
        (``vis[source] > 1``) is dropped; it first hands back every node its
        stale search still claims, so nodes left uncovered surface in U with
        count zero. The others are updated. Draining U (ascending node
        index) then roots fresh sources for split-off components. U is empty
        between rounds, since only updates fill it and this drains it."""
        vis = self.vis
        kept = []
        for st in self.sources:
            if vis.vis[st.source] > 1:
                st.release(vis)
            else:
                update_sssp(g, st, events, vis)
                kept.append(st)
        self.sources = kept + self._cover(g, sorted(set(vis.U)))
        vis.U.clear()
        self.bound = self._estimate(g)
        return self.bound


def _incremental_bound(g):
    """``ia``/``iaw``: the tracker as in ``da`` on an undirected graph, the
    static bound as in ``dad`` on a directed one."""
    return (StaticBound if g.directed else VDTracker)(g)


BOUNDS = {  # mode -> bound object factory, called as (g)
    "ia": _incremental_bound, "iaw": _incremental_bound,
    "dad": StaticBound, "dadw": StaticBound,
    "da": VDTracker, "daw": VDTracker,
}
MODES = tuple(BOUNDS)


@dataclass
class BCState:
    """Scores plus everything needed to keep them valid under updates."""

    n: int
    mode: str
    params: object
    scores: list[float]
    samples: list[SampleRecord]
    bound: StaticBound | VDTracker  # see BOUNDS
    round: int = 0

    @property
    def r(self):
        return len(self.samples)

    @property
    def vd_bound(self):
        return self.bound.bound

    @property
    def aux_sources(self):  # only for perfbench/run.py, which reads its len
        return getattr(self.bound, "sources", [])


def scores(state):
    """Read-only snapshot of the current per-node scores."""
    return list(state.scores)


def recount_scores(state):
    """Recompute scores from the stored samples (the drift oracle)."""
    counts = [0] * state.n
    for rec in state.samples:
        if not rec.path.empty:
            for v in rec.path.internal:
                counts[v] += 1
    r = state.r
    return [c / r for c in counts]


def _add_samples(g, state, r_new):
    """Draw samples len(samples)..r_new-1 and credit them at 1/r_new.
    Existing mass is rescaled to the new rate first. A dynamic state keeps
    each full search so later updates repair it; samples drawn in one call
    from one source share a search, never an older one, whose repaired
    distances may differ from a fresh search's in the last bits. The static
    runner stops each search at its target, which is all the path draw
    reads, and stores only the path."""
    keep_state = state.mode != "static"
    params = state.params
    samples = state.samples
    if samples:
        factor = state.r / r_new
        state.scores = [x * factor for x in state.scores]
    inv = 1.0 / r_new
    add = state.scores
    searches = {}  # source -> the full search its samples share
    for idx in range(len(samples), r_new):
        rng = stream(params.seed, _SAMPLE_DOMAIN, idx)
        s, t = sample_pair(g.n, rng)
        if not keep_state:
            sssp = compute_extended_sssp(g, s, stop_at=t)
        elif (sssp := searches.get(s)) is None:
            sssp = searches[s] = compute_extended_sssp(g, s)
        path = sample_path(g, sssp, t, rng)
        samples.append(SampleRecord(s, t, sssp if keep_state else None, path))
        for v in path.internal:
            add[v] += inv


def approximate_bc(g, params):
    """Static sampling approximation of betweenness, the from-scratch
    recomputation. Each search stops at its sampled target; for a given
    seed the scores equal those of ``init_bc`` in ``ia``/``iaw``, whose
    searches run in full.
    """
    if g.n < 2:
        raise InvalidParams("need at least two nodes")
    state = BCState(g.n, "static", params, [0.0] * g.n, [], StaticBound(g))
    _add_samples(g, state, sample_size(state.vd_bound, params))
    return state


def init_bc(g, params, mode):
    """Initialize a dynamic score state in the given mode. The first bound,
    and with it r, comes from ``BOUNDS[mode]``."""
    if mode not in MODES:
        raise InvalidParams(f"unknown mode {mode!r}")
    if g.n < 2:
        raise InvalidParams("need at least two nodes")
    weighted_mode = mode in ("iaw", "dadw", "daw")
    if weighted_mode != g.weighted:
        raise InvalidParams(f"mode {mode!r} does not match graph weighting")
    if mode in ("da", "daw") and g.directed:
        raise InvalidParams(f"mode {mode!r} needs an undirected graph")

    state = BCState(g.n, mode, params, [0.0] * g.n, [], BOUNDS[mode](g))
    _add_samples(g, state, sample_size(state.vd_bound, params))
    return state


def _directions(events):
    """How the batch can move distances: -1 for each insertion or weight
    decrease, +1 for each deletion or weight increase (or unknown old
    weight). An empty set or one element means the batch is monotone."""
    return {
        -1 if ev.op == INSERT or (
            ev.op == SET_WEIGHT
            and ev.old_weight is not None
            and ev.weight <= ev.old_weight
        ) else 1
        for ev in events
    }


def _has_length(g, path, length, weights):
    """Whether a non-empty path's edges all exist and sum to ``length``
    under ``dist_eq``. ``weights`` maps a directed edge key to the weight to
    read instead of the graph's; None there marks an absent edge."""
    if path.empty:
        return False
    nodes = [path.s, *path.internal, path.t]
    adj = g._adj
    total = 0
    for a, b in zip(nodes, nodes[1:]):
        w = weights[a, b] if (a, b) in weights else adj[a].get(b)
        if w is None:
            return False
        total += w
    return dist_eq(total, length)


def update_bc(g, state, events):
    """One update round for a state in any dynamic mode: read each
    sample's d[t] and sigma[t], repair each distinct search once (samples
    may share one), keep or redraw each path in index order, refresh the
    state's bound object, and grow the sample set if its bound asks for
    more. ``events`` are ``apply_batch``'s effective events.

    ``ia``/``iaw`` reject a deletion or a weight increase before touching
    the state, but the graph already holds the batch. Later rounds would
    repair searches that no longer describe it (and may raise
    InconsistentState or keep stale samples): discard the state, or undo
    the batch on the graph first.

    Keep or redraw. Let P and P' be the target's shortest paths before and
    after the batch, sigma = |P|, sigma' = |P'|, and q = |P & P'|; the
    stored path p is uniform over P.

    * Fast keep: a monotone batch (only insertions and weight decreases, or
      only deletions and weight increases) that leaves d[t] unchanged has
      P <= P' or P' <= P; with sigma[t] unchanged too, P' = P, so p stays
      with no draw.
    * Keep: p in P' (every edge present, length d[t]) stays with
      probability alpha = min(1, sigma/sigma').
    * Redraw: otherwise draw x uniformly from P'. Accept x if it is new
      (some edge inserted, or its pre-batch length is not the old d[t]);
      accept an old x with probability beta = max(0, 1 - sigma'/sigma);
      else draw again. The accepted x is new with weight 1 and old with
      weight beta, over a total mass of (sigma' - q) + q*beta.

    Exactness: if sigma >= sigma', p is redrawn with probability
    (sigma - q)/sigma and the mass is sigma'(sigma - q)/sigma, so a new x
    ends with probability 1/sigma' and an old one with
    1/sigma + beta/sigma' = 1/sigma'. If sigma < sigma', beta = 0, p is
    redrawn with probability 1 - q/sigma' over mass sigma' - q, so a new x
    ends with 1/sigma' and an old one with alpha/sigma = 1/sigma'. A
    decremental batch with d[t] unchanged has P' <= P: every draw is old,
    and accepting the first one gives each x 1/sigma + (1/sigma' - 1/sigma)
    = 1/sigma' as well. An unreachable target gets the empty path."""
    if state.mode not in MODES:
        raise InvalidParams(
            f"state mode {state.mode!r} not usable here (need one of {MODES})"
        )
    directions = _directions(events)
    if state.mode in ("ia", "iaw") and 1 in directions:
        raise DeletionInIncrementalMode(
            "batch contains a deletion or a weight increase"
        )
    monotone = len(directions) < 2
    # pre-batch weight of each touched edge, None for an inserted one
    before = {(ev.u, ev.v): ev.old_weight for ev in events}
    if not g.directed:
        before.update({(v, u): w for (u, v), w in before.items()})
    params = state.params
    inv = 1.0 / state.r
    add = state.scores
    samples = state.samples
    old = [(rec.sssp.d[rec.t], rec.sssp.sigma[rec.t]) for rec in samples]
    for st in {id(rec.sssp): rec.sssp for rec in samples}.values():
        update_sssp(g, st, events)
    for i, (rec, (d_old, sig_old)) in enumerate(zip(samples, old)):
        st = rec.sssp
        t = rec.t
        sig_new = st.sigma[t]
        same_d = dist_eq(st.d[t], d_old)
        if monotone and same_d and sig_new == sig_old:
            continue
        kept = _has_length(g, rec.path, st.d[t], {})
        if kept and sig_old >= sig_new:
            continue
        rng = stream(params.seed, _RESAMPLE_DOMAIN, state.round, i)
        if kept and rng.randrange(sig_new) < sig_old:
            continue
        path = sample_path(g, st, t, rng)
        if not (same_d and directions == {1}):  # else P' <= P: keep any draw
            while _has_length(g, path, d_old, before) and (
                rng.randrange(sig_old) < sig_new
            ):  # an old path, rejected with probability 1 - beta
                path = sample_path(g, st, t, rng)
        for v in rec.path.internal:
            add[v] -= inv
        rec.path = path
        for v in path.internal:
            add[v] += inv
    if (r_new := sample_size(state.bound.refresh(g, events), params)) > state.r:
        _add_samples(g, state, r_new)  # more samples only tighten the estimate
    state.round += 1
    return state
