"""Approximate betweenness scores and their dynamic maintenance.

A score state holds r sampled (pair, search, path) triples; each node's
score is the fraction of sampled paths it is internal to. A dynamic state's
search is a plain full ``ExtendedSSSP`` (distances and path counts only).
The static runner draws the samples once and keeps only the paths. The
update entry points keep the samples valid across batches of edge events.
Every mode runs the same round: each sample's search is repaired, its path
is kept or redrawn by one exact rule (see ``_update``) that leaves it
uniform over the target's new shortest paths and draws nothing when the
batch left them as they were, and the diameter bound is refreshed. Only the
bound step differs:

* ``ia`` / ``iaw`` (incremental, unweighted/weighted): only insertions and
  weight decreases are allowed, and the bound is kept. The caller is
  responsible for only using these modes when the vertex diameter cannot
  grow.
* ``dad`` / ``dadw`` (fully dynamic, any direction): the diameter bound is
  recomputed from scratch and new samples are drawn, with score
  renormalization, whenever the required sample count grows.
* ``da`` / ``daw`` (combined, undirected only): like dad/dadw, but the
  bound comes from the fully dynamic ``dynvd`` tracker instead of a static
  recomputation: one ``DynSSSP`` per connected component, kept in
  ``aux_sources`` with its own ``vis`` counters, refreshed after every
  batch. The bound, and with it r, does not depend on which sources were
  sampled.

Per-sample updates are independent given split random streams (stream
coordinates are (seed, domain, [round,] index)), so identical inputs give
identical states no matter how iterations are scheduled. Reference
semantics, used here, are sequential in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynsssp import DynSSSP, VisCounters, local_vd_estimate, update_sssp
from .dynvd import cover, refresh_sources
from .errors import DeletionInIncrementalMode, InvalidParams
from .exact import ExtendedSSSP, compute_extended_sssp
from .graph import INSERT, SET_WEIGHT, dist_eq
from .rng import stream
from .sampling import SampledPath, sample_pair, sample_path, sample_size
from .vdbounds import vd_upper_bound

MODES = ("ia", "iaw", "dad", "dadw", "da", "daw")

_SAMPLE_DOMAIN = 1
_RESAMPLE_DOMAIN = 2


@dataclass
class SampleRecord:
    s: int
    t: int
    sssp: ExtendedSSSP | None  # None in the static runner's state
    path: SampledPath


@dataclass
class BCState:
    """Scores plus everything needed to keep them valid under updates."""

    n: int
    mode: str
    params: object
    scores: list[float]
    r: int
    samples: list[SampleRecord]
    aux_sources: list[DynSSSP] = field(default_factory=list)  # da/daw tracker
    vis: VisCounters | None = None  # the tracker's counters
    vd_bound: float = 1.0
    round: int = 0


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
    """Draw samples len(samples)..r_new-1, credit them at 1/r_new and set
    the sample count to r_new. Existing mass is rescaled to the new rate
    first. A dynamic state keeps each full search so later updates repair
    it; the static runner stops each search at its target, which is all the
    path draw reads, and stores only the path."""
    keep_state = state.mode != "static"
    params = state.params
    samples = state.samples
    if samples:
        factor = state.r / r_new
        state.scores = [x * factor for x in state.scores]
    inv = 1.0 / r_new
    add = state.scores
    for idx in range(len(samples), r_new):
        rng = stream(params.seed, _SAMPLE_DOMAIN, idx)
        s, t = sample_pair(g.n, rng)
        sssp = compute_extended_sssp(g, s, stop_at=None if keep_state else t)
        path = sample_path(g, sssp, t, rng)
        samples.append(SampleRecord(s, t, sssp if keep_state else None, path))
        for v in path.internal:
            add[v] += inv
    state.r = r_new


def approximate_bc(g, params):
    """Static sampling approximation of betweenness, the from-scratch
    recomputation. Each search stops at its sampled target; for a given
    seed the scores equal those of ``init_bc`` in ``ia``/``iaw``, whose
    searches run in full.
    """
    if g.n < 2:
        raise InvalidParams("need at least two nodes")
    bound = vd_upper_bound(g).value
    state = BCState(g.n, "static", params, [0.0] * g.n, 0, [], vd_bound=bound)
    _add_samples(g, state, sample_size(bound, params))
    return state


def init_bc(g, params, mode, vd_bound=None):
    """Initialize a dynamic score state in the given mode.

    ``vd_bound`` overrides the computed bound (useful for experiments that
    need two modes to agree on the sample count). da/daw root the ``dynvd``
    tracker, one search per component; its bound equals ``vd_upper_bound``.
    """
    if mode not in MODES:
        raise InvalidParams(f"unknown mode {mode!r}")
    if g.n < 2:
        raise InvalidParams("need at least two nodes")
    weighted_mode = mode in ("iaw", "dadw", "daw")
    if weighted_mode != g.weighted:
        raise InvalidParams(f"mode {mode!r} does not match graph weighting")
    if mode in ("da", "daw") and g.directed:
        raise InvalidParams(f"mode {mode!r} needs an undirected graph")

    state = BCState(g.n, mode, params, [0.0] * g.n, 0, [], vd_bound=vd_bound)
    if mode in ("da", "daw"):
        state.vis = VisCounters.zeros(g.n)
        state.aux_sources = cover(g, state.vis, range(g.n))
        if vd_bound is None:
            state.vd_bound = _tracker_bound(g, state)
    elif vd_bound is None:
        state.vd_bound = vd_upper_bound(g).value
    _add_samples(g, state, sample_size(state.vd_bound, params))
    return state


def _tracker_bound(g, state):
    return max(
        (local_vd_estimate(g, st) for st in state.aux_sources), default=1.0
    )


def _require_mode(state, allowed):
    if state.mode not in allowed:
        raise InvalidParams(
            f"state mode {state.mode!r} not usable here (need one of {allowed})"
        )


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


def _update(g, state, events, allowed):
    """One update round for a state whose mode is in ``allowed``: repair
    every sample search, keep or redraw each path, refresh the bound the
    mode keeps, and grow the sample set if the bound now asks for more
    samples. ``events`` are ``apply_batch``'s effective events.

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
    _require_mode(state, allowed)
    mode = state.mode
    directions = _directions(events)
    if mode in ("ia", "iaw") and 1 in directions:
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
    for i, rec in enumerate(state.samples):
        st = rec.sssp
        t = rec.t
        d_old = st.d[t]
        sig_old = st.sigma[t]
        update_sssp(g, st, events)
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
    if mode in ("dad", "dadw"):
        state.vd_bound = vd_upper_bound(g).value
    elif mode in ("da", "daw"):
        state.aux_sources = refresh_sources(
            g, state.aux_sources, state.vis, events
        )
        state.vd_bound = _tracker_bound(g, state)
    if mode not in ("ia", "iaw"):
        r_new = sample_size(state.vd_bound, params)
        if r_new > state.r:  # extra samples only ever tighten the estimate
            _add_samples(g, state, r_new)
    state.round += 1
    return state


def update_incremental(g, state, events):
    """ia/iaw update. Rejects deletions and weight increases; a path is
    only reconsidered when its target's distance dropped or its path count
    grew, and then kept with probability sigma/sigma' while still
    shortest."""
    return _update(g, state, events, ("ia", "iaw"))


def update_fully_dynamic(g, state, events):
    """dad/dadw update: after the sample repair the bound is recomputed
    from scratch with the static class bound."""
    return _update(g, state, events, ("dad", "dadw"))


def update_combined(g, state, events):
    """da/daw update: the ``dynvd`` tracker is refreshed, and the bound is
    the max of its per-component estimates."""
    return _update(g, state, events, ("da", "daw"))


def update_bc(g, state, events):
    """Update a state in any dynamic mode."""
    return _update(g, state, events, MODES)
