"""Data ingestion, dynamic-scenario replay, and accuracy/timing measurement.

Edge lists come in two flavours: plain ("u v [w]" per line) and temporal
("u v w t" per line, sorted by timestamp on load). Raw node ids are remapped
to dense indices in first-appearance order. Repeated node pairs collapse to
one edge; on weighted graphs the collapsed edge weighs 1/multiplicity, so
tightly coupled endpoints end up closer.

Three replay scenarios are supported: re-inserting the newest edges in
timestamp order ("real"), mixed random re-insertions and deletions
("random"), and random multiplicative weight changes ("weights"). Reports
are one machine-readable row per run; everything except wall-clock fields is
deterministic for a given seed.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field, asdict

from .bc import approximate_bc, init_bc, scores, update_bc
from .errors import (
    InvalidParams,
    NonPositiveWeight,
    NotEnoughEdges,
    ParseError,
)
from .exact import brandes_exact
from .graph import DELETE, INSERT, SET_WEIGHT, Batch, DynGraph, EdgeEvent, apply_batch

SCENARIOS = ("real", "random", "weights")
_POW2 = {1 << i for i in range(11)}  # 1 .. 1024


@dataclass
class ScenarioSpec:
    """How to turn a loaded graph into an initial graph plus batches."""

    kind: str
    x: int
    batch_sizes: list[int]
    runs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIOS:
            raise InvalidParams(f"unknown scenario {self.kind!r}")
        if not self.batch_sizes:
            raise InvalidParams("need at least one batch size")
        for b in self.batch_sizes:
            if b not in _POW2:
                raise InvalidParams("batch sizes must be powers of two in [1, 1024]")
        if self.x < max(self.batch_sizes):
            raise InvalidParams("x must cover at least one full batch")
        if self.runs < 1:
            raise InvalidParams("runs must be positive")


@dataclass
class RunReport:
    """One experiment run. Error fields stay None unless the exact scores
    were computed; speedup is static time over dynamic time."""

    scenario: str
    mode: str
    batch_size: int
    run: int
    n: int
    m_final: int
    events_applied: int
    r_initial: int
    r_final: int
    vd_bound_final: float
    t_dynamic: float
    t_static: float
    speedup: float
    max_abs_error: float | None = None
    avg_abs_error: float | None = None
    top10_max_rank_error: float | None = None

    def row(self):
        return asdict(self)


def load_edge_list(path, fmt="plain", directed=False, weighted=False):
    """Parse an edge-list file into (graph, event stream).

    The stream holds one insert event per collapsed edge, timestamped by the
    file (temporal format) or by line order (plain format); for collapsed
    multi-edges the first occurrence's timestamp wins. Lines starting with
    '#' or '%' are skipped. Self-loops are dropped.
    """
    if fmt not in ("plain", "temporal"):
        raise InvalidParams(f"unknown edge-list format {fmt!r}")
    ids = {}
    raw = []
    with open(path, "rb") as fh:  # decoded per line, so bad bytes name a line
        for lineno, line in enumerate(fh, 1):
            try:
                parts = line.decode("utf-8").split()
                if not parts or parts[0][0] in "#%":
                    continue
                if fmt == "plain":
                    if len(parts) < 2 or len(parts) > 3:
                        raise ValueError("expected 'u v [w]'")
                    u, v = parts[0], parts[1]
                    w = float(parts[2]) if len(parts) == 3 else 1.0
                    t = lineno
                else:
                    if len(parts) != 4:
                        raise ValueError("expected 'u v w t'")
                    u, v = parts[0], parts[1]
                    w = float(parts[2])
                    try:  # int() keeps stamps above 2**53 exact
                        t = int(parts[3])
                    except ValueError:
                        t = int(float(parts[3]))
                    if t < 0:
                        raise ValueError(f"negative timestamp {t}")
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not (w > 0 and math.isfinite(w)):
                raise NonPositiveWeight(
                    f"{path}:{lineno}: weight {w} not positive and finite"
                )
            if u == v:
                continue
            for raw_id in (u, v):
                if raw_id not in ids:
                    ids[raw_id] = len(ids)
            raw.append((ids[u], ids[v], w, t))

    if fmt == "temporal":
        raw.sort(key=lambda e: e[3])

    # collapse multi-edges; first occurrence fixes order and timestamp
    seen = {}
    order = []
    for u, v, w, t in raw:
        k = (u, v) if directed else (min(u, v), max(u, v))
        if k in seen:
            seen[k][2] += 1
        else:
            seen[k] = [w, t, 1]
            order.append(k)

    n = len(ids)
    g = DynGraph(n, directed=directed, weighted=weighted)
    events = []
    for k in order:
        w0, t0, mult = seen[k]
        if weighted:
            w = 1.0 / mult if mult > 1 else w0
        else:
            w = 1.0
        g.insert_edge(k[0], k[1], w)
        events.append(EdgeEvent(k[0], k[1], INSERT, w, timestamp=t0))
    return g, events


def build_scenario(g, spec, batch_size, events=None):
    """Produce (initial graph, batches) for one batch size.

    real: strip the x newest edges and re-insert them in timestamp order.
    random: remove x random edges, then mix re-insertions (probability 1/2)
    with fresh deletions; fresh deletions are drawn from the current edge
    set, never touching a pair already used in the same batch.
    weights: multiply x distinct random edges by a factor uniform in (0, 2).
    """
    rng = random.Random(spec.seed * 1_000_003 + batch_size)
    if spec.kind == "real":
        if events is None:
            raise InvalidParams("the real scenario needs the loaded event stream")
        if spec.x > len(events):
            raise NotEnoughEdges(f"x={spec.x} exceeds {len(events)} edges")
        ordered = sorted(
            events, key=lambda ev: (ev.timestamp if ev.timestamp is not None else 0)
        )
        tail = ordered[-spec.x :]
        initial = g.copy()
        for ev in tail:
            initial.delete_edge(ev.u, ev.v)
        batches = [
            [
                EdgeEvent(ev.u, ev.v, INSERT, ev.weight, timestamp=ev.timestamp)
                for ev in tail[i : i + batch_size]
            ]
            for i in range(0, len(tail), batch_size)
        ]
        return initial, batches

    if spec.kind == "weights":
        if not g.weighted:
            raise InvalidParams("weight changes need a weighted graph")
        all_edges = list(g.edges())
        if spec.x > len(all_edges):
            raise NotEnoughEdges(f"x={spec.x} exceeds {len(all_edges)} edges")
        chosen = rng.sample(all_edges, spec.x)
        evs = []
        for u, v, w in chosen:
            factor = rng.uniform(0.0, 2.0)
            while factor == 0.0:
                factor = rng.uniform(0.0, 2.0)
            evs.append(EdgeEvent(u, v, SET_WEIGHT, w * factor))
        return g.copy(), [
            evs[i : i + batch_size] for i in range(0, len(evs), batch_size)
        ]

    # random insert/delete
    all_edges = list(g.edges())
    if spec.x > len(all_edges):
        raise NotEnoughEdges(f"x={spec.x} exceeds {len(all_edges)} edges")
    removed = rng.sample(all_edges, spec.x)
    initial = g.copy()
    for u, v, _ in removed:
        initial.delete_edge(u, v)
    current = [(u, v) for u, v, _ in initial.edges()]  # deletion swap-removes
    pool = list(removed)
    rng.shuffle(pool)
    batches = []
    batch = []
    batch_pairs = set()
    inserted = 0  # edges the batch inserted: present, but not eligible
    for _ in range(spec.x):
        do_insert = pool and (not current or rng.random() < 0.5)
        if do_insert:
            u, v, w = pool.pop()
            batch.append(EdgeEvent(u, v, INSERT, w))
            current.append((u, v))
            inserted += 1
        else:
            if len(current) == inserted:
                break
            i = rng.randrange(len(current))
            while current[i] in batch_pairs:  # uniform over eligible edges
                i = rng.randrange(len(current))
            u, v = current[i]
            batch.append(EdgeEvent(u, v, DELETE))
            current[i] = current[-1]
            current.pop()
        batch_pairs.add((u, v))
        if len(batch) == batch_size:
            batches.append(batch)
            batch = []
            batch_pairs = set()
            inserted = 0
    if batch:
        batches.append(batch)
    return initial, batches


def rank_error(exact, approx, top_k=None):
    """Per-node max(rho, 1/rho) where rho is estimated rank over true rank.

    Ranks are 1-based by descending score with ties broken by node index,
    so the measure is total and reproducible. With top_k, only nodes whose
    true rank is at most k are reported. Returns {node: error}.
    """
    n = len(exact)
    if len(approx) != n:
        raise InvalidParams("score vectors differ in length")

    def ranks(vals):
        order = sorted(range(n), key=lambda v: (-vals[v], v))
        out = [0] * n
        for pos, v in enumerate(order, 1):
            out[v] = pos
        return out

    true_rank = ranks(exact)
    est_rank = ranks(approx)
    sel = range(n) if top_k is None else [v for v in range(n) if true_rank[v] <= top_k]
    return {v: max(est_rank[v] / true_rank[v], true_rank[v] / est_rank[v]) for v in sel}


def run_experiment(
    g,
    spec,
    params,
    mode,
    with_exact=False,
    exact_threshold=5000,
    events=None,
):
    """Replay the scenario through the chosen mode, once per (batch size,
    run), timing the batched updates against a from-scratch recomputation on
    the final graph. Returns a list with one RunReport per run."""
    from dataclasses import replace

    reports = []
    if with_exact and g.n > exact_threshold:
        with_exact = False
    for batch_size in spec.batch_sizes:
        initial, batches = build_scenario(g, spec, batch_size, events=events)
        exact = None
        for run in range(spec.runs):
            run_params = replace(params, seed=params.seed + run)
            g_run = initial.copy()
            state = init_bc(g_run, run_params, mode)
            r_initial = state.r
            applied = 0
            t_dyn = 0.0
            for batch in batches:
                t0 = time.perf_counter()
                eff = apply_batch(g_run, Batch(batch))
                update_bc(g_run, state, eff)
                t_dyn += time.perf_counter() - t0
                applied += len(eff)
            t0 = time.perf_counter()
            approximate_bc(g_run, run_params)
            t_static = time.perf_counter() - t0
            report = RunReport(
                scenario=spec.kind,
                mode=mode,
                batch_size=batch_size,
                run=run,
                n=g_run.n,
                m_final=g_run.m,
                events_applied=applied,
                r_initial=r_initial,
                r_final=state.r,
                vd_bound_final=state.vd_bound,
                t_dynamic=t_dyn,
                t_static=t_static,
                speedup=(t_static / t_dyn) if t_dyn > 0 else float("inf"),
            )
            if with_exact:
                if exact is None:
                    exact = brandes_exact(g_run)
                approx = scores(state)
                errs = [abs(a - b) for a, b in zip(exact, approx)]
                report.max_abs_error = max(errs)
                report.avg_abs_error = sum(errs) / len(errs)
                re = rank_error(exact, approx, top_k=10)
                report.top10_max_rank_error = max(re.values())
            reports.append(report)
    return reports
