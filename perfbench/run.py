"""Benchmark for dynbc: replay a seeded update workload through the public
API and report end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload dm-insert-b1 --seed 1 --seconds 30 --trace 0

Load model: one caller, one process, one thread, closed loop; batch k+1 is
applied only after ``update_bc`` returns for batch k. A run builds the
workload's graph and batches from the seed, then in each of two passes
times ``init_bc`` and each batch as ``apply_batch`` plus ``update_bc``; it
times ``approximate_bc`` on the final graph with the same sampling
parameters before the passes and after each chunk of each pass (2 chunks
for dm-insert-b1, 8 for dmw-weights-b1), and checks the final state. A
batch's latency is the least over the passes, recompute the least of its
calls, set-up the median of three calls.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` replays the first
quarter of the batches untraced and then the whole workload traced (see
tracing.py), runs the epsilon check against exact scores, prints the
per-layer metrics and writes the spans to perfbench/out/. Each workload has a fixed batch count, so a seed fixes the
final state and every count; ``--seconds`` scales that count, at least 100
batches. At the configured run_seconds one pass of updates lasts about 7 s
(dm-insert-b1) to 35 s (dmw-weights-b1) on a 2-core x86 machine.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The lines before it print every metric with its unit, plus
error_rate and the derived speedup (recompute_s over update_p50_ms), which
carries no regression bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# the package under test is this checkout's src/, never an installed copy
sys.path.insert(0, str(SRC))
try:
    import dynbc
except ImportError as exc:
    sys.exit(f"cannot import dynbc from {SRC}: {exc}")
if Path(dynbc.__file__).resolve().parent.parent != SRC:
    sys.exit(f"dynbc imported from {dynbc.__file__}, not from {SRC}")

import checks  # noqa: E402
from dynbc import apply_batch, approximate_bc, init_bc, scores, update_bc  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

NOMINAL_SECONDS = 30
MIN_BATCHES = 100
PASSES = 2
SETUP_REPS = 3

END_TO_END = {
    "setup_s": "s",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "events_per_s": "events/s",
    "recompute_s": "s",
    "state_bytes_per_sample": "bytes",
}

PER_LAYER = {
    "graph.apply_batch_s": "s",
    "graph.events_effective": "count",
    "dynsssp.update_sssp_s": "s",
    "dynsssp.update_sssp_calls": "count",
    "dynsssp.edges_scanned": "count",
    "dynsssp.nodes_affected": "count",
    "dynsssp.changed_search_ratio": "ratio",
    "dynsssp.initial_s": "s",
    "dynsssp.initial_calls": "count",
    "dynsssp.vd_estimate_s": "s",
    "dynsssp.vd_estimate_calls": "count",
    "dynsssp.omega_rescans": "count",
    "sampling.sample_path_s": "s",
    "sampling.paths_drawn": "count",
    "sampling.path_steps": "count",
    "sampling.redraws": "count",
    "sampling.redraws_still_valid": "count",
    "sampling.useful_redraw_ratio": "ratio",
    "exact.predecessors_s": "s",
    "exact.predecessors_calls": "count",
    "setup.exact.sssp_s": "s",
    "recompute.exact.sssp_s": "s",
    "setup.vdbounds.vd_upper_bound_s": "s",
    "recompute.vdbounds.vd_upper_bound_s": "s",
    "bc.update_total_s": "s",
    "bc.update_self_s": "s",
    "setup.bc.self_s": "s",
    "setup.dynsssp.initial_self_s": "s",
    "recompute.sampling.sample_path_s": "s",
    "bc.r_initial": "count",
    "bc.r_final": "count",
    "bc.grow_batches": "count",
    "bc.vd_bound_final": "nodes",
    "bc.aux_searches_final": "count",
    "bc.max_abs_error": "score",
    "trace.overhead_ratio": "ratio",
}


class Ledger:
    """Operations attempted and failed: each init, batch, recompute and
    end-of-run check is one operation."""

    def __init__(self, planned):
        self.planned = planned
        self.done = 0
        self.failed = 0

    def ok(self):
        self.done += 1

    def check(self, reason):
        self.done += 1
        if reason is not None:
            self.failed += 1
            print(f"check failed: {reason}", file=sys.stderr)

    def abort(self):
        """Count every operation not yet done as failed."""
        self.failed += self.planned - self.done
        self.done = self.planned


def batch_count(workload, seconds):
    return max(MIN_BATCHES, round(workload.batches * seconds / NOMINAL_SECONDS))


def probe_count(batches):
    """Batches the traced run also replays untraced, to measure the
    tracing overhead."""
    return max(1, batches // 4)


def planned_ops(workload, trace, batches):
    """Operations a run attempts: the end-to-end run sets up SETUP_REPS
    times, replays every batch once per pass, recomputes once before the
    passes and once after each chunk of each pass, and checks that the
    passes agree; the traced run sets up twice, replays the probe batches
    untraced and every batch traced, recomputes once and adds the epsilon
    check. Both end with the three state checks."""
    if trace:
        return 2 + probe_count(batches) + batches + 1 + 4
    return SETUP_REPS + PASSES * batches + 1 + workload.chunks * PASSES + 1 + 3


def p90(values):
    """Nearest-rank 90th percentile: at least a tenth of values lie at or
    beyond it, so 100 values leave ten beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def replay(g, state, batches, ledger):
    """Apply every batch and update; returns per-batch seconds and the
    number of effective events."""
    lat = []
    events = 0
    for batch in batches:
        t0 = perf_counter()
        eff = apply_batch(g, batch)
        update_bc(g, state, eff)
        lat.append(perf_counter() - t0)
        ledger.ok()
        events += len(eff)
    return lat, events


def end_checks(g, state, ledger):
    ledger.check(checks.check_paths(g, state))
    ledger.check(checks.check_fresh(g, state))
    ledger.check(checks.check_scores(state))


def timed(fn, *args):
    """Seconds one call of fn takes, after a collection so that no garbage
    from earlier phases is collected inside it, and the call's result."""
    gc.collect()
    t0 = perf_counter()
    out = fn(*args)
    return perf_counter() - t0, out


def run_end_to_end(workload, inputs, batches, ledger):
    """Replay the workload PASSES times, each pass on a fresh copy of the
    initial graph after a timed ``init_bc``. The sampling seed fixes every
    draw, so batch k does the same work in every pass (a check holds the
    passes' final scores equal); its latency is the least over the passes.
    A shared host runs everything about 1.5 times slower for stretches of
    seconds, and a batch slowed by one in one pass is timed again tens of
    seconds later. Recomputes run on a copy of the final graph before the
    first pass and after each of the workload's chunks of each pass; their
    least time is reported. Set-ups are the passes' own, plus throwaway
    ones on fresh copies until there are SETUP_REPS; their median is
    reported."""
    params = inputs.params
    final = inputs.graph.copy()
    for batch in batches:
        apply_batch(final, batch)
    recompute = []
    setup = []

    def recompute_once():
        recompute.append(timed(approximate_bc, final, params)[0])
        ledger.ok()

    recompute_once()
    chunks = workload.chunks
    cuts = [len(batches) * i // chunks for i in range(chunks + 1)]
    best = [math.inf] * len(batches)
    events = None
    agree = None
    first_scores = None
    for _ in range(PASSES):
        state = None  # free the previous pass's state before the next set-up
        g = inputs.graph.copy()
        took, state = timed(init_bc, g, params, workload.mode)
        setup.append(took)
        ledger.ok()
        lat = []
        pass_events = 0
        for lo, hi in zip(cuts, cuts[1:]):
            gc.collect()
            chunk_lat, chunk_events = replay(g, state, batches[lo:hi], ledger)
            lat += chunk_lat
            pass_events += chunk_events
            recompute_once()
        best = [min(a, b) for a, b in zip(best, lat)]
        if first_scores is None:
            first_scores, events = scores(state), pass_events
        elif agree is None and (scores(state) != first_scores or pass_events != events):
            agree = "replays of one seed ended in different states"
    while len(setup) < SETUP_REPS:
        setup.append(timed(init_bc, inputs.graph.copy(), params, workload.mode)[0])
        ledger.ok()
    ledger.check(agree)
    end_checks(g, state, ledger)
    p50 = statistics.median(best)
    metrics = {
        "setup_s": statistics.median(setup),
        "update_p50_ms": p50 * 1e3,
        "update_p90_ms": p90(best) * 1e3,
        "events_per_s": events / sum(best),
        "recompute_s": min(recompute),
        "state_bytes_per_sample": checks.state_bytes(state) / state.r,
    }
    derived = {
        "speedup": metrics["recompute_s"] / p50,
        "batches": len(best),
    }
    return metrics, derived


def run_traced(workload, inputs, batches, ledger):
    params = inputs.params
    g = inputs.graph.copy()
    state = init_bc(g, params, workload.mode)
    ledger.ok()
    probe = probe_count(len(batches))
    lat, _ = replay(g, state, batches[:probe], ledger)
    untraced = sum(lat)
    traced = 0.0
    state = None
    g = inputs.graph.copy()
    gc.collect()

    tracer = Tracer()
    grow = 0
    events = 0
    with tracer.installed():
        state = tracer.call("bc.init_bc", init_bc, g, params, workload.mode)
        ledger.ok()
        r_initial = state.r
        for k, batch in enumerate(batches):
            tracer.begin_batch(k, state)
            t0 = perf_counter()
            eff = tracer.call("graph.apply_batch", apply_batch, g, batch)
            r_before = state.r
            tracer.call("bc.update_bc", update_bc, g, state, eff)
            if k < probe:
                traced += perf_counter() - t0
            ledger.ok()
            events += len(eff)
            grow += state.r > r_before
        tracer.end_updates()
        tracer.call("bc.approximate_bc", approximate_bc, g, params)
        ledger.ok()
    end_checks(g, state, ledger)
    err = checks.max_abs_error(g, state)
    ledger.check(
        None if err <= params.epsilon
        else f"max_abs_error {err:.4g} exceeds epsilon {params.epsilon}"
    )

    dur, own, calls = tracer.totals()
    c = tracer.counts
    upd_sssp = calls["update", "dynsssp.update_sssp"]
    redraws = c["sampling.redraws"]
    update_total = dur["update", "graph.apply_batch"] + dur["update", "bc.update_bc"]
    metrics = {
        "graph.apply_batch_s": dur["update", "graph.apply_batch"],
        "graph.events_effective": events,
        "dynsssp.update_sssp_s": dur["update", "dynsssp.update_sssp"],
        "dynsssp.update_sssp_calls": upd_sssp,
        "dynsssp.edges_scanned": c["dynsssp.edges_scanned"],
        "dynsssp.nodes_affected": c["dynsssp.nodes_affected"],
        "dynsssp.changed_search_ratio":
            c["dynsssp.changed_searches"] / upd_sssp if upd_sssp else 0.0,
        "dynsssp.initial_s": dur["update", "dynsssp.initial"],
        "dynsssp.initial_calls": calls["update", "dynsssp.initial"],
        "dynsssp.vd_estimate_s": dur["update", "dynsssp.vd_estimate"],
        "dynsssp.vd_estimate_calls": calls["update", "dynsssp.vd_estimate"],
        "dynsssp.omega_rescans": c["dynsssp.omega_rescans"],
        "sampling.sample_path_s": dur["update", "sampling.sample_path"],
        "sampling.paths_drawn": calls["update", "sampling.sample_path"],
        "sampling.path_steps": c["sampling.path_steps"],
        "sampling.redraws": redraws,
        "sampling.redraws_still_valid": c["sampling.redraws_still_valid"],
        # a redraw is useful when the old path stopped being shortest
        "sampling.useful_redraw_ratio":
            1.0 - c["sampling.redraws_still_valid"] / redraws if redraws else 1.0,
        "exact.predecessors_s": dur["update", "exact.predecessors"],
        "exact.predecessors_calls": calls["update", "exact.predecessors"],
        "setup.exact.sssp_s": dur["setup", "exact.sssp"],
        "recompute.exact.sssp_s": dur["recompute", "exact.sssp"],
        "setup.vdbounds.vd_upper_bound_s": dur["setup", "vdbounds.vd_upper_bound"],
        "recompute.vdbounds.vd_upper_bound_s":
            dur["recompute", "vdbounds.vd_upper_bound"],
        "bc.update_total_s": update_total,
        "bc.update_self_s": own["update", "bc.update_bc"],
        "setup.bc.self_s": own["setup", "bc.init_bc"],
        "setup.dynsssp.initial_self_s": own["setup", "dynsssp.initial"],
        "recompute.sampling.sample_path_s": dur["recompute", "sampling.sample_path"],
        "bc.r_initial": r_initial,
        "bc.r_final": state.r,
        "bc.grow_batches": grow,
        "bc.vd_bound_final": state.vd_bound,
        "bc.aux_searches_final": len(state.aux_sources),
        "bc.max_abs_error": err,
        "trace.overhead_ratio": traced / untraced,
    }
    return metrics, tracer


def emit(name, metrics, units, ledger, extra):
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    for key, value in extra.items():
        print(f"{name} {key} = {value:.6g}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.planned,
        "failed": ledger.failed,
        "metrics": {
            k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    workload = WORKLOADS[args.workload]
    inputs = build_inputs(workload, args.seed, batches=batch_count(workload, args.seconds))
    batches = inputs.batches
    units = PER_LAYER if args.trace else END_TO_END
    ledger = Ledger(planned_ops(workload, args.trace, len(batches)))
    try:
        if args.trace:
            metrics, tracer = run_traced(workload, inputs, batches, ledger)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{workload.name}.spans.tsv")
            extra = {"batches": len(batches)}
        else:
            metrics, extra = run_end_to_end(workload, inputs, batches, ledger)
    except Exception:  # report the failure as failed operations, then exit
        traceback.print_exc()
        ledger.abort()
        emit(workload.name, {}, units, ledger, {})
        return 1
    extra["error_rate"] = ledger.failed / ledger.planned
    emit(workload.name, metrics, units, ledger, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
