"""Self-test of the benchmark on tiny sizes of every workload.

    python3 perfbench/selftest.py

Checks that every metric is printed by name with its unit, that the
update-phase child spans sum to no more than the update total, that count
metrics and the state size repeat exactly for a seed, that equal seeds give identical inputs
and different seeds different ones, that the wrappers are removed after a
traced run, and that the vectorized exact scores equal ``brandes_exact``.
Exits with 0 when every check passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # sets up the import of the package from this checkout
import dynbc.bc
import dynbc.dynsssp
import dynbc.sampling
from checks import exact_scores
from dynbc import DynSSSP, brandes_exact
from workloads import WORKLOADS, build_inputs

TINY = {"dm-insert-b1": (300, 12), "dm-churn-b16": (300, 6), "dmw-weights-b1": (120, 8)}
SEED = 11


class Failure(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Failure(msg)


def fingerprint(inputs):
    g = inputs.graph
    edges = sorted(g.edges())
    events = [
        [(e.u, e.v, e.op, e.weight) for e in batch] for batch in inputs.batches
    ]
    return edges, events, inputs.params


def tiny(workload, seed):
    n, batches = TINY[workload.name]
    return build_inputs(workload, seed, n=n, batches=batches)


def printed(workload, metrics, units, ledger, extra):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.emit(workload.name, metrics, units, ledger, extra)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload.name}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0,
           f"{workload.name}: {result['failed']} of {result['attempted']} failed")
    for name, unit in units.items():
        expect(result["metrics"].get(name) == {"value": metrics[name], "unit": unit},
               f"{workload.name}: {name} missing from the result or without {unit}")
        expect(any(line.startswith(f"{workload.name} {name} = ")
                   and line.endswith(f" {unit}") for line in lines[:-1]),
               f"{workload.name}: {name} not printed with its unit")
    for name in extra:
        expect(any(line.startswith(f"{workload.name} {name} = ") for line in lines),
               f"{workload.name}: {name} not printed")


def traced(workload, inputs):
    ledger = run.Ledger(run.planned_ops(workload, 1, len(inputs.batches)))
    metrics, tracer = run.run_traced(workload, inputs, inputs.batches, ledger)
    return metrics, tracer, ledger


def check_spans(workload, metrics, tracer):
    update_bc = [i for i, s in enumerate(tracer.spans)
                 if s[0] == "bc.update_bc" and s[4] >= 0]
    roots = set(update_bc)
    total = metrics["bc.update_total_s"]
    children = metrics["graph.apply_batch_s"] + sum(
        s[2] - s[1] for s in tracer.spans if s[3] in roots)
    expect(children <= total + 1e-9,
           f"{workload.name}: child spans {children} exceed update total {total}")
    expect(metrics["bc.update_self_s"] >= 0, f"{workload.name}: negative self time")
    expect(all(s[3] < i for i, s in enumerate(tracer.spans)),
           f"{workload.name}: a span starts before its parent")


def check_unwrapped():
    expect(dynbc.bc.update_sssp is dynbc.dynsssp.update_sssp, "update_sssp left wrapped")
    expect(dynbc.bc.sample_path is dynbc.sampling.sample_path, "sample_path left wrapped")
    expect(dynbc.bc.compute_extended_sssp is dynbc.exact.compute_extended_sssp,
           "compute_extended_sssp left wrapped")
    expect(dynbc.sampling.predecessors is dynbc.exact.predecessors,
           "predecessors left wrapped")
    expect(DynSSSP.__dict__["initial"].__func__.__qualname__ == "DynSSSP.initial",
           "DynSSSP.initial left wrapped")


def check_workload(workload):
    a, b = tiny(workload, SEED), tiny(workload, SEED)
    expect(fingerprint(a) == fingerprint(b), f"{workload.name}: equal seeds differ")
    expect(fingerprint(a) != fingerprint(tiny(workload, SEED + 1)),
           f"{workload.name}: different seeds give the same inputs")

    ledger = run.Ledger(run.planned_ops(workload, 0, len(a.batches)))
    metrics, extra = run.run_end_to_end(workload, a, a.batches, ledger)
    extra["error_rate"] = ledger.failed / ledger.planned
    printed(workload, metrics, run.END_TO_END, ledger, extra)
    expect(ledger.done == ledger.planned, f"{workload.name}: operation count is off")
    again, _ = run.run_end_to_end(workload, b, b.batches, run.Ledger(ledger.planned))
    expect(again["state_bytes_per_sample"] == metrics["state_bytes_per_sample"],
           f"{workload.name}: state size differs between runs of one seed")

    first, tracer, ledger = traced(workload, a)
    check_unwrapped()
    printed(workload, first, run.PER_LAYER, ledger, {})
    expect(ledger.done == ledger.planned, f"{workload.name}: traced operation count is off")
    check_spans(workload, first, tracer)
    second, _, _ = traced(workload, b)
    for name, unit in run.PER_LAYER.items():
        if unit != "s" and name != "trace.overhead_ratio":
            expect(first[name] == second[name],
                   f"{workload.name}: {name} {first[name]} then {second[name]}")


def check_exact():
    inputs = tiny(WORKLOADS["dm-churn-b16"], SEED)
    g = inputs.graph
    gap = max(abs(x - y) for x, y in zip(exact_scores(g), brandes_exact(g)))
    expect(gap < 1e-12, f"vectorized exact scores differ by {gap}")


def main():
    for workload in WORKLOADS.values():
        check_workload(workload)
        print(f"ok {workload.name}")
    check_exact()
    print("ok exact scores")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
