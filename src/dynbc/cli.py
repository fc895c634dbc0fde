"""Benchmark command line.

Subcommands:
  run        replay a dynamic scenario through one update mode and emit
             per-run timing/accuracy rows (csv or jsonl)
  vd-bounds  sampled lower bound, the class-appropriate upper bound, and the
             largest weak-component size for a graph
  exact      dump exact betweenness scores
  generate   write a generated graph as a plain edge list
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys

from .bc import MODES
from .bench import SCENARIOS, ScenarioSpec, load_edge_list, run_experiment
from .errors import GraphError
from .exact import brandes_exact, max_shortest_path_hops
from .graph import generate, weakly_connected_components
from .sampling import SamplingParams
from .vdbounds import vd_upper_bound


def _add_graph_args(p):
    p.add_argument("--graph", required=True, help="edge list file")
    p.add_argument("--format", choices=("plain", "temporal"), default="plain")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weighted", action="store_true")


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _emit(rows, header, out, fmt):
    fh = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.DictWriter(fh, fieldnames=header)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        else:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    finally:
        if out:
            fh.close()


def main(argv=None):
    parser = argparse.ArgumentParser(prog="dynbc")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="replay a dynamic scenario")
    _add_graph_args(p_run)
    p_run.add_argument("--mode", required=True, choices=MODES)
    p_run.add_argument("--epsilon", type=float, default=0.1)
    p_run.add_argument("--delta", type=float, default=0.1)
    p_run.add_argument("--scenario", choices=SCENARIOS, default="real")
    p_run.add_argument("--x", type=int, required=True, help="prepared events")
    p_run.add_argument(
        "--batch-sizes",
        type=_int_list,
        default="1,16,1024",
        help="comma-separated powers of two",
    )
    p_run.add_argument("--runs", type=int, default=10)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--with-exact", action="store_true")
    p_run.add_argument(
        "--exact-threshold",
        type=int,
        default=5000,
        help="skip exact comparison above this node count",
    )
    p_run.add_argument("--output-format", choices=("csv", "jsonl"), default="csv")
    p_run.add_argument("--out", default=None)

    p_vd = sub.add_parser("vd-bounds", help="vertex-diameter bound comparison")
    _add_graph_args(p_vd)
    p_vd.add_argument("--samples", type=int, default=10, help="eccentricity samples")
    p_vd.add_argument("--seed", type=int, default=0)
    p_vd.add_argument("--output-format", choices=("csv", "jsonl"), default="csv")
    p_vd.add_argument("--out", default=None)

    p_exact = sub.add_parser("exact", help="exact betweenness dump")
    _add_graph_args(p_exact)
    p_exact.add_argument("--output-format", choices=("csv", "jsonl"), default="csv")
    p_exact.add_argument("--out", default=None)

    p_gen = sub.add_parser("generate", help="write a generated graph")
    p_gen.add_argument(
        "--model",
        required=True,
        choices=("path", "cycle", "star", "dorogovtsev-mendes", "erdos-renyi"),
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--directed", action="store_true")
    p_gen.add_argument("--weighted", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        return _run(parser, args)
    except (GraphError, OSError) as exc:
        parser.exit(2, f"dynbc: error: {exc}\n")


def _run(parser, args):
    if args.command == "run":
        g, events = load_edge_list(
            args.graph, args.format, args.directed, args.weighted
        )
        spec = ScenarioSpec(
            kind=args.scenario,
            x=args.x,
            batch_sizes=args.batch_sizes,
            runs=args.runs,
            seed=args.seed,
        )
        params = SamplingParams(args.epsilon, args.delta, seed=args.seed)
        reports = run_experiment(
            g,
            spec,
            params,
            args.mode,
            with_exact=args.with_exact,
            exact_threshold=args.exact_threshold,
            events=events,
        )
        rows = [r.row() for r in reports]
        header = list(rows[0]) if rows else []
        _emit(rows, header, args.out, args.output_format)
        return 0

    if args.command == "vd-bounds":
        if args.samples < 0:
            parser.exit(2, "dynbc: error: --samples must not be negative\n")
        g, _ = load_edge_list(args.graph, args.format, args.directed, args.weighted)
        rng = random.Random(args.seed)
        k = min(args.samples, g.n)
        sampled = rng.sample(range(g.n), k) if k else []
        lower = 1 + max(
            (max_shortest_path_hops(g, s) for s in sampled), default=0
        )
        bound = vd_upper_bound(g)
        labels, count = weakly_connected_components(g)
        sizes = [0] * count
        for v in range(g.n):
            sizes[labels[v]] += 1
        row = {
            "n": g.n,
            "m": g.m,
            "vd_lower_sampled": lower,
            "vd_upper": bound.value,
            "bound_kind": bound.kind,
            "weak_component_bound": max(sizes) if sizes else 0,
        }
        _emit([row], list(row), args.out, args.output_format)
        return 0

    if args.command == "exact":
        g, _ = load_edge_list(args.graph, args.format, args.directed, args.weighted)
        bc = brandes_exact(g)
        rows = [{"node": v, "score": bc[v]} for v in range(g.n)]
        _emit(rows, ["node", "score"], args.out, args.output_format)
        return 0

    if args.command == "generate":
        kwargs = {"n": args.n, "weighted": args.weighted}
        if args.p is not None:
            kwargs["p"] = args.p
        if args.directed:
            kwargs["directed"] = True
        g = generate(args.model, seed=args.seed, **kwargs)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"# {args.model} n={args.n} seed={args.seed}\n")
            for u, v, w in g.edges():
                if args.weighted:
                    fh.write(f"{u} {v} {w}\n")
                else:
                    fh.write(f"{u} {v}\n")
        return 0

    parser.error("unreachable")


if __name__ == "__main__":
    sys.exit(main())
