"""Command-line interface.

Subcommands: spectrum, simulate, expect, bounds, experiment, table1,
gen-graph, gen-data. Data outputs are CSV, summaries are JSON; exit code 0
on success, nonzero with a message on stderr otherwise. The data commands
build their inputs from an experiment spec of their flags, as experiments do,
and ``simulate``'s runs are an experiment's jobs (``harness._run_jobs``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, kernels
from .bounds import bound_report
from .engines import PROTOCOLS, node_errors, relative_error
from .graph import read_graph_file, write_graph_file
from .spectral import spectral_summary


def _inputs(args, **fields) -> tuple:
    """(spec, graph, kernel matrix, node values, checkpoints) of a data
    command, from the spec of its flags and ``fields``, which checks them."""
    data = {"kind": "csv", "path": args.data}
    if args.cell_column is not None:
        data["cell_column"] = args.cell_column
    spec = harness.ExperimentSpec(
        graph=harness.parse_graph_spec_string(args.graph),
        kernel={"name": args.kernel}, data=data, protocols=[args.protocol],
        seed=args.seed, **fields)
    return (spec, *harness.build_inputs(spec))


def _cmd_spectrum(args) -> int:
    g = read_graph_file(args.graphfile)
    s = spectral_summary(g)
    payload = {
        "n": g.n,
        "m": g.num_edges,
        "beta_second_smallest": s.beta_second_smallest,
        "lambda2_w2": s.lambda2_of_w2,
        "lambda2_w1": s.lambda2_of_w1,
        "gap_c": s.gap_c,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_simulate(args) -> int:
    inputs = _inputs(args, iters=args.iters, runs=args.runs, checkpoints={
        "policy": "every", "step": args.record_every})

    def rows(key, trace):  # formatted in the child that ran the run
        run, ts, err = key[1], trace.ts.tolist(), relative_error(trace)
        lines = "".join(f"{run},{t},{c},{m:.17g},{s:.17g}\n" for t, c, m, s
                        in zip(ts, trace.comm_units.tolist(),
                               err.mean.tolist(), err.std.tolist()))
        return lines, "".join(
            f"{run},{t},{node},{z:.17g},{e:.17g}\n"
            for t, zs, es in zip(ts, trace.estimates.tolist(),
                                 node_errors(trace)[0].tolist())
            for node, (z, e) in enumerate(zip(zs, es), 1)
        ) if args.per_node else ""

    lines, nodes = map("".join, zip(*harness._run_jobs(
        inputs, [(0, run) for run in range(args.runs)], rows)))
    Path(args.out).write_text("run,t,comm_units,err_mean,err_std\n" + lines)
    if args.per_node:
        Path(args.out).with_suffix(".nodes.csv").write_text(
            "run,t,node,estimate,error\n" + nodes)
    return 0


def _cmd_expect(args) -> int:
    _, g, km, x, grid = _inputs(args, iters=args.t_max)
    proto = PROTOCOLS[args.protocol]
    source = x if proto.on_values else km
    oracle = proto.oracle(g, source, args.t_max, grid)
    target = proto.limit(source)
    lines = ["t,node,expected_Z,target,abs_err"]
    for t in sorted(oracle):
        for node in range(g.n):
            val = oracle[t][node]
            tgt = target[node]
            lines.append(f"{int(t)},{node + 1},{val:.17g},{tgt:.17g},"
                         f"{abs(val - tgt):.17g}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


def _cmd_bounds(args) -> int:
    _, g, km, _, grid = _inputs(args, iters=args.t_max)
    report = bound_report(g, km, args.protocol, grid)
    lines = ["t,actual_err,bound_val,ratio"]
    for k, t in enumerate(report.t_grid):
        actual = report.actual_err[k]
        bound = report.bound_val[k]
        ratio = bound / actual if actual > 0 else float("inf")
        lines.append(f"{int(t)},{actual:.17g},{bound:.17g},{ratio:.17g}")
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(json.dumps(report.constants, sort_keys=True, default=float))
    return 0


def _cmd_experiment(args) -> int:
    spec = harness.load_experiment(args.config)
    result = harness.run_experiment(spec)
    summary = {
        proto: {
            "final_t": int(agg.ts[-1]),
            "final_err_mean": float(agg.err_mean[-1]),
            "final_comm_units": int(agg.comm_units[-1]),
        }
        for proto, agg in result.protocols.items()
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_table1(args) -> int:
    specs = [harness.parse_graph_spec_string(s) for s in args.graph]
    rows = harness.table1(specs, seed=args.seed)
    lines = ["family,n,m,gap"]
    for row in rows:
        lines.append(f"{row['family']},{row['n']},{row['m']},"
                     f"{row['gap']:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_graph(args) -> int:
    g = harness.build_graph_from_spec(
        harness.parse_graph_spec_string(args.family_spec), args.seed)
    write_graph_file(g, args.out)
    return 0


def _cmd_gen_data(args) -> int:
    rng = np.random.default_rng(kernels.whole(args.seed, "seed", 0))
    if args.kind == "gaussian_mixture":
        design, part = harness.synth_gaussian_mixture(
            args.n, args.d, args.clusters, args.separation, rng)
        kernels.write_design_csv(args.out, design.rows, part.assignment)
    elif args.kind == "two_class":
        ds = harness.synth_two_class(args.n, args.d, args.margin, rng)
        kernels.write_design_csv(args.out, ds.design.rows, ds.labels)
    else:
        design, _ = harness.synth_gaussian_mixture(
            args.n, args.d, 1, 0.0, rng)
        kernels.write_design_csv(args.out, design.rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gosta-sim",
        description="Gossip-based decentralized estimation of pairwise "
                    "statistics: simulators, oracles and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="spectral gap constants of a graph file")
    p.add_argument("graphfile")
    p.set_defaults(func=_cmd_spectrum)

    def add_common(p, field=None):
        # the protocols whose record has ``field``, or all of them
        p.add_argument("--protocol", required=True, choices=tuple(
            name for name, proto in PROTOCOLS.items()
            if field is None or getattr(proto, field) is not None))
        p.add_argument("--graph", required=True,
                       help="graph spec (complete:n=100, grid2d:rows=8,cols=8,"
                            " watts_strogatz:n=100,k=5,p=0.3) or a file path")
        p.add_argument("--kernel", required=True, choices=kernels.KERNEL_NAMES)
        p.add_argument("--data", required=True, help="dataset CSV path")
        p.add_argument("--cell-column", type=int, help="cell-id column "
                       "for the scatter kernel (default: the last)")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="Monte-Carlo protocol runs")
    add_common(p)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--record-every", type=int, default=1)
    p.add_argument("--per-node", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "expect", help="expected-dynamics oracle curves: closed forms in the "
        "Laplacian eigenbasis, independent of t (the asynchronous protocol: "
        "an O(n^2) mean-field step per iteration)")
    add_common(p, "oracle")
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_expect)

    p = sub.add_parser("bounds", help="bound vs the expected error of the "
                       "eigenbasis oracles")
    add_common(p, "bound")
    p.add_argument("--t-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("experiment", help="run a JSON experiment config")
    p.add_argument("config")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("table1", help="averaging-gap table for graph specs")
    p.add_argument("--graph", action="append", required=True,
                   help="repeatable graph spec")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("gen-graph", help="write a generated graph file")
    p.add_argument("family_spec", help="graph spec string")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    p.add_argument("--kind", required=True,
                   choices=("gaussian_mixture", "two_class", "plain"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--clusters", type=int, default=3)
    p.add_argument("--separation", type=float, default=5.0)
    p.add_argument("--margin", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, RuntimeError) as exc:
        print(f"gosta-sim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
