"""One benchmark job in a fresh Python process.

Modes:

``env``
    Import gosta_sim and report versions and the seeds derived from the
    workload seed.
``check``
    Set up, then run the checks too slow to repeat on every pass: short
    engine runs against the scalar reference engines (MC workloads), or
    the `table1` gaps against the dense spectrum (analysis).
``pass``
    Set up the workload's inputs, time one untraced pass of its user-facing
    calls, then check the outputs.
``traced``
    Set up, then replay the pass from the public pieces of each call with a
    span around every piece, then check the outputs. The spans give the
    per-layer metrics and are written to the output directory at the end.

``setup_s`` starts just before ``import gosta_sim`` (numpy and scipy load
through it) and ends when the workload's inputs exist. Checks run after the
timed phase and after peak memory is read. The job prints one JSON object as
the last line of its standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as W
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
STOCHASTIC = ("boyd", "u1", "u2", "gosta_sync", "gosta_async", "flooding")


class Ops:
    """Checked operations: each check is one attempted operation."""

    def __init__(self) -> None:
        self.items: list[list] = []

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append([name, bool(ok), detail])


def peak_rss_mb() -> float:
    """Peak resident memory of this process. VmHWM belongs to the process
    image, whereas ru_maxrss keeps the parent's size at fork across exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_form_comm(proto: str, ts, n: int, d: int):
    import numpy as np
    t = np.asarray(ts, dtype=np.int64)
    per_iter = {"boyd": 2, "u1": 2 * d, "u2": 4 * d, "gosta_sync": 2 + 2 * d,
                "gosta_async": 2 + 2 * d, "flooding": 2 * d}
    if proto == "master_node":
        return n * d * (1 + np.minimum(t, n))
    return per_iter[proto] * t


def check_comm(ops: Ops, proto: str, ts, comm, n: int, d: int) -> None:
    import numpy as np
    want = closed_form_comm(proto, ts, n, d)
    ok = np.array_equal(np.asarray(comm, dtype=np.int64), want)
    ops.record(f"comm_units.{proto}", ok,
               "" if ok else f"final {int(comm[-1])} != {int(want[-1])}")


def digest(arrays) -> str:
    import numpy as np
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def analysis_data(n: int, seed: int):
    """The analysis workload's data, drawn from the seed the experiment
    harness derives for its data."""
    import numpy as np
    from gosta_sim.engines import derive_seed
    from gosta_sim.harness import synth_gaussian_mixture
    rng = np.random.default_rng(derive_seed(seed, 202))
    return synth_gaussian_mixture(n, 2, 3, 6.0, rng)


def build_inputs(wl: dict, seed: int, out: Path) -> dict:
    """Graph, data and kernel of the workload. On the MC workloads they come
    from the experiment spec through the harness's own helpers, so that they
    are the inputs `run_experiment` builds."""
    import gosta_sim as gs
    from gosta_sim import harness
    if wl["kind"] == "mc":
        cfg = out / "experiment.json"
        cfg.write_text(json.dumps(
            W.experiment_config(wl, seed, str(out / "csv")), indent=1))
        spec = harness.load_experiment(cfg)
        inp = {"spec": spec,
               "graph": harness.build_graph_from_spec(spec.graph, seed)}
        inp["design"], inp["partition"] = harness._materialize_data(spec)
    else:
        inp = {"graph_spec": W.graph_spec(wl["n"])}
        inp["graph"] = harness.build_graph_from_spec(inp["graph_spec"], seed)
        inp["design"], inp["partition"] = analysis_data(wl["n"], seed)
    inp["km"] = gs.build_kernel_matrix("scatter", inp["design"],
                                       inp["partition"])
    inp["x"] = inp["design"].rows[:, 0].copy()
    if wl["kind"] == "analysis":
        inp["summary"] = gs.spectral_summary(inp["graph"])
        inp["grid"] = gs.geometric_checkpoints(wl["t_max"])
        inp["table1"] = [harness.parse_graph_spec_string(s)
                         for s in wl["table1"]]
    return inp


# --------------------------------------------------------------- MC passes

def experiment_digest(result) -> str:
    return digest(a for agg in result.protocols.values()
                  for a in (agg.per_run_means, agg.per_run_stds))


def mc_pass(spec, n: int, dim: int, ops: Ops) -> dict:
    from gosta_sim import harness
    t0 = time.perf_counter()
    result = harness.run_experiment(spec)
    experiment_s = time.perf_counter() - t0
    rss = peak_rss_mb()
    for proto, agg in result.protocols.items():
        check_comm(ops, proto, agg.ts, agg.comm_units, n, dim)
    return {"pass_s": experiment_s, "stages": {"experiment_s": experiment_s},
            "peak_rss_mb": rss, "digest": experiment_digest(result)}


def mc_traced(inp: dict, ops: Ops, tr: Tracer) -> dict:
    """`run_experiment` replayed from its pieces with the same derived
    seeds. The code between the pieces (aggregation, loops) is the root
    span's self time."""
    import numpy as np
    import gosta_sim as gs
    from gosta_sim import engines, harness
    from gosta_sim.engines import EngineConfig, derive_seed
    spec = inp["spec"]
    traces = []
    with tr.span("experiment"):
        with tr.span("graph.build"):
            g = harness.build_graph_from_spec(spec.graph, spec.seed)
        with tr.span("harness.synth_data"):
            design, part = harness._materialize_data(spec)
        with tr.span("kernels.build"):
            km = gs.build_kernel_matrix("scatter", design, part)
        cps = harness._experiment_checkpoints(spec)
        x = design.rows[:, 0].copy()
        aggregates = {}
        for pidx, proto in enumerate(spec.protocols):
            means = np.empty((spec.runs, len(cps)))
            stds = np.empty((spec.runs, len(cps)))
            for run in range(spec.runs):
                cfg = EngineConfig(protocol=proto, max_iters=spec.iters,
                                   seed=derive_seed(spec.seed, pidx, run),
                                   checkpoints=cps)
                with tr.span(f"engines.{proto}.run"):
                    trace = engines.run_protocol(cfg, g=g, km=km, x=x)
                with tr.span("engines.relative_error"):
                    err = gs.relative_error(trace)
                means[run] = err.mean
                stds[run] = err.std
                traces.append((proto, trace.ts, trace.comm_units))
            aggregates[proto] = harness.ProtocolAggregate(
                protocol=proto, ts=np.array(cps, dtype=np.int64),
                comm_units=trace.comm_units, err_mean=means.mean(axis=0),
                err_std_nodes=stds.mean(axis=0),
                err_std_runs=means.std(axis=0), per_run_means=means,
                per_run_stds=stds, absolute=err.absolute)
        result = harness.AggregateResult(protocols=aggregates,
                                         truth=km.u_stat, runs=spec.runs)
        with tr.span("harness.write_csv"):
            paths = harness.write_experiment_csvs(result, spec.output_dir)
    with tr.span("graph.diagnose"):
        gs.diagnose(g)
    for proto, ts, comm in traces:
        check_comm(ops, proto, ts, comm, km.n, km.dim)
    counts = {"iters": spec.iters, "checkpoints": 0,
              "dense_bytes": km.n * km.n * 8,
              "csv_bytes": sum(p.stat().st_size for p in paths),
              "comm": {proto: int(comm[-1]) for proto, _, comm in traces}}
    return {"digest": experiment_digest(result), "counts": counts,
            "mirror_roots": ["experiment"]}


def check_reference(ops: Ops, inp: dict, seed: int) -> None:
    """Short runs of each stochastic protocol against the scalar reference
    engines of the test suite."""
    import numpy as np
    from gosta_sim import engines
    from gosta_sim.engines import EngineConfig, derive_seed
    sys.path.insert(0, str(ROOT / "tests"))
    import _reference as ref
    g, km, x = inp["graph"], inp["km"], inp["x"]
    iters = W.REFERENCE_ITERS
    cps = (1, iters // 3, iters)
    for proto in STOCHASTIC:
        run_seed = derive_seed(seed, W.PROTOCOLS.index(proto), 0)
        cfg = EngineConfig(protocol=proto, max_iters=iters, seed=run_seed,
                           checkpoints=cps)
        trace = engines.run_protocol(cfg, g=g, km=km, x=x)
        want = getattr(ref, f"ref_run_{proto}")(
            g, x if proto == "boyd" else km.dense(), iters, run_seed,
            set(cps))
        dev = max(float(np.max(np.abs(trace.estimates[k] - want[t])))
                  for k, t in enumerate(cps))
        ops.record(f"reference.{proto}", dev <= 1e-12, f"max dev {dev:.3g}")


# --------------------------------------------------------- analysis passes

def analysis_digest(reports: dict, curves: dict, gaps: list) -> str:
    arrays = [a for p in W.BOUND_PROTOCOLS
              for a in (reports[p].actual_err, reports[p].bound_val)]
    arrays += [curves[o] for o in ("u1", "boyd")] + [gaps]
    return digest(arrays)


def stack_curve(oracle: dict, grid):
    import numpy as np
    return np.stack([oracle[t] for t in grid])


def check_analysis(ops: Ops, reports: dict, curves: dict, gaps) -> None:
    import numpy as np
    for p in ("gosta_sync", "u2"):
        rep = reports[p]
        ok = bool(np.all(rep.bound_val >= rep.actual_err))
        ops.record(f"bound_dominates.{p}", ok,
                   "" if ok else "bound below the exact error")
    for p in W.BOUND_PROTOCOLS:
        ops.record(f"finite.{p}", np.isfinite(reports[p].actual_err).all())
    for o in ("u1", "boyd"):
        ops.record(f"finite.{o}", np.isfinite(curves[o]).all())
    ops.record("finite.table1", np.isfinite(gaps).all() and min(gaps) > 0)


def analysis_pass(inp: dict, wl: dict, seed: int, ops: Ops) -> dict:
    import gosta_sim as gs
    from gosta_sim import harness
    g, km, grid, t_max = inp["graph"], inp["km"], inp["grid"], wl["t_max"]
    t0 = time.perf_counter()
    reports = {p: gs.bound_report(g, km, p, grid) for p in W.BOUND_PROTOCOLS}
    u1 = gs.u1_expectation(g, km, t_max, grid)
    boyd = gs.boyd_expectation(g, inp["x"], t_max, grid)
    t1 = time.perf_counter()
    rows = harness.table1(inp["table1"], seed=seed)
    t2 = time.perf_counter()
    rss = peak_rss_mb()
    curves = {"u1": stack_curve(u1, grid), "boyd": stack_curve(boyd, grid)}
    gaps = [row["gap"] for row in rows]
    check_analysis(ops, reports, curves, gaps)
    return {"pass_s": t2 - t0,
            "stages": {"oracle_curves_s": t1 - t0, "table1_s": t2 - t1},
            "peak_rss_mb": rss,
            "digest": analysis_digest(reports, curves, gaps)}


def analysis_traced(inp: dict, wl: dict, seed: int, ops: Ops,
                    tr: Tracer) -> dict:
    """The analysis pass replayed call by call, then each oracle and bound
    function that `bound_report` wraps timed on its own."""
    import numpy as np
    import gosta_sim as gs
    from gosta_sim import harness
    grid, t_max = inp["grid"], wl["t_max"]
    with tr.span("inputs"):
        with tr.span("graph.build"):
            g = harness.build_graph_from_spec(inp["graph_spec"], seed)
        with tr.span("harness.synth_data"):
            design, part = analysis_data(wl["n"], seed)
        with tr.span("kernels.build"):
            km = gs.build_kernel_matrix("scatter", design, part)
        with tr.span("spectral.summary"):
            summary = gs.spectral_summary(g)
    with tr.span("graph.diagnose"):
        gs.diagnose(g)
    x = design.rows[:, 0].copy()
    reports = {}
    with tr.span("oracle_curves"):
        for p in W.BOUND_PROTOCOLS:
            with tr.span(f"bounds.report.{p}"):
                reports[p] = gs.bound_report(g, km, p, grid)
        with tr.span("expectation.u1"):
            u1 = gs.u1_expectation(g, km, t_max, grid)
        with tr.span("expectation.boyd"):
            boyd = gs.boyd_expectation(g, x, t_max, grid)
    gaps = []
    with tr.span("table1"):
        for spec in inp["table1"]:
            with tr.span("graph.build"):
                tg = harness.build_graph_from_spec(spec, seed)
            with tr.span(f"spectral.beta2.{spec['family']}"):
                beta = gs.beta_second_smallest(tg)
            gaps.append(beta / (2.0 * tg.num_edges))
    with tr.span("decompose"):
        with tr.span("expectation.gosta_sync"):
            gs.gosta_sync_expectation(g, km, t_max, grid)
        with tr.span("expectation.u2"):
            gs.u2_expectation(g, km, t_max, grid)
        with tr.span("expectation.gosta_async"):
            async_curve = gs.gosta_async_expectation(g, km, t_max, grid)
        async_err = np.array([np.linalg.norm(async_curve[t] - km.u_stat)
                              for t in grid])
        with tr.span("bounds.closed_form"):
            for t in grid:
                gs.sync_error_bound(g, km, t, summary)
                gs.u2_error_bound(g, km, t, summary)
            consts = gs.async_constants(g, summary)
            for t in grid:
                consts.mu_r(t)
            gs.fit_rate(grid, async_err, "logt_over_t")
    curves = {"u1": stack_curve(u1, grid), "boyd": stack_curve(boyd, grid)}
    check_analysis(ops, reports, curves, gaps)
    counts = {"iters": 0, "checkpoints": len(grid),
              "dense_bytes": km.n * km.n * 8, "csv_bytes": 0, "comm": {}}
    return {"digest": analysis_digest(reports, curves, gaps),
            "counts": counts, "mirror_roots": ["oracle_curves", "table1"]}


def check_table1(ops: Ops, inp: dict, seed: int) -> None:
    """Each `table1` gap against beta_{n-1}/(2m) from the dense spectrum."""
    import numpy as np
    import gosta_sim as gs
    from gosta_sim import harness
    rows = harness.table1(inp["table1"], seed=seed)
    for spec, row in zip(inp["table1"], rows):
        g = harness.build_graph_from_spec(spec, seed)
        gap = row["gap"]
        beta = float(np.linalg.eigvalsh(gs.laplacian(g))[1])
        want = beta / (2.0 * g.num_edges)
        rel = abs(gap - want) / want
        ops.record(f"table1_gap.{spec['family']}", rel <= 1e-6,
                   f"relative deviation {rel:.3g}")


# ----------------------------------------------------------- layer metrics

def layer_values(tr: Tracer, counts: dict) -> dict:
    """Per-layer metrics from the spans: self times summed by span name,
    engine run times as the median over runs."""
    timed = (["graph.build", "graph.diagnose", "kernels.build",
              "spectral.summary", "engines.relative_error",
              "bounds.closed_form", "harness.write_csv"]
             + [f"spectral.beta2.{f}" for f in W.TABLE1_FAMILIES]
             + [f"bounds.report.{p}" for p in W.BOUND_PROTOCOLS]
             + [f"expectation.{o}" for o in W.ORACLES])
    v = {f"{name}_s": sum(tr.self_times(name)) for name in timed}
    for proto in W.PROTOCOLS:
        runs = tr.self_times(f"engines.{proto}.run")
        run_s = statistics.median(runs) if runs else 0.0
        v[f"engines.{proto}.run_s"] = run_s
        v[f"engines.{proto}.iters_per_s"] = (counts["iters"] / run_s
                                             if runs else 0.0)
        v[f"engines.{proto}.comm_units"] = counts["comm"].get(proto, 0)
    for o in W.ORACLES:
        v[f"expectation.{o}.ms_per_checkpoint"] = (
            1000.0 * v[f"expectation.{o}_s"] / counts["checkpoints"]
            if counts["checkpoints"] else 0.0)
    v["kernels.dense_bytes"] = counts["dense_bytes"]
    v["harness.csv_bytes"] = counts["csv_bytes"]
    return v


# ---------------------------------------------------------------- env mode

def env_record(wl: dict, seed: int) -> dict:
    import numpy as np
    import scipy
    import gosta_sim
    from gosta_sim.engines import derive_seed
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = blas.get("blas", {})
    rec = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "gosta_sim": gosta_sim.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "graph_seed": derive_seed(seed, 101),
        "data_seed": derive_seed(seed, 202),
    }
    if wl["kind"] == "mc":
        rec["run_seeds"] = {p: [derive_seed(seed, pidx, run)
                                for run in range(wl["runs"])]
                            for pidx, p in enumerate(W.PROTOCOLS)}
    return rec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("env", "check", "pass", "traced"),
                    required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    wl = W.workload(args.workload, args.smoke)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "env":
        print(json.dumps(env_record(wl, args.seed)))
        return 0

    t0 = time.perf_counter()
    import gosta_sim  # noqa: F401  (the import is part of set-up)
    inp = build_inputs(wl, args.seed, out)
    res = {"setup_s": time.perf_counter() - t0}
    ops = Ops()
    if args.mode == "check":
        if wl["kind"] == "mc":
            check_reference(ops, inp, args.seed)
        else:
            check_table1(ops, inp, args.seed)
    elif args.mode == "pass":
        if wl["kind"] == "mc":
            # run_experiment builds its own graph, data and kernel: drop
            # these copies so that they do not count in the pass's peak.
            spec, n, dim = inp["spec"], inp["km"].n, inp["km"].dim
            del inp
            gc.collect()
            res.update(mc_pass(spec, n, dim, ops))
        else:
            res.update(analysis_pass(inp, wl, args.seed, ops))
    else:
        tr = Tracer()
        if wl["kind"] == "mc":
            rep = mc_traced(inp, ops, tr)
        else:
            rep = analysis_traced(inp, wl, args.seed, ops, tr)
        roots = [r for name in rep["mirror_roots"] for r in tr.roots(name)]
        res["digest"] = rep["digest"]
        res["mirror_s"] = sum(tr.duration(r) for r in roots)
        res["unaccounted_s"] = sum(tr.self_time(r) for r in roots)
        res["layers"] = layer_values(tr, rep["counts"])
        tr.dump(out / f"spans-{os.getpid()}.json")
    res["ops"] = ops.items
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
