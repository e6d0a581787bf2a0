"""Benchmark of gosta-sim: three workloads, timed end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload mc_small --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``mc_small`` and ``mc_large`` time one
``run_experiment`` call over all seven protocols, as ``gosta-sim experiment``
runs it; ``analysis`` times five exact-expectation curves (three of them
through ``bound_report``) and one ``table1`` call. ``--smoke`` shrinks every
workload so that a run with all its checks takes seconds.

Each pass runs in a fresh process (worker.py), which also measures the
set-up: importing gosta_sim and building the workload's inputs. Passes repeat
until ``--seconds`` is used up; every metric is the median over passes.
Checks too slow to repeat on every pass run once, in their own worker,
before the passes.
With ``--trace 0`` untraced passes give the end-to-end metrics. With
``--trace 1`` each untraced pass is paired with a traced replay of it, which
gives the per-layer metrics named in BENCHMARK.json.

Outputs are checked outside the timed phase, and every check is one
attempted operation. A summary, the run environment and the last line, one
JSON object with the keys correct, attempted, failed and metrics, go to
standard output; the full record, with the spans of traced passes, goes to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread (at most nproc) keeps the dense algebra off the second core
# and the timings steady on a shared two-core host.
BLAS_THREADS = 1
RUN_BUDGET_S = 170.0
MAX_ROUNDS = 40


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def source_record() -> dict:
    """The git commit when the tree is a checkout, and a digest of the
    package sources either way."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


class Runner:
    def __init__(self, args, out: Path, started: float) -> None:
        self.args = args
        self.out = out
        self.started = started
        self.env = worker_env()
        self.ops: list[list] = []

    def job(self, mode: str) -> dict | None:
        """Run one worker; None (and a failed operation) if it fails."""
        a = self.args
        cmd = [sys.executable, str(ROOT / "bench" / "worker.py"),
               "--workload", a.workload, "--seed", str(a.seed),
               "--mode", mode, "--out", str(self.out)]
        cmd += ["--smoke"] * a.smoke
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, text=True,
                                  stdout=subprocess.PIPE, timeout=left)
        except subprocess.TimeoutExpired:
            self.ops.append([f"worker.{mode}", False, "timed out"])
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.ops.append([f"worker.{mode}", False,
                             f"exit code {proc.returncode}"])
            return None
        res = json.loads(lines[-1])
        self.ops.extend(res.pop("ops", []))
        return res


def measure(runner: Runner, seconds: int, trace: bool):
    """Rounds of one untraced pass (plus one traced replay with --trace 1)
    until the next round would end after ``seconds``."""
    passes, traced = [], []
    start = time.perf_counter()
    deadline = start + seconds
    min_rounds = 1 if trace else 2
    for rnd in range(MAX_ROUNDS):
        t0 = time.perf_counter()
        res = runner.job("pass")
        if res is not None:
            passes.append(res)
        if trace:
            res = runner.job("traced")
            if res is not None:
                traced.append(res)
        now = time.perf_counter()
        round_s = now - t0
        if rnd + 1 >= min_rounds and now + round_s > deadline:
            break
        if now - runner.started + 2 * round_s > RUN_BUDGET_S:
            break
    return passes, traced, time.perf_counter() - start


def describe(values: list[float]) -> str:
    med = statistics.median(values)
    return (f"median {med:.6g}  min {min(values):.6g}  "
            f"max {max(values):.6g}  n={len(values)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs: every check in seconds")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "gosta_sim" / "__init__.py").is_file():
        print(f"error: no gosta_sim sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = ROOT / ".bench_out" / (tag + "-smoke" * args.smoke)
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(args, out, started)

    # Import once untimed, so that bytecode caches exist before timing.
    env = runner.job("env")
    if env is None:
        print("error: gosta_sim does not import", file=sys.stderr)
        return 2
    env.update(source_record(), blas_threads=BLAS_THREADS)
    runner.job("check")
    passes, traced, measured_s = measure(runner, args.seconds,
                                         bool(args.trace))
    if not passes or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    first = passes[0]["digest"]
    for res in passes[1:]:
        runner.ops.append(["determinism.pass", res["digest"] == first, ""])
    for res in traced:
        runner.ops.append(["determinism.replica", res["digest"] == first,
                           "traced replay output differs from the pass"])
    failed = sum(1 for _, ok, _ in runner.ops if not ok)
    attempted = max(len(runner.ops), 1)

    summary = {"setup_s": [p["setup_s"] for p in passes],
               "pass_s": [p["pass_s"] for p in passes],
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    for stage in passes[0]["stages"]:
        summary[stage] = [p["stages"][stage] for p in passes]
    if args.trace:
        specs = bench["per_layer"]
        pass_med = statistics.median(summary["pass_s"])
        values = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in traced[0]["layers"]}
        values["harness.unaccounted_s"] = statistics.median(
            t["unaccounted_s"] for t in traced)
        values["trace.overhead_frac"] = statistics.median(
            t["mirror_s"] for t in traced) / pass_med - 1.0
    else:
        specs = bench["end_to_end"]
        values = {k: statistics.median(v) for k, v in summary.items()}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(passes)} passes, {len(traced)} traced, "
          f"{measured_s:.1f} s measured")
    units = {"peak_rss_mb": "MiB"}
    for name, vals in summary.items():
        print(f"  {name:<18} {units.get(name, 's'):<5} {describe(vals)}")
    print(f"  {'failed_frac':<18} {'ratio':<5} {failed / attempted:.6g}  "
          f"({failed} of {attempted} operations)")
    for name, ok, detail in runner.ops:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"env": env, "passes": passes, "traced": traced,
              "ops": runner.ops, "metrics": metrics}
    (out / "run.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(out / "csv", ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
