"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload mc_small --seeds 1 2 3 4 5

Runs ``bench/run.py --trace 0`` once per seed, one after another, and
prints for each end-to-end metric its median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound in BENCHMARK.json. A metric is steady when its spread stays well below
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if not out["correct"]:
            print(f"seed {seed}: {out['failed']} failed operations",
                  file=sys.stderr)
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{k}={m['value']:.4g}" for k, m in out["metrics"].items()),
            flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{args.workload:<10} {m['name']:<14} median {med:.4g} "
              f"{m['unit']:<4} spread {(q3 - q1) / med:.4f}  "
              f"bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
