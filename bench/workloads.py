"""Workload definitions shared by run.py and its workers.

Stdlib only: workers import this module before the timed ``import
gosta_sim``, so it must not pull in numpy.

Every workload uses a Watts-Strogatz graph (k=5, p=0.3), the ``scatter``
kernel and ``gaussian_mixture`` data (d=2, 3 clusters, separation 6); the
graph and the data derive from the workload seed.
"""

PROTOCOLS = ("boyd", "u1", "u2", "gosta_sync", "gosta_async",
             "flooding", "master_node")
BOUND_PROTOCOLS = ("gosta_sync", "u2", "gosta_async")
ORACLES = ("gosta_sync", "gosta_async", "u1", "u2", "boyd")
TABLE1_FAMILIES = ("complete", "watts_strogatz", "grid2d")

# A second workload seed, never used while tuning, on which a perf claim
# made with other seeds must also hold.
HELD_OUT_SEED = 918273

# mc_small: n=100, so per-iteration interpreter overhead dominates, and 200
#   "every" checkpoints x runs x 7 protocols make CSV writing visible.
# mc_large: n=3000 (below the dense-kernel limit), so the O(n) per-iteration
#   engine updates, Watts-Strogatz rewiring and the n^2 kernel build dominate.
# analysis: n=60 (the full-state oracle cap); no engine runs, so it is the
#   bypass workload for engine changes. Exact oracles on a T=20000 geometric
#   grid plus Table 1 over the paper's three network families.
WORKLOADS = {
    "mc_small": {"kind": "mc", "n": 100, "iters": 20000, "runs": 3,
                 "checkpoints": {"policy": "every", "step": 100}},
    "mc_large": {"kind": "mc", "n": 3000, "iters": 20000, "runs": 1,
                 "checkpoints": {"policy": "geometric", "max_points": 200}},
    "analysis": {"kind": "analysis", "n": 60, "t_max": 20000,
                 "table1": ("complete:n=1599",
                            "watts_strogatz:n=1599,k=5,p=0.3",
                            "grid2d:rows=39,cols=41")},
}

# The same workloads shrunk so that one pass and every check finish in
# about a second; used by the benchmark's own test.
SMOKE_WORKLOADS = {
    "mc_small": {"kind": "mc", "n": 12, "iters": 400, "runs": 2,
                 "checkpoints": {"policy": "every", "step": 50}},
    "mc_large": {"kind": "mc", "n": 40, "iters": 400, "runs": 1,
                 "checkpoints": {"policy": "geometric", "max_points": 200}},
    "analysis": {"kind": "analysis", "n": 12, "t_max": 400,
                 "table1": ("complete:n=40",
                            "watts_strogatz:n=40,k=5,p=0.3",
                            "grid2d:rows=6,cols=7")},
}

# Iterations of the short run compared with the scalar reference engines.
REFERENCE_ITERS = 150


def workload(name: str, smoke: bool) -> dict:
    table = SMOKE_WORKLOADS if smoke else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload '{name}'; "
                       f"expected one of {sorted(table)}")
    return table[name]


def graph_spec(n: int) -> dict:
    return {"family": "watts_strogatz", "n": n, "k": 5, "p": 0.3}


def experiment_config(wl: dict, seed: int, output_dir: str) -> dict:
    """JSON experiment config of an MC workload, as `gosta-sim experiment`
    reads it."""
    n = wl["n"]
    return {
        "graph": graph_spec(n),
        "kernel": {"name": "scatter"},
        "data": {"kind": "gaussian_mixture", "n": n, "d": 2, "clusters": 3,
                 "separation": 6.0},
        "protocols": list(PROTOCOLS),
        "iters": wl["iters"],
        "runs": wl["runs"],
        "seed": seed,
        "checkpoints": dict(wl["checkpoints"]),
        "output_dir": output_dir,
    }
