"""Experiment orchestration: configs, synthetic data, multi-run aggregation.

An experiment runs a list of protocols on one shared (graph, kernel, data)
triple for R independent runs each, aggregates relative errors across nodes
and runs, and writes one CSV per protocol plus a combined comparison CSV.
Per-run seeds derive from (base seed, protocol index, run index) through a
fixed splitting function, so outputs are byte-identical on replay.

Every run, an experiment's or a ``simulate`` command's, is a (protocol,
run) job of :func:`_run_jobs`, on one forked child per available CPU
(:func:`parallel.on_forks`); there is no option for it. The parent builds
the data, graph and kernel once (:func:`build_inputs`, which ``simulate``,
``expect`` and ``bounds`` share) and checks the graph once, before
forking, so the children share the kernel's pages copy-on-write and
receive nothing pickled. Each job sends back only what its caller keeps
of the run (error curves and communication counts, or CSV rows), placed
by job key, so every output is byte-identical to a serial run. With one
CPU or one job, inside a daemonic process, in a process running other
threads, or where ``fork`` is unavailable, the jobs run in-process.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import engines, kernels, parallel
from .engines import PROTOCOLS, EngineConfig, derive_seed, relative_error
from .expectation import every_checkpoints, geometric_checkpoints
from .graph import (Graph, complete_num_edges, grid2d_num_edges,
                    make_complete, make_grid2d, make_watts_strogatz,
                    read_graph_file, warn_if_unsuitable)
from .kernels import DesignMatrix, LabeledDataset, Partition, whole
from .spectral import (SpectralSummary, complete_beta, grid2d_beta,
                       spectral_summary)

__all__ = [
    "ExperimentSpec",
    "AggregateResult",
    "ProtocolAggregate",
    "load_experiment",
    "synth_gaussian_mixture",
    "synth_two_class",
    "run_experiment",
    "reaching_time",
    "table1",
    "build_graph_from_spec",
    "parse_graph_spec_string",
    "build_inputs",
]

_TYPES = {int: "a whole number", float: "a finite real number",
          str: "a path string"}


def _typed(value, kind: type, what: str, least: int | None = None):
    """``value`` as ``kind``: an int is a whole number by the rule of
    :func:`kernels.whole` (at least ``least`` if given), a float a finite
    number, neither a bool; a str is a path string or path-like object."""
    if kind is str and isinstance(value, os.PathLike):
        value = os.fspath(value)
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (isinstance(value, str) if kind is str else
            number and (kind is int or abs(value) <= sys.float_info.max)):
        raise ValueError(f"{what} must be {_TYPES[kind]}, got {value!r}")
    return whole(value, what, least) if kind is int else kind(value)


# Each part of an experiment spec: its name, its tag key, the type of each
# other key per tag value, and the optional keys' defaults (None: absent).
_GRAPHS = {
    "complete": {"n": int},
    "file": {"path": str},
    "grid2d": {"rows": int, "cols": int},
    "watts_strogatz": {"n": int, "k": int, "p": float},
}
_GRAPH = ("graph", "family", _GRAPHS, {})
_DATA = ("data", "kind", {
    "csv": {"path": str, "cell_column": int},
    "gaussian_mixture": {"n": int, "d": int, "clusters": int,
                         "separation": float},
    "two_class": {"n": int, "d": int, "margin": float},
}, {"cell_column": None})
_KERNEL = ("kernel", "name", {name: {} for name in kernels.KERNEL_NAMES}, {})
_CHECKPOINTS = ("checkpoints", "policy", {
    "every": {"step": int},
    "geometric": {"max_points": int},
}, {"policy": "geometric", "step": 1, "max_points": 200})


class _ReadOnlyDict(dict):
    """A dict that refuses every change; it pickles as a copy of its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("an experiment spec is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = _refuse
    setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class ExperimentSpec:
    """An experiment description, checked when it is made, in code or by
    :func:`load_experiment`: each mapping against its part's table, each
    value's type, the protocol names, the counts' lower limits, that only
    scatter reads ``cell_column`` and that a graph file or dataset exists,
    each failure naming its key. The builders check the rest in
    :func:`build_inputs`, before any run: the data file's rows, the data
    and graph sizes, the rewiring probability, the signs of ``separation``
    and ``margin``, the kernel's data and the graph/data size match. Values
    are stored converted, the mappings read-only with defaults filled."""

    graph: dict
    kernel: dict
    data: dict
    protocols: tuple[str, ...]
    iters: int
    runs: int = 1
    seed: int = 0
    checkpoints: dict = field(default_factory=dict)
    output_dir: str = "."

    def __post_init__(self) -> None:
        for part in (_GRAPH, _KERNEL, _DATA, _CHECKPOINTS):
            object.__setattr__(self, part[0], _ReadOnlyDict(
                _check_part(getattr(self, part[0]), part)))
        if "cell_column" in self.data and self.kernel["name"] != "scatter":
            raise ValueError(f"data cell_column is read only by the scatter "
                             f"kernel, not by '{self.kernel['name']}'")
        for what, path in (("graph", self.graph.get("path")),
                           ("dataset", self.data.get("path"))):
            if path is not None and not Path(path).exists():
                raise FileNotFoundError(f"{what} file not found: {Path(path)}")
        object.__setattr__(self, "protocols", _check_protocols(self.protocols))
        for name, kind, least in (("iters", int, 1), ("runs", int, 1),
                                  ("seed", int, 0), ("output_dir", str, None)):
            object.__setattr__(self, name,
                               _typed(getattr(self, name), kind, name, least))
        if self.checkpoints.get("max_points", 1) < 1:
            raise ValueError("checkpoint max_points must be >= 1")
        if not 1 <= self.checkpoints.get("step", 1) <= self.iters:
            raise ValueError("checkpoint step must satisfy 1 <= step <= iters")


@dataclass
class ProtocolAggregate:
    """Aggregated error curves for one protocol.

    ``err_mean`` averages the within-run node means across runs;
    ``err_std_nodes`` is the across-node std averaged over runs and
    ``err_std_runs`` the std of the per-run node means across runs.
    ``per_run_means`` has shape (runs, checkpoints).
    """

    protocol: str
    ts: np.ndarray
    comm_units: np.ndarray
    err_mean: np.ndarray
    err_std_nodes: np.ndarray
    err_std_runs: np.ndarray
    per_run_means: np.ndarray
    per_run_stds: np.ndarray
    absolute: bool


@dataclass
class AggregateResult:
    protocols: dict[str, ProtocolAggregate]
    truth: float | np.ndarray
    runs: int


def _check_keys(keys, allowed: set, where: str, required: set) -> None:
    """Raise ValueError on a key outside ``allowed`` or one of ``required``
    missing from ``keys``."""
    unknown = set(keys) - allowed
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)} in {where}; "
                         f"allowed: {sorted(allowed)}")
    missing = required - set(keys)
    if missing:
        raise ValueError(f"missing key(s) {sorted(missing)} in {where}; "
                         f"required: {sorted(required)}")


def _mapping(value, what: str) -> dict:
    """A dict copy of ``value``, which must be a mapping."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a mapping, got "
                         f"{type(value).__name__}")
    return dict(value)


def _check_part(spec, part: tuple) -> dict:
    """``spec`` with its values converted to their types and its defaults
    filled, once it is a mapping whose tag names a row of ``part`` and
    whose other keys are exactly that row's; raises ValueError otherwise."""
    name, tag_key, rows, defaults = part
    spec = _mapping(spec, f"{name} spec")
    tag = spec.pop(tag_key, defaults.get(tag_key))
    if not (isinstance(tag, str) and tag in rows):
        raise ValueError(f"{name} {tag_key} must be one of {sorted(rows)}, "
                         f"got {tag!r}")
    _check_keys(spec, set(rows[tag]), f"{name} spec '{tag}'",
                set(rows[tag]) - set(defaults))
    return {tag_key: tag, **{key: value for key, value in defaults.items()
                             if key in rows[tag] and value is not None},
            **{key: _typed(value, rows[tag][key], f"{name} {key}")
               for key, value in spec.items()}}


def load_experiment(path: str | Path) -> ExperimentSpec:
    """Read a JSON experiment config into an :class:`ExperimentSpec`.

    Only the JSON's shape is checked here: that it is an object, with no
    unknown key and every required key. The spec checks the rest and
    fills in its defaults."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"experiment config not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: invalid JSON ({exc})") from exc
    raw = _mapping(raw, f"{p}: experiment config")
    required = {"graph", "kernel", "data", "protocols", "iters"}
    _check_keys(raw, required | {"runs", "seed", "checkpoints", "output_dir"},
                "experiment config", required)
    return ExperimentSpec(**raw)


def _check_protocols(protocols) -> tuple[str, ...]:
    """A nonempty list or tuple of known names, each once, as a tuple."""
    if not (isinstance(protocols, (list, tuple))
            and all(isinstance(proto, str) for proto in protocols)):
        raise ValueError(f"protocols must be a list of protocol names, "
                         f"got {protocols!r}")
    protocols = tuple(protocols)
    if not protocols:
        raise ValueError("protocols list must be nonempty")
    for i, proto in enumerate(protocols):
        if proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol '{proto}'")
        if proto in protocols[:i]:
            raise ValueError(f"protocol '{proto}' is listed more than once")
    return protocols


def synth_gaussian_mixture(n: int, d: int, clusters: int, separation: float,
                           rng: np.random.Generator
                           ) -> tuple[DesignMatrix, Partition]:
    """Balanced sample from ``clusters`` unit-variance spherical Gaussians.

    Centers sit on a circle in the first two coordinates (a line for d = 1)
    with nearest-center distance ``separation``; the partition holds the true
    component labels. Remainder observations go to the earliest cells.
    """
    if clusters < 1 or n < clusters:
        raise ValueError(f"need n >= clusters >= 1, got n={n}, "
                         f"clusters={clusters}")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if _typed(separation, float, "separation") < 0:
        raise ValueError("separation must be >= 0")
    centers = np.zeros((clusters, d))
    if clusters > 1:
        if d == 1:
            centers[:, 0] = separation * np.arange(clusters)
        else:
            radius = separation / (2.0 * math.sin(math.pi / clusters))
            angles = 2.0 * math.pi * np.arange(clusters) / clusters
            centers[:, 0] = radius * np.cos(angles)
            centers[:, 1] = radius * np.sin(angles)
    base = n // clusters
    sizes = [base + (1 if c < n % clusters else 0) for c in range(clusters)]
    xs, labels = [], []
    for c, size in enumerate(sizes):
        xs.append(centers[c] + rng.standard_normal((size, d)))
        labels.extend([c + 1] * size)
    return (DesignMatrix(np.vstack(xs)),
            Partition(np.array(labels, dtype=np.int64)))


def synth_two_class(n: int, d: int, margin: float,
                    rng: np.random.Generator) -> LabeledDataset:
    """Two unit-variance Gaussian classes whose means differ by ``margin``
    along the first coordinate; labels +1/-1, balanced (+1 gets the
    remainder for odd n)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if _typed(margin, float, "margin") < 0:
        raise ValueError("margin must be >= 0")
    n_pos = (n + 1) // 2
    n_neg = n - n_pos
    offset = np.zeros(d)
    offset[0] = margin / 2.0
    x_pos = offset + rng.standard_normal((n_pos, d))
    x_neg = -offset + rng.standard_normal((n_neg, d))
    labels = np.concatenate([np.ones(n_pos, np.int64),
                             -np.ones(n_neg, np.int64)])
    return LabeledDataset(DesignMatrix(np.vstack([x_pos, x_neg])), labels)


def parse_graph_spec_string(text: str) -> dict:
    """Parse CLI graph specs like ``complete:n=100``,
    ``grid2d:rows=10,cols=10``, ``watts_strogatz:n=100,k=5,p=0.3``, or a
    path to a graph file. A path stays a string; any other value is read
    as a number, then checked as its key's type."""
    family, colon, rest = text.partition(":")
    if not colon or family not in _GRAPHS:
        return {"family": "file", "path": text}
    out: dict = {"family": family}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad graph spec item '{item}' in '{text}'")
            if key in out:
                raise ValueError(f"repeated key '{key}' in graph spec "
                                 f"'{text}'")
            is_path = _GRAPHS[family].get(key) is str
            try:
                out[key] = val if is_path else float(val)
            except ValueError:
                out[key] = val  # its type check names the key
    return _check_part(out, _GRAPH)


def build_graph_from_spec(spec: dict, seed: int = 0) -> Graph:
    """Materialize a graph spec dict; generator randomness derives from
    ``seed`` through the fixed splitting function."""
    spec = _check_part(spec, _GRAPH)
    family = spec["family"]
    if family == "complete":
        return make_complete(spec["n"])
    if family == "grid2d":
        return make_grid2d(spec["rows"], spec["cols"])
    if family == "watts_strogatz":
        rng = np.random.default_rng(derive_seed(seed, 101))
        return make_watts_strogatz(spec["n"], spec["k"], spec["p"], rng)
    return read_graph_file(spec["path"])


def _materialize_data(spec: ExperimentSpec):
    """Return (data, partition) for kernel construction. A CSV is read as
    the kernel needs it: with its cell column for scatter (``cell_column``,
    the last by default), with labels for auc, as plain rows otherwise."""
    data = spec.data
    kind = data["kind"]
    if kind == "csv":
        name = spec.kernel["name"]
        if name == "scatter":
            return kernels.load_partitioned_csv(
                data["path"], data.get("cell_column", -1))
        if name == "auc":
            return kernels.load_labeled_csv(data["path"]), None
        return kernels.load_design_csv(data["path"]), None
    rng = np.random.default_rng(derive_seed(spec.seed, 202))
    if kind == "gaussian_mixture":
        return synth_gaussian_mixture(data["n"], data["d"], data["clusters"],
                                      data["separation"], rng)
    return synth_two_class(data["n"], data["d"], data["margin"], rng), None


def _experiment_checkpoints(spec: ExperimentSpec) -> tuple[int, ...]:
    cp = spec.checkpoints
    if cp["policy"] == "geometric":
        return geometric_checkpoints(spec.iters, cp["max_points"])
    return every_checkpoints(spec.iters, cp["step"])


def build_inputs(spec: ExperimentSpec) -> tuple:
    """(graph, kernel matrix, node values, checkpoints) of ``spec``. The
    data is read or drawn first, so a bad dataset fails before any graph is
    built; the node values (boyd's) are each observation's first coordinate."""
    data, partition = _materialize_data(spec)
    graph = build_graph_from_spec(spec.graph, spec.seed)
    km = kernels.build_kernel_matrix(spec.kernel["name"], data, partition)
    if graph.n != km.n:
        raise ValueError(f"graph has {graph.n} nodes but the dataset has "
                         f"{km.n} observations")
    design = data.design if isinstance(data, LabeledDataset) else data
    return graph, km, design.rows[:, 0].copy(), _experiment_checkpoints(spec)


def _run_jobs(inputs: tuple, keys: list[tuple[int, int]],
              keep: Callable) -> list:
    """``keep(key, trace)`` of the run of each (protocol index, run index)
    key, in key order, computed on the forked workers that run the jobs
    (:func:`parallel.on_forks`). The graph is checked first, as its first
    protocol's run would: refused before any fork, warned about once."""
    spec, graph, km, x, cps = inputs
    on_graph = [p for p in spec.protocols if PROTOCOLS[p].on_graph]
    if on_graph:
        warn_if_unsuitable(graph, on_graph[0])

    def job(i: int):
        pidx, run = keys[i]
        cfg = EngineConfig(protocol=spec.protocols[pidx], max_iters=spec.iters,
                           seed=derive_seed(spec.seed, pidx, run),
                           checkpoints=cps)
        return keep(keys[i], engines.run_protocol(cfg, g=graph, km=km, x=x))

    return parallel.on_forks(job, len(keys))


def run_experiment(spec: ExperimentSpec) -> AggregateResult:
    """Run all protocols of the experiment, aggregate error statistics and
    write them as CSVs to the spec's output directory.

    Relative errors are first averaged across nodes within a run, then
    across runs. Deterministic given the spec seed, and the same whether
    the runs share one process or spread over several.
    """
    inputs = (spec, *build_inputs(spec))
    _, _, km, _, cps = inputs
    keys = [(pidx, run) for pidx in range(len(spec.protocols))
            for run in range(spec.runs)]

    def errors(key, trace):  # all the aggregates read of one run
        err = relative_error(trace)
        return err.mean, err.std, err.absolute, trace.comm_units

    results = dict(zip(keys, _run_jobs(inputs, keys, errors)))

    aggregates: dict[str, ProtocolAggregate] = {}
    for pidx, proto in enumerate(spec.protocols):
        means, stds, absolutes, comms = zip(*(results[pidx, run]
                                              for run in range(spec.runs)))
        per_run_mean, per_run_std = np.array(means), np.array(stds)
        aggregates[proto] = ProtocolAggregate(
            protocol=proto,
            ts=np.array(cps, dtype=np.int64),
            comm_units=comms[-1],
            err_mean=per_run_mean.mean(axis=0),
            err_std_nodes=per_run_std.mean(axis=0),
            err_std_runs=per_run_mean.std(axis=0),
            per_run_means=per_run_mean,
            per_run_stds=per_run_std,
            absolute=absolutes[-1],
        )
    result = AggregateResult(protocols=aggregates, truth=km.u_stat,
                             runs=spec.runs)
    write_experiment_csvs(result, spec.output_dir)
    return result


def _ints(a: np.ndarray) -> list[int]:
    return np.asarray(a, dtype=np.int64).tolist()


def write_experiment_csvs(result: AggregateResult,
                          output_dir: str | Path) -> list[Path]:
    """One per-protocol CSV (per-run rows) plus a combined comparison CSV.

    Schemas (fixed column order):
      <protocol>.csv: protocol,run,t,comm_units,err_mean,err_std
      comparison.csv: protocol,t,comm_units,err_mean,err_std_nodes,err_std_runs

    Floats are written with 17 significant digits, so they parse back to
    the exact values.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    comparison = ["protocol,t,comm_units,err_mean,err_std_nodes,err_std_runs"]
    for proto, agg in result.protocols.items():
        ts, comm = _ints(agg.ts), _ints(agg.comm_units)
        lines = ["protocol,run,t,comm_units,err_mean,err_std"]
        for run, (means, stds) in enumerate(zip(agg.per_run_means.tolist(),
                                                agg.per_run_stds.tolist())):
            lines += [f"{proto},{run},{t},{c},{m:.17g},{s:.17g}"
                      for t, c, m, s in zip(ts, comm, means, stds)]
        path = out / f"{proto}.csv"
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
        comparison += [f"{proto},{t},{c},{m:.17g},{sn:.17g},{sr:.17g}"
                       for t, c, m, sn, sr in zip(
                           ts, comm, agg.err_mean.tolist(),
                           agg.err_std_nodes.tolist(),
                           agg.err_std_runs.tolist())]
    path = out / "comparison.csv"
    path.write_text("\n".join(comparison) + "\n")
    written.append(path)
    return written


def reaching_time(result: AggregateResult,
                  threshold: float) -> dict[str, int | None]:
    """First checkpoint at which the mean relative error drops below the
    threshold, per protocol; None when never reached."""
    out: dict[str, int | None] = {}
    for proto, agg in result.protocols.items():
        below = np.nonzero(agg.err_mean < threshold)[0]
        out[proto] = int(agg.ts[below[0]]) if below.size else None
    return out


def table1(graph_specs: list[dict], seed: int = 0) -> list[dict]:
    """Averaging-gap table rows for a list of graph specs.

    Each row reports the family label, the vertex count n, the edge count
    m and the gap ``c = beta_{n-1} / (2 m)``. Watts-Strogatz and file specs
    build their graph and read its :func:`spectral_summary`, like
    ``spectrum`` and the bounds. Complete and 2-D grid specs are answered
    from the spec alone, with no graph built: m and the builder's argument
    check from ``complete_num_edges`` or ``grid2d_num_edges``, beta_{n-1}
    from ``complete_beta`` or ``grid2d_beta``, the same bits as
    :func:`spectral_summary` gives on the built graph.
    """
    table = []
    for spec in graph_specs:
        spec = _check_part(spec, _GRAPH)
        family = spec["family"]
        if family == "complete":
            n = spec["n"]
            m = complete_num_edges(n)
            gap = SpectralSummary.from_beta(complete_beta(n), m).gap_c
        elif family == "grid2d":
            rows, cols = spec["rows"], spec["cols"]
            n, m = rows * cols, grid2d_num_edges(rows, cols)
            gap = SpectralSummary.from_beta(grid2d_beta(rows, cols), m).gap_c
        else:
            g = build_graph_from_spec(spec, seed)
            n, m, gap = g.n, g.num_edges, spectral_summary(g).gap_c
        table.append({"family": family, "n": n, "m": m, "gap": gap})
    return table
