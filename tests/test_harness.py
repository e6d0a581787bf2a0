import json
import logging
import multiprocessing
import os
import pickle
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gosta_sim as gs
from gosta_sim import graph, harness, parallel
from gosta_sim.cli import main
from gosta_sim.engines import InvariantError
from gosta_sim.harness import (build_graph_from_spec, load_experiment,
                               parse_graph_spec_string, reaching_time,
                               run_experiment, synth_gaussian_mixture,
                               synth_two_class, table1)
from gosta_sim.spectral import beta_second_smallest


DATA_DIR = Path(__file__).resolve().parents[1] / "data"


def minimal_config(tmp_path, **overrides):
    cfg = {
        "graph": {"family": "complete", "n": 12},
        "kernel": {"name": "variance"},
        "data": {"kind": "gaussian_mixture", "n": 12, "d": 2,
                 "clusters": 1, "separation": 0.0},
        "protocols": ["gosta_sync"],
        "iters": 50,
    }
    cfg.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------- config


def test_load_minimal_config_fills_defaults(tmp_path):
    spec = load_experiment(minimal_config(tmp_path))
    assert spec.runs == 1
    assert spec.seed == 0
    assert spec.checkpoints == {"policy": "geometric", "max_points": 200}
    assert spec.output_dir == "."


def test_load_config_missing_csv_names_path(tmp_path):
    path = minimal_config(tmp_path, data={"kind": "csv",
                                          "path": "does_not_exist.csv"})
    with pytest.raises(FileNotFoundError, match="does_not_exist.csv"):
        load_experiment(path)


def test_load_config_zero_runs_rejected(tmp_path):
    with pytest.raises(ValueError, match="runs"):
        load_experiment(minimal_config(tmp_path, runs=0))


@pytest.mark.parametrize("key,value", [("iters", 10.7), ("runs", 1.9),
                                       ("seed", 3.3)])
def test_load_config_rejects_fractional_top_level_int(tmp_path, key, value):
    with pytest.raises(ValueError) as info:
        load_experiment(minimal_config(tmp_path, **{key: value}))
    assert str(info.value) == f"{key} must be a whole number, got {value!r}"


@pytest.mark.parametrize("key,value", [("step", 2.5), ("max_points", 9.5)])
def test_load_config_rejects_fractional_checkpoint_int(tmp_path, key, value):
    cp = {"policy": "every" if key == "step" else "geometric", key: value}
    with pytest.raises(ValueError) as info:
        load_experiment(minimal_config(tmp_path, checkpoints=cp))
    assert str(info.value) == (f"checkpoints {key} must be a whole number, "
                               f"got {value!r}")


@pytest.mark.parametrize("key", ["n", "d", "clusters"])
def test_load_config_rejects_fractional_data_int(tmp_path, key):
    data = {"kind": "gaussian_mixture", "n": 12, "d": 2, "clusters": 1,
            "separation": 0.0, key: 6.9}
    with pytest.raises(ValueError) as info:
        load_experiment(minimal_config(tmp_path, data=data))
    assert str(info.value) == f"data {key} must be a whole number, got 6.9"


@pytest.mark.parametrize("key,value", [
    ("n", 12.7), ("d", 2.9), ("clusters", 1.5), ("cell_column", -1.5)])
def test_materialized_data_rejects_fractional_int(key, value):
    # a spec built directly, not by load_experiment, is not truncated
    data = ({"kind": "csv", "path": "data/sample_scatter.csv"}
            if key == "cell_column" else
            {"kind": "gaussian_mixture", "n": 12, "d": 2, "clusters": 1,
             "separation": 0.0})
    with pytest.raises(ValueError) as info:
        harness.ExperimentSpec(
            graph={"family": "complete", "n": 12},
            kernel={"name": "scatter"}, data={**data, key: value},
            protocols=("gosta_sync",), iters=50, runs=1, seed=0)
    assert str(info.value) == (f"data {key} must be a whole number, "
                               f"got {value!r}")


@pytest.mark.parametrize("graph,key", [
    ({"family": "complete", "n": 12.5}, "n"),
    ({"family": "watts_strogatz", "n": 12, "k": 4.2, "p": 0.3}, "k"),
    ({"family": "grid2d", "rows": 3, "cols": 4.5}, "cols"),
    ({"family": "grid2d", "rows": float("nan"), "cols": 4}, "rows"),
])
def test_load_config_rejects_fractional_graph_int(tmp_path, graph, key):
    with pytest.raises(ValueError) as info:
        load_experiment(minimal_config(tmp_path, graph=graph))
    assert str(info.value) == (f"graph {key} must be a whole number, "
                               f"got {graph[key]!r}")


def test_load_config_accepts_whole_floats(tmp_path):
    spec = load_experiment(minimal_config(
        tmp_path, iters=1e6, runs=2.0, seed=3.0,
        checkpoints={"policy": "every", "step": 1e3},
        graph={"family": "grid2d", "rows": 3.0, "cols": 4},
        data={"kind": "gaussian_mixture", "n": 12.0, "d": 2.0,
              "clusters": 1.0, "separation": 0.0}))
    assert (spec.iters, spec.runs, spec.seed, spec.checkpoints["step"]) == (
        1_000_000, 2, 3, 1000)
    assert all(type(v) is int for v in (spec.iters, spec.runs, spec.seed,
                                        spec.checkpoints["step"]))


def test_load_config_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="frobnicate"):
        load_experiment(minimal_config(tmp_path, frobnicate=1))
    path = minimal_config(tmp_path,
                          graph={"family": "complete", "n": 5, "extra": 2})
    with pytest.raises(ValueError, match="extra"):
        load_experiment(path)


@pytest.mark.parametrize("content, kind", [("5", "int"), ("[1, 2]", "list"),
                                           ('"exp"', "str")])
def test_load_config_that_is_no_object(tmp_path, content, kind):
    path = tmp_path / "exp.json"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        load_experiment(path)
    assert str(info.value) == (f"{path}: experiment config must be a "
                               f"mapping, got {kind}")


def test_spec_mappings_are_read_only_and_pickle(tmp_path):
    spec = load_experiment(minimal_config(tmp_path))
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    for s in (spec, copy):
        for mapping in (s.graph, s.kernel, s.data, s.checkpoints):
            before = dict(mapping)
            key = next(iter(mapping))
            for change in (lambda m: m.__setitem__("n", 12.5),
                           lambda m: m.__delitem__(key),
                           lambda m: m.__ior__({"n": 12.5}),
                           lambda m: m.update(n=12.5),
                           lambda m: m.setdefault("x", 1),
                           lambda m: m.pop(key), lambda m: m.popitem(),
                           lambda m: m.clear()):
                with pytest.raises(TypeError, match="read-only"):
                    change(mapping)
            assert mapping == before
    with pytest.raises(TypeError):
        spec.data["n"] = 12.5
    assert spec.data["n"] == 12


def test_spec_output_dir_is_stored_as_a_string(tmp_path):
    fields = dict(graph={"family": "complete", "n": 12},
                  kernel={"name": "variance"}, data=MIXTURE,
                  protocols=("gosta_sync",), iters=50, runs=1, seed=0)
    spec = harness.ExperimentSpec(**fields, output_dir=tmp_path / "out")
    assert spec.output_dir == str(tmp_path / "out")
    data = {"kind": "csv", "path": DATA_DIR / "sample_scatter.csv"}
    spec = harness.ExperimentSpec(**{**fields, "data": data})
    assert spec.data["path"] == SCATTER_CSV


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_experiment(path)


def test_load_config_unknown_protocol(tmp_path):
    with pytest.raises(ValueError, match="protocol"):
        load_experiment(minimal_config(tmp_path, protocols=["warp_drive"]))


def test_load_config_repeated_protocol_rejected(tmp_path):
    # a second copy would run again and replace the first one's aggregate
    path = minimal_config(tmp_path, protocols=["u2", "gosta_sync", "u2"])
    with pytest.raises(ValueError) as info:
        load_experiment(path)
    assert str(info.value) == "protocol 'u2' is listed more than once"


def test_run_experiment_rejects_repeated_protocol(tmp_path):
    # a spec built directly, not by load_experiment, is checked when made
    with pytest.raises(ValueError) as info:
        harness.ExperimentSpec(
            graph={"family": "complete", "n": 12},
            kernel={"name": "variance"},
            data={"kind": "gaussian_mixture", "n": 12, "d": 2, "clusters": 1,
                  "separation": 0.0},
            protocols=("gosta_sync", "gosta_sync"), iters=50, runs=1, seed=0,
            output_dir=str(tmp_path))
    assert str(info.value) == "protocol 'gosta_sync' is listed more than once"


MIXTURE = {"kind": "gaussian_mixture", "n": 12, "d": 2, "clusters": 1,
           "separation": 0.0}
WS = {"family": "watts_strogatz", "n": 12, "k": 4, "p": 0.3}
SCATTER_CSV = str(DATA_DIR / "sample_scatter.csv")

# Each case overrides ExperimentSpec fields of a good spec; both routes must
# raise the expected text in full.
BAD_SPECS = {
    "runs_zero": ({"runs": 0}, ValueError, "runs must be >= 1"),
    "runs_fraction": ({"runs": 1.5}, ValueError,
                      "runs must be a whole number, got 1.5"),
    "seed_fraction": ({"seed": 1.5}, ValueError,
                      "seed must be a whole number, got 1.5"),
    "seed_negative": ({"seed": -1}, ValueError, "seed must be >= 0"),
    "iters_zero": ({"iters": 0}, ValueError, "iters must be >= 1"),
    "iters_fraction": ({"iters": 10.7}, ValueError,
                       "iters must be a whole number, got 10.7"),
    "policy_unknown": ({"checkpoints": {"policy": "bogus"}}, ValueError,
                       "checkpoints policy must be one of "
                       "['every', 'geometric'], got 'bogus'"),
    "step_zero": ({"checkpoints": {"policy": "every", "step": 0}},
                  ValueError,
                  "checkpoint step must satisfy 1 <= step <= iters"),
    "step_above_iters": ({"checkpoints": {"policy": "every", "step": 100}},
                         ValueError,
                         "checkpoint step must satisfy 1 <= step <= iters"),
    "step_fraction": ({"checkpoints": {"policy": "every", "step": 2.5}},
                      ValueError,
                      "checkpoints step must be a whole number, got 2.5"),
    "max_points_zero": ({"checkpoints": {"max_points": 0}}, ValueError,
                        "checkpoint max_points must be >= 1"),
    "max_points_fraction": ({"checkpoints": {"max_points": 9.5}}, ValueError,
                            "checkpoints max_points must be a whole number, "
                            "got 9.5"),
    "step_under_geometric": ({"checkpoints": {"policy": "geometric",
                                              "step": 3}}, ValueError,
                             "unknown key(s) ['step'] in checkpoints spec "
                             "'geometric'; allowed: ['max_points']"),
    "step_without_policy": ({"checkpoints": {"step": 3}}, ValueError,
                            "unknown key(s) ['step'] in checkpoints spec "
                            "'geometric'; allowed: ['max_points']"),
    "max_points_under_every": ({"checkpoints": {"policy": "every",
                                                "max_points": 20}},
                               ValueError, "unknown key(s) ['max_points'] in "
                               "checkpoints spec 'every'; allowed: ['step']"),
    "checkpoints_not_mapping": ({"checkpoints": 5}, ValueError,
                                "checkpoints spec must be a mapping, got int"),
    "graph_not_mapping": ({"graph": 5}, ValueError,
                          "graph spec must be a mapping, got int"),
    "kernel_not_mapping": ({"kernel": "variance"}, ValueError,
                           "kernel spec must be a mapping, got str"),
    "data_not_mapping": ({"data": [MIXTURE]}, ValueError,
                         "data spec must be a mapping, got list"),
    "cell_column_with_variance": ({"data": {"kind": "csv",
                                            "path": SCATTER_CSV,
                                            "cell_column": 0}}, ValueError,
                                  "data cell_column is read only by the "
                                  "scatter kernel, not by 'variance'"),
    "kernel_extra_key": ({"kernel": {"name": "variance", "x": 1}},
                         ValueError, "unknown key(s) ['x'] in kernel spec "
                         "'variance'; allowed: []"),
    "kernel_unknown": ({"kernel": {"name": "cosine"}}, ValueError,
                       "kernel name must be one of ['auc', 'scatter', "
                       "'variance'], got 'cosine'"),
    "data_extra_key": ({"data": {**MIXTURE, "extra": 1}}, ValueError,
                       "unknown key(s) ['extra'] in data spec "
                       "'gaussian_mixture'; allowed: ['clusters', 'd', 'n', "
                       "'separation']"),
    "data_missing_d": ({"data": {k: v for k, v in MIXTURE.items()
                                 if k != "d"}}, ValueError,
                       "missing key(s) ['d'] in data spec 'gaussian_mixture';"
                       " required: ['clusters', 'd', 'n', 'separation']"),
    "data_kind_unknown": ({"data": {"kind": "spiral", "n": 12}}, ValueError,
                          "data kind must be one of ['csv', "
                          "'gaussian_mixture', 'two_class'], got 'spiral'"),
    "data_fraction": ({"data": {**MIXTURE, "clusters": 1.5}}, ValueError,
                      "data clusters must be a whole number, got 1.5"),
    "data_csv_missing": ({"data": {"kind": "csv",
                                   "path": "does_not_exist.csv"}},
                         FileNotFoundError,
                         "dataset file not found: does_not_exist.csv"),
    "graph_family_unknown": ({"graph": {"family": "torus", "n": 12}},
                             ValueError, "graph family must be one of "
                             "['complete', 'file', 'grid2d', "
                             "'watts_strogatz'], got 'torus'"),
    "graph_missing_key": ({"graph": {"family": "watts_strogatz", "n": 20}},
                          ValueError, "missing key(s) ['k', 'p'] in graph "
                          "spec 'watts_strogatz'; required: ['k', 'n', 'p']"),
    "graph_extra_key": ({"graph": {"family": "complete", "n": 5, "extra": 2}},
                        ValueError, "unknown key(s) ['extra'] in graph spec "
                        "'complete'; allowed: ['n']"),
    "graph_fraction": ({"graph": {"family": "complete", "n": 12.5}},
                       ValueError, "graph n must be a whole number, got 12.5"),
    "graph_file_missing": ({"graph": {"family": "file",
                                      "path": "does_not_exist.txt"}},
                           FileNotFoundError,
                           "graph file not found: does_not_exist.txt"),
    "protocols_empty": ({"protocols": []}, ValueError,
                        "protocols list must be nonempty"),
    "protocol_unknown": ({"protocols": ["warp_drive"]}, ValueError,
                         "unknown protocol 'warp_drive'"),
    "protocol_repeated": ({"protocols": ["u2", "gosta_sync", "u2"]},
                          ValueError,
                          "protocol 'u2' is listed more than once"),
    # each value is checked by its field's type, with a message naming the
    # key, instead of escaping as a TypeError or failing later unnamed
    "graph_family_list": ({"graph": {"family": ["complete"], "n": 12}},
                          ValueError, "graph family must be one of "
                          "['complete', 'file', 'grid2d', 'watts_strogatz'],"
                          " got ['complete']"),
    "data_kind_list": ({"data": {**MIXTURE, "kind": ["gaussian_mixture"]}},
                       ValueError, "data kind must be one of ['csv', "
                       "'gaussian_mixture', 'two_class'], got "
                       "['gaussian_mixture']"),
    "protocols_string": ({"protocols": "u2"}, ValueError,
                         "protocols must be a list of protocol names, "
                         "got 'u2'"),
    "protocols_nested": ({"protocols": [["u2"]]}, ValueError,
                         "protocols must be a list of protocol names, "
                         "got [['u2']]"),
    "separation_string": ({"data": {**MIXTURE, "separation": "far"}},
                          ValueError, "data separation must be a finite "
                          "real number, got 'far'"),
    "p_string": ({"graph": {**WS, "p": "x"}}, ValueError,
                 "graph p must be a finite real number, got 'x'"),
    "p_bool": ({"graph": {**WS, "p": True}}, ValueError,
               "graph p must be a finite real number, got True"),
    "p_nan": ({"graph": {**WS, "p": float("nan")}}, ValueError,
              "graph p must be a finite real number, got nan"),
    "p_beyond_float": ({"graph": {**WS, "p": 10**400}}, ValueError,
                       f"graph p must be a finite real number, "
                       f"got {10**400!r}"),
    "margin_infinite": ({"data": {"kind": "two_class", "n": 12, "d": 2,
                                  "margin": float("inf")}}, ValueError,
                        "data margin must be a finite real number, got inf"),
    "iters_bool": ({"iters": True}, ValueError,
                   "iters must be a whole number, got True"),
    "runs_string": ({"runs": "3"}, ValueError,
                    "runs must be a whole number, got '3'"),
    "graph_n_list": ({"graph": {"family": "complete", "n": [12]}}, ValueError,
                     "graph n must be a whole number, got [12]"),
    "graph_path_number": ({"graph": {"family": "file", "path": 5}},
                          ValueError, "graph path must be a path string, "
                          "got 5"),
    "output_dir_number": ({"output_dir": 5}, ValueError,
                          "output_dir must be a path string, got 5"),
}


@pytest.mark.parametrize("fields, error, message", BAD_SPECS.values(),
                         ids=BAD_SPECS)
def test_bad_spec_fails_alike_from_json_and_in_code(tmp_path, fields, error,
                                                    message):
    # load_experiment only parses: every rule is the spec's own
    spec = {"graph": {"family": "complete", "n": 12},
            "kernel": {"name": "variance"}, "data": MIXTURE,
            "protocols": ["gosta_sync"], "iters": 50, "runs": 1, "seed": 0,
            **fields}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(error) as from_json:
        load_experiment(path)
    with pytest.raises(error) as in_code:
        harness.ExperimentSpec(**spec)
    assert str(from_json.value) == str(in_code.value) == message


# ------------------------------------------------------------- generators


def test_mixture_single_cluster(rng):
    dm, part = synth_gaussian_mixture(10, 3, 1, 5.0, rng)
    assert dm.n == 10 and dm.d == 3
    assert (part.assignment == 1).all()


def test_mixture_zero_separation_two_halves(rng):
    dm, part = synth_gaussian_mixture(40, 2, 2, 0.0, rng)
    assert sorted(np.bincount(part.assignment)[1:]) == [20, 20]
    # identically distributed halves: means within a few standard errors
    a = dm.rows[part.assignment == 1].mean(axis=0)
    b = dm.rows[part.assignment == 2].mean(axis=0)
    assert np.abs(a - b).max() < 1.5


def test_mixture_separated_clusters(rng):
    dm, part = synth_gaussian_mixture(90, 2, 3, 10.0, rng)
    x = dm.rows
    within, across = [], []
    for i in range(90):
        for j in range(i + 1, 90):
            dist = np.linalg.norm(x[i] - x[j])
            (within if part.assignment[i] == part.assignment[j]
             else across).append(dist)
    assert np.mean(within) < 0.5 * np.mean(across)


def test_mixture_remainder_to_early_cells(rng):
    _, part = synth_gaussian_mixture(11, 2, 3, 1.0, rng)
    assert list(np.bincount(part.assignment)[1:]) == [4, 4, 3]


def test_mixture_validation(rng):
    with pytest.raises(ValueError):
        synth_gaussian_mixture(2, 2, 3, 1.0, rng)


@pytest.mark.parametrize("call, message", [
    (lambda rng: synth_gaussian_mixture(5, 2, 0, 1.0, rng),
     "need n >= clusters >= 1, got n=5, clusters=0"),
    (lambda rng: synth_gaussian_mixture(5, 0, 2, 1.0, rng),
     "dimension must be >= 1"),
    (lambda rng: synth_gaussian_mixture(5, 2, 2, -0.5, rng),
     "separation must be >= 0"),
    (lambda rng: synth_two_class(1, 2, 1.0, rng), "need n >= 2"),
    (lambda rng: synth_two_class(4, 0, 1.0, rng), "dimension must be >= 1"),
    (lambda rng: synth_two_class(4, 2, -1.0, rng), "margin must be >= 0"),
    (lambda rng: harness.parse_graph_spec_string("complete:n"),
     "bad graph spec item 'n' in 'complete:n'"),
], ids=["mixture_no_clusters", "mixture_d_0",
        "mixture_negative_separation", "two_class_n_1", "two_class_d_0",
        "two_class_negative_margin", "graph_spec_item_without_value"])
def test_generators_and_specs_name_what_they_refuse(rng, call, message):
    with pytest.raises(ValueError) as info:
        call(rng)
    assert str(info.value) == message


def test_load_experiment_names_a_missing_config(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError) as info:
        load_experiment(path)
    assert str(info.value) == f"experiment config not found: {path}"


def test_two_class_large_margin_high_auc(rng):
    ds = synth_two_class(200, 3, 10.0, rng)
    theta = gs.kernels.mean_difference_direction(ds)
    assert gs.auc_value(theta, ds) > 0.99


def test_two_class_zero_margin_chance_auc():
    vals = []
    for seed in range(5):
        ds = synth_two_class(300, 3, 0.0, np.random.default_rng(seed))
        theta = gs.kernels.mean_difference_direction(ds)
        vals.append(gs.auc_value(theta, ds))
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_two_class_n2(rng):
    ds = synth_two_class(2, 1, 1.0, rng)
    assert sorted(ds.labels) == [-1, 1]


# ------------------------------------------------------------- graph specs


def test_parse_graph_spec_strings():
    assert parse_graph_spec_string("complete:n=10") == {
        "family": "complete", "n": 10}
    assert parse_graph_spec_string("watts_strogatz:n=50,k=4,p=0.3") == {
        "family": "watts_strogatz", "n": 50, "k": 4, "p": 0.3}
    assert parse_graph_spec_string("some/file.txt") == {
        "family": "file", "path": "some/file.txt"}


@pytest.mark.parametrize("text, missing", [
    ("grid2d:rows=5", "['cols']"),
    ("complete:", "['n']"),
    ("watts_strogatz:n=20,p=0.3", "['k']"),
])
def test_parse_graph_spec_rejects_missing_keys(text, missing):
    with pytest.raises(ValueError, match=re.escape(
            f"missing key(s) {missing} in graph spec")):
        parse_graph_spec_string(text)


@pytest.mark.parametrize("text, key", [
    ("complete:n=5,n=7", "n"),
    ("watts_strogatz:n=20,k=4,p=0.3,k=6", "k"),
    ("grid2d:rows=3,cols=4,rows=3", "rows"),
])
def test_parse_graph_spec_rejects_repeated_keys(text, key):
    with pytest.raises(ValueError, match=re.escape(
            f"repeated key '{key}' in graph spec '{text}'")):
        parse_graph_spec_string(text)


def test_parse_graph_spec_reads_each_value_by_its_type():
    # a path stays a string; numbers are checked as their key's type
    assert parse_graph_spec_string("file:path=g.txt") == {
        "family": "file", "path": "g.txt"}
    assert parse_graph_spec_string("complete") == {
        "family": "file", "path": "complete"}
    for text, message in (
            ("watts_strogatz:n=20,k=4,p=nan",
             "graph p must be a finite real number, got nan"),
            ("watts_strogatz:n=20,k=4,p=inf",
             "graph p must be a finite real number, got inf"),
            ("watts_strogatz:n=20,k=4,p=far",
             "graph p must be a finite real number, got 'far'"),
            ("complete:n=abc", "graph n must be a whole number, got 'abc'"),
            ("complete:n=12,x=abc", "unknown key(s) ['x'] in graph spec "
             "'complete'; allowed: ['n']")):
        with pytest.raises(ValueError) as info:
            parse_graph_spec_string(text)
        assert str(info.value) == message


def test_load_config_missing_graph_key_rejected(tmp_path):
    path = minimal_config(tmp_path, graph={"family": "watts_strogatz",
                                           "n": 20})
    with pytest.raises(ValueError, match=re.escape(
            "missing key(s) ['k', 'p'] in graph spec 'watts_strogatz'")):
        load_experiment(path)
    path = minimal_config(tmp_path, graph={"family": "file"})
    with pytest.raises(ValueError, match=re.escape("missing key(s) ['path']")):
        load_experiment(path)


def test_build_graph_from_spec_deterministic():
    spec = {"family": "watts_strogatz", "n": 30, "k": 4, "p": 0.5}
    g1 = build_graph_from_spec(spec, seed=5)
    g2 = build_graph_from_spec(spec, seed=5)
    assert np.array_equal(g1.edges, g2.edges)


# ------------------------------------------------------------- experiments


# Rules that join several values are the builders', checked as
# run_experiment starts: the spec is accepted, and the run stops before any
# job runs or any output is written.
RUN_TIME_CHECKS = {
    "complete_n_1": ({"graph": {"family": "complete", "n": 1}},
                     "complete graph needs n >= 2, got n=1"),
    "ws_k_too_large": ({"graph": {**WS, "k": 12}},
                       "need n > k >= 2, got n=12, k=12"),
    "ws_p_above_1": ({"graph": {**WS, "p": 1.5}},
                     "rewiring probability must be in [0, 1], got 1.5"),
    "clusters_above_n": ({"data": {**MIXTURE, "clusters": 13}},
                         "need n >= clusters >= 1, got n=12, clusters=13"),
    "auc_without_labels": ({"kernel": {"name": "auc"}},
                           "the auc kernel requires labeled data"),
    "scatter_without_partition": ({"kernel": {"name": "scatter"},
                                   "data": {"kind": "two_class", "n": 12,
                                            "d": 2, "margin": 1.0}},
                                  "the scatter kernel requires a partition"),
    "size_mismatch": ({"graph": {"family": "complete", "n": 7},
                       "data": {**MIXTURE, "n": 6}},
                      "graph has 7 nodes but the dataset has 6 observations"),
}


@pytest.mark.parametrize("fields, message", RUN_TIME_CHECKS.values(),
                         ids=RUN_TIME_CHECKS)
def test_run_time_checks_stop_before_any_run(tmp_path, monkeypatch, fields,
                                             message):
    spec = harness.ExperimentSpec(**{
        "graph": {"family": "complete", "n": 12},
        "kernel": {"name": "variance"}, "data": MIXTURE,
        "protocols": ("gosta_sync",), "iters": 50, "runs": 1, "seed": 0,
        "output_dir": str(tmp_path / "out"), **fields})
    monkeypatch.setattr(harness, "_run_jobs", None)  # no job may start
    with pytest.raises(ValueError) as info:
        run_experiment(spec)
    assert str(info.value) == message
    assert not (tmp_path / "out").exists()


def test_run_experiment_structure_and_determinism(tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cfgpath = minimal_config(
        tmp_path,
        graph={"family": "complete", "n": 20},
        data={"kind": "gaussian_mixture", "n": 20, "d": 2,
              "clusters": 2, "separation": 4.0},
        kernel={"name": "scatter"},
        protocols=["gosta_sync", "u2"],
        iters=200, runs=3, seed=9,
        output_dir=str(out1),
    )
    spec = load_experiment(cfgpath)
    result = run_experiment(spec)
    # identical checkpoint grids across protocols
    sync = result.protocols["gosta_sync"]
    u2 = result.protocols["u2"]
    assert np.array_equal(sync.ts, u2.ts)
    assert sync.per_run_means.shape == (3, len(sync.ts))
    # byte-identical rerun
    spec2 = load_experiment(cfgpath)
    object.__setattr__(spec2, "output_dir", str(out2))
    run_experiment(spec2)
    for name in ("gosta_sync.csv", "u2.csv", "comparison.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_csv_round_trip(tmp_path):
    cfgpath = minimal_config(tmp_path, output_dir=str(tmp_path / "out"),
                             runs=2)
    result = run_experiment(load_experiment(cfgpath))
    csv_path = tmp_path / "out" / "comparison.csv"
    lines = csv_path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["protocol", "t", "comm_units", "err_mean",
                      "err_std_nodes", "err_std_runs"]
    agg = result.protocols["gosta_sync"]
    row = lines[1].split(",")
    assert row[0] == "gosta_sync"
    assert int(row[1]) == agg.ts[0]
    assert float(row[3]) == agg.err_mean[0]  # exact round trip


def test_reaching_time_cases():
    agg = gs.harness.ProtocolAggregate(
        protocol="x", ts=np.array([1, 10, 100]),
        comm_units=np.array([1, 10, 100]),
        err_mean=np.array([0.5, 0.1, 0.01]),
        err_std_nodes=np.zeros(3), err_std_runs=np.zeros(3),
        per_run_means=np.zeros((1, 3)), per_run_stds=np.zeros((1, 3)),
        absolute=False)
    res = gs.harness.AggregateResult({"x": agg}, truth=1.0, runs=1)
    assert reaching_time(res, 0.2) == {"x": 10}
    assert reaching_time(res, 0.9) == {"x": 1}
    assert reaching_time(res, 0.001) == {"x": None}


def test_reaching_time_gap_widens_with_network_size():
    # the iteration count needed to reach 20% error grows faster for the
    # double-propagation protocol than for the averaging protocol
    from gosta_sim.engines import EngineConfig, derive_seed

    gaps = []
    for n in (50, 100, 200):
        g = gs.make_complete(n)
        dm, part = synth_gaussian_mixture(n, 2, 3, 8.0,
                                          np.random.default_rng(15))
        km = gs.build_kernel_matrix("scatter", dm, part)
        cps = sorted(set(int(v) for v in np.geomspace(10, 40 * n, 40)))
        reach = {}
        for pidx, proto in enumerate(("gosta_sync", "u2")):
            acc = np.zeros(len(cps))
            for r in range(20):
                cfg = EngineConfig(protocol=proto, max_iters=cps[-1],
                                   seed=derive_seed(700, n, pidx, r),
                                   checkpoints=tuple(cps))
                tr = gs.run_protocol(cfg, g=g, km=km)
                acc += gs.relative_error(tr).mean
            acc /= 20
            below = np.nonzero(acc < 0.2)[0]
            assert below.size, f"{proto} never reached 20% at n={n}"
            reach[proto] = cps[below[0]]
        assert reach["u2"] > reach["gosta_sync"]
        gaps.append(reach["u2"] - reach["gosta_sync"])
    assert gaps[0] < gaps[1] < gaps[2]


def test_table1_ordering_small():
    rows = table1([
        {"family": "grid2d", "rows": 6, "cols": 6},
        {"family": "watts_strogatz", "n": 36, "k": 5, "p": 0.3},
        {"family": "complete", "n": 36},
    ], seed=3)
    gaps = [r["gap"] for r in rows]
    assert gaps[0] < gaps[1] < gaps[2]
    assert rows[2]["gap"] == pytest.approx(1 / 35, rel=1e-6)


def test_table1_builds_no_complete_or_grid_graph(tmp_path, monkeypatch):
    gpath = tmp_path / "cycle.txt"
    gs.write_graph_file(gs.make_graph(6, [(i, (i + 1) % 6) for i in range(6)]),
                        gpath)

    def no_build(*args, **kwargs):
        raise AssertionError("graph built for a closed-form spec")

    for module in (graph, harness):
        monkeypatch.setattr(module, "make_complete", no_build)
        monkeypatch.setattr(module, "make_grid2d", no_build)
    built = []
    build = harness.build_graph_from_spec

    def build_other_families(spec, seed=0):
        if spec["family"] in ("complete", "grid2d"):
            no_build()
        built.append(spec["family"])
        return build(spec, seed)

    monkeypatch.setattr(harness, "build_graph_from_spec", build_other_families)
    rows = table1([{"family": "complete", "n": 1599},
                   {"family": "grid2d", "rows": 39, "cols": 41},
                   {"family": "watts_strogatz", "n": 30, "k": 4, "p": 0.3},
                   {"family": "file", "path": str(gpath)}], seed=2)
    assert built == ["watts_strogatz", "file"]
    assert [(r["n"], r["m"]) for r in rows] == [
        (1599, 1_277_601), (1599, 3118), (30, 60), (6, 6)]


@pytest.mark.parametrize("text", [
    *(f"complete:n={n}" for n in (2, 3, 40, 1599)),
    *(f"grid2d:rows={r},cols={c}"
      for r, c in ((1, 2), (1, 7), (5, 3), (6, 6), (39, 41))),
])
def test_table1_closed_form_matches_graph_route(text):
    # the 1 x 2 grid is also K_2, which beta_second_smallest finds complete
    spec = parse_graph_spec_string(text)
    [row] = table1([spec])
    g = build_graph_from_spec(spec)
    assert (row["n"], row["m"]) == (g.n, g.num_edges)
    assert row["gap"] == beta_second_smallest(g) / (2 * g.num_edges)


def test_table1_closed_form_allocates_no_graph():
    specs = [parse_graph_spec_string("complete:n=1599"),
             parse_graph_spec_string("grid2d:rows=39,cols=41")]
    tracemalloc.start()
    try:
        table1(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("spec, message", [
    ({"family": "complete", "n": 1}, "complete graph needs n >= 2, got n=1"),
    ({"family": "grid2d", "rows": 1, "cols": 1},
     "grid needs rows*cols >= 2, got 1x1"),
    ({"family": "grid2d", "rows": 0, "cols": 4},
     "grid needs rows*cols >= 2, got 0x4"),
])
def test_table1_rejects_bad_specs_as_the_builders_do(spec, message):
    with pytest.raises(ValueError) as built:
        build_graph_from_spec(spec)
    with pytest.raises(ValueError) as answered:
        table1([spec])
    assert str(answered.value) == str(built.value) == message


@pytest.mark.parametrize("spec, key", [
    ({"family": "complete", "n": 12.7}, "n"),
    ({"family": "grid2d", "rows": 3, "cols": 4.5}, "cols"),
    ({"family": "watts_strogatz", "n": 20.9, "k": 4, "p": 0.3}, "n"),
    ({"family": "watts_strogatz", "n": 20, "k": 4.5, "p": 0.3}, "k"),
])
def test_graph_spec_dicts_reject_fractional_ints(spec, key):
    # a library caller's dict spec is not truncated: the builder and
    # table1 name the key, as load_experiment does
    message = f"graph {key} must be a whole number, got {spec[key]!r}"
    with pytest.raises(ValueError) as built:
        build_graph_from_spec(spec)
    with pytest.raises(ValueError) as answered:
        table1([spec])
    assert str(answered.value) == str(built.value) == message
    fixed = {**spec, key: int(spec[key])}
    assert table1([{**fixed, key: float(fixed[key])}]) == table1([fixed])


def test_boyd_in_experiment(tmp_path):
    cfgpath = minimal_config(tmp_path, protocols=["boyd"], iters=100,
                             output_dir=str(tmp_path / "b"))
    result = run_experiment(load_experiment(cfgpath))
    assert "boyd" in result.protocols


# ------------------------------------------------------------- worker pool


def _record_run_pids(monkeypatch, path):
    """Make every engine run append the id of the process it ran in to
    ``path``; forked workers inherit the wrapper and the open-append."""
    run = gs.engines.run_protocol

    def recording(*args, **kwargs):
        with open(path, "a") as f:
            f.write(f"{os.getpid()}\n")
        return run(*args, **kwargs)

    monkeypatch.setattr(gs.engines, "run_protocol", recording)


def _run_pids(path):
    return set(path.read_text().split())


def _pool_config(tmp_path, out, **overrides):
    cfg = dict(
        graph={"family": "watts_strogatz", "n": 30, "k": 4, "p": 0.3},
        data={"kind": "gaussian_mixture", "n": 30, "d": 2,
              "clusters": 3, "separation": 6.0},
        kernel={"name": "scatter"},
        protocols=list(gs.engines.PROTOCOLS),
        iters=300, runs=3, seed=4,
        checkpoints={"policy": "every", "step": 10},
        output_dir=str(out))
    cfg.update(overrides)
    return load_experiment(minimal_config(tmp_path, **cfg))


def _assert_same_aggregates(a, b):
    assert list(a.protocols) == list(b.protocols)
    for proto, agg in a.protocols.items():
        other = b.protocols[proto]
        assert agg.absolute == other.absolute
        for field in ("ts", "comm_units", "err_mean", "err_std_nodes",
                      "err_std_runs", "per_run_means", "per_run_stds"):
            assert np.array_equal(getattr(agg, field),
                                  getattr(other, field)), (proto, field)


def test_pool_matches_serial_bit_for_bit(tmp_path, monkeypatch):
    # two workers even on a one-CPU host, so the pool path always runs
    results, pids = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        pid_file = tmp_path / f"pids{cpus}"
        with monkeypatch.context() as m:
            _record_run_pids(m, pid_file)
            results[cpus] = run_experiment(
                _pool_config(tmp_path, tmp_path / f"out{cpus}"))
        pids[cpus] = _run_pids(pid_file)
    assert pids[1] == {str(os.getpid())}
    assert str(os.getpid()) not in pids[2]
    _assert_same_aggregates(results[1], results[2])
    names = sorted(p.name for p in (tmp_path / "out1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "out2").iterdir())
    for name in names:
        assert ((tmp_path / "out1" / name).read_bytes()
                == (tmp_path / "out2" / name).read_bytes())


def test_csv_experiment_pool_matches_serial(tmp_path, monkeypatch):
    # a csv dataset read as the scatter kernel needs it, on one and on two
    # workers
    design, part = gs.kernels.load_partitioned_csv(SCATTER_CSV)
    results = {}
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        results[cpus] = run_experiment(_pool_config(
            tmp_path, tmp_path / f"out{cpus}",
            graph={"family": "complete", "n": design.n},
            data={"kind": "csv", "path": SCATTER_CSV}, runs=2))
    _assert_same_aggregates(results[1], results[2])
    km = gs.build_kernel_matrix("scatter", design, part)
    assert results[1].truth == results[2].truth == km.u_stat
    for name in ("comparison.csv", "u2.csv"):
        assert ((tmp_path / "out1" / name).read_bytes()
                == (tmp_path / "out2" / name).read_bytes())


def test_two_class_experiment_with_named_auc_kernel(tmp_path):
    spec = load_experiment(minimal_config(
        tmp_path, graph={"family": "complete", "n": 14},
        kernel={"name": "auc"},
        data={"kind": "two_class", "n": 14, "d": 3, "margin": 2.0},
        protocols=["gosta_sync", "u2"], iters=100, seed=6,
        output_dir=str(tmp_path / "out")))
    result = run_experiment(spec)
    # the data the spec draws, scored along its class-mean difference
    ds = synth_two_class(14, 3, 2.0, np.random.default_rng(
        gs.engines.derive_seed(6, 202)))
    theta = gs.kernels.mean_difference_direction(ds)
    auc = result.truth * 14**2 / (4.0 * ds.n_pos * ds.n_neg)
    assert auc == pytest.approx(gs.auc_value(theta, ds), abs=1e-12)
    assert 0.5 < auc < 1.0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "comparison.csv", "gosta_sync.csv", "u2.csv"]


def test_worker_error_reaches_parent_and_cli(tmp_path, monkeypatch, capsys):
    message = "activation counts no longer sum to 2t"

    def broken(g, km, cfg):
        raise InvariantError(message)

    monkeypatch.setitem(gs.engines.PROTOCOLS, "gosta_sync",
                        gs.engines.PROTOCOLS["gosta_sync"]._replace(
                            runner=broken))
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        spec = _pool_config(tmp_path, tmp_path / "out")
        with pytest.raises(InvariantError) as exc:
            run_experiment(spec)
        assert str(exc.value) == message
    code = main(["experiment", str(tmp_path / "exp.json")])
    assert code == 1
    assert capsys.readouterr().err == f"gosta-sim: error: {message}\n"


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_daemonic_process_runs_serially(tmp_path, monkeypatch):
    # a pool worker is daemonic and may not fork workers of its own
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    spec = _pool_config(tmp_path, tmp_path / "out")
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inner = pool.apply_async(run_experiment, (spec,)).get(timeout=120)
    _assert_same_aggregates(run_experiment(spec), inner)


def test_threaded_process_runs_serially(tmp_path, monkeypatch):
    # a fork taken while another thread runs could inherit a held lock
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    pid_file = tmp_path / "pids"
    _record_run_pids(monkeypatch, pid_file)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        run_experiment(_pool_config(tmp_path, tmp_path / "out"))
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert _run_pids(pid_file) == {str(os.getpid())}


def test_graph_checked_once_in_parent(tmp_path, monkeypatch, caplog):
    caplog.set_level(logging.WARNING, logger="gosta_sim.graph")
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    # forked workers inherit the handler and would append to the same file
    log_file = tmp_path / "warnings.log"
    handler = logging.FileHandler(log_file)
    logger = logging.getLogger("gosta_sim.graph")
    logger.addHandler(handler)
    try:
        run_experiment(_pool_config(
            tmp_path, tmp_path / "out",
            graph={"family": "grid2d", "rows": 5, "cols": 6},
            protocols=["master_node", "u2", "gosta_sync"]))
    finally:
        logger.removeHandler(handler)
        handler.close()
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "gosta_sim.graph"]
    assert warnings == ["u2: graph is bipartite; convergence guarantees "
                        "are weaker on bipartite topologies"]
    assert log_file.read_text().splitlines() == warnings


def test_disconnected_graph_fails_in_parent(tmp_path, monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    pid_file = tmp_path / "pids"
    _record_run_pids(monkeypatch, pid_file)
    gpath = tmp_path / "split.txt"
    gs.write_graph_file(gs.make_graph(30, [(i, i + 1) for i in range(29)
                                           if i != 14]), gpath)
    graph = {"family": "file", "path": str(gpath)}
    with pytest.raises(ValueError,
                       match="^boyd: graph is disconnected"):
        run_experiment(_pool_config(
            tmp_path, tmp_path / "out", graph=graph,
            protocols=["master_node", "boyd"]))
    assert not pid_file.exists()
    # master_node alone never looks at the graph
    result = run_experiment(_pool_config(
        tmp_path, tmp_path / "out", graph=graph, protocols=["master_node"]))
    assert list(result.protocols) == ["master_node"]
