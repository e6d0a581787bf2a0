import json

import numpy as np
import pytest

import gosta_sim as gs
from gosta_sim.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_graph_and_spectrum(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen-graph", "complete:n=20",
                         "--out", str(gpath))
    assert code == 0
    assert gpath.exists()
    code, out, _ = run_cli(capsys, "spectrum", str(gpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 20
    assert payload["m"] == 190
    assert payload["gap_c"] == pytest.approx(1 / 19, rel=1e-6)
    assert payload["lambda2_w1"] == pytest.approx(1 - 2 / 19, rel=1e-6)


def test_gen_data_kinds(tmp_path, capsys):
    for kind, extra in (("gaussian_mixture", ["--clusters", "3",
                                              "--separation", "6"]),
                        ("two_class", ["--margin", "4"]),
                        ("plain", [])):
        path = tmp_path / f"{kind}.csv"
        code, _, _ = run_cli(capsys, "gen-data", "--kind", kind,
                             "--n", "30", "--d", "2", "--seed", "4",
                             "--out", str(path), *extra)
        assert code == 0
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 30


def test_gen_data_names_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code, stdout, err = run_cli(capsys, "gen-data", "--kind", "plain",
                                "--n", "8", "--d", "1", "--seed", "-1",
                                "--out", str(out))
    assert (code, stdout) == (1, "")
    assert err == "gosta-sim: error: seed must be >= 0\n"
    assert not out.exists()


def test_simulate_to_csv(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "gaussian_mixture", "--n", "16",
            "--d", "2", "--clusters", "2", "--separation", "5",
            "--out", str(data))
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(capsys, "simulate", "--protocol", "gosta_sync",
                         "--graph", "complete:n=16", "--kernel", "scatter",
                         "--data", str(data), "--iters", "100",
                         "--runs", "2", "--record-every", "25",
                         "--seed", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "run,t,comm_units,err_mean,err_std"
    assert len(lines) == 1 + 2 * 4  # 2 runs x 4 checkpoints


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_simulate_rejects_runs_below_one(tmp_path, capsys, runs):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "8", "--d", "1",
            "--out", str(data))
    out = tmp_path / "sim.csv"
    code, _, err = run_cli(capsys, "simulate", "--protocol", "boyd",
                           "--graph", "complete:n=8", "--kernel", "variance",
                           "--data", str(data), "--iters", "10",
                           "--runs", runs, "--out", str(out))
    assert code == 1
    assert err == "gosta-sim: error: runs must be >= 1\n"
    assert not out.exists()


def test_simulate_names_a_negative_seed(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "8", "--d", "1",
            "--out", str(data))
    out = tmp_path / "sim.csv"
    code, _, err = run_cli(capsys, "simulate", "--protocol", "boyd",
                           "--graph", "complete:n=8", "--kernel", "variance",
                           "--data", str(data), "--iters", "10",
                           "--seed", "-1", "--out", str(out))
    assert code == 1
    assert err == "gosta-sim: error: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("every", ["0", "11"])
def test_simulate_rejects_record_every_outside_iters(tmp_path, capsys, every):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "8", "--d", "1",
            "--out", str(data))
    out = tmp_path / "sim.csv"
    code, _, err = run_cli(capsys, "simulate", "--protocol", "boyd",
                           "--graph", "complete:n=8", "--kernel", "variance",
                           "--data", str(data), "--iters", "10",
                           "--record-every", every, "--out", str(out))
    assert code == 1
    assert err == ("gosta-sim: error: checkpoint step must satisfy "
                   "1 <= step <= iters\n")
    assert not out.exists()


@pytest.mark.parametrize("kernel,bad", [("auc", "1.5"), ("auc", "-1.9"),
                                        ("scatter", "2.7")])
def test_simulate_rejects_fractional_label_or_cell(tmp_path, capsys, kernel,
                                                   bad):
    data = tmp_path / "d.csv"
    values = ["1", "-1"] * 4
    values[3] = bad
    data.write_text("".join(f"{i}.25,{i % 3}.5,{v}\n"
                            for i, v in enumerate(values)))
    code, _, err = run_cli(capsys, "simulate", "--protocol", "gosta_sync",
                           "--graph", "complete:n=8", "--kernel", kernel,
                           "--data", str(data), "--iters", "10",
                           "--out", str(tmp_path / "sim.csv"))
    assert code == 1
    assert err.startswith(f"gosta-sim: error: {data}: ")
    assert "column 2 must hold whole numbers" in err
    assert f"got {bad}" in err


@pytest.mark.parametrize("kernel", ["variance", "auc", "scatter"])
@pytest.mark.parametrize("command", ["simulate", "expect", "bounds"])
def test_cell_column_is_read_only_by_scatter(tmp_path, capsys, command,
                                            kernel):
    # a two-class CSV: its last column is a label, read by scatter as cells
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "two_class", "--n", "8", "--d", "2",
            "--out", str(data))
    out = tmp_path / "out.csv"
    horizon = ["--iters", "10"] if command == "simulate" else ["--t-max", "10"]
    code, _, err = run_cli(capsys, command, "--protocol", "gosta_sync",
                           "--graph", "complete:n=8", "--kernel", kernel,
                           "--data", str(data), "--cell-column", "2",
                           *horizon, "--out", str(out))
    if kernel == "scatter":
        assert (code, err) == (0, "") and out.exists()
    else:
        assert (code, out.exists()) == (1, False)
        assert err == ("gosta-sim: error: data cell_column is read only by "
                       f"the scatter kernel, not by '{kernel}'\n")


@pytest.mark.parametrize("case", ["cell_column", "missing_data",
                                  "missing_graph", "malformed_csv"])
@pytest.mark.parametrize("command", ["simulate", "expect", "bounds"])
def test_data_commands_refuse_bad_inputs_before_building(
        tmp_path, capsys, monkeypatch, command, case):
    # the flags make one experiment spec, and its data is read before any
    # graph or kernel is built
    data = tmp_path / "d.csv"
    data.write_text("1,2\n3,4\n")
    graph, flags = "complete:n=3000", ["--kernel", "variance"]
    if case == "cell_column":
        flags += ["--cell-column", "0"]
        message = ("data cell_column is read only by the scatter kernel, "
                   "not by 'variance'")
    elif case == "missing_data":
        data = tmp_path / "none.csv"
        message = f"dataset file not found: {data}"
    elif case == "missing_graph":
        graph = str(tmp_path / "none.txt")
        message = f"graph file not found: {graph}"
    else:
        data.write_text("1,2\n3,x\n")
        message = f"{data}: line 2: 'x' is not a number"

    def built(*args, **kwargs):
        raise AssertionError("an input was built")

    monkeypatch.setattr(gs.harness, "build_graph_from_spec", built)
    monkeypatch.setattr(gs.kernels, "build_kernel_matrix", built)
    horizon = ["--iters", "10"] if command == "simulate" else ["--t-max", "10"]
    out = tmp_path / "out.csv"
    code, stdout, err = run_cli(capsys, command, "--protocol", "gosta_sync",
                                "--graph", graph, "--data", str(data), *flags,
                                *horizon, "--out", str(out))
    assert (code, stdout, out.exists()) == (1, "", False)
    assert err == f"gosta-sim: error: {message}\n"


def test_simulate_per_node(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "8", "--d", "1",
            "--out", str(data))
    out = tmp_path / "sim.csv"
    code, _, _ = run_cli(capsys, "simulate", "--protocol", "boyd",
                         "--graph", "complete:n=8", "--kernel", "variance",
                         "--data", str(data), "--iters", "10",
                         "--record-every", "5", "--per-node",
                         "--out", str(out))
    assert code == 0
    nodes = out.with_suffix(".nodes.csv").read_text().splitlines()
    assert nodes[0] == "run,t,node,estimate,error"
    assert len(nodes) == 1 + 2 * 8


def test_expect_csv(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "10", "--d", "2",
            "--out", str(data))
    out = tmp_path / "exp.csv"
    code, _, _ = run_cli(capsys, "expect", "--protocol", "u2",
                         "--graph", "complete:n=10", "--kernel", "variance",
                         "--data", str(data), "--t-max", "50",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node,expected_Z,target,abs_err"
    # geometric grid {1,2,5,10,20,50} x 10 nodes
    assert len(lines) == 1 + 6 * 10


def test_expect_complete_70_uncapped(tmp_path, capsys):
    # the oracles have no size limit
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "70", "--d", "1",
            "--out", str(data))
    out = tmp_path / "exp.csv"
    code, _, err = run_cli(capsys, "expect", "--protocol", "gosta_sync",
                           "--graph", "complete:n=70", "--kernel", "variance",
                           "--data", str(data), "--t-max", "10",
                           "--out", str(out))
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node,expected_Z,target,abs_err"
    # geometric grid {1,2,5,10} x 70 nodes
    assert len(lines) == 1 + 4 * 70


def test_bounds_csv_dominance(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "8", "--d", "2",
            "--out", str(data))
    out = tmp_path / "b.csv"
    code, stdout, _ = run_cli(capsys, "bounds", "--protocol", "gosta_sync",
                              "--graph", "complete:n=8", "--kernel",
                              "variance", "--data", str(data),
                              "--t-max", "100", "--out", str(out))
    assert code == 0
    constants = json.loads(stdout)
    assert constants["gap_c"] == pytest.approx(1 / 7, rel=1e-6)
    for line in out.read_text().splitlines()[1:]:
        t, actual, bound, ratio = line.split(",")
        assert float(bound) >= float(actual)


def test_experiment_cli(tmp_path, capsys):
    cfg = {
        "graph": {"family": "complete", "n": 10},
        "kernel": {"name": "variance"},
        "data": {"kind": "gaussian_mixture", "n": 10, "d": 2,
                 "clusters": 1, "separation": 0.0},
        "protocols": ["gosta_sync", "u2"],
        "iters": 50,
        "runs": 2,
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, stdout, _ = run_cli(capsys, "experiment", str(path))
    assert code == 0
    summary = json.loads(stdout)
    assert set(summary) == {"gosta_sync", "u2"}
    assert (tmp_path / "out" / "comparison.csv").exists()


def test_experiment_rejects_fractional_int_fields(tmp_path, capsys):
    cfg = {
        "graph": {"family": "complete", "n": 6},
        "kernel": {"name": "variance"},
        "data": {"kind": "gaussian_mixture", "n": 6.9, "d": 2.5,
                 "clusters": 1, "separation": 0.0},
        "protocols": ["gosta_sync"],
        "iters": 10.7, "runs": 1.9, "seed": 3.3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = run_cli(capsys, "experiment", str(path))
    assert code == 1
    assert stdout == ""
    assert err == "gosta-sim: error: data n must be a whole number, got 6.9\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fields, message", [
    ({"graph": {"family": ["complete"], "n": 6}},
     "graph family must be one of ['complete', 'file', 'grid2d', "
     "'watts_strogatz'], got ['complete']"),
    ({"protocols": [["u2"]]},
     "protocols must be a list of protocol names, got [['u2']]"),
    ({"output_dir": 5}, "output_dir must be a path string, got 5"),
], ids=["family_list", "protocols_nested", "output_dir_number"])
def test_experiment_names_the_key_of_a_mistyped_value(tmp_path, capsys,
                                                      fields, message):
    # no TypeError escapes: each is the spec's own ValueError
    cfg = {"graph": {"family": "complete", "n": 6},
           "kernel": {"name": "variance"},
           "data": {"kind": "gaussian_mixture", "n": 6, "d": 2,
                    "clusters": 1, "separation": 0.0},
           "protocols": ["gosta_sync"], "iters": 10, **fields}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, stdout, err = run_cli(capsys, "experiment", str(path))
    assert (code, stdout) == (1, "")
    assert err == f"gosta-sim: error: {message}\n"


def test_table1_cli(tmp_path, capsys):
    code, stdout, _ = run_cli(capsys, "table1",
                              "--graph", "complete:n=40",
                              "--graph", "grid2d:rows=6,cols=6")
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "family,n,m,gap"
    assert len(lines) == 3


def test_table1_out_writes_what_stdout_gets(tmp_path, capsys):
    specs = ["--graph", "complete:n=40", "--graph", "grid2d:rows=6,cols=6"]
    _, stdout, _ = run_cli(capsys, "table1", *specs)
    out = tmp_path / "t1.csv"
    code, written, err = run_cli(capsys, "table1", *specs, "--out", str(out))
    assert (code, written, err) == (0, "", "")
    assert out.read_text() == stdout


@pytest.mark.parametrize("content, kind", [("5", "int"), ("[1, 2]", "list")])
def test_experiment_names_a_config_that_is_no_object(tmp_path, capsys,
                                                     content, kind):
    path = tmp_path / "e.json"
    path.write_text(content)
    code, stdout, err = run_cli(capsys, "experiment", str(path))
    assert (code, stdout) == (1, "")
    assert err == (f"gosta-sim: error: {path}: experiment config must be a "
                   f"mapping, got {kind}\n")


def test_cli_graph_spec_names_a_fractional_key(capsys):
    code, stdout, err = run_cli(capsys, "table1", "--graph",
                                "complete:n=12.5")
    assert (code, stdout) == (1, "")
    assert err == "gosta-sim: error: graph n must be a whole number, got 12.5\n"
    code, stdout, _ = run_cli(capsys, "table1", "--graph", "complete:n=1e1")
    assert code == 0
    assert stdout.splitlines()[1].startswith("complete,10,45,")


def test_cli_rejects_graph_spec_missing_keys(tmp_path, capsys):
    for spec, missing in (("grid2d:rows=5", "['cols']"),
                          ("complete:", "['n']")):
        code, _, err = run_cli(capsys, "table1", "--graph", spec)
        assert code == 1
        assert err.startswith("gosta-sim: error: missing key(s) "
                              f"{missing} in graph spec")
    cfg = {"graph": {"family": "watts_strogatz", "n": 20},
           "kernel": {"name": "variance"},
           "data": {"kind": "gaussian_mixture", "n": 20, "d": 2,
                    "clusters": 1, "separation": 0.0},
           "protocols": ["gosta_sync"], "iters": 10}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", str(path))
    assert code == 1
    assert err.startswith("gosta-sim: error: missing key(s) ['k', 'p'] in "
                          "graph spec 'watts_strogatz'")


def test_cli_experiment_rejects_repeated_protocol(tmp_path, capsys):
    cfg = {"graph": {"family": "complete", "n": 12},
           "kernel": {"name": "variance"},
           "data": {"kind": "gaussian_mixture", "n": 12, "d": 2,
                    "clusters": 1, "separation": 0.0},
           "protocols": ["gosta_sync", "gosta_sync"], "iters": 10,
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, out, err = run_cli(capsys, "experiment", str(path))
    assert code == 1 and out == ""
    assert err.startswith("gosta-sim: error: protocol 'gosta_sync' is listed "
                          "more than once")
    assert not (tmp_path / "out").exists()


def test_table1_rejects_repeated_spec_key(capsys):
    code, out, err = run_cli(capsys, "table1", "--graph", "complete:n=5,n=7")
    assert code == 1 and out == ""
    assert err.startswith("gosta-sim: error: repeated key 'n' in graph spec")


def test_cli_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "spectrum", str(tmp_path / "missing.txt"))
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("n", [1, 2])
def test_cli_rejects_graph_without_edges(tmp_path, capsys, n):
    gpath = tmp_path / "g.txt"
    gpath.write_text(f"{n} 0\n")
    # no data set has one row, so at n = 1 bounds refuses the size first
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "2",
            "--d", "1", "--out", str(data))
    bounds = ["bounds", "--protocol", "u2", "--graph", str(gpath),
              "--kernel", "variance", "--data", str(data), "--t-max", "10",
              "--out", str(tmp_path / "b.csv")]
    for args in (["spectrum", str(gpath)], ["table1", "--graph", str(gpath)],
                 bounds):
        code, _, err = run_cli(capsys, *args)
        assert code == 1
        assert err.startswith("gosta-sim: error: ")
        if n == 1 and args is bounds:
            assert err == ("gosta-sim: error: graph has 1 nodes but the "
                           "dataset has 2 observations\n")
        else:
            assert "undefined on a graph with no edges" in err


def test_cli_rejects_unusable_args(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "6", "--d", "1",
            "--out", str(data))
    # variance kernel with n mismatch between graph and data
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, "simulate", "--protocol", "gosta_sync",
                           "--graph", "complete:n=16", "--kernel", "variance",
                           "--data", str(data), "--iters", "10",
                           "--out", str(out))
    assert code == 1
    assert "error" in err


def test_protocol_messages(tmp_path, capsys):
    # the exact text of every protocol-name error, from the engines, the
    # bounds and the argument parser
    from gosta_sim.engines import EngineConfig, run_protocol

    g5, g4 = gs.make_complete(5), gs.make_complete(4)
    km = gs.KernelMatrix.from_dense(np.ones((4, 4)) - np.eye(4))
    cases = [
        ("boyd", dict(g=g4, km=km),
         "boyd needs a graph and a node-value vector"),
        ("master_node", dict(g=g4, x=np.zeros(4)),
         "master_node needs a kernel matrix"),
        ("u1", dict(km=km), "u1 needs a graph and a kernel matrix"),
        ("gosta_sync", dict(g=g5, km=km),
         "graph size 5 does not match sample size 4"),
    ]
    for protocol, inputs, message in cases:
        with pytest.raises(ValueError) as exc:
            run_protocol(EngineConfig(protocol, 5), **inputs)
        assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        EngineConfig("nope", 5)
    assert str(exc.value) == (
        "unknown protocol 'nope'; expected one of ('boyd', 'u1', 'u2', "
        "'gosta_sync', 'gosta_async', 'flooding', 'master_node')")
    for protocol in ("u1", "nope"):
        with pytest.raises(ValueError) as exc:
            gs.bound_report(g4, km, protocol, [1, 2])
        assert str(exc.value) == (
            f"no bound available for protocol '{protocol}'")

    data = tmp_path / "d.csv"
    run_cli(capsys, "gen-data", "--kind", "plain", "--n", "5", "--d", "1",
            "--out", str(data))
    for command, protocol in (("expect", "flooding"),
                              ("expect", "master_node"), ("bounds", "u1")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--protocol", protocol, "--graph", "complete:n=5",
                  "--kernel", "variance", "--data", str(data),
                  "--t-max", "10", "--out", str(tmp_path / "o.csv")])
        assert exc.value.code == 2
        assert (f"argument --protocol: invalid choice: '{protocol}'"
                in capsys.readouterr().err)


@pytest.mark.parametrize("data, missing", [
    ({"kind": "gaussian_mixture", "n": 12}, "['clusters', 'd', 'separation']"),
    ({"kind": "two_class", "n": 12, "d": 2}, "['margin']"),
    ({"kind": "csv", "cell_column": 0}, "['path']"),
], ids=["gaussian_mixture", "two_class", "csv"])
def test_cli_rejects_data_spec_missing_keys(tmp_path, capsys, data, missing):
    cfg = {"graph": {"family": "complete", "n": 12},
           "kernel": {"name": "variance"}, "data": data,
           "protocols": ["gosta_sync"], "iters": 10}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "experiment", str(path))
    assert code == 1
    assert err.startswith(f"gosta-sim: error: missing key(s) {missing} in "
                          f"data spec '{data['kind']}'")


@pytest.mark.parametrize("spec", ["complete:n=40", "grid2d:rows=6,cols=7",
                                  "watts_strogatz:n=300,k=5,p=0.3",
                                  "watts_strogatz:n=30,k=4,p=0.3"])
def test_one_graph_one_gap(tmp_path, capsys, kernel_factory, spec):
    # spectrum on the written graph, its table1 row, the summary and the
    # bound report's constants carry the same gap bits
    gpath = tmp_path / "g.txt"
    assert run_cli(capsys, "gen-graph", spec, "--out", str(gpath))[0] == 0
    code, out, _ = run_cli(capsys, "spectrum", str(gpath))
    assert code == 0
    gap = json.loads(out)["gap_c"]
    code, out, _ = run_cli(capsys, "table1", "--graph", spec)
    assert code == 0
    [row] = out.splitlines()[1:]
    g = gs.read_graph_file(gpath)
    km = kernel_factory(g.n, np.random.default_rng(0))
    report = gs.bound_report(g, km, "gosta_sync", [1, 10])
    assert float(row.split(",")[3]) == gap
    assert gs.spectral_summary(g).gap_c == gap
    assert report.constants["gap_c"] == gap


def test_spectrum_and_table1_print_zero_gap_when_disconnected(
        tmp_path, capsys, kernel_factory):
    half = gs.make_watts_strogatz(60, 4, 0.3, np.random.default_rng(1))
    gpath = tmp_path / "g.txt"
    gs.write_graph_file(gs.make_graph(
        120, np.vstack([half.edges, half.edges + 60])), gpath)
    code, out, _ = run_cli(capsys, "spectrum", str(gpath))
    assert code == 0
    payload = json.loads(out)
    assert payload["beta_second_smallest"] == payload["gap_c"] == 0.0
    code, out, _ = run_cli(capsys, "table1", "--graph", str(gpath))
    assert code == 0
    assert out.splitlines()[1] == "file,120,240,0"
    # the summary gives the same gap; the bounds still refuse the graph
    g = gs.read_graph_file(gpath)
    assert gs.spectral_summary(g).gap_c == 0.0
    km = kernel_factory(g.n, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gs.bound_report(g, km, "gosta_sync", [1, 10])
    with pytest.raises(ValueError):
        gs.sync_error_bound(g, km, 10.0)
