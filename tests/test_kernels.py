import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import gosta_sim as gs
from gosta_sim import harness, kernels, parallel
from gosta_sim.kernels import (DesignMatrix, KernelMatrix, LabeledDataset,
                               Partition, build_kernel_matrix,
                               load_design_csv, load_labeled_csv,
                               load_partitioned_csv, mean_difference_direction,
                               write_design_csv)

from gosta_sim.kernels import _BLOCK

from _reference import (auc_double_loop, ref_auc_matrix, ref_kernel_statistics,
                        ref_pairwise_sq_dists_direct, ref_scatter_matrix,
                        ref_scores_direct, ref_tile_order_statistics,
                        ref_variance_matrix, scatter_double_loop,
                        u_stat_double_loop)


def test_zero_kernel_targets():
    km = KernelMatrix.from_dense(np.zeros((4, 4)))
    assert km.u_stat == 0.0
    assert (km.row_means == 0.0).all()
    assert km.frob_centered == 0.0
    assert km.vec_centered == 0.0


def test_abs_difference_kernel_brute_force():
    # scalar points {0,1,2} with H(x,y)=|x-y|; pair average over all 9
    # ordered pairs is 8/9
    x = np.array([0.0, 1.0, 2.0])
    h = np.abs(x[:, None] - x[None, :])
    km = KernelMatrix.from_dense(h)
    assert km.u_stat == pytest.approx(8 / 9, abs=1e-15)
    assert km.u_stat == pytest.approx(u_stat_double_loop(h), abs=1e-15)


def test_row_means_average_to_u_stat(rng, kernel_factory):
    for _ in range(5):
        km = kernel_factory(int(rng.integers(3, 12)), rng)
        assert km.row_means.mean() == pytest.approx(km.u_stat, abs=1e-12)


def test_scatter_kernel_values():
    cells = Partition(np.array([1, 1, 2, 2]))
    x = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0], [0.0, 0.0]])
    h = build_kernel_matrix(gs.scatter_kernel(cells), DesignMatrix(x)).H
    assert h[0, 1] == pytest.approx(5.0, abs=1e-12)  # same cell, 3-4-5
    assert h[0, 2] == 0.0  # different cells
    assert np.allclose(h, scatter_double_loop(x, cells.assignment), atol=1e-12)


def test_scatter_kernel_matrix_oracle(rng):
    x = rng.normal(size=(6, 3))
    cells = Partition(np.array([1, 2, 1, 2, 1, 2]))
    km = build_kernel_matrix("scatter", DesignMatrix(x), cells)
    h_ref = scatter_double_loop(x, cells.assignment)
    assert km.u_stat == pytest.approx(u_stat_double_loop(h_ref), abs=1e-12)
    assert np.allclose(km.dense(), h_ref, atol=1e-12)


def test_auc_perfectly_separated():
    x = np.array([[2.0], [3.0], [-2.0], [-3.0]])
    ds = LabeledDataset(DesignMatrix(x), np.array([1, 1, -1, -1]))
    assert gs.auc_value(np.array([1.0]), ds) == 1.0


def test_auc_perfectly_reversed():
    x = np.array([[-2.0], [-3.0], [2.0], [3.0]])
    ds = LabeledDataset(DesignMatrix(x), np.array([1, 1, -1, -1]))
    assert gs.auc_value(np.array([1.0]), ds) == 0.0


def test_auc_matches_double_loop(rng):
    x = rng.normal(size=(10, 3))
    labels = np.array([1, -1, 1, 1, -1, -1, 1, -1, 1, -1])
    ds = LabeledDataset(DesignMatrix(x), labels)
    theta = rng.normal(size=3)
    assert gs.auc_value(theta, ds) == pytest.approx(
        auc_double_loop(theta, x, labels), abs=1e-12)


def test_auc_kernel_rescaled_u_stat_equals_auc(rng):
    x = rng.normal(size=(12, 2))
    labels = np.where(rng.random(12) < 0.5, 1, -1)
    if abs(labels.sum()) == 12:
        labels[0] = -labels[0]
    ds = LabeledDataset(DesignMatrix(x), labels)
    theta = rng.normal(size=2)
    km = build_kernel_matrix(gs.auc_kernel(theta, labels), ds)
    rescaled = km.u_stat * km.n**2 / (4.0 * ds.n_pos * ds.n_neg)
    assert rescaled == pytest.approx(gs.auc_value(theta, ds), abs=1e-12)


def test_auc_range_and_reversal(rng):
    for _ in range(5):
        x = rng.normal(size=(9, 2))
        labels = np.array([1, 1, 1, 1, -1, -1, -1, -1, 1])
        ds = LabeledDataset(DesignMatrix(x), labels)
        theta = rng.normal(size=2)
        a = gs.auc_value(theta, ds)
        assert 0.0 <= a <= 1.0
        # no ties almost surely for continuous data
        assert gs.auc_value(-theta, ds) == pytest.approx(1.0 - a, abs=1e-12)


def test_auc_single_class_rejected():
    # single-class data may exist (e.g. for other kernels) but AUC must refuse
    ds = LabeledDataset(DesignMatrix(np.zeros((3, 1))), np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        gs.auc_value(np.array([1.0]), ds)
    with pytest.raises(ValueError):
        mean_difference_direction(ds)


def test_variance_kernel_two_points():
    x = np.array([[0.0], [2.0]])
    km = build_kernel_matrix("variance", DesignMatrix(x))
    assert km.dense()[0, 1] == 2.0
    assert km.u_stat == pytest.approx(1.0, abs=1e-15)  # population variance


def test_variance_kernel_identical_points():
    x = np.ones((5, 3))
    km = build_kernel_matrix("variance", DesignMatrix(x))
    assert km.u_stat == 0.0


def test_variance_kernel_matches_moment_formula(rng):
    x = rng.normal(size=(20, 4))
    km = build_kernel_matrix("variance", DesignMatrix(x))
    centered = x - x.mean(axis=0)
    assert km.u_stat == pytest.approx(
        (centered**2).sum() / 20, abs=1e-10)


def test_permutation_invariance(rng, kernel_factory):
    km = kernel_factory(8, rng)
    perm = rng.permutation(8)
    km2 = KernelMatrix.from_dense(np.asarray(km.dense()[np.ix_(perm, perm)]).copy())
    assert km2.u_stat == pytest.approx(km.u_stat, abs=1e-10)
    assert km2.frob_centered == pytest.approx(km.frob_centered, rel=1e-10)


def test_from_dense_validation():
    with pytest.raises(ValueError):
        KernelMatrix.from_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asym
    with pytest.raises(ValueError):
        KernelMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))  # diag
    bad = np.zeros((2, 2))
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        KernelMatrix.from_dense(bad)


def test_build_names_the_kernel_of_non_finite_output(rng):
    # a custom tile goes through the tile loop, whose check names the kernel
    def nan_tile(xt, a, b, t, v, m):
        t[:] = 0.0
        t[-1, 0] = np.nan

    spec = gs.KernelSpec("broken", nan_tile)
    with pytest.raises(ValueError,
                       match="kernel 'broken' produced non-finite values"):
        build_kernel_matrix(spec, DesignMatrix(rng.normal(size=(4, 2))))


def test_dispersion_zero_iff_constant_rows():
    km = KernelMatrix.from_dense(np.zeros((5, 5)))
    assert km.frob_centered == 0.0
    h = np.ones((5, 5)) - np.eye(5)
    km2 = KernelMatrix.from_dense(h)
    assert km2.frob_centered > 0.0  # zero diagonal forces non-constant rows


def test_build_rejects_missing_requirements(rng):
    x = DesignMatrix(rng.normal(size=(4, 2)))
    with pytest.raises(ValueError):
        build_kernel_matrix("scatter", x)  # no partition
    with pytest.raises(ValueError):
        build_kernel_matrix("auc", x)  # unlabeled data
    with pytest.raises(ValueError):
        build_kernel_matrix("nope", x)


def test_build_above_dense_limit_fails_before_any_pair(monkeypatch):
    n = gs.kernels.DENSE_KERNEL_LIMIT + 1

    def no_matrix(x):
        raise AssertionError("kernel evaluated above the dense limit")

    monkeypatch.setattr(gs.kernels, "_sq_dist_tile", no_matrix)
    x = DesignMatrix(np.arange(n, dtype=np.float64)[:, None])
    with pytest.raises(ValueError, match=f"n={n} would need {8 * n * n:,} bytes"):
        build_kernel_matrix("variance", x)


def test_csv_round_trip(tmp_path, rng):
    x = rng.normal(size=(6, 3))
    labels = np.array([1, -1, 1, -1, 1, -1])
    path = tmp_path / "d.csv"
    write_design_csv(path, x, labels)
    ds = load_labeled_csv(path)
    assert np.allclose(ds.design.rows, x, atol=0)
    assert np.array_equal(ds.labels, labels)

    path2 = tmp_path / "plain.csv"
    write_design_csv(path2, x)
    dm = load_design_csv(path2)
    assert np.allclose(dm.rows, x, atol=0)

    cells = np.array([1, 1, 2, 2, 3, 3])
    path3 = tmp_path / "cells.csv"
    write_design_csv(path3, x, cells)
    dm2, part = load_partitioned_csv(path3)
    assert np.allclose(dm2.rows, x, atol=0)
    assert np.array_equal(part.assignment, cells)


@pytest.mark.parametrize("column", [[1.0, -1.0, 1.0], [3, -2, 2**40]],
                         ids=["labels_as_floats", "wide_cells"])
def test_written_extra_column_reads_back(tmp_path, column):
    x = np.arange(6.0).reshape(3, 2) / 7
    path = tmp_path / "d.csv"
    write_design_csv(path, x, np.array(column))
    assert [line.rsplit(",", 1)[1] for line in path.read_text().split()] == [
        str(int(c)) for c in column]
    _, part = load_partitioned_csv(path)
    assert part.assignment.tolist() == [int(c) for c in column]
    if set(column) <= {1, -1}:
        assert load_labeled_csv(path).labels.tolist() == column


def test_write_design_csv_refuses_a_fractional_extra_column(tmp_path):
    # the loaders could not read such a column back
    path = tmp_path / "d.csv"
    with pytest.raises(ValueError) as info:
        write_design_csv(path, np.zeros((3, 2)), np.array([0.5, 1, 2]))
    assert str(info.value) == "extra column must hold whole numbers, got 0.5"
    assert not path.exists()


def test_csv_header_sniffing(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("a,b,label\n1.0,2.0,1\n3.0,4.0,-1\n")
    ds = load_labeled_csv(path)
    assert ds.design.n == 2
    assert np.array_equal(ds.labels, [1, -1])


def test_csv_integer_columns_accept_whole_floats(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0.5,1\n1.5,-1.0\n2.5,1.0\n3.5,-1\n")
    assert np.array_equal(load_labeled_csv(path).labels, [1, -1, 1, -1])
    path.write_text("7,0.5\n-2.0,1.5\n7.0,2.5\n")
    _, part = load_partitioned_csv(path, cell_column=0)
    assert np.array_equal(part.assignment, [7, -2, 7])


@pytest.mark.parametrize("bad", ["1.5", "-1.9", "nan", "inf"])
def test_labeled_csv_rejects_fractional_label(tmp_path, bad):
    path = tmp_path / "d.csv"
    path.write_text(f"0.5,2.0,1\n1.5,3.0,{bad}\n2.5,4.0,-1\n")
    with pytest.raises(ValueError) as info:
        load_labeled_csv(path)
    assert str(info.value) == (f"{path}: label column 2 must hold whole "
                               f"numbers, got {float(bad)!r}")


@pytest.mark.parametrize("col", [0, -1])
def test_partitioned_csv_rejects_fractional_cell_id(tmp_path, col):
    # 1.5 and 2.7 would otherwise be merged into cells 1 and 2
    rows = [[0.5, 1.0], [1.5, 1.5], [2.5, 2.0], [3.5, 2.7]]
    path = tmp_path / "d.csv"
    path.write_text("".join(f"{a},{b}\n" for a, b in
                            (r[::-1] if col == 0 else r for r in rows)))
    with pytest.raises(ValueError) as info:
        load_partitioned_csv(path, cell_column=col)
    assert str(info.value) == (f"{path}: cell column {col % 2} must hold "
                               "whole numbers, got 1.5")


@pytest.mark.parametrize("values, message", [
    (True, "x must be a whole number, got True"),
    ("3", "x must be a whole number, got '3'"),
    ("abc", "x must be a whole number, got 'abc'"),
    (None, "x must be a whole number, got None"),
    (12.7, "x must be a whole number, got 12.7"),
    (float("inf"), "x must be a whole number, got inf"),
    ([1, 2.5], "x must hold whole numbers, got 2.5"),
    (np.array([True, False]), "x must hold whole numbers, got True"),
    (["1", "2"], "x must hold whole numbers, got '1'"),
    # np.asarray would read these bools as the numbers 1 and 0
    ([1, True], "x must hold whole numbers, got True"),
    ((2.0, np.False_), "x must hold whole numbers, got False"),
    ([[3, 4], [True, 5]], "x must hold whole numbers, got True"),
    # beyond int64, where astype(np.int64) would wrap or overflow
    ([1, 2**63], "x must fit in int64, got 9223372036854775808"),
    ([1e19], "x must fit in int64, got 1e+19"),
    ([-2**63 - 1], "x must fit in int64, got -9223372036854775809"),
    ([1.0, 2**70], "x must fit in int64, got 1180591620717411303424"),
], ids=["bool", "numeric_string", "string", "none", "fraction", "inf",
        "list_fraction", "bool_array", "string_list", "bool_among_ints",
        "numpy_bool_among_floats", "bool_in_nested_list", "int_at_2_63",
        "float_beyond_int64", "int_below_int64", "float_beside_wide_int"])
def test_whole_accepts_only_numbers(values, message):
    # a bool or a string is no number, whatever int() would make of it
    with pytest.raises(ValueError) as info:
        kernels.whole(values, "x")
    assert str(info.value) == message


def _labeled(labels):
    return LabeledDataset(DesignMatrix(np.arange(6.0).reshape(3, 2)), labels)


def _skew_tile(xt, a, b, t, v, m):
    t[:] = 0.0
    t[0, -1] = 1.0


@pytest.mark.parametrize("call, error, message", [
    (lambda: DesignMatrix(np.zeros(3)), ValueError,
     "design matrix must be 2-dimensional (n, d)"),
    (lambda: DesignMatrix(np.zeros((1, 2))), ValueError,
     "need at least 2 observations, got 1"),
    (lambda: DesignMatrix(np.zeros((3, 0))), ValueError,
     "observation dimension must be >= 1"),
    (lambda: DesignMatrix([[0.0, np.inf], [1.0, 2.0]]), ValueError,
     "design matrix contains non-finite entries"),
    (lambda: _labeled([1, -1]), ValueError,
     "labels must be one value per observation"),
    (lambda: _labeled([1, -1, 2]), ValueError, "labels must be -1 or +1"),
    (lambda: Partition([[1, 2], [3, 4]]), ValueError,
     "partition assignment must be one id per row"),
    (lambda: KernelMatrix.from_dense(np.zeros((2, 3))), ValueError,
     "kernel matrix must be square"),
    (lambda: build_kernel_matrix("variance", np.zeros((3, 2))), TypeError,
     "data must be a DesignMatrix or LabeledDataset"),
    (lambda: build_kernel_matrix(gs.KernelSpec("skew", _skew_tile),
                                 DesignMatrix(np.zeros((3, 2)))), ValueError,
     "kernel tile is not symmetric with a zero diagonal"),
    (lambda: gs.auc_value(np.ones(3), _labeled([1, -1, 1])), ValueError,
     "theta must hold one weight per coordinate"),
], ids=["design_1d", "design_one_row", "design_no_columns", "design_inf",
        "labels_too_few", "label_2", "partition_2d", "dense_not_square",
        "data_not_a_sample", "tile_not_symmetric", "theta_too_long"])
def test_data_and_kernel_checks_name_what_they_refuse(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("kind", ["scatter", "named_scatter", "auc"])
@pytest.mark.parametrize("size", [400, 200], ids=["longer", "shorter"])
def test_kernel_data_of_wrong_length_is_refused(kind, size):
    # 300 rows span two tile rows, built on two threads where there are
    # two CPUs; cells or labels of another length are not cut or broadcast
    x = DesignMatrix(np.random.default_rng(0).normal(size=(300, 2)))
    cells = Partition(np.arange(size) % 3)
    labels = np.where(np.arange(size) % 2, 1, -1)
    build, message = {
        "scatter": (lambda: build_kernel_matrix(gs.scatter_kernel(cells), x),
                    "partition size"),
        "named_scatter": (lambda: build_kernel_matrix("scatter", x, cells),
                          "partition size"),
        "auc": (lambda: build_kernel_matrix(
            gs.auc_kernel(np.ones(2), labels), x), "label count"),
    }[kind]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"{message} does not match the sample size"


def test_whole_converts_and_checks_its_lower_limit():
    three = kernels.whole(3.0, "x")
    assert three == 3 and type(three) is int
    assert kernels.whole(2**70, "x", 0) == 2**70
    assert kernels.whole(np.int64(5), "x", 5) == 5
    assert kernels.whole([1.0, 2], "x").tolist() == [1, 2]
    with pytest.raises(ValueError) as info:
        kernels.whole(0, "runs", 1)
    assert str(info.value) == "runs must be >= 1"


def test_labels_and_cells_reject_fractional_values():
    # the constructors apply the CSV loaders' rule: 1.5 and -1.9 are not
    # truncated to 1 and -1, while whole-valued floats pass as int64
    design = DesignMatrix(np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError) as info:
        LabeledDataset(design, [1.5, -1.9, 1, -1])
    assert str(info.value) == "labels must hold whole numbers, got 1.5"
    with pytest.raises(ValueError) as info:
        Partition([1.5, 2.7, 1, 2])
    assert str(info.value) == ("partition assignment must hold whole "
                               "numbers, got 1.5")
    ds = LabeledDataset(design, [1.0, -1.0, 1.0, -1.0])
    assert ds.labels.dtype == np.int64
    assert np.array_equal(ds.labels, [1, -1, 1, -1])
    assert np.array_equal(Partition([7.0, -2.0, 7]).assignment, [7, -2, 7])


def test_split_column_loaders_check_the_column(tmp_path):
    one = tmp_path / "one.csv"
    one.write_text("1\n-1\n")
    with pytest.raises(ValueError) as info:
        load_labeled_csv(one)
    assert str(info.value) == f"{one}: needs a label column and another one"
    with pytest.raises(ValueError) as info:
        load_partitioned_csv(one)
    assert str(info.value) == f"{one}: needs a cell column and another one"
    two = tmp_path / "two.csv"
    two.write_text("0.5,1\n1.5,2\n")
    for col in (2, -3):
        with pytest.raises(ValueError) as info:
            load_partitioned_csv(two, cell_column=col)
        assert str(info.value) == f"{two}: cell column {col} out of range"


@pytest.mark.parametrize("text, message", [
    ("", "empty dataset file"),
    ("\n\n", "empty dataset file"),
    ("a,b,c\n", "no data rows"),
    ("1,2,1\n3,x,-1\n", "line 2: 'x' is not a number"),
    ("a,b,c\n1,2,1\n\n3,4\n", "line 4 has 2 values, the first data row 3"),
    ("1,2,1\n3,4,-1,5\n", "line 2 has 4 values, the first data row 3"),
    # a first row holding a number is data, so its typo is named
    ("1,x,1\n2,3,-1\n4,5,1\n", "line 1: 'x' is not a number"),
    ("\na,2,c\n1,2,1\n", "line 2: 'a' is not a number"),
    # a row's length is checked before its values; only the first row of
    # text is a header
    ("1,2,1\n3,x\n", "line 2 has 2 values, the first data row 3"),
    ("a,b,c\nd,e,f\n1,2,1\n", "line 2: 'd' is not a number"),
], ids=["empty", "blank_lines", "header_only", "not_a_number",
        "short_row_after_blank_line", "long_row", "typo_in_first_row",
        "header_holding_a_number", "short_row_with_a_typo",
        "second_row_of_text"])
@pytest.mark.parametrize("load", [load_design_csv, load_labeled_csv,
                                  load_partitioned_csv],
                         ids=lambda load: load.__name__)
def test_csv_loaders_name_the_file_and_line_they_refuse(tmp_path, load, text,
                                                       message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"


def test_csv_values_are_parsed_once(tmp_path, monkeypatch):
    # a token is looked at again only in a row that fails to convert: here
    # the header's three
    looked = []
    is_number = kernels._is_number
    monkeypatch.setattr(kernels, "_is_number",
                        lambda tok: looked.append(tok) or is_number(tok))
    path = tmp_path / "d.csv"
    path.write_text("x,y,cell\n" + "".join(
        f"{i / 4},{-i},{i % 3}\n" for i in range(40)))
    design, part = load_partitioned_csv(path)
    assert looked == ["x", "y", "cell"]
    assert design.rows[9].tolist() == [2.25, -9.0]
    assert part.assignment[:4].tolist() == [0, 1, 2, 0]


def test_row_means_read_only(rng, kernel_factory):
    for km in (kernel_factory(5, rng),
               build_kernel_matrix("variance", DesignMatrix(
                   rng.normal(size=(5, 2))))):
        with pytest.raises(ValueError, match="read-only"):
            km.row_means[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            km.H[0, 1] = 1.0


def test_csv_missing_file():
    with pytest.raises(FileNotFoundError):
        load_design_csv("/nonexistent/file.csv")


def test_mean_difference_direction():
    x = np.array([[1.0, 0.0], [3.0, 0.0], [-1.0, 2.0], [-3.0, 2.0]])
    ds = LabeledDataset(DesignMatrix(x), np.array([1, 1, -1, -1]))
    assert np.allclose(mean_difference_direction(ds), [4.0, -2.0])


def _kernel_case(name, n, seed=0):
    """(spec, data, direct-difference reference H, Gram-form reference H)
    for one of the three kernels on clustered points, both classes
    present."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 3, size=n)
    x = rng.normal(size=(n, 2)) + 4.0 * cells[:, None]
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    labels[:2] = (1, -1)
    direct = ref_pairwise_sq_dists_direct
    if name == "scatter":
        return (gs.scatter_kernel(Partition(cells)), DesignMatrix(x),
                ref_scatter_matrix(x, cells, direct),
                ref_scatter_matrix(x, cells))
    if name == "variance":
        return (gs.variance_kernel(), DesignMatrix(x),
                ref_variance_matrix(x, direct), ref_variance_matrix(x))
    theta = rng.normal(size=2)
    return (gs.auc_kernel(theta, labels),
            LabeledDataset(DesignMatrix(x), labels),
            ref_auc_matrix(x, theta, labels, ref_scores_direct),
            ref_auc_matrix(x, theta, labels))


@pytest.mark.parametrize("n", [2, 7, 100, 257, 2 * _BLOCK + 91])
@pytest.mark.parametrize("name", ["scatter", "variance", "auc"])
def test_blocked_build_matches_whole_matrix_reference(name, n, monkeypatch):
    # H equals the direct differences exactly and the Gram form
    # sq_i + sq_j - 2 x_i.x_j to 1e-12 of max|H|: that form cancels on
    # near-coincident points, so an entrywise relative bound would not hold
    spec, data, h_ref, h_gram = _kernel_case(name, n)
    u, row_means = ref_tile_order_statistics(h_ref)
    _, _, frob, vec = ref_kernel_statistics(h_ref)
    # two and three threads even on a one-CPU host, so the threaded path
    # always runs; from_dense fills the same row-sum slots as the build
    norms = set()
    for cpus in (1, 2, 3):
        monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
        km = build_kernel_matrix(spec, data)
        assert np.array_equal(km.dense(), h_ref), cpus
        assert np.abs(km.dense() - h_gram).max() \
            <= 1e-12 * np.abs(h_gram).max()
        for k in (km, KernelMatrix.from_dense(km.dense().copy())):
            assert k.u_stat == u
            assert np.array_equal(k.row_means, row_means)
            norms.add((k.frob_centered, k.vec_centered))
    assert len(norms) == 1
    assert km.frob_centered == pytest.approx(frob, rel=1e-12)
    assert km.vec_centered == pytest.approx(vec, rel=1e-12)


_TILED_N = 2 * _BLOCK + 5  # three row blocks, the last one 5 rows high


@pytest.mark.parametrize("i, j", [(_TILED_N - 1, _TILED_N - 3),  # last tile
                                  (3, _BLOCK + 7),  # off-diagonal tile
                                  (_BLOCK + 7, 3)])
@pytest.mark.parametrize("fault, message", [
    ("nan", "non-finite"), ("inf", "non-finite"),
    ("asymmetric", "exactly symmetric")])
def test_from_dense_tiled_checks_see_every_element(i, j, fault, message):
    h = _kernel_case("variance", _TILED_N)[2].copy()
    if fault == "asymmetric":
        h[i, j] += 1.0
    else:
        h[i, j] = float(fault)
    with pytest.raises(ValueError, match=message):
        KernelMatrix.from_dense(h)


@pytest.mark.parametrize("i", [_TILED_N - 1, _BLOCK + 7, 0])
def test_from_dense_tiled_diagonal_check(i):
    h = _kernel_case("variance", _TILED_N)[2].copy()
    h[i, i] = 1e-300
    with pytest.raises(ValueError, match="diagonal must be exactly zero"):
        KernelMatrix.from_dense(h)


@pytest.mark.parametrize("name", ["scatter", "variance", "auc"])
def test_dense_build_holds_one_n2_buffer(name):
    # numpy reports its buffers to tracemalloc; the n x n result is 8 n^2
    # bytes and every temporary of the build is one row block or tile.
    n = 2000
    spec, data = _kernel_case(name, n)[:2]
    tracemalloc.start()
    try:
        km = build_kernel_matrix(spec, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert km.H.nbytes == 8 * n * n
    assert peak <= 1.5 * 8 * n * n


@pytest.mark.parametrize("fault", ["nan", "inf"])
def test_fault_in_second_thread_names_the_kernel(fault, monkeypatch):
    # tile (1, 2) belongs to row block 1, which the second of two threads
    # owns; the fault is placed there after the tile's arithmetic
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    placed = []
    sq_dist_tile = kernels._sq_dist_tile

    def faulty(xt, a, b, t, v):
        sq_dist_tile(xt, a, b, t, v)
        if (a.start, b.start) == (_BLOCK, 2 * _BLOCK):
            t[2, 3] = float(fault)
            placed.append(threading.current_thread()
                          is threading.main_thread())

    monkeypatch.setattr(kernels, "_sq_dist_tile", faulty)
    spec, data = _kernel_case("variance", _TILED_N)[:2]
    threads = threading.active_count()
    with pytest.raises(ValueError,
                       match="kernel 'variance' produced non-finite values"):
        build_kernel_matrix(spec, data)
    assert placed == [False]
    assert threading.active_count() == threads


def test_build_leaves_no_thread_running(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    spec, data = _kernel_case("scatter", _TILED_N)[:2]
    threads = threading.active_count()
    build_kernel_matrix(spec, data)
    assert threading.active_count() == threads


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_experiment_still_forks_after_threaded_build(tmp_path, monkeypatch):
    # n = 300 is two row blocks, so the build runs on two threads; they are
    # joined before the pool forks, so the jobs still run in workers.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    pid_file = tmp_path / "pids"
    run = gs.engines.run_protocol

    def recording(*args, **kwargs):
        with open(pid_file, "a") as f:
            f.write(f"{os.getpid()}\n")
        return run(*args, **kwargs)

    monkeypatch.setattr(gs.engines, "run_protocol", recording)
    config = tmp_path / "exp.json"
    config.write_text(json.dumps({
        "graph": {"family": "watts_strogatz", "n": 300, "k": 4, "p": 0.3},
        "data": {"kind": "gaussian_mixture", "n": 300, "d": 2,
                 "clusters": 3, "separation": 6.0},
        "kernel": {"name": "scatter"},
        "protocols": ["u1", "gosta_sync"], "iters": 50, "runs": 2,
        "seed": 3, "output_dir": str(tmp_path / "out")}))
    harness.run_experiment(harness.load_experiment(config))
    pids = set(pid_file.read_text().split())
    assert pids and str(os.getpid()) not in pids


def test_import_loads_no_process_pool():
    # importing the process-pool modules would add to every command's
    # start-up time (the CLI's too); an experiment's forked run loads none
    # of them either (test_harness)
    code = ("import sys, gosta_sim, gosta_sim.cli; "
            "print(sorted(m for m in ('concurrent.futures', "
            "'multiprocessing') if m in sys.modules))")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gs.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_on_threads_splits_in_snake_order(monkeypatch):
    # row block i of a 12-block build owns 12 - i tile pairs; the snake
    # order gives each of two parts 39 of the 78, and part 0 runs here
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    parts = {}

    def record(share):
        parts[threading.current_thread() is threading.main_thread()] = share

    parallel.on_threads(record, 12)
    assert parts == {True: [0, 3, 4, 7, 8, 11], False: [1, 2, 5, 6, 9, 10]}
    assert [sum(12 - i for i in p) for p in parts.values()] == [39, 39]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", ["scatter", "variance", "auc"])
def test_build_peak_is_the_matrix_and_tile_buffers(name, cpus, monkeypatch):
    # the n x n result is 8 n^2 bytes; each thread adds two float tiles and
    # one boolean tile, and the bound constants wait for their first read
    n = 2000
    monkeypatch.setattr(parallel, "available_cpus", lambda: cpus)
    spec, data = _kernel_case(name, n)[:2]
    tracemalloc.start()
    try:
        km = build_kernel_matrix(spec, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 8 * n * n
    assert not {"frob_centered", "vec_centered"} & set(vars(km))


_HOST_PROBE = r"""
import dataclasses, hashlib, json, pathlib, sys, tempfile
import numpy as np
import gosta_sim as gs
from gosta_sim import harness, parallel

def digest(data):
    return hashlib.sha256(data).hexdigest()

# above n = 10000, where BLAS splits a dot product over its threads
big = gs.make_watts_strogatz(12000, 4, 0.3, np.random.default_rng(12000))
big_beta = repr(gs.beta_second_smallest(big))
out = {}
for cpus in (1, 2):
    parallel.available_cpus = lambda: cpus
    got = {"beta n=12000": big_beta}
    for n, d in ((300, 11), (1599, 11), (3000, 5)):
        design, part = harness.synth_gaussian_mixture(
            n, d, 3, 3.0, np.random.default_rng(1))
        labeled = gs.LabeledDataset(design,
                                    np.where(part.assignment == 1, 1, -1))
        for name, data in (("scatter", design), ("variance", design),
                           ("auc", labeled)):
            km = gs.build_kernel_matrix(name, data, part)
            got[f"{name} n={n} d={d}"] = {
                "H": digest(km.H.tobytes()),
                "row_means": digest(km.row_means.tobytes()),
                "u_stat": repr(km.u_stat),
                "frob_centered": repr(km.frob_centered),
                "vec_centered": repr(km.vec_centered)}
            if name == "scatter" and n < 3000:
                g = gs.make_watts_strogatz(n, 5, 0.3,
                                           np.random.default_rng(n))
                s = gs.spectral_summary(g)
                got[f"bounds n={n}"] = {
                    **{f.name: repr(getattr(s, f.name))
                       for f in dataclasses.fields(s)},
                    "sync": [repr(gs.sync_error_bound(g, km, t))
                             for t in (1, 10, 1000)],
                    "u2": [repr(gs.u2_error_bound(g, km, t))
                           for t in (1, 10, 1000)]}
            del km
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "exp.json"
        config.write_text(json.dumps({
            "graph": {"family": "watts_strogatz", "n": 300, "k": 4,
                      "p": 0.3},
            "data": {"kind": "gaussian_mixture", "n": 300, "d": 11,
                     "clusters": 3, "separation": 3.0},
            "kernel": {"name": "scatter"},
            "protocols": list(gs.engines.PROTOCOLS), "iters": 300,
            "runs": 2, "seed": 1, "output_dir": str(pathlib.Path(tmp) / "o")}))
        harness.run_experiment(harness.load_experiment(config))
        got["csv"] = {p.name: digest(p.read_bytes())
                      for p in sorted((pathlib.Path(tmp) / "o").iterdir())}
    out[cpus] = got
json.dump(out, sys.stdout)
"""


def test_outputs_do_not_depend_on_blas_threads_or_cpus():
    # H, its statistics, the spectral constants and the sync and u2 bounds
    # of two Watts-Strogatz graphs, the gap of a third with 12000 nodes,
    # and an experiment's CSVs, from fresh interpreters with one and two
    # BLAS threads and the CPU helper at 1 and at 2
    src = os.path.dirname(os.path.dirname(gs.__file__))
    runs = {}
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", _HOST_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        for cpus, got in json.loads(out.stdout).items():
            runs[f"blas={blas} cpus={cpus}"] = got
    first = runs.pop("blas=1 cpus=1")
    assert len(first["csv"]) > 0
    for setting, got in runs.items():
        for case, values in first.items():
            assert got[case] == values, (setting, case)
