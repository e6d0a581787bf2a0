import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gosta_sim as gs
import _reference as ref
from gosta_sim import expectation
from gosta_sim.engines import EngineConfig, derive_seed
from gosta_sim.engines import PROTOCOLS
from gosta_sim.expectation import (divided_difference, every_checkpoints,
                                   geometric_checkpoints)
from gosta_sim.spectral import laplacian_eigh

from _reference import _async_m1, brute_force_propagation, w_alpha


def small_graph():
    return gs.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                             (0, 3), (1, 4)])


def constant_kernel(n, c=1.0):
    h = np.full((n, n), c)
    np.fill_diagonal(h, 0.0)
    return gs.KernelMatrix.from_dense(h)


# ------------------------------------------------------------ checkpoints


def test_geometric_checkpoints_basic():
    assert geometric_checkpoints(100) == (1, 2, 5, 10, 20, 50, 100)
    assert geometric_checkpoints(7) == (1, 2, 5, 7)
    assert geometric_checkpoints(1) == (1,)


def test_geometric_checkpoints_cap():
    cps = geometric_checkpoints(10**6, max_points=10)
    assert len(cps) <= 10
    assert cps[-1] == 10**6


def test_geometric_checkpoints_cap_keeps_t_max():
    # one point is t_max itself, not the first point of the grid
    assert geometric_checkpoints(20000, max_points=1) == (20000,)
    assert geometric_checkpoints(20000, max_points=2) == (1, 20000)
    for points in range(1, 14):
        cps = geometric_checkpoints(20000, max_points=points)
        assert len(cps) <= points and cps[-1] == 20000


@pytest.mark.parametrize("call, message", [
    (lambda: geometric_checkpoints(100, max_points=0),
     "max_points must be >= 1"),
    (lambda: geometric_checkpoints(100, max_points=-1),
     "max_points must be >= 1"),
    (lambda: every_checkpoints(100, 0), "step must be >= 1"),
    (lambda: every_checkpoints(100, -3), "step must be >= 1"),
    # both grids take whole numbers, and t_max >= 1
    (lambda: geometric_checkpoints(10.5), "t_max must be a whole number, "
     "got 10.5"),
    (lambda: geometric_checkpoints(0), "t_max must be >= 1"),
    (lambda: geometric_checkpoints(100, True), "max_points must be a whole "
     "number, got True"),
    (lambda: every_checkpoints(0, 1), "t_max must be >= 1"),
    (lambda: every_checkpoints(10.5, 1), "t_max must be a whole number, "
     "got 10.5"),
    (lambda: every_checkpoints(10, 2.5), "step must be a whole number, "
     "got 2.5"),
    (lambda: every_checkpoints(10, "2"), "step must be a whole number, "
     "got '2'"),
], ids=["max_points_0", "max_points_-1", "step_0", "step_-3",
        "geometric_fractional_t_max", "geometric_t_max_0",
        "geometric_bool_max_points", "every_t_max_0",
        "every_fractional_t_max", "every_fractional_step",
        "every_string_step"])
def test_checkpoint_grids_reject_bad_sizes(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("graph_n", [5, 3], ids=["larger", "smaller"])
@pytest.mark.parametrize("protocol", [name for name, proto in PROTOCOLS.items()
                                      if proto.oracle is not None])
def test_oracles_check_the_graph_against_the_sample(protocol, graph_n,
                                                    kernel_factory):
    proto = PROTOCOLS[protocol]
    km = kernel_factory(4, np.random.default_rng(0))
    source = np.arange(4.0) if proto.on_values else km
    with pytest.raises(ValueError) as info:
        proto.oracle(gs.make_complete(graph_n), source, 10, [1, 10])
    assert str(info.value) == (f"graph size {graph_n} does not match "
                               "sample size 4")


# Who takes checkpoints: a run (from 0, up to max_iters), the five oracles
# (from 1, up to t_max) and bound_report's grid (from 1, no horizon).
RUN, CURVES, GRID = "run", "curves", "grid"


@pytest.mark.parametrize("bad, takers", [
    (5, (RUN, CURVES, GRID)),
    ([[1, 2]], (RUN, CURVES, GRID)),
    ([], (RUN, CURVES, GRID)),
    ([5, 3], (RUN, CURVES, GRID)),
    ([3, 3], (RUN, CURVES, GRID)),
    ([2.5], (RUN, CURVES, GRID)),
    ([True, 2], (RUN, CURVES, GRID)),
    ([4, 11], (RUN, CURVES)),
    ([0], (CURVES, GRID)),
    ([-1], (RUN,)),
], ids=["scalar", "two_d", "empty", "unsorted", "repeated", "fraction",
        "bool", "above_horizon", "zero_for_curve", "negative_for_run"])
def test_one_checkpoint_rule(bad, takers):
    # one rule for every list of checkpoints: each bad input is refused
    # with a ValueError naming the argument, never sorted, cut or read as
    # a number
    g, km = small_graph(), constant_kernel(6)
    calls = []
    if RUN in takers:
        calls.append(("checkpoints", lambda: EngineConfig(
            protocol="u1", max_iters=10, checkpoints=bad)))
    if CURVES in takers:
        for name in ("boyd", "u1", "u2", "gosta_sync", "gosta_async"):
            source = np.arange(6.0) if PROTOCOLS[name].on_values else km
            calls.append(("checkpoints", lambda name=name, source=source:
                          PROTOCOLS[name].oracle(g, source, 10, bad)))
    if GRID in takers:
        calls.append(("t_grid", lambda: gs.bound_report(g, km, "gosta_sync",
                                                        bad)))
    for what, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value).startswith(f"{what} must ")


def test_checked_checkpoints_returns_ints():
    cps = expectation.checked_checkpoints(np.array([0.0, 3.0, 1e1]),
                                          "checkpoints", 0, 10)
    assert cps == (0, 3, 10) and all(type(t) is int for t in cps)
    assert expectation.checked_checkpoints(range(1, 4), "t_grid", 1) == (
        1, 2, 3)


def test_capped_grid_loads_no_masked_arrays():
    # np.unique would import numpy.ma on its first call
    code = ("import sys; from gosta_sim.expectation import "
            "geometric_checkpoints; geometric_checkpoints(10**6, 10); "
            "print('numpy.ma' in sys.modules)")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gs.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------ sync oracle


def test_sync_first_step_is_zero(rng, kernel_factory):
    km = kernel_factory(6, rng)
    out = gs.gosta_sync_expectation(small_graph(), km, 1, [1])
    assert (out[1] == 0.0).all()


def test_sync_constant_kernel_limit():
    n = 5
    g = gs.make_complete(n)
    km = constant_kernel(n, 2.0)
    target = 2.0 * (n - 1) / n
    assert km.u_stat == pytest.approx(target, abs=1e-12)
    out = gs.gosta_sync_expectation(g, km, 20_000, [20_000])
    assert np.abs(out[20_000] - target).max() < 1e-3


def test_sync_oracle_matches_closed_form_sum(rng, kernel_factory):
    # cross-check the forward recursion against the diagonalized sum
    # (1/t) * sum_s W2^{t-s+1} B C^{s-1} S2(0) on a tiny instance
    g = small_graph()
    km = kernel_factory(6, rng)
    h = np.asarray(km.dense())
    w2 = w_alpha(g, 2.0)
    w1 = w_alpha(g, 1.0)
    for t in (1, 2, 3, 7, 15):
        total = np.zeros(6)
        for s in range(1, t + 1):
            drive = np.diagonal(h @ np.linalg.matrix_power(w1, s - 1))
            total += np.linalg.matrix_power(w2, t - s + 1) @ drive
        expected = total / t
        got = gs.gosta_sync_expectation(g, km, t, [t])[t]
        assert np.allclose(got, expected, atol=1e-12)


def test_sync_oracle_matches_monte_carlo(rng, kernel_factory):
    km = kernel_factory(6, np.random.default_rng(21))
    g = small_graph()
    runs = 1500
    cps = (10, 100)
    oracle = gs.gosta_sync_expectation(g, km, 100, cps)
    acc = {t: np.empty((runs, 6)) for t in cps}
    for r in range(runs):
        cfg = EngineConfig(protocol="gosta_sync", max_iters=100,
                           seed=derive_seed(555, r), checkpoints=cps)
        tr = gs.run_gosta_sync(g, km, cfg)
        for k, t in enumerate(tr.ts):
            acc[int(t)][r] = tr.estimates[k]
    for t in cps:
        se = acc[t].std(axis=0, ddof=1) / np.sqrt(runs)
        assert (np.abs(acc[t].mean(axis=0) - oracle[t]) <= 5 * se).all()


# ------------------------------------------------------------ propagation


def test_propagation_kronecker_axis_against_brute_force(rng):
    # at n=4, apply the full n^2 x n^2 expected swap matrix to stacked
    # states and compare with the blockwise W1 application used in the
    # reference recursions
    g = gs.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    big = brute_force_propagation(g)
    w1 = w_alpha(g, 1.0)
    for _ in range(5):
        state = rng.normal(size=(4, 4))
        via_blocks = state @ w1
        via_big = (big @ state.reshape(-1)).reshape(4, 4)
        assert np.allclose(via_blocks, via_big, atol=1e-12)


def test_propagation_block_sums_invariant(rng, kernel_factory):
    km = kernel_factory(6, rng)
    w1 = w_alpha(small_graph(), 1.0)
    r = np.asarray(km.dense()).copy()
    sums0 = r.sum(axis=1)
    for _ in range(200):
        r = r @ w1
        assert np.abs(r.sum(axis=1) - sums0).max() < 1e-10


# ------------------------------------------------------------ async oracle


def test_async_m1_regular_graph_specialization():
    # on a regular graph the transition specializes to W2 - (I + A/d)/(2t)
    g = gs.make_complete(6)
    w2 = w_alpha(g, 2.0)
    a = ref._ref_adjacency(g)
    for t in (1, 2, 10, 100):
        general = _async_m1(g, w2, t)
        special = w2 - (np.eye(6) + a / 5.0) / (2.0 * t)
        assert np.allclose(general, special, atol=1e-14)


def test_async_zero_kernel():
    km = gs.KernelMatrix.from_dense(np.zeros((6, 6)))
    out = gs.gosta_async_expectation(small_graph(), km, 50, [50])
    assert (out[50] == 0.0).all()


def test_async_first_step_is_zero(rng, kernel_factory):
    km = kernel_factory(6, rng)
    out = gs.gosta_async_expectation(small_graph(), km, 1, [1])
    assert (out[1] == 0.0).all()


def test_async_oracle_approaches_target(rng, kernel_factory):
    km = kernel_factory(6, rng)
    g = gs.make_complete(6)
    out = gs.gosta_async_expectation(g, km, 50_000, [50_000])
    assert np.abs(out[50_000] - km.u_stat).max() < 1e-3


BLOCK_GRAPHS = {
    "star7": gs.make_graph(7, [(0, v) for v in range(1, 7)]),
    "two_node": gs.make_graph(2, [(0, 1)]),
    "irregular6": small_graph(),
}


def block_edge_checkpoints(k):
    """Checkpoint sets around the k-step blocks that start at s = 1."""
    return {
        "on_boundaries": (1 + k, 1 + 2 * k, 1 + 4 * k),
        "inside_then_boundary": (1 + k // 2, 2 + k, 2 + 3 * k),
        "every_step": expectation.every_checkpoints(3 * k + 2, 1),
        "t_max_1": (1,),
        "t_max_2": (2,),
        "t_max_1_and_2": (1, 2),
        "not_multiple": (5 * k + 3,),
    }


@pytest.mark.parametrize("g", BLOCK_GRAPHS.values(), ids=BLOCK_GRAPHS)
@pytest.mark.parametrize("k", [None, 1, 3, 8])
def test_async_blocks_match_step_recursion_at_block_edges(
        g, k, monkeypatch, kernel_factory):
    # k=None keeps the package's own block size, which is above 1 here
    km = kernel_factory(g.n, np.random.default_rng(g.n))
    if k is None:
        k = expectation._block_size(g.n, 100)
        assert k > 1
    monkeypatch.setattr(expectation, "_block_size", lambda n, t_max: k)
    for name, cps in block_edge_checkpoints(k).items():
        got = gs.gosta_async_expectation(g, km, cps[-1], cps)
        want = ref.ref_gosta_async_expectation(g, km.dense(), cps[-1],
                                               set(cps))
        assert sorted(got) == list(cps), name
        for t in cps:
            assert np.allclose(got[t], want[t], rtol=0, atol=1e-12), (name, t)


def watts_strogatz_60():
    return gs.make_watts_strogatz(60, 5, 0.3, np.random.default_rng(1))


def test_async_blocks_match_step_loop_over_long_horizon(kernel_factory):
    g = watts_strogatz_60()
    km = kernel_factory(60, np.random.default_rng(2))
    cps = geometric_checkpoints(20_000)
    assert expectation._block_size(60, 20_000) > 1
    got = gs.gosta_async_expectation(g, km, 20_000, cps)
    want = ref.loop_gosta_async_expectation(g, km, 20_000, cps)
    scale = max(np.abs(want[t]).max() for t in cps)
    for t in cps:
        assert np.abs(got[t] - want[t]).max() <= 1e-12 * scale, t


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="no extended precision on this platform")
def test_async_blocks_do_not_drift_along_the_constant_vector():
    # a mean far from zero makes any per-block rounding bias along the
    # constant vector, the recursion's slowest mode, grow linearly in t
    g = gs.make_complete(24)
    rng = np.random.default_rng(8)
    h = rng.uniform(size=(24, 24))
    h = (h + h.T) / 2.0
    np.fill_diagonal(h, 0.0)
    km = gs.KernelMatrix.from_dense(h)
    cps = geometric_checkpoints(20_000)
    got = gs.gosta_async_expectation(g, km, 20_000, cps)
    beta, v = laplacian_eigh(g)
    lam = 1.0 - np.concatenate([[0.0], beta[1:]]) / g.num_edges
    want = ref.extended_gosta_async_expectation(g, (h @ v) * v, lam,
                                                20_000, set(cps))
    for t in cps:
        assert np.abs(got[t] - want[t]).max() <= 100 * np.finfo(float).eps, t


def test_async_curve_to_a_million_steps(kernel_factory):
    g = small_graph()
    km = kernel_factory(6, np.random.default_rng(5))
    cps = geometric_checkpoints(10**6)
    out = gs.gosta_async_expectation(g, km, 10**6, cps)
    assert all(np.isfinite(out[t]).all() for t in cps)
    err = {t: np.abs(out[t] - km.u_stat).max() for t in (50_000, 10**6)}
    assert err[10**6] < err[50_000]


def test_async_oracle_memory_peak(kernel_factory):
    g = watts_strogatz_60()
    km = kernel_factory(60, np.random.default_rng(3))
    cps = geometric_checkpoints(20_000)
    gs.gosta_async_expectation(g, km, 2, [2])  # caches the eigenbasis
    tracemalloc.start()
    try:
        gs.gosta_async_expectation(g, km, 20_000, cps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_async_block_size_falls_to_single_steps_at_large_n():
    # above n = 255 no (K+1) n^2 stack with K > 1 fits in 1 MiB
    assert expectation._block_size(256, 20_000) == 1
    assert expectation._block_size(300, 20_000) == 1
    assert expectation._block_size(1599, 200) == 1


# ------------------------------------------------------------ u1 / u2


def test_u1_two_node_closed_form():
    g = gs.make_graph(2, [(0, 1)])
    h = np.array([[0.0, 1.7], [1.7, 0.0]])
    km = gs.KernelMatrix.from_dense(h)
    ts = list(range(1, 9))
    out = gs.u1_expectation(g, km, 8, ts)
    for t in ts:
        assert np.allclose(out[t], np.ceil(t / 2) / t * 1.7, atol=1e-12)


def test_u1_limit_bound(rng, kernel_factory):
    g = small_graph()
    h = np.clip(np.asarray(kernel_factory(6, rng).dense()), -1, 1).copy()
    h = (h + h.T) / 2
    np.fill_diagonal(h, 0.0)
    km = gs.KernelMatrix.from_dense(h)
    gap = gs.spectral_summary(g).gap_c
    t_max = 10_000
    out = gs.u1_expectation(g, km, t_max, [t_max])
    assert np.abs(out[t_max] - km.row_means).max() <= 10 / (t_max * gap)


def test_u2_first_term_zero(rng, kernel_factory):
    km = kernel_factory(6, rng)
    out = gs.u2_expectation(small_graph(), km, 1, [1])
    assert (out[1] == 0.0).all()


def test_u2_matches_dense_power_oracle(rng, kernel_factory):
    g = gs.make_complete(4)
    km = kernel_factory(4, rng)
    h = np.asarray(km.dense())
    w1 = w_alpha(g, 1.0)
    out = gs.u2_expectation(g, km, 12, list(range(1, 13)))
    for t in range(1, 13):
        expected = np.zeros(4)
        for s in range(t):
            ws = np.linalg.matrix_power(w1, s)
            expected += np.diagonal(ws @ h @ ws)
        assert np.allclose(out[t], expected / t, atol=1e-12)


def test_u2_oracle_matches_monte_carlo(kernel_factory):
    km = kernel_factory(6, np.random.default_rng(77))
    g = small_graph()
    runs = 1500
    cps = (10, 100)
    oracle = gs.u2_expectation(g, km, 100, cps)
    acc = {t: np.empty((runs, 6)) for t in cps}
    for r in range(runs):
        cfg = EngineConfig(protocol="u2", max_iters=100,
                           seed=derive_seed(777, r), checkpoints=cps)
        tr = gs.run_u2(g, km, cfg)
        for k, t in enumerate(tr.ts):
            acc[int(t)][r] = tr.estimates[k]
    for t in cps:
        se = acc[t].std(axis=0, ddof=1) / np.sqrt(runs)
        assert (np.abs(acc[t].mean(axis=0) - oracle[t]) <= 5 * se).all()


# ------------------------------------------------------------ boyd


def test_boyd_ones_fixed_point():
    g = small_graph()
    out = gs.boyd_expectation(g, np.ones(6), 10**12, [100, 10**12])
    assert np.allclose(out[100], 1.0, atol=1e-12)
    assert np.allclose(out[10**12], 1.0, atol=1e-12)


def test_boyd_single_edge_expected_mean_after_one_step():
    # one expected averaging event on a single edge lands exactly on the mean
    g = gs.make_graph(2, [(0, 1)])
    x = np.array([0.0, 4.0])
    out = gs.boyd_expectation(g, x, 3, [1, 2, 3])
    for t in (1, 2, 3):
        assert np.allclose(out[t], 2.0, atol=1e-12)


def test_boyd_path3_eigendecomposition_oracle(rng):
    g = gs.make_grid2d(1, 3)
    x = rng.normal(size=3)
    w2 = w_alpha(g, 2.0)
    out = gs.boyd_expectation(g, x, 40, [1, 5, 40])
    for t in (1, 5, 40):
        assert np.allclose(out[t], np.linalg.matrix_power(w2, t) @ x,
                           atol=1e-12)


def test_boyd_error_dominated_by_spectral_decay(rng):
    g = small_graph()
    x = rng.normal(size=6)
    s = gs.spectral_summary(g)
    xbar = x.mean()
    dev0 = np.linalg.norm(x - xbar)
    out = gs.boyd_expectation(g, x, 200, list(range(1, 201)))
    for t in range(1, 201):
        err = np.linalg.norm(out[t] - xbar)
        assert err <= s.lambda2_of_w2**t * dev0 + 1e-12


# ------------------------------------------------------------ limits


@pytest.mark.parametrize("protocol", ["boyd", "u1", "u2", "gosta_sync",
                                      "gosta_async"])
def test_limit_error_decreases_to_zero(protocol, kernel_factory):
    g = gs.make_complete(6)
    km = kernel_factory(6, np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=6)
    horizons = [1000, 10_000, 100_000]
    if protocol == "boyd":
        # geometric decay underflows to exactly zero beyond ~t=1000; use
        # shorter horizons where the decrease is still strict
        horizons = [5, 20, 100]
        outs = gs.boyd_expectation(g, x, horizons[-1], horizons)
        target = np.full(6, x.mean())
    elif protocol == "u1":
        outs = gs.u1_expectation(g, km, horizons[-1], horizons)
        target = km.row_means
    elif protocol == "u2":
        outs = gs.u2_expectation(g, km, horizons[-1], horizons)
        target = np.full(6, km.u_stat)
    elif protocol == "gosta_sync":
        outs = gs.gosta_sync_expectation(g, km, horizons[-1], horizons)
        target = np.full(6, km.u_stat)
    else:
        outs = gs.gosta_async_expectation(g, km, horizons[-1], horizons)
        target = np.full(6, km.u_stat)
    errs = [np.abs(outs[t] - target).max() for t in horizons]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_sync_oracle_uncapped_matches_reference_on_complete_70(
        rng, kernel_factory):
    # the oracles have no size limit
    g = gs.make_complete(70)
    km = kernel_factory(70, rng)
    cps = [1, 2, 10, 30]
    out = gs.gosta_sync_expectation(g, km, 30, cps)
    expected = ref.ref_gosta_sync_expectation(g, km.dense(), 30, set(cps))
    for t in cps:
        assert np.allclose(out[t], expected[t], rtol=0, atol=1e-12)


def test_oracles_reject_disconnected(kernel_factory):
    g = gs.make_graph(4, [(0, 1), (2, 3)])
    km = kernel_factory(4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        gs.gosta_sync_expectation(g, km, 5, [5])


def test_oracles_reject_fractional_checkpoints(kernel_factory):
    # 2.5 and 7.9 are not truncated to 2 and 7; whole-valued floats pass
    g, km = small_graph(), kernel_factory(6, np.random.default_rng(0))
    for name in ("gosta_sync", "gosta_async", "u1", "u2"):
        with pytest.raises(ValueError) as info:
            PROTOCOLS[name].oracle(g, km, 10, [2.5, 7.9])
        assert str(info.value) == ("checkpoints must hold whole numbers, "
                                   "got 2.5")
    out = gs.gosta_sync_expectation(g, km, 10, [2.0, 1e1])
    assert list(out) == [2, 10]
    assert np.array_equal(out[10], gs.gosta_sync_expectation(g, km, 10,
                                                             [10])[10])
    # checkpoints are taken as given: an unsorted grid is not sorted
    with pytest.raises(ValueError, match="strictly increasing"):
        gs.gosta_sync_expectation(g, km, 10, [1e1, 2.0])


# ------------------------------------------- eigenbasis vs step recursions


@st.composite
def oracle_scenarios(draw):
    """A random connected graph, a symmetric zero-diagonal kernel, a start
    vector for boyd and a checkpoint set. Stars (the two-node graph among
    them) give W1 negative eigenvalues; the bipartite kind keeps a random
    tree bipartite while adding edges."""
    kind = draw(st.sampled_from(["random", "bipartite", "star"]))
    n = draw(st.integers(2, 20))
    if kind == "star":
        edges = {(0, v) for v in range(1, n)}
    else:
        parent = [0] + [draw(st.integers(0, v - 1)) for v in range(1, n)]
        edges = {(parent[v], v) for v in range(1, n)}
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
        node = st.integers(0, n - 1)
        for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
            if a != b and (kind == "random" or (depth[a] - depth[b]) % 2):
                edges.add((min(a, b), max(a, b)))
    t_max = draw(st.integers(1, 300))
    cps = draw(st.sets(st.integers(1, t_max), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rng.normal(size=(n, n))
    h = (h + h.T) / 2.0
    np.fill_diagonal(h, 0.0)
    return (gs.make_graph(n, sorted(edges)), h, rng.normal(size=n), t_max,
            sorted(cps))


WITH_ORACLE = {name: p for name, p in PROTOCOLS.items() if p.oracle}


def assert_oracles_match_recursions(g, km, x, t_max, cps):
    for protocol, proto in WITH_ORACLE.items():
        source, ref_source = (x, x) if protocol == "boyd" else (km, km.dense())
        got = proto.oracle(g, source, t_max, cps)
        expected = getattr(ref, f"ref_{protocol}_expectation")(
            g, ref_source, t_max, set(cps))
        assert sorted(got) == cps
        for t in cps:
            assert np.allclose(got[t], expected[t], rtol=0, atol=1e-12)


@given(oracle_scenarios())
def test_eigenbasis_oracles_match_step_recursions(scenario):
    g, h, x, t_max, cps = scenario
    assert_oracles_match_recursions(g, gs.KernelMatrix.from_dense(h), x,
                                    t_max, cps)


# ----------------------------------------- divided difference of powers


def exact_divided_difference(da, db, t):
    """``(a^t - b^t)/(a - b)`` at 60 significant digits, a = 1 - da and
    b = 1 - db taken exactly from the float defects."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b = 1 - Decimal(da), 1 - Decimal(db)
        if a == b:
            return 1.0 if t == 1 else float(t * a ** (t - 1))
        return float((a ** t - b ** t) / (a - b))


# (defect of a, defect of b): 1 - a = beta_a/(2m) or beta_a/m, 1 - b = beta/m
DEFECT_PAIRS = {
    "cycle4_mu_equals_lambda": (0.5, 0.5),  # beta=4 for mu, beta=2 for lambda
    "cycle4_nearly_equal": (0.5, 0.5 + 1e-13),
    "cycle4_mu_vs_zero_lambda": (0.5, 1.0),
    "two_node_lambda_minus_one": (0.0, 2.0),
    "two_node_mu_zero_vs_lambda_one": (1.0, 0.0),
    "two_node_mu_zero_vs_minus_one": (1.0, 2.0),
    "two_node_mu_zero_twice": (1.0, 1.0),
    "star6_negative_lambda": (0.0, 1.2),
    "star6_mu_vs_negative_lambda": (0.6, 1.2),
    "near_one": (0.0, 1e-9),
    "near_one_nearly_equal": (1e-9, 1e-9 + 1e-17),
    "near_zero_vs_near_one": (0.999999, 1e-12),
}


@pytest.mark.parametrize("pair", DEFECT_PAIRS.values(), ids=DEFECT_PAIRS)
@pytest.mark.parametrize("t", [1, 2, 3, 10, 1000, 10**5, 10**7])
def test_divided_difference_matches_exact_sum(pair, t):
    da, db = pair
    got = float(divided_difference(da, db, t))
    assert np.isfinite(got)
    assert got == pytest.approx(exact_divided_difference(da, db, t),
                                rel=1e-12, abs=1e-300)


def test_divided_difference_null_mode_counts_steps():
    # beta = 0 gives a = b = 1, where the sum of t ones must be exactly t
    for t in (1, 2, 7, 1000, 10**7):
        assert divided_difference(0.0, 0.0, t) == t
    assert (divided_difference(np.zeros(3), 0.0, 0) == 0).all()


def test_divided_difference_broadcasts_over_eigenvalue_pairs():
    da = np.array([0.0, 0.25, 0.5, 1.0])
    db = np.array([0.0, 0.5, 1.2, 2.0])
    got = divided_difference(da[:, None], db, 13)
    for i, a in enumerate(da):
        for j, b in enumerate(db):
            assert got[i, j] == pytest.approx(
                exact_divided_difference(a, b, 13), rel=1e-12, abs=1e-300)


SPECIAL_GRAPHS = {
    "cycle4": gs.make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "two_node": gs.make_graph(2, [(0, 1)]),
    "star6": gs.make_graph(6, [(0, v) for v in range(1, 6)]),
}


@pytest.mark.parametrize("g", SPECIAL_GRAPHS.values(), ids=SPECIAL_GRAPHS)
def test_oracles_on_coincident_and_negative_eigenvalues(g, kernel_factory):
    km = kernel_factory(g.n, np.random.default_rng(g.n))
    x = np.random.default_rng(1).normal(size=g.n)
    assert_oracles_match_recursions(g, km, x, 400, [1, 2, 3, 50, 400])
    for protocol, proto in WITH_ORACLE.items():
        if protocol == "gosta_async":  # its step loop is not run to 10^7
            continue
        source = x if protocol == "boyd" else km
        late = proto.oracle(g, source, 10**7, [10**7])[10**7]
        limit = proto.limit(source)
        if protocol == "u2" and g.n == 2:
            # W1 is the swap of the two nodes, so W1^s H W1^s = H and u2
            # reads the zero diagonal at every step
            limit = np.zeros(2)
        assert np.isfinite(late).all()
        assert np.abs(late - limit).max() < 1e-5
