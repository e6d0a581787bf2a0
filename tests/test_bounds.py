import numpy as np
import pytest

import gosta_sim as gs
from gosta_sim.engines import PROTOCOLS
from gosta_sim.bounds import (async_constants, bound_report, fit_rate,
                              sync_error_bound, u2_error_bound)
from gosta_sim.expectation import geometric_checkpoints


def small_graph():
    return gs.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                             (0, 3), (1, 4)])


def constant_kernel(n, c=1.0):
    h = np.full((n, n), c)
    np.fill_diagonal(h, 0.0)
    return gs.KernelMatrix.from_dense(h)


# ------------------------------------------------------------- bound values


def test_bounds_vanish_for_zero_dispersion():
    km = gs.KernelMatrix.from_dense(np.zeros((6, 6)))
    g = small_graph()
    for t in (1, 10, 500):
        assert sync_error_bound(g, km, t) == 0.0
        assert u2_error_bound(g, km, t) == 0.0


def test_bounds_decay_to_zero(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    assert sync_error_bound(g, km, 10**9) < 1e-6
    assert u2_error_bound(g, km, 10**9) < 1e-6


def test_bounds_strictly_decreasing(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    prev_s, prev_u = np.inf, np.inf
    for t in range(1, 200):
        bs = sync_error_bound(g, km, t)
        bu = u2_error_bound(g, km, t)
        assert bs < prev_s and bu < prev_u
        prev_s, prev_u = bs, bu


def test_bounds_scale_equivariance(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    scaled = gs.KernelMatrix.from_dense(4.0 * np.asarray(km.dense()))
    for t in (1, 7, 50):
        assert sync_error_bound(g, scaled, t) == pytest.approx(
            4.0 * sync_error_bound(g, km, t), rel=1e-12)
        assert u2_error_bound(g, scaled, t) == pytest.approx(
            4.0 * u2_error_bound(g, km, t), rel=1e-12)


def test_bound_ratio_grows_like_sqrt_n():
    # constant kernel has zero row-mean dispersion, isolating the matrix
    # term; the double-propagation bound then carries the sqrt(n) factor
    t = 10_000
    ratios = []
    for n in (10, 20, 40):
        g = gs.make_complete(n)
        km = constant_kernel(n)
        ratios.append(u2_error_bound(g, km, t) / sync_error_bound(g, km, t))
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] / ratios[0] == pytest.approx(2.0, rel=0.25)


def test_bounds_reject_bad_t(rng, kernel_factory):
    with pytest.raises(ValueError):
        sync_error_bound(small_graph(), kernel_factory(6, rng), 0.5)


@pytest.mark.parametrize("bound, n, t, message", [
    (sync_error_bound, 6, 0.5, "bound defined for t >= 1"),
    (u2_error_bound, 6, 0, "bound defined for t >= 1"),
    # K_2 has lambda_2(1) = 1 - 2c = -1, outside the bound's hypotheses
    (u2_error_bound, 2, 10, "lambda_2(1)^2 >= 1; bound hypotheses violated"),
], ids=["sync_t_below_1", "u2_t_below_1", "u2_on_k2"])
def test_bounds_name_what_they_refuse(bound, n, t, message):
    with pytest.raises(ValueError) as info:
        bound(gs.make_complete(n), constant_kernel(n), t)
    assert str(info.value) == message


def test_bound_report_rejects_fractional_t_grid(rng, kernel_factory):
    # t_grid takes the whole-number rule: 12.7 is not truncated to 12
    g, km = small_graph(), kernel_factory(6, rng)
    with pytest.raises(ValueError) as info:
        bound_report(g, km, "gosta_sync", [1, 12.7])
    assert str(info.value) == "t_grid must hold whole numbers, got 12.7"
    rep = bound_report(g, km, "gosta_sync", [1.0, 1e1])
    assert rep.t_grid.tolist() == [1, 10]
    # t_grid is taken as given: an unsorted grid is not sorted
    with pytest.raises(ValueError, match="strictly increasing"):
        bound_report(g, km, "gosta_sync", [1e1, 1.0])


# ------------------------------------------------------------- dominance


def test_sync_bound_dominates_oracle_error(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    oracle = gs.gosta_sync_expectation(g, km, 500, range(1, 501))
    s = gs.spectral_summary(g)
    for t in range(1, 501):
        err = np.linalg.norm(oracle[t] - km.u_stat)
        assert sync_error_bound(g, km, t, s) >= err


def test_u2_bound_dominates_oracle_error(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    oracle = gs.u2_expectation(g, km, 500, range(1, 501))
    s = gs.spectral_summary(g)
    for t in range(1, 501):
        err = np.linalg.norm(oracle[t] - km.u_stat)
        assert u2_error_bound(g, km, t, s) >= err


@pytest.mark.parametrize("g", [
    gs.make_watts_strogatz(300, 5, 0.3, np.random.default_rng(11)),
    gs.make_grid2d(15, 20),
], ids=["watts_strogatz_300", "grid_15x20"])
def test_bounds_dominate_oracle_error_at_hundreds_of_nodes(g, kernel_factory):
    grid = geometric_checkpoints(10**6)
    for seed in range(3):
        km = kernel_factory(g.n, np.random.default_rng(seed))
        for protocol in ("gosta_sync", "u2"):
            rep = bound_report(g, km, protocol, grid)
            assert np.isfinite(rep.actual_err).all()
            assert (rep.bound_val >= rep.actual_err).all()


# ------------------------------------------------------------- constants


def test_async_constants_complete_graph():
    # every node sits on d=n-1 of the m=n(n-1)/2 edges, so its selection
    # probability is d/m = 2/n per iteration
    for n in (4, 8, 16):
        ac = async_constants(gs.make_complete(n))
        assert ac.p_bar == pytest.approx(2.0 / n, rel=1e-12)
        assert ac.t_c == pytest.approx(n / 2.0, rel=1e-12)


def test_async_constants_regular_graph_uniform():
    g = gs.make_watts_strogatz(12, 4, 0.0, np.random.default_rng(0))
    ac = async_constants(g)
    assert ac.p_bar == pytest.approx(4.0 / g.num_edges, rel=1e-12)


def test_mu_r_below_uniform_decay_past_t_c():
    for g in (gs.make_complete(8), small_graph()):
        ac = async_constants(g)
        for t in np.linspace(ac.t_c * 1.01, ac.t_c * 50, 40):
            assert ac.mu_r(t) < 1.0 - 1.0 / t
        # and the reverse strictly before t_c
        for t in np.linspace(1.0, ac.t_c * 0.99, 10):
            assert ac.mu_r(t) >= 1.0 - 1.0 / t


# ------------------------------------------------------------- fit_rate


def test_fit_rate_exact_log_over_t():
    ts = np.array([2.0, 5.0, 10.0, 50.0, 200.0, 1000.0])
    fit = fit_rate(ts, 2.0 * np.log(ts) / ts, "logt_over_t")
    assert fit.constant == pytest.approx(2.0, abs=1e-10)
    assert fit.residual < 1e-10
    assert fit.envelope == pytest.approx(2.0, rel=1e-12)


def test_fit_rate_all_zero():
    ts = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    fit = fit_rate(ts, np.zeros(5), "logt_over_t")
    assert fit.constant == 0.0 and fit.residual == 0.0


def test_fit_rate_with_a_zero_error_fits_linearly():
    # one zero among positive errors leaves log space: K minimizes the
    # squared error, and the residual is relative to |errs|. Worked by
    # hand, with b = log(t)/t, S = sum b^2 and errs = 2 b but errs[0] = 0:
    # the normal equation gives K = 2 (S - b0^2) / S, errs - K b has the
    # squared norm 4 (S - b0^2) b0^2 / S, and so the residual is b0/sqrt(S)
    ts = np.array([2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    b = np.log(ts) / ts
    errs = 2.0 * b
    errs[0] = 0.0
    s = float(b @ b)
    fit = fit_rate(ts, errs, "logt_over_t")
    assert fit.constant == pytest.approx(2.0 * (s - b[0] ** 2) / s, rel=1e-12)
    assert fit.residual == pytest.approx(b[0] / np.sqrt(s), rel=1e-12)
    assert fit.envelope == pytest.approx(2.0, rel=1e-12)


def test_fit_rate_input_validation():
    ts = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    for model in ("cubic", "inv_t", "exp"):
        with pytest.raises(ValueError) as info:
            fit_rate(ts, np.ones(5), model)
        assert str(info.value) == (f"unknown model '{model}'; expected "
                                   f"'logt_over_t'")


@pytest.mark.parametrize("ts, errs, message", [
    ([2, 3, 4, 5, 6], [1, 1, 1, 1], "ts and errs must have matching shapes"),
    ([2, 3, 4, 5, 6], [[1] * 5], "ts and errs must have matching shapes"),
    ([2, 3], [1, 1], "need at least 5 checkpoints with t >= 2"),
    ([0.5, 1, 1.5, 1.8, 1.9], [1] * 5,
     "need at least 5 checkpoints with t >= 2"),
], ids=["shorter_errs", "errs_2d", "two_points", "points_below_2"])
def test_fit_rate_names_what_it_refuses(ts, errs, message):
    with pytest.raises(ValueError) as info:
        fit_rate(ts, errs, "logt_over_t")
    assert str(info.value) == message


# ------------------------------------------------------------- reports


def test_bound_report_sync_structure(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    grid = geometric_checkpoints(200)
    rep = bound_report(g, km, "gosta_sync", grid)
    assert (rep.bound_val >= rep.actual_err).all()
    assert set(rep.constants) >= {"gap_c", "lambda2_w1", "lambda2_w2",
                                  "vec_centered", "frob_centered"}


def test_bound_report_async_uses_rate_fit(rng, kernel_factory):
    g = gs.make_complete(6)
    km = kernel_factory(6, rng)
    grid = geometric_checkpoints(500)
    rep = bound_report(g, km, "gosta_async", grid)
    assert "fit_constant" in rep.constants and "t_c" in rep.constants
    assert np.isfinite(rep.constants["fit_constant"])


@pytest.mark.parametrize("model", ["logt_over_t"])
def test_bound_report_draws_the_named_fit_model(model, rng, kernel_factory):
    # the record's fit_rate model decides both the fit and the drawn curve
    assert PROTOCOLS["gosta_async"].bound == model
    g = gs.make_complete(6)
    km = kernel_factory(6, rng)
    rep = bound_report(g, km, "gosta_async", geometric_checkpoints(500))
    fit = fit_rate(rep.t_grid, rep.actual_err, model)
    assert rep.constants["fit_constant"] == fit.constant
    late = rep.t_grid >= 2
    assert (~late).any() and np.isinf(rep.bound_val[~late]).all()
    t = rep.t_grid[late]
    assert np.array_equal(rep.bound_val[late], fit.constant * np.log(t) / t)


def test_bound_report_rejects_unknown_protocol(rng, kernel_factory):
    with pytest.raises(ValueError):
        bound_report(small_graph(), kernel_factory(6, rng), "boyd", [1, 2, 5])
