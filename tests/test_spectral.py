import numpy as np
import pytest

import gosta_sim as gs
from gosta_sim.spectral import beta_second_smallest

from _reference import brute_force_w_alpha


def random_connected_graph(rng, max_n=30):
    """Random connected graph: random spanning tree plus extra edges."""
    n = int(rng.integers(4, max_n + 1))
    edges = set()
    order = rng.permutation(n)
    for idx in range(1, n):
        a = int(order[idx])
        b = int(order[int(rng.integers(0, idx))])
        edges.add((min(a, b), max(a, b)))
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return gs.make_graph(n, sorted(edges))


def test_w_alpha_single_edge_hand_value():
    # One averaging event on the only edge moves both nodes to the midpoint.
    g = gs.make_graph(2, [(0, 1)])
    w = gs.w_alpha(g, 2.0)
    assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert np.allclose(w, brute_force_w_alpha(g, 2.0), atol=1e-15)


def test_w_alpha_large_alpha_approaches_identity():
    g = gs.make_complete(5)
    prev = np.abs(gs.w_alpha(g, 2.0) - np.eye(5)).max()
    for alpha in (10.0, 100.0, 1000.0):
        cur = np.abs(gs.w_alpha(g, alpha) - np.eye(5)).max()
        assert cur < prev
        prev = cur


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_w_alpha_doubly_stochastic(alpha, rng):
    for _ in range(10):
        g = random_connected_graph(rng)
        w = gs.w_alpha(g, alpha)
        assert np.abs(w.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert np.array_equal(w, w.T)


def test_w_alpha_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gs.w_alpha(gs.make_complete(3), 0.5)
    with pytest.raises(ValueError):
        gs.w_alpha(gs.make_graph(3, []), 2.0)


def test_laplacian_spectrum_complete3():
    eigs = gs.laplacian_spectrum(gs.make_complete(3))
    assert np.allclose(eigs, [3.0, 3.0, 0.0], atol=1e-12)


def test_laplacian_spectrum_single_edge():
    eigs = gs.laplacian_spectrum(gs.make_graph(2, [(0, 1)]))
    assert np.allclose(eigs, [2.0, 0.0], atol=1e-12)


def test_laplacian_spectrum_disconnected_null_multiplicity():
    g = gs.make_graph(4, [(0, 1), (2, 3)])
    eigs = gs.laplacian_spectrum(g)
    assert (np.abs(eigs) < 1e-9).sum() == 2


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_eigenvalue_identity_against_brute_force(alpha):
    # 50 random connected graphs: brute-force expected averaging matrix vs
    # the Laplacian closed form.
    rng = np.random.default_rng(2024)
    for _ in range(50):
        g = random_connected_graph(rng)
        direct = np.sort(np.linalg.eigvalsh(brute_force_w_alpha(g, alpha)))[::-1]
        from_laplacian = gs.w_alpha_eigs_from_laplacian(g, alpha)
        assert np.abs(direct - from_laplacian).max() < 1e-9
        # and against the package's own w_alpha construction
        own = np.sort(np.linalg.eigvalsh(gs.w_alpha(g, alpha)))[::-1]
        assert np.abs(own - from_laplacian).max() < 1e-9


def test_top_eigenvalue_is_one(rng):
    for _ in range(5):
        g = random_connected_graph(rng)
        assert gs.w_alpha_eigs_from_laplacian(g, 2.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_strict_gap_on_connected_non_bipartite(rng):
    for _ in range(20):
        g = random_connected_graph(rng)
        d = gs.diagnose(g)
        if not d.connected or d.bipartite:
            continue
        for alpha in (1.0, 2.0, 3.0):
            eigs = gs.w_alpha_eigs_from_laplacian(g, alpha)
            assert eigs[0] - eigs[1] > 1e-12


def test_summary_complete_closed_form():
    for n in (3, 10, 57):
        s = gs.spectral_summary(gs.make_complete(n))
        assert s.gap_c == pytest.approx(1.0 / (n - 1), rel=1e-12)
        assert s.beta_second_smallest == pytest.approx(n, rel=1e-9)


def test_summary_identities(rng):
    for _ in range(10):
        g = random_connected_graph(rng)
        s = gs.spectral_summary(g)
        assert 1.0 - s.lambda2_of_w1 == pytest.approx(2.0 * s.gap_c, abs=1e-9)
        assert s.gap_c == pytest.approx(
            s.beta_second_smallest / (2.0 * s.edge_count), abs=1e-12)
        assert s.laplacian_eigs[-1] == pytest.approx(0.0, abs=1e-9)


def test_summary_rejects_disconnected():
    with pytest.raises(ValueError):
        gs.spectral_summary(gs.make_graph(4, [(0, 1), (2, 3)]))


def test_iterative_beta_matches_dense(rng):
    for _ in range(5):
        g = random_connected_graph(rng, max_n=120)
        dense = gs.laplacian_spectrum(g)[-2]
        assert beta_second_smallest(g) == pytest.approx(dense, rel=1e-6)


def test_summary_large_graph_skips_dense_spectrum():
    g = gs.make_complete(150)
    s = gs.spectral_summary(g, dense_limit=100)
    assert s.laplacian_eigs is None
    assert s.gap_c == pytest.approx(1.0 / 149, rel=1e-6)


def test_beta_complete_closed_form_without_solver(monkeypatch):
    # A simple graph with n(n-1)/2 edges is complete: beta_{n-1} = n exactly,
    # with no iterative solve.
    import gosta_sim.spectral as spectral

    def no_solver(*args, **kwargs):
        raise AssertionError("LOBPCG called on a complete graph")

    monkeypatch.setattr(spectral, "lobpcg", no_solver)
    for n in (2, 5, 33, 200):
        g = gs.make_complete(n)
        assert beta_second_smallest(g) == float(n)
        assert beta_second_smallest(g) == pytest.approx(
            gs.laplacian_spectrum(g)[-2], rel=1e-12)


def test_beta_near_complete_graph_still_solved():
    # One edge short of complete: beta_{n-1} = n - 2, found by the solver.
    n = 40
    g = gs.make_graph(n, gs.make_complete(n).edges[1:])
    dense = gs.laplacian_spectrum(g)[-2]
    assert dense == pytest.approx(n - 2, rel=1e-12)
    assert beta_second_smallest(g) == pytest.approx(dense, rel=1e-6)


@pytest.mark.parametrize("rows, cols", [(1, 7), (1, 40), (6, 6), (5, 3),
                                        (39, 41)])
def test_beta_grid_closed_form_without_solver(monkeypatch, rows, cols):
    # The grid Laplacian is the Kronecker sum of two path Laplacians, so
    # beta_{n-1} = 2 - 2cos(pi / max(rows, cols)), with no iterative solve.
    import gosta_sim.spectral as spectral

    def no_solver(*args, **kwargs):
        raise AssertionError("LOBPCG called on a grid")

    monkeypatch.setattr(spectral, "lobpcg", no_solver)
    g = gs.make_grid2d(rows, cols)
    beta = beta_second_smallest(g)
    assert beta == pytest.approx(gs.laplacian_spectrum(g)[-2], rel=1e-10)
    assert beta == pytest.approx(2.0 - 2.0 * np.cos(np.pi / max(rows, cols)),
                                 rel=1e-12)
    [row] = gs.table1([{"family": "grid2d", "rows": rows, "cols": cols}])
    assert row["gap"] == beta / (2.0 * g.num_edges)


def test_beta_near_grid_graph_still_solved():
    # A 6 x 7 grid with one edge moved to a diagonal keeps n and m, but is
    # no grid: the solver runs.
    grid = gs.make_grid2d(6, 7)
    g = gs.make_graph(grid.n, [*grid.edges[1:], (0, 8)])
    assert g.num_edges == grid.num_edges
    dense = gs.laplacian_spectrum(g)[-2]
    assert dense != pytest.approx(beta_second_smallest(grid), rel=1e-3)
    assert beta_second_smallest(g) == pytest.approx(dense, rel=1e-6)
