import dataclasses
import logging
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

import gosta_sim as gs
from gosta_sim import harness
from gosta_sim.engines import PROTOCOLS
from gosta_sim.spectral import (_grid_shape, _lobpcg_beta, _tree_order,
                                beta_second_smallest, grid2d_beta)

from _reference import (brute_force_w_alpha, laplacian_spectrum, w_alpha,
                        w_alpha_eigs_from_laplacian)


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
    w = w_alpha(g, 2.0)
    assert np.allclose(w, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
    assert np.allclose(w, brute_force_w_alpha(g, 2.0), atol=1e-15)


def test_w_alpha_large_alpha_approaches_identity():
    g = gs.make_complete(5)
    prev = np.abs(w_alpha(g, 2.0) - np.eye(5)).max()
    for alpha in (10.0, 100.0, 1000.0):
        cur = np.abs(w_alpha(g, alpha) - np.eye(5)).max()
        assert cur < prev
        prev = cur


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_w_alpha_doubly_stochastic(alpha, rng):
    for _ in range(10):
        g = random_connected_graph(rng)
        w = w_alpha(g, alpha)
        assert np.abs(w.sum(axis=0) - 1.0).max() < 1e-12
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-12
        assert np.array_equal(w, w.T)


def test_w_alpha_rejects_bad_inputs():
    with pytest.raises(ValueError):
        w_alpha(gs.make_complete(3), 0.5)
    with pytest.raises(ValueError):
        w_alpha(gs.make_graph(3, []), 2.0)


def test_laplacian_spectrum_complete3():
    eigs = laplacian_spectrum(gs.make_complete(3))
    assert np.allclose(eigs, [3.0, 3.0, 0.0], atol=1e-12)


def test_laplacian_spectrum_single_edge():
    eigs = laplacian_spectrum(gs.make_graph(2, [(0, 1)]))
    assert np.allclose(eigs, [2.0, 0.0], atol=1e-12)


def test_laplacian_spectrum_disconnected_null_multiplicity():
    g = gs.make_graph(4, [(0, 1), (2, 3)])
    eigs = laplacian_spectrum(g)
    assert (np.abs(eigs) < 1e-9).sum() == 2


@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
def test_eigenvalue_identity_against_brute_force(alpha):
    # 50 random connected graphs: brute-force expected averaging matrix vs
    # the Laplacian closed form.
    rng = np.random.default_rng(2024)
    for _ in range(50):
        g = random_connected_graph(rng)
        direct = np.sort(np.linalg.eigvalsh(brute_force_w_alpha(g, alpha)))[::-1]
        from_laplacian = w_alpha_eigs_from_laplacian(g, alpha)
        assert np.abs(direct - from_laplacian).max() < 1e-9
        # and against the package's own w_alpha construction
        own = np.sort(np.linalg.eigvalsh(w_alpha(g, alpha)))[::-1]
        assert np.abs(own - from_laplacian).max() < 1e-9


def test_top_eigenvalue_is_one(rng):
    for _ in range(5):
        g = random_connected_graph(rng)
        assert w_alpha_eigs_from_laplacian(g, 2.0)[0] == pytest.approx(1.0, abs=1e-12)


def test_strict_gap_on_connected_non_bipartite(rng):
    for _ in range(20):
        g = random_connected_graph(rng)
        d = gs.diagnose(g)
        if not d.connected or d.bipartite:
            continue
        for alpha in (1.0, 2.0, 3.0):
            eigs = w_alpha_eigs_from_laplacian(g, alpha)
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
            s.beta_second_smallest / (2.0 * g.num_edges), abs=1e-12)
        beta = gs.laplacian_eigh(g)[0]
        assert beta[0] == pytest.approx(0.0, abs=1e-9)
        assert s.beta_second_smallest == beta_second_smallest(g)
        assert s.beta_second_smallest == pytest.approx(beta[1], rel=1e-12)


def test_bounds_reject_disconnected(kernel_factory):
    # the summary makes no check of its own: a disconnected graph has the
    # gap 0.0, and the bounds refuse it
    g = gs.make_graph(4, [(0, 1), (2, 3)])
    s = gs.spectral_summary(g)
    assert s.gap_c == s.beta_second_smallest == 0.0
    km = kernel_factory(4, np.random.default_rng(0))
    for bound in (gs.sync_error_bound, gs.u2_error_bound):
        with pytest.raises(ValueError, match="require a connected graph"):
            bound(g, km, 10.0)
        with pytest.raises(ValueError, match="require a connected graph"):
            bound(g, km, 10.0, s)
    with pytest.raises(ValueError, match="require a connected graph"):
        gs.async_constants(g)
    with pytest.raises(ValueError, match="disconnected"):
        gs.bound_report(g, km, "gosta_sync", [1, 10])


def test_iterative_beta_matches_dense(rng):
    for _ in range(5):
        g = random_connected_graph(rng, max_n=120)
        dense = laplacian_spectrum(g)[-2]
        assert beta_second_smallest(g) == pytest.approx(dense, rel=1e-6)


def test_summary_large_graph_skips_dense_spectrum():
    # The summary keeps no n x n basis at any size: on the benchmark's
    # analysis graph, and on a complete graph, which needs no solve.
    g = harness.build_graph_from_spec(
        {"family": "watts_strogatz", "n": 60, "k": 5, "p": 0.3}, 1)
    s = gs.spectral_summary(g)
    assert "_laplacian_eigh" not in g.__dict__
    assert s.beta_second_smallest == pytest.approx(
        np.linalg.eigvalsh(gs.laplacian(g))[1], rel=1e-9)
    g = gs.make_complete(150)
    assert gs.spectral_summary(g).gap_c == 150 / (150 * 149)
    assert "_laplacian_eigh" not in g.__dict__


def test_one_eigendecomposition_per_graph(monkeypatch, kernel_factory):
    # The summary, the three bound reports and two oracles on one graph
    # share one cached n x n eigh and run no eigvalsh; the summary's
    # LOBPCG solve, whose Rayleigh-Ritz steps call eigh on 3 x 3 and 4 x 4
    # matrices, runs once.
    import gosta_sim.spectral as spectral
    rng = np.random.default_rng(60)
    g = gs.make_watts_strogatz(60, 5, 0.3, rng)
    km, x = kernel_factory(60, rng), rng.normal(size=60)
    grid = gs.geometric_checkpoints(200)
    calls = {"eigh": 0, "eigvalsh": 0, "_lobpcg_beta": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            if name != "eigh" or np.shape(args[0]) == (g.n, g.n):
                calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(np.linalg, "eigh")
    counted(np.linalg, "eigvalsh")
    counted(spectral, "_lobpcg_beta")
    gs.spectral_summary(g)
    for protocol, proto in PROTOCOLS.items():
        if proto.bound is not None:
            gs.bound_report(g, km, protocol, grid)
    gs.u1_expectation(g, km, 200, grid)
    gs.boyd_expectation(g, x, 200, grid)
    assert calls == {"eigh": 1, "eigvalsh": 0, "_lobpcg_beta": 1}


def test_cached_eigenbasis_read_only_and_oracles_repeat(kernel_factory):
    rng = np.random.default_rng(30)
    g = gs.make_watts_strogatz(30, 4, 0.3, rng)
    km, x = kernel_factory(30, rng), rng.normal(size=30)
    before = gs.spectral_summary(g)
    beta, v = gs.laplacian_eigh(g)
    assert not beta.flags.writeable and not v.flags.writeable
    with pytest.raises(ValueError):
        beta[0] = 0.0
    raw = beta.copy()
    cps = [1, 2, 10, 100]
    for protocol, proto in PROTOCOLS.items():
        if proto.oracle is None:
            continue
        source = x if proto.on_values else km
        first = proto.oracle(g, source, 100, cps)
        second = proto.oracle(g, source, 100, cps)
        for t in cps:
            assert np.array_equal(first[t], second[t]), (protocol, t)
    assert gs.laplacian_eigh(g)[1] is v
    assert np.array_equal(gs.laplacian_eigh(g)[0], raw)
    after = gs.spectral_summary(g)
    for f in dataclasses.fields(after):
        np.testing.assert_array_equal(getattr(after, f.name),
                                      getattr(before, f.name))


def test_beta_complete_closed_form_without_solver(monkeypatch):
    # A simple graph with n(n-1)/2 edges is complete: beta_{n-1} = n exactly,
    # with no iterative solve.
    import gosta_sim.spectral as spectral

    def no_solver(*args, **kwargs):
        raise AssertionError("LOBPCG called on a complete graph")

    monkeypatch.setattr(spectral, "_lobpcg_beta", no_solver)
    for n in (2, 5, 33, 200):
        g = gs.make_complete(n)
        assert beta_second_smallest(g) == float(n)
        assert beta_second_smallest(g) == pytest.approx(
            laplacian_spectrum(g)[-2], rel=1e-12)


def test_beta_near_complete_graph_still_solved():
    # One edge short of complete: beta_{n-1} = n - 2, found by the solver.
    n = 40
    g = gs.make_graph(n, gs.make_complete(n).edges[1:])
    dense = laplacian_spectrum(g)[-2]
    assert dense == pytest.approx(n - 2, rel=1e-12)
    assert beta_second_smallest(g) == pytest.approx(dense, rel=1e-6)


def test_beta_complete_1599_minus_edge_reads_the_swept_tree():
    # K_1599 less the edge (0, 1): beta_{n-1} = n - 2, and the tree order
    # reads diagnose's forest, building no adjacency lists of its own
    n = 1599
    g = gs.Graph(n=n, edges=gs.make_complete(n).edges[1:])
    gs.diagnose(g)
    tracemalloc.start()
    try:
        _tree_order(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert beta_second_smallest(g) == pytest.approx(n - 2, rel=1e-12)


def test_lobpcg_beta_complete_1599_minus_edge_reads_the_stored_edges():
    # The solve reads the Laplacian from g.edges one row slice at a time
    # in the graph's own labels, so with diagnose cached it holds O(n)
    # arrays and one slice's temporaries, with no relabelled or doubled
    # copy of the 1.28 million edges
    n = 1599
    g = gs.Graph(n=n, edges=gs.make_complete(n).edges[1:])
    gs.diagnose(g)
    tracemalloc.start()
    try:
        beta = _lobpcg_beta(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert beta == pytest.approx(n - 2, rel=1e-12)


@pytest.mark.parametrize("rows, cols", [(1, 7), (1, 40), (6, 6), (5, 3),
                                        (39, 41)])
def test_beta_grid_closed_form_without_solver(monkeypatch, rows, cols):
    # The grid Laplacian is the Kronecker sum of two path Laplacians, so
    # beta_{n-1} = 2 - 2cos(pi / max(rows, cols)), with no iterative solve.
    import gosta_sim.spectral as spectral

    def no_solver(*args, **kwargs):
        raise AssertionError("LOBPCG called on a grid")

    monkeypatch.setattr(spectral, "_lobpcg_beta", no_solver)
    g = gs.make_grid2d(rows, cols)
    beta = beta_second_smallest(g)
    assert beta == pytest.approx(laplacian_spectrum(g)[-2], rel=1e-10)
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
    dense = laplacian_spectrum(g)[-2]
    assert dense != pytest.approx(beta_second_smallest(grid), rel=1e-3)
    assert beta_second_smallest(g) == pytest.approx(dense, rel=1e-6)


def _shuffled_path(n):
    # A path with shuffled labels: the 1 x n grid closed form does not apply.
    order = np.random.default_rng(n).permutation(n)
    return gs.make_graph(n, np.column_stack([order[:-1], order[1:]]))


def _two_cliques(k):
    # Two k-cliques joined by the single edge (0, k): a bottleneck of one edge.
    clique = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return gs.make_graph(2 * k, clique + [(i + k, j + k) for i, j in clique]
                         + [(0, k)])


SOLVER_GRAPHS = {
    **{f"ws-n{n}-p{p}": (lambda n=n, p=p: gs.make_watts_strogatz(
        n, 5, p, np.random.default_rng(n)))
       for n in (100, 500, 1599) for p in (0.3, 0.05, 0.01)},
    "ws-n1599-k2-p0.01": lambda: gs.make_watts_strogatz(
        1599, 2, 0.01, np.random.default_rng(1)),
    "path-300": lambda: _shuffled_path(300),
    "path-1000": lambda: _shuffled_path(1000),
    "path-2000": lambda: _shuffled_path(2000),
    "star-200": lambda: gs.make_graph(200, [(0, i) for i in range(1, 200)]),
    "two-cliques-30": lambda: _two_cliques(30),
    "complete-40-minus-edge": lambda: gs.make_graph(
        40, gs.make_complete(40).edges[1:]),
}


@pytest.mark.parametrize("name", SOLVER_GRAPHS)
def test_lobpcg_beta_matches_dense(name):
    # The iteration converges within its step limit on small-gap, path-like
    # and awkward graphs and agrees with the dense spectrum to 1e-9.
    g = SOLVER_GRAPHS[name]()
    beta = _lobpcg_beta(g)
    dense = float(np.linalg.eigvalsh(gs.laplacian(g))[1])
    assert beta == pytest.approx(dense, rel=1e-9)
    assert beta_second_smallest(g) == beta


def test_beta_small_gap_converges_above_dense_limit():
    # Above n = 4000, past the package's dense limits, a small-gap graph
    # (beta about 1e-4) meets the relative rule within the step limit.
    g = gs.make_watts_strogatz(4500, 5, 0.001, np.random.default_rng(4500))
    assert 0 < beta_second_smallest(g) < 1e-3


@pytest.mark.parametrize("make", [
    lambda: _shuffled_path(4500),
    lambda: gs.make_watts_strogatz(4500, 2, 0.01, np.random.default_rng(1)),
], ids=["path-4500", "ws-n4500-k2-p0.01"])
def test_lobpcg_beta_converges_on_path_like_graphs_at_n4500(make):
    # The tree preconditioner takes path-like graphs, whose beta is about
    # 5e-7 and 2e-6 here, within the step limit; a path's beta is known
    # in closed form, whatever its labels.
    g = make()
    beta = _lobpcg_beta(g)
    assert 0 < beta < 1e-5
    if g.num_edges == g.n - 1:
        assert beta == pytest.approx(grid2d_beta(1, g.n), rel=1e-9)


def test_lobpcg_beta_every_graph_on_4_and_5_vertices():
    # Every connected labelled graph on 4 and 5 vertices that is neither
    # complete nor a make_grid2d grid; there the four directions x, r,
    # T^-1 r and p fill or exceed the n - 1 dimensions off the all-ones
    # vector, so the Rayleigh-Ritz step must drop dependent ones.
    solved = 0
    for n in (4, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1, 2 ** len(pairs) - 1):
            g = gs.make_graph(n, [e for b, e in enumerate(pairs)
                                  if mask >> b & 1])
            if not gs.diagnose(g).connected or _grid_shape(g) is not None:
                continue
            dense = np.linalg.eigvalsh(gs.laplacian(g))[1]
            assert _lobpcg_beta(g) == pytest.approx(dense, rel=1e-12), \
                g.edges.tolist()
            solved += 1
    # 38 + 728 connected graphs, less K_4, K_5 and the grids 2 x 2, 1 x 4
    # and 1 x 5
    assert solved == 761


def test_beta_second_smallest_bit_identical_across_calls():
    # Benchmark replays compare digests bit for bit.
    g = gs.make_watts_strogatz(500, 5, 0.05, np.random.default_rng(3))
    first = beta_second_smallest(g)
    assert np.array([first]).tobytes() == np.array(
        [beta_second_smallest(g)]).tobytes()


def test_beta_disconnected_graph_falls_back_to_zero(monkeypatch, caplog):
    # beta_{n-1} = 0 exactly, with no solve and nothing logged: on two
    # disjoint Watts-Strogatz copies, on three vertices with one edge, and
    # on two disjoint 2100-node paths.
    import gosta_sim.spectral as spectral

    def no_solver(*args, **kwargs):
        raise AssertionError("eigenvalue solve on a disconnected graph")

    def two_copies(half):
        return gs.make_graph(2 * half.n,
                             np.vstack([half.edges, half.edges + half.n]))

    monkeypatch.setattr(spectral, "_lobpcg_beta", no_solver)
    ws = gs.make_watts_strogatz(60, 4, 0.3, np.random.default_rng(1))
    path = gs.make_graph(2100, [(i, i + 1) for i in range(2099)])
    with caplog.at_level(logging.DEBUG):
        for g in (two_copies(ws), gs.make_graph(3, [(0, 1)]),
                  two_copies(path)):
            beta = beta_second_smallest(g)
            assert beta == 0.0 and isinstance(beta, float)
    assert not caplog.records


def test_beta_non_convergence_raises_naming_n(monkeypatch):
    # A solve that does not converge raises at every size, with no dense
    # fallback: the error names the size.
    import gosta_sim.spectral as spectral
    monkeypatch.setattr(spectral, "_MAXITER", 1)
    for g in (gs.make_watts_strogatz(60, 5, 0.3, np.random.default_rng(5)),
              _shuffled_path(4500)):
        with pytest.raises(RuntimeError, match=f"n={g.n}"):
            beta_second_smallest(g)


def test_package_imports_and_solves_without_scipy():
    # Blocking scipy makes any eager or lazy scipy import fail loudly.
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import gosta_sim
        import gosta_sim.cli
        from gosta_sim import harness
        g = gosta_sim.make_watts_strogatz(200, 5, 0.3,
                                          np.random.default_rng(0))
        assert gosta_sim.beta_second_smallest(g) > 0
        rows = harness.table1([
            {"family": "complete", "n": 40},
            {"family": "watts_strogatz", "n": 60, "k": 4, "p": 0.3},
            {"family": "grid2d", "rows": 6, "cols": 7},
        ])
        assert all(row["gap"] > 0 for row in rows)
        assert sys.modules["scipy"] is None
        assert not [m for m in sys.modules if m.startswith("scipy.")]
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
