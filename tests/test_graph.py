import tracemalloc
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gosta_sim as gs
from gosta_sim import graph
from gosta_sim.graph import warn_if_unsuitable

from _reference import (_ref_adjacency, bfs_connected, ref_levels,
                        ref_make_watts_strogatz, ref_sweep)


def test_complete_small():
    g = gs.make_complete(4)
    assert g.num_edges == 6
    assert (g.degrees == 3).all()


def test_complete_large_edge_count():
    n = 1599
    g = gs.make_complete(n)
    assert g.num_edges == n * (n - 1) // 2 == 1_277_601


@pytest.mark.parametrize("n", [2, 3, 363, 1599])
def test_complete_edges_match_triu_indices(n):
    # n = 363 has 65,703 edges, past the first 2**16-row check slice
    e = gs.make_complete(n).edges
    i, j = np.triu_indices(n, k=1)
    expected = np.column_stack([i, j]).astype(np.int64)
    assert e.dtype == expected.dtype and e.shape == expected.shape
    assert e.tobytes() == expected.tobytes()


def test_complete_build_holds_one_edge_array():
    # numpy reports its buffers to tracemalloc; the edge array is 16 m
    # bytes and every other buffer of the build and its checks is O(n), an
    # m-byte mask, or one check slice.
    tracemalloc.start()
    try:
        g = gs.make_complete(1599)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges.nbytes == 16 * 1_277_601
    assert peak <= 1.25 * g.edges.nbytes


def _graph_error(n, edges):
    with pytest.raises(ValueError) as err:
        gs.Graph(n=n, edges=edges)
    return str(err.value)


def test_graph_check_sees_across_slice_boundaries():
    n, b = 363, graph._CHECK_ROWS
    edges = gs.make_complete(n).edges
    assert edges.shape[0] > b + 1
    unsorted = "edges must be sorted and free of duplicates"
    # the last row of the first slice repeated as the first row of the
    # next: only the edge the two slices share shows it
    e = edges.copy()
    e[b] = e[b - 1]
    assert _graph_error(n, e) == unsorted
    e = edges.copy()
    e[[b - 1, b]] = e[[b, b - 1]]
    assert _graph_error(n, e) == unsorted
    e = edges.copy()
    e[b] = e[b, ::-1]
    assert _graph_error(n, e) == "edges must be stored as (i, j) with i < j"


def test_graph_check_sees_the_last_row():
    n = 363
    edges = gs.make_complete(n).edges
    for last, message in [((n - 2, n), "edge endpoint out of range [0, n)"),
                          ((n - 1, n - 1), "self-loops are not allowed")]:
        e = edges.copy()
        e[-1] = last
        assert _graph_error(n, e) == message


@pytest.mark.parametrize("n, edges, message", [
    (0, np.zeros((0, 2), np.int64),
     "graph needs at least one vertex, got n=0"),
    (-2, np.zeros((0, 2), np.int64),
     "graph needs at least one vertex, got n=-2"),
    (3, np.array([0, 1]), "edges must be an (m, 2) array"),
    (3, np.array([[0, 1, 2]]), "edges must be an (m, 2) array"),
    (3, np.zeros((1, 2, 1), np.int64), "edges must be an (m, 2) array"),
], ids=["no_vertex", "negative_n", "flat_edges", "three_columns", "3d_edges"])
def test_graph_rejects_bad_sizes_and_shapes(n, edges, message):
    with pytest.raises(ValueError) as info:
        graph.Graph(n, edges)
    assert str(info.value) == message


def test_complete_degenerate():
    with pytest.raises(ValueError):
        gs.make_complete(1)


def test_grid_smallest_is_cycle():
    g = gs.make_grid2d(2, 2)
    assert g.num_edges == 4
    assert (g.degrees == 2).all()


def test_grid_3x3_edge_count():
    rows, cols = 3, 3
    g = gs.make_grid2d(rows, cols)
    assert g.num_edges == rows * (cols - 1) + cols * (rows - 1) == 12
    assert sorted(g.degrees) == [2, 2, 2, 2, 3, 3, 3, 3, 4]


def test_grid_single_row_is_path():
    g = gs.make_grid2d(1, 5)
    assert g.num_edges == 4
    assert sorted(g.degrees) == [1, 1, 2, 2, 2]


def test_grid_too_small():
    with pytest.raises(ValueError):
        gs.make_grid2d(1, 1)


def test_ws_no_rewiring_is_ring_lattice(rng):
    g = gs.make_watts_strogatz(20, 4, 0.0, rng)
    assert g.num_edges == 40
    assert (g.degrees == 4).all()


def test_ws_rewired_connected_by_independent_bfs():
    rng = np.random.default_rng(7)
    g = gs.make_watts_strogatz(100, 4, 0.3, rng)
    assert bfs_connected(g.n, [tuple(e) for e in g.edges])


def test_ws_bad_degree():
    with pytest.raises(ValueError):
        gs.make_watts_strogatz(3, 4, 0.1, np.random.default_rng(0))


def test_ws_odd_k_mean_degree(rng):
    g = gs.make_watts_strogatz(100, 5, 0.0, rng)
    assert g.degrees.mean() == pytest.approx(5.0, abs=0.1)


def _ws_outcome(make, n, k, p, seed):
    """Edge array (or None if no connected graph came out) and the final
    generator state, so equal outcomes mean equal random-stream use too."""
    rng = np.random.default_rng(seed)
    try:
        out = make(n, k, p, rng)
    except ValueError:
        out = None
    edges = out.edges if isinstance(out, gs.Graph) else out
    return edges, rng.bit_generator.state


def _assert_same_as_reference(n, k, p, seed, max_retries=100):
    # patch.object, not monkeypatch: hypothesis reruns the test body
    with patch.object(graph, "WS_MAX_RETRIES", max_retries):
        edges, state = _ws_outcome(gs.make_watts_strogatz, n, k, p, seed)
    ref_edges, ref_state = _ws_outcome(
        partial(ref_make_watts_strogatz, max_retries=max_retries),
        n, k, p, seed)
    assert state == ref_state
    if ref_edges is None:
        assert edges is None
    else:
        assert edges is not None and np.array_equal(edges, ref_edges)
    return edges


@given(n=st.integers(3, 40), k_frac=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1),
       p=st.one_of(st.just(0.0), st.just(1.0), st.floats(0, 1)),
       max_retries=st.sampled_from([1, 3, 100]))
def test_ws_matches_candidate_list_reference(n, k_frac, seed, p, max_retries):
    k = 2 + int(k_frac * (n - 3))  # 2 <= k < n
    _assert_same_as_reference(n, k, p, seed, max_retries)


@pytest.mark.parametrize("n, k", [(6, 5), (7, 6), (9, 7), (12, 10)])
def test_ws_exhausted_candidates_match_reference(n, k):
    # k close to n leaves some (for k = n - 1 with even n: every) vertex
    # without a non-neighbor, so rewires are skipped after their draw.
    for seed in range(4):
        edges = _assert_same_as_reference(n, k, 1.0, seed)
        if k == n - 1 and n % 2 == 0:
            assert len(edges) == n * (n - 1) // 2


def test_ws_disconnected_retry_matches_reference():
    # At n=6, k=2, p=1 the first attempt is often disconnected: pick seeds
    # that need a retry and check the regenerated graph.
    def connected_within(seed, max_retries):
        edges = _ws_outcome(partial(ref_make_watts_strogatz,
                                    max_retries=max_retries),
                            6, 2, 1.0, seed)[0]
        return edges is not None

    retried = [s for s in range(40)
               if not connected_within(s, 1) and connected_within(s, 100)]
    assert retried
    for seed in retried[:5]:
        _assert_same_as_reference(6, 2, 1.0, seed)
        _assert_same_as_reference(6, 2, 1.0, seed, max_retries=1)


@pytest.mark.parametrize("seed", range(8))
def test_generator_invariants_random_sweep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    k = int(rng.integers(1, n // 2)) * 2
    p = float(rng.uniform(0, 1))
    g = gs.make_watts_strogatz(n, k, p, rng)
    # invariants beyond what the constructor enforces
    assert g.edges.shape[0] == n * (k // 2)  # rewiring preserves edge count
    recomputed = np.zeros(n, dtype=int)
    for a, b in g.edges:
        assert 0 <= a < b < n
        recomputed[a] += 1
        recomputed[b] += 1
    assert (recomputed == g.degrees).all()


def test_diagnose_triangle():
    d = gs.diagnose(gs.make_complete(3))
    assert d.connected and not d.bipartite


def test_diagnose_even_cycle():
    d = gs.diagnose(gs.make_grid2d(2, 2))
    assert d.connected and d.bipartite


def test_diagnose_disjoint_edges():
    g = gs.make_graph(4, [(0, 1), (2, 3)])
    d = gs.diagnose(g)
    assert not d.connected and d.bipartite


def test_diagnose_complete_1599_holds_no_adjacency_lists():
    # the same K_1599 from make_complete and from a generic edge array:
    # neither is diagnosed at build, and both take the edge-list sweep
    built = gs.make_complete(1599)
    for g in (built, gs.make_graph(1599, built.edges)):
        assert "_diagnostics" not in g.__dict__
        tracemalloc.start()
        try:
            d = gs.diagnose(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.connected and not d.bipartite
        assert peak < 10 * 2**20


def _shuffled_path(n, seed):
    order = np.random.default_rng(seed).permutation(n)
    return np.column_stack([order[:-1], order[1:]])


def _cycle(n, offset=0):
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def _sweep_graphs():
    path = [(i, i + 1) for i in range(9)]
    yield "path", gs.make_graph(10, path)
    yield "odd cycle", gs.make_graph(9, _cycle(9))
    yield "even cycle", gs.make_graph(8, _cycle(8))
    yield "grid", gs.make_grid2d(4, 5)
    yield "star", gs.make_graph(7, [(0, i) for i in range(1, 7)])
    yield "complete", gs.make_complete(12)
    yield "watts-strogatz", gs.make_watts_strogatz(
        300, 4, 0.3, np.random.default_rng(7))
    yield "disjoint edges", gs.make_graph(6, [(0, 1), (2, 3), (4, 5)])
    yield "triangle plus isolated vertex", gs.make_graph(
        4, [(0, 1), (1, 2), (0, 2)])
    # a second component found only by the restart, labels interleaved
    yield "two shuffled paths", gs.make_graph(
        600, np.vstack([2 * _shuffled_path(300, 1),
                        2 * _shuffled_path(300, 2) + 1]))
    # the odd cycle in the second component must still clear bipartite
    yield "even cycle beside odd cycle", gs.make_graph(
        15, _cycle(8) + _cycle(7, offset=8))
    yield "even cycle plus isolated vertices", gs.make_graph(
        9, _cycle(6, offset=2))
    yield "one vertex, no edges", gs.make_graph(1, [])
    yield "shuffled path 1000", gs.make_graph(1000, _shuffled_path(1000, 1000))
    # 65,703 edges: one level spans two _CHECK_ROWS slices
    yield "complete 363", gs.make_complete(363)
    # the level passes must read past the first slice: the path hangs off
    # vertex 362, whose edges sort into the second
    yield "complete 363 with a pendant path", gs.make_graph(
        366, np.vstack([gs.make_complete(363).edges,
                        [(362, 363), (363, 364), (364, 365)]]))
    # 65,793 edges: the one edge inside a side, and with it the only odd
    # cycle, sorts into the second slice
    yield "complete bipartite 256 x 257 plus one edge", gs.make_graph(
        513, [(i, j) for i in range(256) for j in range(256, 513)]
        + [(511, 512)])
    # isolated vertices are components and roots of their own, with no
    # sweep: an edgeless graph is connected only at n = 1
    yield "three vertices, no edges", gs.make_graph(3, [])
    yield "one edge among isolated vertices", gs.make_graph(2000, [(5, 1717)])
    yield "isolated vertices below the first root", gs.make_graph(
        8, [(3, 4), (4, 5), (3, 5), (6, 7)])
    yield "path among isolated vertices", gs.make_graph(
        12, [(1, 4), (4, 7), (7, 10)])


@pytest.mark.parametrize("name, g", list(_sweep_graphs()))
def test_sweep_matches_reference(name, g):
    d = gs.diagnose(g)
    assert (d.connected, d.bipartite) == ref_sweep(g)
    # the forest: parent n exactly at the roots, and at every other vertex
    # its lowest-indexed neighbour one level nearer the root
    assert not d.parent.flags.writeable
    level, adj = ref_levels(g)
    parent = d.parent.tolist()
    for v in range(g.n):
        if level[v] == 0:
            assert parent[v] == g.n
            continue
        p = parent[v]
        assert p in adj[v] and level[p] == level[v] - 1
        assert p == min(u for u in adj[v] if level[u] == level[v] - 1)


def test_laplacian_single_edge():
    lap = gs.laplacian(gs.make_graph(2, [(0, 1)]))
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_triangle():
    lap = gs.laplacian(gs.make_complete(3))
    assert np.array_equal(np.diag(lap), np.full(3, 2.0))
    off = lap[~np.eye(3, dtype=bool)]
    assert (off == -1.0).all()


@pytest.mark.parametrize("seed", range(5))
def test_laplacian_nullvector_and_psd(seed):
    rng = np.random.default_rng(seed)
    g = gs.make_watts_strogatz(25, 4, 0.4, rng)
    lap = gs.laplacian(g)
    assert (lap @ np.ones(g.n) == 0.0).all()
    assert np.linalg.eigvalsh(lap).min() >= -1e-9
    assert np.array_equal(lap, lap.T)


def test_graph_validation_rejects_bad_edges():
    with pytest.raises(ValueError):
        gs.make_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        gs.make_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        gs.make_graph(3, [(0, 1), (1, 0)])  # duplicate after canonicalization


def test_graph_is_immutable():
    g = gs.make_complete(4)
    with pytest.raises(ValueError):
        g.edges[0, 0] = 5
    with pytest.raises(ValueError):
        g.degrees[0] = 9


def test_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    g = gs.make_watts_strogatz(12, 4, 0.5, rng)
    path = tmp_path / "g.txt"
    gs.write_graph_file(g, path)
    text = path.read_text()
    first = text.splitlines()[0].split()
    assert first == [str(g.n), str(g.num_edges)]
    # endpoints in the file are 1-indexed
    smallest = min(int(tok) for line in text.splitlines()[1:]
                   for tok in line.split())
    assert smallest >= 1
    g2 = gs.read_graph_file(path)
    assert g2.n == g.n
    assert np.array_equal(g2.edges, g.edges)


def test_read_graph_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n1 2\n")
    with pytest.raises(ValueError):
        gs.read_graph_file(path)


@pytest.mark.parametrize("text, message", [
    ("", "expected a header line 'n m'"),
    ("5\n", "expected a header line 'n m'"),
    ("3 1\n1 4\n", "edge endpoint outside [1, 3]"),
    ("3 2\n1 2\n0 3\n", "edge endpoint outside [1, 3]"),
    ("3 2\n1 2\n2 x\n", "line 3: 'x' is not a 64-bit integer"),
    ("3 1.5\n1 2\n", "line 1: '1.5' is not a 64-bit integer"),
    ("3 1\n\n1 99999999999999999999\n",
     "line 3: '99999999999999999999' is not a 64-bit integer"),
], ids=["empty", "no_m", "endpoint_above_n", "endpoint_below_1",
        "edge_token", "header_token", "token_above_int64"])
def test_read_graph_file_names_what_it_refuses(tmp_path, text, message):
    path = tmp_path / "g.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        gs.read_graph_file(path)
    assert str(info.value) == f"{path}: {message}"


def test_read_graph_file_names_a_missing_file(tmp_path):
    path = tmp_path / "missing.txt"
    with pytest.raises(FileNotFoundError) as info:
        gs.read_graph_file(path)
    assert str(info.value) == f"graph file not found: {path}"


def test_warn_if_unsuitable(caplog):
    import logging
    logging.getLogger("gosta_sim.graph").setLevel(logging.WARNING)
    with pytest.raises(ValueError):
        warn_if_unsuitable(gs.make_graph(4, [(0, 1), (2, 3)]), "test")
    with caplog.at_level(logging.WARNING, logger="gosta_sim.graph"):
        warn_if_unsuitable(gs.make_grid2d(2, 2), "test")
    assert any("bipartite" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("name, g", list(_sweep_graphs()))
def test_laplacian_bits_match_reference(name, g):
    # -A with A's row sums on the diagonal: its zeros are -0.0, whose sign
    # LAPACK's Householder steps read
    a = _ref_adjacency(g)
    ref = -a
    ref[np.arange(g.n), np.arange(g.n)] = a.sum(axis=1)
    assert gs.laplacian(g).tobytes() == ref.tobytes()


def test_degrees_derived_from_edges():
    g = gs.Graph(n=5, edges=np.array([[0, 1], [0, 4], [1, 4]]))
    assert g.degrees.dtype == np.int64
    assert g.degrees.tolist() == [2, 2, 0, 0, 2]
    assert gs.make_graph(1, []).degrees.tolist() == [0]
    with pytest.raises(TypeError):
        gs.Graph(n=2, edges=np.array([[0, 1]]), degrees=np.ones(2, np.int64))
