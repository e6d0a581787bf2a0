"""Undirected communication graphs: construction, validation, I/O.

Vertices are 0-indexed internally and 1-indexed in the text file format and
all human-facing output. Graphs are immutable after construction (the edge
and degree arrays are set read-only) and safe to share across threads; the
diagnostics a graph caches on first use are the same whichever thread
computes them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "GraphDiagnostics",
    "make_graph",
    "make_complete",
    "make_grid2d",
    "complete_num_edges",
    "grid2d_num_edges",
    "make_watts_strogatz",
    "diagnose",
    "laplacian",
    "read_graph_file",
    "write_graph_file",
]

logger = logging.getLogger("gosta_sim.graph")

# Rows per slice of the order and duplicate check in Graph.__post_init__
# and of edge_slices, which every pass over the edges reads.
_CHECK_ROWS = 1 << 16

# Attempts at a connected graph before make_watts_strogatz gives up.
WS_MAX_RETRIES = 100


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, given by ``n`` and its edge array.

    Attributes
    ----------
    n : int
        Number of vertices, labeled 0..n-1 internally.
    edges : np.ndarray, shape (m, 2), int64
        Unordered edges stored canonically as (i, j) with i < j, sorted
        lexicographically, no duplicates, no self-loops.
    degrees : np.ndarray, shape (n,), int64
        Number of incident edges per vertex, derived from ``edges`` at
        construction (not a constructor argument).
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs at least one vertex, got n={self.n}")
        e = self.edges
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if e.shape[0] > 0:
            if e.min() < 0 or e.max() >= self.n:
                raise ValueError("edge endpoint out of range [0, n)")
            if (e[:, 0] == e[:, 1]).any():
                raise ValueError("self-loops are not allowed")
            if (e[:, 0] > e[:, 1]).any():
                raise ValueError("edges must be stored as (i, j) with i < j")
            # Over slices of _CHECK_ROWS + 1 rows, consecutive slices sharing
            # one edge, so the check's temporaries stay bounded whatever m.
            for s in range(0, e.shape[0] - 1, _CHECK_ROWS):
                block = e[s:s + _CHECK_ROWS + 1]
                keys = block[:, 0].astype(np.int64) * self.n + block[:, 1]
                if (np.diff(keys) <= 0).any():
                    raise ValueError("edges must be sorted and free of "
                                     "duplicates")
        deg = np.bincount(e.ravel(), minlength=self.n).astype(np.int64)
        e.flags.writeable = deg.flags.writeable = False
        object.__setattr__(self, "degrees", deg)

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])


@dataclass(frozen=True)
class GraphDiagnostics:
    """:func:`diagnose`'s findings. ``parent``, read-only, is its forest:
    v's lowest-indexed neighbour a level nearer the root, or n at a root."""

    connected: bool
    bipartite: bool
    parent: np.ndarray = field(compare=False, repr=False)


def make_graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of vertex pairs, canonicalizing order."""
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(e[:, 0], e[:, 1])
    hi = np.maximum(e[:, 0], e[:, 1])
    e = np.column_stack([lo, hi])
    if e.shape[0] > 0:
        order = np.lexsort((e[:, 1], e[:, 0]))
        e = e[order]
    return Graph(n=n, edges=e)


def make_complete(n: int) -> Graph:
    """Complete graph on n >= 2 vertices: n(n-1)/2 edges, all degrees n-1.

    The edges, in ``np.triu_indices`` order, are written row by row into one
    preallocated (m, 2) int64 array: the build holds that one 16 m-byte
    array (19.5 MiB at n = 1599), and its other buffers are O(n) or, in the
    :class:`Graph` checks, an m-byte mask or one bounded slice. No
    diagnostics are set here: :func:`diagnose` sweeps its edges like any
    other graph's.
    """
    e = np.empty((complete_num_edges(n), 2), dtype=np.int64)
    vertices = np.arange(n, dtype=np.int64)
    start = 0
    for i in range(n - 1):
        stop = start + n - 1 - i
        e[start:stop, 0] = i
        e[start:stop, 1] = vertices[i + 1:]
        start = stop
    return Graph(n=n, edges=e)


def complete_num_edges(n: int) -> int:
    """Edge count n(n-1)/2 of :func:`make_complete`'s graph, with its
    argument check: raises ValueError unless n >= 2."""
    if n < 2:
        raise ValueError(f"complete graph needs n >= 2, got n={n}")
    return n * (n - 1) // 2


def make_grid2d(rows: int, cols: int) -> Graph:
    """2-D lattice without wraparound.

    Interior vertices have degree 4, border vertices 3, corners 2;
    the edge count is :func:`grid2d_num_edges`.
    """
    grid2d_num_edges(rows, cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return make_graph(rows * cols, edges)


def grid2d_num_edges(rows: int, cols: int) -> int:
    """Edge count rows*(cols-1) + cols*(rows-1) of :func:`make_grid2d`'s
    graph, with its argument check: raises ValueError unless rows, cols >= 1
    and rows*cols >= 2."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"grid needs rows*cols >= 2, got {rows}x{cols}")
    return rows * (cols - 1) + cols * (rows - 1)


def _ws_base_ring(n: int, k: int) -> list[set[int]]:
    # Neighbour sets of the ring lattice with floor(k/2) neighbors per side.
    # For odd k, one extra ring edge is added from every second vertex at
    # offset floor(k/2)+1, raising the average degree from k-1 to k.
    half = k // 2
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(n):
        for off in range(1, half + 1):
            u = (v + off) % n
            adj[v].add(u)
            adj[u].add(v)
    if k % 2 == 1:
        off = half + 1
        for v in range(0, n, 2):
            u = (v + off) % n
            if u != v:
                adj[v].add(u)
                adj[u].add(v)
    return adj


def make_watts_strogatz(n: int, k: int, p: float,
                        rng: np.random.Generator) -> Graph:
    """Small-world graph: ring lattice of mean degree k, each edge rewired
    independently with probability p.

    Rewiring keeps one endpoint fixed and redraws the other uniformly among
    non-adjacent vertices, so no self-loops or duplicate edges appear and the
    edge count is preserved. Disconnected outputs are rejected and regenerated
    up to ``WS_MAX_RETRIES`` times in all, then an error is raised.

    Edges are visited in sorted order with one ``rng.random()`` each; a
    rewired edge (a, b) then draws ``idx = rng.integers(0, c)`` with
    ``c = n - 1 - deg(a)`` the number of non-neighbors of a (the edge is left
    in place when c = 0). The new endpoint is the idx-th vertex outside
    ``{a} | N(a)``, found by stepping idx past the sorted excluded vertices,
    so a rewire costs O(k log k) rather than an O(n) candidate list.
    """
    if k < 2 or k >= n:
        raise ValueError(f"need n > k >= 2, got n={n}, k={k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {p}")
    for _ in range(WS_MAX_RETRIES):
        adj = _ws_base_ring(n, k)
        for a, b in [(a, b) for a in range(n) for b in sorted(adj[a])
                     if a < b]:
            if rng.random() >= p:
                continue
            count = n - 1 - len(adj[a])
            if count == 0:
                continue
            w = int(rng.integers(0, count))
            for excluded in sorted(adj[a] | {a}):
                if excluded > w:
                    break
                w += 1
            adj[a].discard(b)
            adj[b].discard(a)
            adj[a].add(w)
            adj[w].add(a)
        starts = np.repeat(np.arange(n), [len(nbrs) for nbrs in adj])
        ends = np.fromiter(chain.from_iterable(adj), np.int64, starts.size)
        g = make_graph(n, np.column_stack([starts, ends])[starts < ends])
        if diagnose(g).connected:
            return g
    raise ValueError(
        f"failed to generate a connected Watts-Strogatz graph "
        f"(n={n}, k={k}, p={p}) in {WS_MAX_RETRIES} attempts"
    )


def edge_slices(g: Graph) -> list[np.ndarray]:
    """``g.edges`` as contiguous views of at most ``_CHECK_ROWS`` rows."""
    return np.split(g.edges, range(_CHECK_ROWS, g.num_edges, _CHECK_ROWS))


def diagnose(g: Graph) -> GraphDiagnostics:
    """Connectivity, bipartiteness and a spanning forest from the edges.

    Isolated vertices are components and roots of their own. One
    breadth-first sweep grows a level per pass over :func:`edge_slices`,
    from the lowest-indexed vertex of largest degree, then from the lowest
    unseen vertex of each further component. A last pass finds the graph
    bipartite unless an edge joins two vertices of one level, and each
    vertex's parent. It holds O(n) arrays and one slice's temporaries, and
    costs a pass per level of each other component: O(diameter m) if connected.

    The result is cached on the graph, which is immutable, so each graph is
    swept once however many runs, oracles and solves use it.
    """
    diag = g.__dict__.get("_diagnostics")
    if diag is not None:
        return diag
    isolated = g.degrees == 0
    level = np.where(isolated, 0, -1).astype(np.int32)
    components = int(np.count_nonzero(isolated))
    slices = [rows.T for rows in edge_slices(g)]
    root = np.argmax(g.degrees)
    while level[root] < 0:
        components += 1
        depth = 0
        level[root] = 0
        grew = True
        while grew:
            grew = False
            for a, b in slices:
                la, lb = level[a], level[b]
                ahead = np.concatenate([b[(la == depth) & (lb < 0)],
                                        a[(lb == depth) & (la < 0)]])
                level[ahead] = depth + 1
                grew = grew or ahead.size > 0
            depth += 1
        root = np.argmin(level)  # the lowest unseen vertex, if any
    # BFS levels of adjacent vertices differ by at most one: an edge inside
    # one level is the only odd-cycle witness, any other a parent candidate.
    parent, bipartite = np.full(g.n, g.n, dtype=np.int64), True
    for a, b in slices:
        la, lb = level[a], level[b]
        cross = np.flatnonzero(la != lb)
        bipartite = bipartite and cross.size == a.size
        a, b, down = a[cross], b[cross], la[cross] < lb[cross]
        np.minimum.at(parent, np.where(down, b, a), np.where(down, a, b))
    parent.flags.writeable = False
    diag = GraphDiagnostics(components == 1, bipartite, parent)
    object.__setattr__(g, "_diagnostics", diag)
    return diag


def laplacian(g: Graph) -> np.ndarray:
    """Dense combinatorial Laplacian (degree matrix minus adjacency).

    Filled from the edges and the integer degrees, so it is exactly
    symmetric and its rows sum to exactly zero in float64. Its other
    entries are -0.0, the zeros of a negated adjacency matrix: LAPACK's
    Householder steps read the sign of zero, and ``eigh``'s bits with it.
    """
    lap = np.full((g.n, g.n), -0.0)
    u, v = g.edges[:, 0], g.edges[:, 1]
    lap[u, v] = lap[v, u] = -1.0
    lap[np.arange(g.n), np.arange(g.n)] = g.degrees.astype(np.float64)
    return lap


def warn_if_unsuitable(g: Graph, context: str) -> GraphDiagnostics:
    """Raise on disconnected graphs; log a warning on bipartite ones.

    Bipartite graphs (e.g. 2-D grids) are accepted because they are useful
    test topologies, but averaging-based protocols lack the strict spectral
    gap guarantee there, so the caller is warned rather than stopped. The
    warning is logged once per graph, by its first caller.
    """
    diag = diagnose(g)
    if not diag.connected:
        raise ValueError(f"{context}: graph is disconnected; estimates cannot "
                         "converge to a global value")
    if diag.bipartite and not g.__dict__.get("_bipartite_warned"):
        object.__setattr__(g, "_bipartite_warned", True)
        logger.warning("%s: graph is bipartite; convergence guarantees are "
                       "weaker on bipartite topologies", context)
    return diag


def write_graph_file(g: Graph, path: str | Path) -> None:
    """Write the plain-text format: first line ``n m``, then one line ``i j``
    per edge with 1-indexed endpoints, LF line endings."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{int(a) + 1} {int(b) + 1}" for a, b in g.edges)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_graph_file(path: str | Path) -> Graph:
    """Read the plain-text graph format written by :func:`write_graph_file`;
    a token that is no 64-bit integer is named with its line."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"graph file not found: {p}")
    text = p.read_text(encoding="ascii")
    try:
        values = np.array(text.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        for line, row in enumerate(text.split("\n"), 1):
            for tok in row.split():
                try:
                    np.int64(tok)
                except (ValueError, OverflowError):
                    raise ValueError(f"{p}: line {line}: {tok!r} is not a "
                                     f"64-bit integer") from None
        raise
    if len(values) < 2:
        raise ValueError(f"{p}: expected a header line 'n m'")
    n, m = int(values[0]), int(values[1])
    if len(values) != 2 + 2 * m:
        raise ValueError(f"{p}: expected {m} edge lines, found "
                         f"{(len(values) - 2) // 2}")
    pairs = values[2:].reshape(m, 2)
    if m > 0 and (pairs.min() < 1 or pairs.max() > n):
        raise ValueError(f"{p}: edge endpoint outside [1, {n}]")
    return make_graph(n, pairs - 1)
