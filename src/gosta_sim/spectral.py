"""Spectra of the expected gossip transition matrices.

One pairwise-averaging event on edge (i, j) with weight 1/alpha applies
``I - (1/alpha) (e_i - e_j)(e_i - e_j)^T``. Averaging that map over a uniform
edge draw gives the expected transition matrix

    W_alpha(G) = I - L(G) / (alpha * m),

where m is the number of (unordered) edges. Its eigenvalues are therefore
``lambda_i(alpha) = 1 - beta_{n-i+1} / (alpha * m)`` in terms of the
decreasingly sorted Laplacian eigenvalues beta. The convergence rate of every
protocol in this package is controlled by the gap ``c = 1 - lambda_2(2) =
beta_{n-1} / (2 m)``; alpha=2 corresponds to the estimate-averaging step
(both endpoints move to their midpoint in expectation) and alpha=1 to the
observation-swap step. These closed forms were pinned against a brute-force
edge-by-edge construction of the expected matrix; see the test suite.

Two families have beta_{n-1} in closed form (F. Chung, *Spectral Graph
Theory*, 1997), each written once: :func:`complete_beta` and
:func:`grid2d_beta`. :func:`beta_second_smallest` applies them to graphs it
recognises by their edges, and ``harness.table1`` to complete and grid specs,
with no graph built, so both give the same bits.

Other graphs get beta_{n-1} = 0 exactly when disconnected and otherwise,
at every size, a LOBPCG iteration in numpy alone, its Laplacian products
read from the stored edge array and its preconditioner the tree of
:func:`graph.diagnose`'s sweep; it raises if it does not converge.
:func:`beta_second_smallest` is the one source of beta_{n-1}, and a graph's
gap is its :func:`spectral_summary` (0.0 when disconnected) wherever read.
The oracles' full eigenbasis is :func:`laplacian_eigh`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, diagnose, edge_slices, laplacian, make_grid2d

__all__ = [
    "SpectralSummary",
    "laplacian_eigh",
    "spectral_summary",
    "beta_second_smallest",
    "complete_beta",
    "grid2d_beta",
]


@dataclass(frozen=True)
class SpectralSummary:
    """Spectral constants of a graph with m edges, all set by beta_{n-1}.

    ``gap_c = 1 - lambda2_of_w2 = beta_{n-1} / (2 m)`` and ``lambda2_of_w1 =
    1 - beta_{n-1} / m``; :meth:`from_beta` is the one place they are formed.
    """

    lambda2_of_w2: float
    lambda2_of_w1: float
    gap_c: float
    beta_second_smallest: float

    @classmethod
    def from_beta(cls, beta: float, m: int) -> "SpectralSummary":
        return cls(lambda2_of_w2=1.0 - beta / (2.0 * m),
                   lambda2_of_w1=1.0 - beta / m, gap_c=beta / (2.0 * m),
                   beta_second_smallest=beta)


def laplacian_eigh(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(beta, V)`` from ``np.linalg.eigh(laplacian(g))``: eigenvalues in
    increasing order and orthonormal eigenvectors as columns.

    The result is cached on the graph, which is immutable, so every oracle
    shares one O(n^3) solve per graph. Both arrays are read-only.
    """
    basis = g.__dict__.get("_laplacian_eigh")
    if basis is None:
        beta, v = np.linalg.eigh(laplacian(g))
        beta.flags.writeable = v.flags.writeable = False
        basis = (beta, v)
        object.__setattr__(g, "_laplacian_eigh", basis)
    return basis


def complete_beta(n: int) -> float:
    """beta_{n-1} of the complete graph on n vertices: its Laplacian
    ``n I - 1 1^T`` has beta_{n-1} = n exactly."""
    return float(n)


def grid2d_beta(rows: int, cols: int) -> float:
    """beta_{n-1} of the rows x cols grid of :func:`make_grid2d`.

    Its Laplacian is the Kronecker sum of two path Laplacians, with
    eigenvalues ``(2 - 2cos(pi a / rows)) + (2 - 2cos(pi b / cols))``, so
    beta_{n-1} = 2 - 2cos(pi / max(rows, cols)). The two-vertex grid is the
    complete graph K_2 and gets :func:`complete_beta`'s exact 2, where the
    formula rounds to 1.9999999999999996.
    """
    if rows * cols == 2:
        return complete_beta(2)
    # 2 - 2cos(x) = 4 sin^2(x / 2), without the cancellation
    return 4.0 * math.sin(math.pi / (2 * max(rows, cols))) ** 2


def _grid_shape(g: Graph) -> tuple[int, int] | None:
    """``(rows, cols)`` when ``g`` has exactly the edges of
    ``make_grid2d(rows, cols)``, else None.

    A grid has n = rows * cols and m = 2n - rows - cols, so n and m fix
    the two side lengths up to order.
    """
    n, s = g.n, 2 * g.n - g.num_edges  # s = rows + cols
    if n < 2 or s < 2 or s * s < 4 * n:
        return None
    r = (s - math.isqrt(s * s - 4 * n)) // 2
    if r * (s - r) != n:
        return None
    for shape in ((r, s - r), (s - r, r)):
        if np.array_equal(g.edges, make_grid2d(*shape).edges):
            return shape
    return None


# beta_second_smallest's rule ||L x - beta x|| <= _TOL beta, in _MAXITER steps
_TOL = 1e-8
_MAXITER = 20000


def _tree_order(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """``(order, end)``: the depth-first preorder of :func:`diagnose`'s tree
    of the connected graph ``g``, each subtree a run ``order[i:end[i]]``."""
    parent = diagnose(g).parent
    # v's children are kids[ptr[v]:ptr[v + 1]]; the root (parent n) is last
    kids = np.argsort(parent, kind="stable").tolist()
    ptr = [0, *np.cumsum(np.bincount(parent)).tolist()]
    order, end, stack = [], [0] * g.n, [kids[-1]]
    while stack:  # ~v marks the end of v's subtree
        v = stack.pop()
        if v < 0:
            end[~v] = len(order)
        else:
            order.append(v)
            stack += [~v, *kids[ptr[v]:ptr[v + 1]]]
    return np.array(order), np.array(end)[order]


def _lobpcg_beta(g: Graph) -> float:
    """beta_{n-1} of the connected graph ``g`` by the tree-preconditioned
    LOBPCG iteration of :func:`beta_second_smallest`, or RuntimeError."""
    n = g.n
    order, end = _tree_order(g)
    slices = [rows.T for rows in edge_slices(g)]
    prefix = np.zeros(n + 1)

    def lap(y: np.ndarray, out: np.ndarray) -> None:
        np.multiply(g.degrees, y, out=out)
        for a, b in slices:
            np.subtract.at(out, a, y[b])
            np.subtract.at(out, b, y[a])

    def dot(a: np.ndarray, b: np.ndarray) -> float:
        # einsum, unlike BLAS ddot, sums in one order for any thread count
        return float(np.einsum("i,i", a, b))

    # rows: the iterate x, the residual r, T^-1 r and the direction p, then
    # L applied to each
    sl = np.zeros((8, n))
    x, r, w, _, lx, lr, lw, _ = sl
    x[:] = np.random.default_rng(0).standard_normal(n)
    x -= x.sum() / n
    x /= math.sqrt(dot(x, x))
    lap(x, lx)
    k = 3
    for _ in range(_MAXITER):
        lam = dot(x, lx) / dot(x, x)
        if not lam > 0:
            break
        np.subtract(lx, lam * x, out=r)
        if math.sqrt(dot(r, r)) <= _TOL * lam:
            return lam
        r -= r.sum() / n
        # T w = r on the tree: w[i] - w[parent of i] is the sum of r over
        # i's subtree, and w[i] the sum of those on the path from the root
        np.cumsum(r[order], out=prefix[1:])
        sub = prefix[end] - prefix[:-1]
        sub -= np.bincount(end, sub, n + 1)[:n]
        w[order] = np.cumsum(sub)
        w -= w.sum() / n
        lap(r, lr)
        lap(w, lw)
        # Rayleigh-Ritz on the first k rows, each scaled to unit norm and
        # whitened by the eigenbasis of their Gram matrix, which drops the
        # directions it finds dependent
        prods = sl[:k] @ sl.T
        scale = 1.0 / np.sqrt(np.diagonal(prods))
        d, q = np.linalg.eigh(prods[:, :k] * scale * scale[:, None])
        keep = d > 1e-10 * d[-1]
        q = scale[:, None] * q[:, keep] / np.sqrt(d[keep])
        a = q.T @ prods[:, 4:4 + k] @ q
        c = q @ np.linalg.eigh(a + a.T)[1][:, 0]
        sl[3], sl[7] = c[1:] @ sl[1:k], c[1:] @ sl[5:4 + k]  # p and L p
        sl[0::4] *= c[0]
        sl[0::4] += sl[3::4]
        x -= x.sum() / n  # leaves L x as it is, since L 1 = 0
        k = 4
    raise RuntimeError(f"second eigenvalue iteration did not converge for "
                       f"n={n}")


def beta_second_smallest(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue beta_{n-1}, by one route.

    A simple graph with n(n-1)/2 edges is complete and gets
    :func:`complete_beta`, a graph with exactly the edges of
    ``make_grid2d(rows, cols)`` gets :func:`grid2d_beta`, and a disconnected
    graph exactly 0.0. Every other graph, at any size, takes a block-size-1
    LOBPCG iteration in numpy alone (A. Knyazev, SIAM J. Sci. Comput. 2001),
    preconditioned by a spanning tree (D. Spielman and S.-H. Teng, SIAM J.
    Matrix Anal. Appl. 2014):
    - L x is ``deg * x`` less ``subtract.at`` of x[b] at a and x[a] at b
      over each row slice (a, b) of :func:`edge_slices`. T^-1, for T the
      Laplacian of :func:`diagnose`'s breadth-first tree, is two prefix
      sums over its depth-first preorder: a dozen numpy calls at any depth;
    - the start (``default_rng(0)``), each residual r, each T^-1 r and each
      iterate have their mean subtracted, off the all-ones null vector;
    - a step is Rayleigh-Ritz on span{x, r, T^-1 r, p}, scaled to unit
      norms and whitened by the eigenbasis of their Gram matrix, which
      drops directions below 1e-10 of its largest eigenvalue as dependent
      (at n = 4 and 5 the four span n - 1 dimensions or more). L x and L p
      follow from the combinations, so a step costs L r and L T^-1 r;
    - it stops when ``||L x - beta x|| <= 1e-8 beta`` and raises
      RuntimeError naming n if that takes over 20000 steps or the Rayleigh
      quotient stops being positive.
    The long sums are einsum, bincount, subtract.at, cumsum and products of
    matrices with at most eight rows, which BLAS does not split over threads,
    so the result has the same bits for any BLAS thread count. Raises
    ValueError on a graph with no edges.
    """
    n = g.n
    if g.num_edges == 0:
        raise ValueError("beta_second_smallest is undefined on a graph with "
                         "no edges")
    if n >= 2 and g.num_edges == n * (n - 1) // 2:
        return complete_beta(n)
    shape = _grid_shape(g)
    if shape is not None:
        return grid2d_beta(*shape)
    if not diagnose(g).connected:
        return 0.0
    return _lobpcg_beta(g)


def spectral_summary(g: Graph) -> SpectralSummary:
    """The graph's :class:`SpectralSummary` from :func:`beta_second_smallest`
    at every size, cached on the immutable graph, with no check of its own:
    :func:`beta_second_smallest` raises on an edgeless graph, and the gap
    of a disconnected one, 0.0, is refused by the bounds and the oracles.
    """
    s = g.__dict__.get("_spectral_summary")
    if s is None:
        s = SpectralSummary.from_beta(beta_second_smallest(g), g.num_edges)
        object.__setattr__(g, "_spectral_summary", s)
    return s
