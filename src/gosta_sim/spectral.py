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

Other graphs get beta_{n-1} = 0 exactly when disconnected, the dense spectrum
for n <= 32 and otherwise a block-size-1 LOBPCG iteration written in numpy
alone. It applies the Laplacian through the edge list, keeps its iterates
off the all-ones null vector by subtracting their mean, stops on the
relative residual ``||L x - beta x|| <= tol * beta`` and falls back to the
dense spectrum (n <= 4000) or raises if it does not converge. All of this is
:func:`beta_second_smallest`, the one source of beta_{n-1}; a graph's gap
is its :func:`spectral_summary` (0.0 when disconnected) wherever it is read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, diagnose, laplacian, make_grid2d

__all__ = [
    "SpectralSummary",
    "w_alpha",
    "laplacian_spectrum",
    "laplacian_eigh",
    "w_alpha_eigs_from_laplacian",
    "spectral_summary",
    "beta_second_smallest",
    "complete_beta",
    "grid2d_beta",
]

logger = logging.getLogger("gosta_sim.spectral")


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


def w_alpha(g: Graph, alpha: float) -> np.ndarray:
    """Expected one-event transition matrix with averaging weight 1/alpha.

    Symmetric and doubly stochastic; equals ``I - L/(alpha*m)``.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    m = g.num_edges
    if m == 0:
        raise ValueError("w_alpha is undefined on a graph with no edges")
    return np.eye(g.n) - laplacian(g) / (alpha * m)


def laplacian_spectrum(g: Graph) -> np.ndarray:
    """Real Laplacian eigenvalues sorted in decreasing order.

    The multiplicity of the eigenvalue 0 equals the number of connected
    components.
    """
    eigs = np.linalg.eigvalsh(laplacian(g))
    return eigs[::-1].copy()


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


def w_alpha_eigs_from_laplacian(g: Graph, alpha: float) -> np.ndarray:
    """Eigenvalues of ``w_alpha`` derived from the Laplacian spectrum.

    Returns ``1 - beta_{n-i+1} / (alpha * m)`` in decreasing order; agrees
    with a direct eigendecomposition of :func:`w_alpha` to 1e-9.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    m = g.num_edges
    if m == 0:
        raise ValueError("eigenvalues undefined on a graph with no edges")
    beta = laplacian_spectrum(g)
    return 1.0 - beta[::-1] / (alpha * m)


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


def _lobpcg_beta(g: Graph, tol: float, maxiter: int) -> float | None:
    """Smallest Laplacian eigenvalue off the all-ones vector by a
    block-size-1 LOBPCG iteration, or None if it does not converge within
    ``maxiter`` steps or its Rayleigh quotient stops being positive. See
    :func:`beta_second_smallest`."""
    n = g.n
    u, v = g.edges[:, 0], g.edges[:, 1]
    deg = g.degrees.astype(np.float64)

    def lap(y: np.ndarray) -> np.ndarray:
        return deg * y - np.bincount(u, y[v], n) - np.bincount(v, y[u], n)

    x = np.random.default_rng(0).standard_normal(n)
    x -= x.mean()
    x /= np.linalg.norm(x)
    lx = lap(x)
    p = lp = None
    for _ in range(maxiter):
        lam = (x @ lx) / (x @ x)
        if not lam > 0:
            return None
        r = lx - lam * x
        if np.linalg.norm(r) <= tol * lam:
            return float(lam)
        r -= r.mean()
        basis, images = [x, r], [lx, lap(r)]
        if p is not None:
            basis.append(p)
            images.append(lp)
        q, rt = np.linalg.qr(np.stack(basis).T)
        # rows of Q^T and of (L Q)^T = R^-T (L S)^T
        q, lq = q.T, np.linalg.inv(rt).T @ np.stack(images)
        gram = q @ lq.T
        c = np.linalg.eigh(gram + gram.T)[1][:, 0]
        p, lp = c[1:] @ q[1:], c[1:] @ lq[1:]
        x, lx = c @ q, c @ lq
        x -= x.mean()  # leaves L x as it is, since L 1 = 0
    return None


def beta_second_smallest(g: Graph, tol: float = 1e-8,
                         maxiter: int = 20000) -> float:
    """Second-smallest Laplacian eigenvalue via a constrained iterative solve.

    Two families are answered in closed form, without a solve:
    - a simple graph with n(n-1)/2 edges is complete:
      :func:`complete_beta`;
    - a graph with exactly the edges of ``make_grid2d(rows, cols)``:
      :func:`grid2d_beta`.
    A disconnected graph gets exactly 0.0, its beta_{n-1}, with no solve.
    Other graphs with n <= 32 use the dense spectrum. Larger ones use a
    block-size-1 LOBPCG iteration in numpy alone (A. Knyazev, "Toward the
    optimal preconditioned eigensolver: LOBPCG", SIAM J. Sci. Comput. 2001):
    - operator: ``L x = deg * x - bincount(u, x[v]) - bincount(v, x[u])``
      over the edge list (u, v), with no dense or sparse matrix;
    - deflation: the all-ones null vector is projected out by subtracting
      the mean from the seeded start (``default_rng(0)``), from every
      residual and from every new iterate;
    - step: Rayleigh-Ritz on span{x, r, p}, orthonormalised by a QR; L x and
      L p follow from the same linear combinations, so a step costs one
      Laplacian product, L r;
    - stopping rule: ``||L x - beta x|| <= tol * beta``, with the carried
      L x. ``tol`` bounds the residual relative to beta, not in absolute
      terms; the smaller the gap, the more steps this takes (about
      ``sqrt(max degree / beta)`` per factor e), so path-like graphs need
      more than the default ``maxiter`` from about a thousand nodes on.
      The rounding error of the residual, about 2e-16 times the largest
      degree, reaches ``tol * beta`` only for beta below about 2e-8 times
      it, as on a path of some 16000 nodes, far past where ``maxiter``
      runs out;
    - fallback: if that is not reached in ``maxiter`` steps, or the
      Rayleigh quotient stops being positive, the dense spectrum with a
      logged warning for n <= 4000, else RuntimeError.
    The result is a deterministic function of the graph. Raises ValueError
    on a graph with no edges.
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
    if n <= 32:
        return float(laplacian_spectrum(g)[-2])
    beta = _lobpcg_beta(g, tol, maxiter)
    if beta is not None:
        return beta
    if n <= 4000:
        logger.warning("iterative eigenvalue solve did not converge, using "
                       "dense fallback (n=%d)", n)
        return float(laplacian_spectrum(g)[-2])
    raise RuntimeError(f"second eigenvalue iteration did not converge for "
                       f"n={n}")


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
