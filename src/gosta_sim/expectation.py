"""Expected-dynamics oracles: E[Z(t)] per protocol in the Laplacian eigenbasis.

``W1 = I - L/m`` and ``W2 = I - L/(2m)`` share the eigenvectors V of
``L = V diag(beta) V^T``, with eigenvalues ``lambda = 1 - beta/m`` and
``mu = 1 - beta/(2m)``. With ``P = (H V) o V`` (so ``diag(H W1^s) =
P lambda^s``), ``Q = V^T P`` and ``G = V^T H V``, every oracle but the
asynchronous one is a geometric sum in that basis, evaluated directly at
each checkpoint. Its cost does not depend on t after one O(n^3)
eigendecomposition, which the graph caches (``spectral.laplacian_eigh``):

- boyd: ``E[Z(t)] = V (mu^t o V^T x)``, O(n^2) per checkpoint;
- u1: ``t E[Z(t)] = P sum_{s=1..t} lambda^s``, O(n^2);
- gosta_sync: ``t E[Z(t)] = V sum_b Q[:, b] mu lambda_b D(mu, lambda_b, t-1)``,
  O(n^2);
- u2: ``t E[Z(t)] = diag(V (G o K_t) V^T)``,
  ``K_t[a, b] = sum_{s=1..t-1} (lambda_a lambda_b)^s``, O(n^3).

``D(a, b, t) = (a^t - b^t)/(a - b)`` is evaluated by
:func:`divided_difference`. The kernel diagonal is exactly zero, so the
s = 0 terms are left out and every oracle but boyd is exactly 0 at t = 1.
The synchronous sum is the exact expectation of the simulator: W2
multiplies both the decayed estimate and the fresh kernel contribution,
because the averaging event follows the running-average update.

The asynchronous recursion is a first-moment (mean-field) approximation:
the random per-node activation counts are replaced by their expectations.
It is exact at t=1 and asymptotically accurate, but the reciprocal counts
correlate with the estimates, so it is not the exact expectation of the
asynchronous simulator at small t; no finite linear recursion closes over
those correlations. Its correction ``I + D^{-1} A`` does not commute with
W2 on irregular graphs, so it steps through the iterations at O(n^2) each.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, adjacency, warn_if_unsuitable
from .kernels import KernelMatrix
from .spectral import laplacian_eigh, w_alpha

__all__ = ["divided_difference", "geometric_checkpoints", "every_checkpoints",
           "gosta_sync_expectation", "gosta_async_expectation",
           "u1_expectation", "u2_expectation", "boyd_expectation"]

# Elements of the asynchronous oracle's drive buffer (64 KiB of float64).
_CHUNK_ELEMENTS = 8192


def geometric_checkpoints(t_max: int, max_points: int = 200) -> tuple[int, ...]:
    """1-2-5 geometric grid up to and including t_max, capped in length."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    pts = []
    decade = 1
    while decade <= t_max:
        for mult in (1, 2, 5):
            v = mult * decade
            if v <= t_max:
                pts.append(v)
        decade *= 10
    if not pts or pts[-1] != t_max:
        pts.append(t_max)
    if len(pts) > max_points:
        # linspace gives only the first index for one point: close on t_max
        keep = np.unique(np.linspace(0, len(pts) - 1, max_points).astype(int))
        pts = [pts[i] for i in keep[:-1]] + [t_max]
    return tuple(pts)


def every_checkpoints(t_max: int, step: int) -> tuple[int, ...]:
    """Every ``step``-th iteration before t_max, then t_max itself."""
    return (*range(step, t_max, step), t_max)


def _power(defect, t):
    """``(1 - defect)^t``, through ``log1p`` for positive bases, which
    keeps bases close to 1 at full precision."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.exp(t * np.log1p(-defect))
    nonpositive = defect >= 1
    return (np.where(nonpositive, (1.0 - defect) ** t, out)
            if nonpositive.any() else out)


def divided_difference(da, db, t: int) -> np.ndarray:
    """``D(a, b, t) = (a^t - b^t)/(a - b) = sum_{k<t} a^k b^(t-1-k)``
    elementwise, for ``a = 1 - da`` and ``b = 1 - db``; ``t a^(t-1)`` at a = b.

    The defects keep ``a - b = db - da`` exact near eigenvalue 1. For
    non-negative a, b it evaluates ``hi^t (1 - exp(-t log(hi/lo)))/(hi - lo)``
    with ``log(hi/lo) = 2 atanh((hi - lo)/(hi + lo))``: no cancellation as
    lo approaches hi, no overflow at large t. With a sign change,
    ``|a - b| >= max(|a|, |b|)`` and the plain quotient is accurate.
    """
    da, db = np.asarray(da, np.float64), np.asarray(db, np.float64)
    if t == 0:
        return np.zeros(np.broadcast_shapes(da.shape, db.shape))
    gap = np.abs(db - da)
    dhi, dlo = np.minimum(da, db), np.maximum(da, db)
    hi_before = _power(dhi, t - 1)
    mixed = dlo > 1
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = 2.0 * np.arctanh(gap / ((1.0 - dhi) + (1.0 - dlo)))
        out = hi_before * (1.0 - dhi) * -np.expm1(-t * log_ratio) / gap
        if mixed.any():
            out = np.where(mixed, (_power(da, t) - _power(db, t)) / (db - da),
                           out)
    return np.where(gap == 0, t * hi_before, out)


def _setup(g: Graph, n: int, t_max: int, checkpoints, context: str):
    """Sorted checkpoints, V and the defects ``1 - lambda = beta/m`` and
    ``1 - mu = beta/(2m)`` from the graph's cached eigenbasis; the one null
    mode gets beta = 0 exactly."""
    if g.n != n:
        raise ValueError(f"graph size {g.n} does not match sample size {n}")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    cps = sorted({int(t) for t in checkpoints})
    if not cps or cps[0] < 1 or cps[-1] > t_max:
        raise ValueError("checkpoints must be nonempty and lie in [1, t_max]")
    warn_if_unsuitable(g, context)
    beta, v = laplacian_eigh(g)
    beta = beta.copy()
    beta[0] = 0.0
    return cps, v, beta / g.num_edges, beta / (2.0 * g.num_edges)


def gosta_sync_expectation(g: Graph, km: KernelMatrix, t_max: int,
                           checkpoints) -> dict[int, np.ndarray]:
    """Exact E[Z(t)] of the synchronous protocol at the given checkpoints:
    ``t E[Z(t)] = sum_{s=2..t} W2^{t-s+1} diag(H W1^{s-1})``. Components
    converge to the pair average ``km.u_stat``."""
    cps, v, dl, dm = _setup(g, km.n, t_max, checkpoints,
                            "gosta_sync_expectation")
    q = v.T @ ((km.dense() @ v) * v)
    lam, mu = 1.0 - dl, 1.0 - dm
    return {t: v @ (mu * ((q * divided_difference(dm[:, None], dl, t - 1))
                          @ lam)) / t
            for t in cps}


def gosta_async_expectation(g: Graph, km: KernelMatrix, t_max: int,
                            checkpoints) -> dict[int, np.ndarray]:
    """Mean-field E[Z(t)] of the asynchronous protocol: the transition
    ``W2 - (I + D^{-1} A)/(2t)`` applied to the previous expectation, plus
    ``diag(H W1^{t-1})/t``. Converges to the pair average; see the module
    docstring for the approximation caveat."""
    cps, v, dl, _ = _setup(g, km.n, t_max, checkpoints,
                           "gosta_async_expectation")
    p = (km.dense() @ v) * v
    n = g.n
    step = np.vstack([w_alpha(g, 2.0),
                      -(np.eye(n) + adjacency(g) / g.degrees[:, None]) / 2.0])
    # lambda^k for the k-th step of a chunk; a chunk starting at step s
    # scales P by lambda^(s-1), so one product gives all its drive terms
    powers = _power(dl, np.arange(max(1, _CHUNK_ELEMENTS // n))[:, None])
    y = np.empty((2, n))
    weights = np.ones(2)  # combines W2 z and -(I + D^{-1} A) z / 2
    z = np.zeros(n)
    out = dict.fromkeys(cps)
    for start in range(1, cps[-1] + 1, len(powers)):
        ts = np.arange(start, min(start + len(powers), cps[-1] + 1))
        drive = powers[:len(ts)] @ (_power(dl, start - 1)[:, None] * p.T)
        drive /= ts[:, None]
        if start == 1:
            drive[0] = 0.0  # diag(H) is exactly zero
        for t, d in zip(ts.tolist(), drive):
            np.dot(step, z, out=y.reshape(-1))
            weights[1] = 1.0 / t
            z = weights @ y + d
            if t in out:
                out[t] = z
    return out


def u1_expectation(g: Graph, km: KernelMatrix, t_max: int,
                   checkpoints) -> dict[int, np.ndarray]:
    """Exact E[Z_k(t)] = (1/t) sum_{s=1..t} (H W1^s)_{kk} of the
    single-propagation protocol; converges to ``km.row_means``."""
    cps, v, dl, _ = _setup(g, km.n, t_max, checkpoints, "u1_expectation")
    p = (km.dense() @ v) * v
    return {t: p @ ((1.0 - dl) * divided_difference(0.0, dl, t)) / t
            for t in cps}


def u2_expectation(g: Graph, km: KernelMatrix, t_max: int,
                   checkpoints) -> dict[int, np.ndarray]:
    """Exact E[Z_k(t)] = (1/t) sum_{s=1..t-1} (W1^s H W1^s)_{kk} of the
    double-propagation protocol (the s=0 term is the zero diagonal);
    converges to the pair average ``km.u_stat``."""
    cps, v, dl, _ = _setup(g, km.n, t_max, checkpoints, "u2_expectation")
    gmat = v.T @ km.dense() @ v
    dpair = dl[:, None] + dl - dl[:, None] * dl  # 1 - lambda_a lambda_b
    out = {}
    for t in cps:
        k = (1.0 - dpair) * divided_difference(0.0, dpair, t - 1)
        out[t] = np.einsum("ka,ka->k", v @ (gmat * k), v) / t
    return out


def boyd_expectation(g: Graph, x: np.ndarray, t_max: int,
                     checkpoints) -> dict[int, np.ndarray]:
    """Exact E[Z(t)] = W2^t x of plain averaging; converges to the mean."""
    x = np.asarray(x, dtype=np.float64)
    cps, v, _, dm = _setup(g, x.shape[0], t_max, checkpoints,
                           "boyd_expectation")
    vx = v.T @ x
    return {t: v @ (_power(dm, t) * vx) for t in cps}
