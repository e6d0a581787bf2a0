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
W2 on irregular graphs, so there is no eigenbasis sum; but K steps of the
recursion are one fixed matrix polynomial in the starting step, so it
advances K iterations per matvec against a precomputed (K+1) n x n stack,
O(n^2) per iteration with the interpreter's cost paid once per block.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, laplacian, warn_if_unsuitable
from .kernels import KernelMatrix, whole
from .spectral import laplacian_eigh

__all__ = ["divided_difference", "geometric_checkpoints", "every_checkpoints",
           "checked_checkpoints", "gosta_sync_expectation",
           "gosta_async_expectation", "u1_expectation", "u2_expectation",
           "boyd_expectation"]

# Elements of the asynchronous oracle's drive buffer (256 KiB of float64).
_CHUNK_ELEMENTS = 32768


def geometric_checkpoints(t_max: int, max_points: int = 200) -> tuple[int, ...]:
    """1-2-5 geometric grid up to and including t_max, capped at
    ``max_points`` points; both are whole numbers >= 1."""
    t_max = whole(t_max, "t_max", 1)
    max_points = whole(max_points, "max_points", 1)
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
        keep = sorted(set(
            np.linspace(0, len(pts) - 1, max_points).astype(int).tolist()))
        pts = [pts[i] for i in keep[:-1]] + [t_max]
    return tuple(pts)


def every_checkpoints(t_max: int, step: int) -> tuple[int, ...]:
    """Every ``step``-th iteration before t_max, then t_max itself; both
    are whole numbers >= 1."""
    t_max, step = whole(t_max, "t_max", 1), whole(step, "step", 1)
    return (*range(step, t_max, step), t_max)


def checked_checkpoints(values, what: str, least: int,
                        most: int | None = None) -> tuple[int, ...]:
    """``values``, a nonempty 1-d sequence of whole numbers, strictly
    increasing from ``least`` up to ``most`` if given, as a tuple of ints;
    else ValueError naming ``what``. Runs start at 0, curves at 1."""
    cps = whole(values, what, least)
    if np.ndim(cps) != 1 or not len(cps) or (np.diff(cps) <= 0).any():
        raise ValueError(f"{what} must be a nonempty, strictly increasing "
                         "1-d sequence")
    if most is not None and cps[-1] > most:
        raise ValueError(f"{what} must lie in [{least}, {most}]")
    return tuple(cps.tolist())


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
    """The checked checkpoints, V and the defects ``1 - lambda = beta/m``
    and ``1 - mu = beta/(2m)`` from the graph's cached eigenbasis; the one
    null mode gets beta = 0 exactly."""
    if g.n != n:
        raise ValueError(f"graph size {g.n} does not match sample size {n}")
    cps = checked_checkpoints(checkpoints, "checkpoints", 1,
                              whole(t_max, "t_max", 1))
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


def _block_size(n: int, t_max: int) -> int:
    """Steps per block of the asynchronous oracle, from n and t_max alone:
    the K in 1..16 of least modelled cost ``(t_max/K) (C + (K+1) n^2) +
    K^2 n^3``, counted in elements of the block's matvec. ``C = 2 10^4`` is
    one block's interpreter overhead (about 3 us against 0.15 ns per
    element), and the build's ``2 K^2 n^3`` multiply-adds run at about half
    an element each. K > 1 also needs its ``(K+1) n^2`` stack within 1 MiB,
    where the matvec stays in cache. At t_max = 20000 this gives K = 10 at
    n=60, 7 at n=100, 4 at n=150, 2 at n=200 and 1 from n=256 on."""
    return min((k for k in range(1, 17) if k == 1 or (k + 1) * n * n <= 2**17),
               key=lambda k: (t_max / k * (20000 + (k + 1) * n * n)
                              + k * k * n ** 3))


def _times_step(poly, deg: int, j: int, xy) -> None:
    """Multiply the polynomial in s with coefficients ``poly[:, :deg+1]``
    by ``(s + j) X + Y`` in place, ``xy`` stacking X over Y."""
    carry = 0.0
    for q in range(deg + 1):
        xm, ym = np.vsplit(xy @ poly[:, q], 2)
        poly[:, q] = j * xm + ym + carry
        carry = xm
    poly[:, deg + 1] = carry


def _block_operator(x, y, p, lam, k: int):
    """Coefficients in s of k steps from s. With ``c(s) = prod_j (s+j)``,
    ``c(s) z_{s+k} = sum_q s^q (Zz_q z_s + Ze_q lambda^s)``; returned as
    ``zz[i, q, :] = Zz_q[i]`` and ``ze[i, q, :] = Ze_q[i]`` (q < k)."""
    n = lam.size
    zz = np.zeros((n, k + 1, n))
    zz[:, 1] = x
    np.add(x, y, out=zz[:, 0])  # the first step, (s + 1) X + Y
    if k == 1:
        return zz, p[:, None, :]
    ze = np.zeros((n, k, n))
    ze[:, 0] = p
    xy = np.vstack([x, y])
    c = np.zeros(k)  # coefficients of c_{j-1}(s) = prod_{0<i<j} (s + i)
    c[0] = 1.0
    lam_j = np.ones(n)
    for j in range(2, k + 1):
        # c_j(s) z_{s+j} = ((s+j) X + Y) c_{j-1}(s) z_{s+j-1}
        #                  + c_{j-1}(s) P lambda^(j-1) lambda^s
        c[1:j] = c[:j - 1] + (j - 1) * c[1:j]
        c[0] *= j - 1
        lam_j *= lam
        _times_step(zz, j - 1, j, xy)
        _times_step(ze, j - 2, j, xy)
        ze[:, :j] += c[:j, None] * (p * lam_j)[:, None, :]
    # X 1 = 1 and Y 1 = -1 give Zz(s) 1 = s c_{k-1}(s) 1. Every block
    # reapplies the products' rounding error along this slowest mode, where
    # it would grow linearly with t, so the row sums are set to it exactly.
    zz -= (zz.sum(axis=2) - np.concatenate(([0.0], c)))[:, :, None] / n
    return zz, ze


def _block_weights(starts, k: int):
    """``w_q(s) = s^q / prod_{j=1..k} (s + j)`` for each start, as
    ``s^(q-k) prod_j s/(s+j)`` so that no term overflows."""
    s = np.asarray(starts, np.float64)[:, None]
    ratio = np.prod(s / (s + np.arange(1, k + 1)), axis=1, keepdims=True)
    return ratio / s ** np.arange(k, -1, -1)


def _block_runs(cps, k: int):
    """Block starts from s = 1 to the last checkpoint as ``(size, starts)``
    runs: whole k-blocks toward each checkpoint, then single steps onto
    it. Contiguous runs of one size merge, so dense checkpoints still fill
    whole drive buffers."""
    runs, s = [], 1
    for t in cps:
        for size, stop in ((k, s + (t - s) // k * k), (1, t)):
            if stop == s:
                continue
            if runs and runs[-1][0] == size and runs[-1][1].stop == s:
                runs[-1] = (size, range(runs[-1][1].start, stop, size))
            else:
                runs.append((size, range(s, stop, size)))
            s = stop
    return runs


def gosta_async_expectation(g: Graph, km: KernelMatrix, t_max: int,
                            checkpoints) -> dict[int, np.ndarray]:
    """Mean-field E[Z(t)] of the asynchronous protocol: the transition
    ``W2 - (I + D^{-1} A)/(2t)`` applied to the previous expectation, plus
    ``diag(H W1^{t-1})/t``. Converges to the pair average; see the module
    docstring for the approximation caveat.

    With ``X = W2 = I - L/(2m)``, ``Y = -(I + D^{-1} A)/2 = L/(2D) - I``
    (both from one dense Laplacian, bit for bit the same as through
    ``D^{-1} A``: halving is exact), ``P = (H V) o V`` and
    ``e_s = lambda^s`` the step reads ``t z_t = (t X + Y) z_{t-1} +
    P e_{t-1}``, so K steps from s are a fixed matrix polynomial in s
    (:func:`_block_operator`) applied to ``(z_s, e_s)``. Each block is one
    matvec against the ``(K+1) n x n`` stack and a (K+1)-term combination;
    the ``e_s`` terms of a buffer of blocks are one product. K is
    :func:`_block_size`; single steps close each checkpoint."""
    cps, v, dl, _ = _setup(g, km.n, t_max, checkpoints,
                           "gosta_async_expectation")
    n = g.n
    p = (km.dense() @ v) * v
    lap = laplacian(g)
    x = np.eye(n) - lap / (2.0 * g.num_edges)
    y = lap / (2.0 * g.degrees[:, None]) - np.eye(n)
    k = _block_size(n, cps[-1])
    ops = {size: _block_operator(x, y, p, 1.0 - dl, size)
           for size in {1, k}}
    z = np.zeros(n)  # z_1: diag(H) is exactly zero
    out = dict.fromkeys(cps)
    if 1 in out:
        out[1] = z
    for size, starts in _block_runs(cps, k):
        zz, ze = ops[size]
        stack, wide = zz.reshape(-1, n), ze.reshape(n, -1)
        r = np.empty((n, size + 1))
        r_flat = r.reshape(-1)
        chunk = max(1, _CHUNK_ELEMENTS // (size * n))
        for first in range(0, len(starts), chunk):
            s = starts[first:first + chunk]
            w = _block_weights(s, size)
            e = _power(dl, np.asarray(s, np.float64)[:, None])
            # lambda^s below 2^-500 scales P far below the rounding of z,
            # and its subnormal values would slow the product tenfold
            e[np.abs(e) < 2.0 ** -500] = 0.0
            drive = (w[:, :size, None] * e[:, None]).reshape(len(s), -1)
            drive = drive @ wide.T
            for start, wb, d in zip(s, w, drive):
                np.dot(stack, z, out=r_flat)
                z = r @ wb + d
                if start + size in out:
                    out[start + size] = z
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
