"""Numerical evaluation of the convergence bounds and of the log t / t
rate fit that stands in for the asynchronous protocol's bound.

The bounds are driven by the averaging gap ``c = 1 - lambda_2(2)`` of the
expected pair-averaging matrix and by the two data-dependent dispersion
norms carried on the kernel matrix. The guaranteed-upper-bound property is
checked against the exact expectation oracles, never against Monte-Carlo
means.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .graph import Graph
from .expectation import checked_checkpoints
from .kernels import KernelMatrix
from .spectral import SpectralSummary, spectral_summary

__all__ = [
    "BoundReport",
    "AsyncConstants",
    "FitResult",
    "sync_error_bound",
    "u2_error_bound",
    "async_constants",
    "fit_rate",
    "bound_report",
]

@dataclass(frozen=True)
class AsyncConstants:
    """Constants of the asynchronous analysis.

    ``p_bar`` is the minimum per-iteration selection probability min_k d_k/m,
    ``t_c = 1/p_bar`` the expected time for every node to have been selected
    at least once, and ``mu_r(t)`` the contraction modulus
    ``(1 - 1/t) - (beta_{n-1}/(2m)) * (1 - 1/(p_bar t))``.
    """

    p_bar: float
    t_c: float
    mu_r: Callable[[float], float]


@dataclass(frozen=True)
class FitResult:
    """Fit of err(t) ~ K log t / t.

    ``constant`` is the least-squares scale K; ``envelope`` is the smallest
    constant whose curve upper-bounds every fitted point (max of
    err / (log t / t) over the fit window), the empirical substitute for an
    existential bound constant.
    """

    constant: float
    residual: float
    envelope: float = 0.0


@dataclass(frozen=True)
class BoundReport:
    protocol: str
    t_grid: np.ndarray
    actual_err: np.ndarray
    bound_val: np.ndarray
    constants: dict


def _gap(g: Graph, summary: SpectralSummary | None = None) -> SpectralSummary:
    s = summary if summary is not None else spectral_summary(g)
    if s.gap_c <= 0:
        raise ValueError("averaging gap is non-positive; the convergence "
                         "bounds require a connected graph")
    return s


def sync_error_bound(g: Graph, km: KernelMatrix, t: float,
                     summary: SpectralSummary | None = None) -> float:
    """Upper bound on ||E[Z(t)] - u_stat * 1|| for the synchronous protocol.

    Evaluates ``vec/(c t) + (2/(c t) + exp(-c t)) * frob`` with
    ``c = 1 - lambda_2(2)``.
    """
    if t < 1:
        raise ValueError("bound defined for t >= 1")
    s = _gap(g, summary)
    c = s.gap_c
    return (km.vec_centered / (c * t)
            + (2.0 / (c * t) + math.exp(-c * t)) * km.frob_centered)


def u2_error_bound(g: Graph, km: KernelMatrix, t: float,
                   summary: SpectralSummary | None = None) -> float:
    """Upper bound on ||E[Z(t)] - u_stat * 1|| for the double-propagation
    protocol.

    Evaluates ``(sqrt(n)/t) * (2 vec/(1 - l2) + frob/(1 - l2^2))`` with
    ``l2 = lambda_2(1) = 1 - 2c``; the extra sqrt(n) reflects the absence of
    estimate averaging.
    """
    if t < 1:
        raise ValueError("bound defined for t >= 1")
    s = _gap(g, summary)
    lam2 = s.lambda2_of_w1
    one_minus_sq = 1.0 - lam2 * lam2
    if one_minus_sq <= 0:
        raise ValueError("lambda_2(1)^2 >= 1; bound hypotheses violated")
    return (math.sqrt(g.n) / t) * (2.0 * km.vec_centered / (1.0 - lam2)
                                   + km.frob_centered / one_minus_sq)


def async_constants(g: Graph,
                    summary: SpectralSummary | None = None) -> AsyncConstants:
    """Selection-probability constants and the contraction modulus mu_r."""
    s = _gap(g, summary)
    p_bar = float(g.degrees.min()) / g.num_edges

    def mu_r(t: float) -> float:
        return (1.0 - 1.0 / t) - s.gap_c * (1.0 - 1.0 / (p_bar * t))

    return AsyncConstants(p_bar=p_bar, t_c=1.0 / p_bar, mu_r=mu_r)


def fit_rate(ts, errs, model: str) -> FitResult:
    """Least-squares fit of err(t) ~ K * log t / t on a checkpoint grid.

    ``model`` names the rate and must be ``logt_over_t``, the O(log t / t)
    rate of the asynchronous analysis. Only checkpoints with t >= 2 enter
    the fit and at least five are required. When all errors are positive
    the squared error is minimized in log space (uniform relative
    weighting); the residual is the RMS log-space misfit. All-zero errors
    return K = 0.
    """
    if model != "logt_over_t":
        raise ValueError(f"unknown model '{model}'; expected 'logt_over_t'")
    ts = np.asarray(ts, dtype=np.float64)
    errs = np.asarray(errs, dtype=np.float64)
    if ts.shape != errs.shape:
        raise ValueError("ts and errs must have matching shapes")
    keep = ts >= 2
    ts, errs = ts[keep], errs[keep]
    if ts.shape[0] < 5:
        raise ValueError("need at least 5 checkpoints with t >= 2")
    if (errs == 0).all():
        return FitResult(constant=0.0, residual=0.0, envelope=0.0)
    basis = np.log(ts) / ts
    env = float(np.max(errs / basis))
    if (errs > 0).all():
        logk = float(np.mean(np.log(errs) - np.log(basis)))
        k = math.exp(logk)
        resid = float(np.sqrt(np.mean((np.log(errs) - np.log(k * basis)) ** 2)))
    else:
        k = float(errs @ basis / (basis @ basis))
        denom = float(np.linalg.norm(errs))
        resid = float(np.linalg.norm(errs - k * basis) / denom) if denom else 0.0
    return FitResult(constant=k, residual=resid, envelope=env)


def bound_report(g: Graph, km: KernelMatrix, protocol: str,
                 t_grid) -> BoundReport:
    """Exact oracle error together with the matching bound on a time grid:
    ``t_grid`` is taken as given by :func:`checked_checkpoints`, from 1
    with no horizon, and the oracle's curve ends at its last point.

    For a protocol whose record names the :func:`fit_rate` model instead of
    a bound function (the asynchronous protocol, whose theory only asserts
    an O(log t / t) rate with an unconstructed constant), ``bound_val`` is
    the fitted ``K * log t / t``, infinite below t = 2, and the fit constant
    is reported alongside the spectral constants.
    """
    from .engines import PROTOCOLS  # engines imports this module
    t_grid = checked_checkpoints(t_grid, "t_grid", 1)
    proto = PROTOCOLS.get(protocol)
    if proto is None or proto.bound is None:
        raise ValueError(f"no bound available for protocol '{protocol}'")
    s = spectral_summary(g)
    oracle = proto.oracle(g, km, t_grid[-1], t_grid)
    actual = np.array([np.linalg.norm(oracle[t] - km.u_stat) for t in t_grid])
    constants = {
        "gap_c": s.gap_c,
        "lambda2_w2": s.lambda2_of_w2,
        "lambda2_w1": s.lambda2_of_w1,
        "vec_centered": km.vec_centered,
        "frob_centered": km.frob_centered,
    }
    tarr = np.array(t_grid, dtype=np.float64)
    if callable(proto.bound):
        bound = np.array([proto.bound(g, km, t, s) for t in t_grid])
    else:
        ac = async_constants(g, s)
        fit = fit_rate(tarr, actual, proto.bound)
        constants.update(p_bar=ac.p_bar, t_c=ac.t_c, fit_constant=fit.constant,
                         fit_residual=fit.residual)
        bound = np.where(tarr >= 2, fit.constant * np.log(tarr) / tarr, np.inf)
    return BoundReport(protocol=protocol, t_grid=tarr, actual_err=actual,
                       bound_val=bound, constants=constants)
