"""Sequential simulators for every gossip protocol and the two baselines,
and ``PROTOCOLS``, the one ``Protocol`` record per protocol (its runner,
oracle and bound) that the CLI, the bounds and the harness read.

All protocols share the iteration model: one global step draws one edge
uniformly at random (two for the double-propagation protocol). Observations
travel by index; kernel values are looked up in the precomputed kernel
matrix, while communication accounting still charges d units per logical
observation transfer and 1 unit per transmitted scalar estimate. Every
iteration costs the same, so communication after t iterations is
``rate * t``: 2 for boyd, 2d for u1 and flooding, 4d for u2 and 2 + 2d for
both GoSta protocols.

A run is strictly sequential and driven by one seeded random stream: the
edge draws up to the last checkpoint come first, in iteration order, then
flooding's picks, one uniform double each. ``_drive`` walks the segments
between checkpoints, handing each step its edges as Python ints in bounded
chunks. An iteration touches only the 2-4 nodes on its drawn edges, so a
checkpoint copies just the nodes touched since the last one into numpy
mirrors of the per-node state, and snapshots and invariant checks run on
blocks of mirror rows. A run is observed only at its checkpoints: the
per-node state is internal, and its invariants (the auxiliary index lists
stay permutations, the asynchronous activation counts sum to 2t) are
checked at every checkpoint.

- u1, u2 and gosta_sync fold a pair value into every node's running average
  on every iteration. Node k instead keeps ``S_k = t * Z_k``, its current
  pair value ``cur_k`` and the iteration ``last_k`` up to which ``S_k`` is
  complete. An event flushes its nodes (``S_k += cur_k * (t - last_k)``)
  before it averages or swaps; a checkpoint flushes all nodes at once,
  ``Z = (S + cur * (t - last)) / t``. Pairwise averaging acts on S as on Z,
  since both nodes share t. These agree with the eager scalar references to
  rounding (atol 1e-12).
- boyd, gosta_async and flooding keep their state in Python lists and do the
  scalar references' arithmetic in the same order, so their estimates are
  bit-identical to those references.

Identical (graph, kernel, config, seed) inputs produce bit-identical traces.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, NamedTuple

import numpy as np

from .bounds import sync_error_bound, u2_error_bound
from .expectation import (boyd_expectation, checked_checkpoints,
                          gosta_async_expectation, gosta_sync_expectation,
                          u1_expectation, u2_expectation)
from .graph import Graph, warn_if_unsuitable
from .kernels import KernelMatrix, whole

__all__ = [
    "PROTOCOLS", "Protocol", "EngineConfig", "Trace", "RelativeError",
    "InvariantError", "run_boyd", "run_u1", "run_u2", "run_gosta_sync",
    "run_gosta_async", "run_flooding", "run_master_node", "run_protocol",
    "relative_error", "node_errors", "derive_seed",
]


@dataclass(frozen=True)
class EngineConfig:
    """Run parameters for one protocol execution: snapshots at the
    ``checkpoints`` in [0, max_iters] (:func:`checked_checkpoints`, every
    iteration by default), the last of which ends the run and its draws."""

    protocol: str
    max_iters: int
    seed: int = 0
    checkpoints: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol '{self.protocol}'; "
                             f"expected one of {tuple(PROTOCOLS)}")
        object.__setattr__(self, "max_iters",
                           whole(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "checkpoints", checked_checkpoints(
            np.arange(1, self.max_iters + 1) if self.checkpoints is None
            else self.checkpoints, "checkpoints", 0, self.max_iters))


@dataclass
class Trace:
    """Time series of one protocol run.

    ``estimates[k]`` is the per-node snapshot at iteration ``ts[k]``;
    ``comm_units`` is the cumulative communication in scalar units
    (one unit = one observation coordinate). ``truth`` is the exact target:
    the pair average for full-statistic protocols, the sample mean for
    plain averaging, or the per-node partial means (a vector) for the
    single-propagation protocol. ``m_snapshots[k]`` holds the per-node
    iteration estimators of the asynchronous protocol at ``ts[k]``.
    """

    protocol: str
    ts: np.ndarray
    estimates: np.ndarray
    comm_units: np.ndarray
    truth: float | np.ndarray
    m_snapshots: np.ndarray | None = None


@dataclass(frozen=True)
class RelativeError:
    """Across-node error statistics per checkpoint.

    ``absolute`` flags that the truth contains an exact zero, in which case
    the (unnormalized) absolute error is reported instead.
    """

    ts: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    absolute: bool


def derive_seed(base_seed: int, *indices: int) -> int:
    """Fixed splitting function mapping (base_seed, run indices) to a seed;
    all are whole numbers, and the base seed is >= 0."""
    ss = np.random.SeedSequence([whole(base_seed, "seed", 0),
                                 *(whole(i, "seed index") for i in indices)])
    return int(ss.generate_state(1, np.uint64)[0])


class InvariantError(RuntimeError):
    """A protocol invariant failed during a run."""


def _check_permutation(y) -> None:
    """Every row of ``y`` must be a permutation of 0..n-1."""
    if not (np.sort(y, axis=-1) == np.arange(np.shape(y)[-1])).all():
        raise InvariantError("auxiliary index list is no longer a permutation")


# Iterations whose edge draws (and flooding's picks, two per iteration) are
# held as Python numbers at one time, and elements of the (checkpoints x
# nodes) blocks in which snapshots are taken.
_CHUNK = 1024
_BLOCK = 1 << 13


def _drive(g: Graph, cfg: EngineConfig, rng: np.random.Generator, rate: int,
           step, lists, snapshot, perms=(), pairs: bool = False):
    """Run segment by segment to the last checkpoint. The edges of all
    iterations up to it are drawn first; flooding's picks follow.

    ``step(events, t)`` applies the iterations after the t-th, one per item
    of ``events``: the drawn edge ``(i, j)``, or both edges ``(i, j, a, b)``
    for ``pairs``, as Python ints from one flat list per chunk (a list per
    edge would keep the cyclic garbage collector busy). It may change the
    per-node ``lists`` only at those endpoints. ``snapshot(t, *blocks)``
    maps a column of checkpoints and the lists' rows at them to estimates,
    checking invariants of its own; the blocks at positions ``perms`` must
    be permutations in every row. Lists of another length than the graph's
    fail before any edge is drawn. Returns the checkpoints, the snapshots
    and the communication ``rate * t``.
    """
    n, w = g.n, 4 if pairs else 2
    if len(lists[0]) != n:
        raise ValueError(f"graph size {n} does not match sample size "
                         f"{len(lists[0])}")
    warn_if_unsuitable(g, cfg.protocol)
    ts = np.array(cfg.checkpoints, dtype=np.int64)
    last = cfg.checkpoints[-1]
    eidx = rng.integers(0, g.num_edges, size=(last, 2) if pairs else last)
    est = np.empty((len(ts), n))
    # array buffers take single-node writes at list speed, and numpy views
    # of them copy whole rows; a long segment refreshes whole lists
    bufs = [array("d" if isinstance(v[0], float) else "q", v) for v in lists]
    mirrors = [np.asarray(buf) for buf in bufs]
    depth = min(len(ts), max(1, _BLOCK // n))
    stack = [np.empty((depth, n), m.dtype) for m in mirrors]
    k0 = t = a = b = 0
    for k, stop in enumerate(ts.tolist()):
        short = (stop - t) * w < n
        touched: list[int] = []
        while t < stop:
            if t == b:
                a, b = t, min(t + _CHUNK, last)
                ends = g.edges[eidx[a:b]].ravel().tolist()
                events = zip(*[iter(ends)] * w)
            end = min(stop, b)
            step(islice(events, end - t), t)
            if short:
                touched += ends[(t - a) * w:(end - a) * w]
            t = end
        for buf, m, v, rows in zip(bufs, mirrors, lists, stack):
            if short:
                for i in touched:
                    buf[i] = v[i]
            else:
                m[:] = v
            rows[k - k0] = m
        if k + 1 - k0 == depth or k + 1 == len(ts):
            blocks = [rows[:k + 1 - k0] for rows in stack]
            est[k0:k + 1] = snapshot(ts[k0:k + 1, None], *blocks)
            for i in perms:
                _check_permutation(blocks[i])
            k0 = k + 1
    return ts, est, rate * ts


def _lazy_state(h, n: int):
    """Empty running sums S, their completion iterations and the pair values
    of the identity assignment (the zero diagonal of a kernel matrix)."""
    return [0.0] * n, [0] * n, [h[k, k] for k in range(n)]


def _flushed_mean(t, s, last, cur, *aux) -> np.ndarray:
    """Estimates Z = S / t, every node flushed to t (zero at t = 0)."""
    num = np.asarray(s) + np.asarray(cur) * (t - np.asarray(last))
    return np.divide(num, t, out=np.zeros(num.shape), where=t > 0)


def run_boyd(g: Graph, x: np.ndarray, cfg: EngineConfig) -> Trace:
    """Plain randomized averaging: the drawn pair replaces both estimates by
    their midpoint. The estimate sum is invariant; truth is the sample mean."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError("x must hold one value per node")
    z = x.tolist()

    def step(events, t):
        for i, j in events:
            z[i] = z[j] = 0.5 * (z[i] + z[j])

    out = _drive(g, cfg, np.random.default_rng(cfg.seed), 2, step, (z,),
                 lambda t, zm: zm)
    return Trace("boyd", *out, truth=float(x.mean()))


def run_u1(g: Graph, km: KernelMatrix, cfg: EngineConfig) -> Trace:
    """Single-observation propagation without estimate averaging.

    Per iteration: the drawn pair swaps auxiliary observation indices, then
    every node folds its current pair value into a running average. Each node
    converges to its own partial mean, so truth is the row-mean vector.
    """
    h = memoryview(km.dense())
    s, last, cur = _lazy_state(h, km.n)
    y = list(range(km.n))

    def step(events, t):
        for i, j in events:
            # iteration t+1 swaps before it folds: flush i and j to t
            s[i] += cur[i] * (t - last[i])
            s[j] += cur[j] * (t - last[j])
            last[i] = last[j] = t
            y[i], y[j] = y[j], y[i]
            cur[i] = h[i, y[i]]
            cur[j] = h[j, y[j]]
            t += 1

    out = _drive(g, cfg, np.random.default_rng(cfg.seed), 2 * km.dim, step,
                 (s, last, cur, y), _flushed_mean, perms=(3,))
    return Trace("u1", *out, truth=km.row_means.copy())


def run_u2(g: Graph, km: KernelMatrix, cfg: EngineConfig) -> Trace:
    """Double-observation propagation without estimate averaging.

    Per iteration: every node folds the kernel value of its two auxiliary
    observations into a running average, then two independently drawn edges
    swap the first resp. second auxiliaries. Two observation exchanges per
    iteration cost 4d units; there is no estimate exchange.
    """
    h = memoryview(km.dense())
    s, last, cur = _lazy_state(h, km.n)
    y1 = list(range(km.n))
    y2 = list(range(km.n))

    def step(events, t):
        for i, j, a, b in events:
            t += 1
            # fold iteration t before the swaps; a node on both edges is
            # flushed twice, the second time with weight 0
            s[i] += cur[i] * (t - last[i])
            s[j] += cur[j] * (t - last[j])
            last[i] = last[j] = t
            s[a] += cur[a] * (t - last[a])
            s[b] += cur[b] * (t - last[b])
            last[a] = last[b] = t
            y1[i], y1[j] = y1[j], y1[i]
            y2[a], y2[b] = y2[b], y2[a]
            cur[i] = h[y1[i], y2[i]]
            cur[j] = h[y1[j], y2[j]]
            cur[a] = h[y1[a], y2[a]]
            cur[b] = h[y1[b], y2[b]]

    out = _drive(g, cfg, np.random.default_rng(cfg.seed), 4 * km.dim, step,
                 (s, last, cur, y1, y2), _flushed_mean, perms=(3, 4),
                 pairs=True)
    return Trace("u2", *out, truth=km.u_stat)


def run_gosta_sync(g: Graph, km: KernelMatrix, cfg: EngineConfig) -> Trace:
    """Synchronous propagation-plus-averaging protocol.

    Per iteration t: (a) every node folds its current pair value into a
    running average, (b) the drawn pair averages estimates, (c) the same pair
    swaps auxiliary observations. One estimate exchange (2 units) plus one
    observation swap (2d units) per iteration.
    """
    h = memoryview(km.dense())
    s, last, cur = _lazy_state(h, km.n)
    y = list(range(km.n))

    def step(events, t):
        for i, j in events:
            t += 1
            # flush i and j through the fold of iteration t, then average
            s[i] = s[j] = 0.5 * ((s[i] + cur[i] * (t - last[i]))
                                 + (s[j] + cur[j] * (t - last[j])))
            last[i] = last[j] = t
            y[i], y[j] = y[j], y[i]
            cur[i] = h[i, y[i]]
            cur[j] = h[j, y[j]]

    out = _drive(g, cfg, np.random.default_rng(cfg.seed), 2 + 2 * km.dim,
                 step, (s, last, cur, y), _flushed_mean, perms=(3,))
    return Trace("gosta_sync", *out, truth=km.u_stat)


def run_gosta_async(g: Graph, km: KernelMatrix, cfg: EngineConfig) -> Trace:
    """Asynchronous variant: only the drawn pair updates.

    Each selected node first increments its iteration estimator m_k by 1/p_k
    (p_k = d_k / m is its per-iteration selection probability, so E[m_k(t)]
    equals t), the pair averages estimates, then each folds its pair value in
    with weight 1/(p_k m_k) and the pair swaps observations. Since p_k m_k is
    exactly the number of activations of k, the integer activation count is
    used directly, which keeps the first-touch coefficient exactly zero on
    the stale estimate.
    """
    h = memoryview(km.dense())
    p = g.degrees / g.num_edges
    z = [0.0] * km.n
    y = list(range(km.n))
    activations = [0] * km.n
    msnap = np.empty((len(cfg.checkpoints), km.n))
    done = 0

    def step(events, t):
        for i, j in events:
            activations[i] += 1
            activations[j] += 1
            mid = 0.5 * (z[i] + z[j])
            wi = 1.0 / activations[i]
            z[i] = (1.0 - wi) * mid + wi * h[i, y[i]]
            wj = 1.0 / activations[j]
            z[j] = (1.0 - wj) * mid + wj * h[j, y[j]]
            y[i], y[j] = y[j], y[i]

    def snapshot(t, zm, act, ym):
        nonlocal done
        if (act.sum(axis=1) != 2 * t[:, 0]).any():
            raise InvariantError("activation counts no longer sum to 2t")
        np.divide(act, p, out=msnap[done:done + len(t)])
        done += len(t)
        return zm

    out = _drive(g, cfg, np.random.default_rng(cfg.seed), 2 + 2 * km.dim,
                 step, (z, activations, y), snapshot, perms=(2,))
    return Trace("gosta_async", *out, truth=km.u_stat, m_snapshots=msnap)


def run_flooding(g: Graph, km: KernelMatrix, cfg: EngineConfig) -> Trace:
    """Observation-flooding baseline with unbounded node memory.

    Per iteration the drawn pair exchange one uniformly chosen held
    observation each (chosen from the pre-event holdings, duplicates
    discarded on arrival). A node's estimate is the average of its pair
    values over held indices other than itself, or 0 while it holds nothing
    else. Every transfer costs d units whether or not it is a duplicate.
    A pick from c held indices is the one at ``int(u * c)`` (below c, as
    u <= 1 - 2**-53) for the next uniform double u after the edge draws;
    drawn in chunks, the doubles equal one ``rng.random()`` call per pick.
    """
    h = memoryview(km.dense())
    rng = np.random.default_rng(cfg.seed)
    u = chain.from_iterable(iter(lambda: rng.random(2 * _CHUNK).tolist(),
                                 None)).__next__
    held_lists: list[list[int]] = [[v] for v in range(km.n)]
    held_sets: list[set[int]] = [{v} for v in range(km.n)]
    sums = [0.0] * km.n
    counts = [0] * km.n

    def step(events, t):
        for i, j in events:
            hi, hj = held_lists[i], held_lists[j]
            pick_i = hi[int(u() * len(hi))]
            pick_j = hj[int(u() * len(hj))]
            # a node holds its own index from the start, so a new arrival
            # is never the node itself
            if pick_i not in held_sets[j]:
                held_sets[j].add(pick_i)
                hj.append(pick_i)
                sums[j] += h[j, pick_i]
                counts[j] += 1
            if pick_j not in held_sets[i]:
                held_sets[i].add(pick_j)
                hi.append(pick_j)
                sums[i] += h[i, pick_j]
                counts[i] += 1

    def snapshot(t, sm: np.ndarray, cm: np.ndarray) -> np.ndarray:
        return np.divide(sm, cm, out=np.zeros(sm.shape), where=cm > 0)

    out = _drive(g, cfg, rng, 2 * km.dim, step, (sums, counts), snapshot)
    return Trace("flooding", *out, truth=km.u_stat)


def run_master_node(km: KernelMatrix, cfg: EngineConfig) -> Trace:
    """Centralized broadcast baseline, independent of any network topology.

    At t=0 every node uploads its observation (n*d units); at each iteration
    t <= n the master broadcasts observation t to all nodes (n*d units).
    Estimates average pair values over all received indices plus the node's
    own, excluding the zero self-pair. Fully deterministic.
    """
    n, d = km.n, km.dim
    h = km.dense()
    idx = np.arange(n)

    def estimate(b: int) -> np.ndarray:
        # node k holds observations 0..b-1 and its own
        counts = b - (idx < b).astype(np.int64)
        return np.divide(h[:, :b].sum(axis=1), counts, out=np.zeros(n),
                         where=counts > 0)

    ts = np.array(cfg.checkpoints, dtype=np.int64)
    received = np.minimum(ts, n)
    # every checkpoint from t = n on shares b = n
    by_count = {b: estimate(b) for b in set(received.tolist())}
    est = np.array([by_count[b] for b in received.tolist()])
    return Trace("master_node", ts, est, n * d * (1 + received),
                 truth=km.u_stat)


class Protocol(NamedTuple):
    """One protocol: its simulator, expected dynamics and bound.

    ``runner(g, source, cfg)`` runs it on the node values x when
    ``on_values``, else on the kernel matrix, and ignores g unless
    ``on_graph``. ``oracle(g, source, t_max, checkpoints)`` is its exact
    expected dynamics, converging to ``limit(source)``. ``bound`` is its
    analytic bound ``bound(g, km, t, summary)``, or ``"logt_over_t"``, the
    ``fit_rate`` model fitted where the theory gives only a rate.
    """

    runner: Callable[..., Trace]
    on_values: bool = False
    on_graph: bool = True
    oracle: Callable[..., dict[int, np.ndarray]] | None = None
    limit: Callable[..., np.ndarray] | None = None
    bound: Callable[..., float] | str | None = None


def _pair_average(km: KernelMatrix) -> np.ndarray:
    return np.full(km.n, km.u_stat)


PROTOCOLS: dict[str, Protocol] = {
    "boyd": Protocol(run_boyd, on_values=True, oracle=boyd_expectation,
                     limit=lambda x: np.full(len(x), np.mean(x))),
    "u1": Protocol(run_u1, oracle=u1_expectation,
                   limit=lambda km: km.row_means),
    "u2": Protocol(run_u2, oracle=u2_expectation, limit=_pair_average,
                   bound=u2_error_bound),
    "gosta_sync": Protocol(run_gosta_sync, oracle=gosta_sync_expectation,
                           limit=_pair_average, bound=sync_error_bound),
    "gosta_async": Protocol(run_gosta_async, oracle=gosta_async_expectation,
                            limit=_pair_average, bound="logt_over_t"),
    "flooding": Protocol(run_flooding),
    "master_node": Protocol(lambda g, km, cfg: run_master_node(km, cfg),
                            on_graph=False),
}


def run_protocol(cfg: EngineConfig, g: Graph | None = None,
                 km: KernelMatrix | None = None,
                 x: np.ndarray | None = None) -> Trace:
    """Dispatch a run by the protocol named in ``cfg``."""
    proto = PROTOCOLS[cfg.protocol]
    source = x if proto.on_values else km
    if source is None or (proto.on_graph and g is None):
        needs = ("a graph and " if proto.on_graph else "") + (
            "a node-value vector" if proto.on_values else "a kernel matrix")
        raise ValueError(f"{cfg.protocol} needs {needs}")
    return proto.runner(g, source, cfg)


def node_errors(trace: Trace) -> tuple[np.ndarray, bool]:
    """Every node's error |Z_k - truth_k| / |truth_k| at every checkpoint,
    and a flag set when the truth contains an exact zero, in which case the
    unnormalized absolute error is used."""
    truth = np.atleast_1d(np.asarray(trace.truth, dtype=np.float64))
    absolute = bool((truth == 0.0).any())
    diff = np.abs(trace.estimates - truth)
    return (diff if absolute else diff / np.abs(truth)), absolute


def relative_error(trace: Trace) -> RelativeError:
    """Per-checkpoint mean and population std of the :func:`node_errors`."""
    err, absolute = node_errors(trace)
    return RelativeError(ts=trace.ts.copy(), mean=err.mean(axis=1),
                         std=err.std(axis=1), absolute=absolute)
