"""Pairwise kernels, kernel matrices, and the exact estimation targets.

A kernel H is symmetric with H(x, x) = 0. For a sample of n observations the
target statistic is the n^2-normalized pair average

    u_stat = (1/n^2) * sum_ij H(X_i, X_j),

and the per-node partial means are ``row_means[i] = (1/n) * sum_j H_ij``.
The two dispersion norms carried on :class:`KernelMatrix` (Frobenius norm of
the row-centered matrix, Euclidean norm of the centered row means) are the
data-dependent constants of the convergence bounds.

Every built-in kernel is built by one tiled loop into one n x n float64
buffer. For the squared-distance kernels the buffer first takes the Gram
matrix from a single ``x @ x.T``: numpy runs it through syrk, and products of
row blocks differ from it in the last bits, so it is not split. The loop
then visits each pair of 256 x 256 tiles on and above the diagonal once and
does the kernel's elementwise arithmetic there, in the order of the
whole-matrix expressions (for ``scatter``: ``2G``, ``sq_i + sq_j - 2G``,
clip at 0, ``(T_ab + T_ba.T) / 2``, zero diagonal, ``sqrt``, cell mask), in
preallocated tile buffers. It checks the finished tile for non-finite values
(and a diagonal tile for exact symmetry and a zero diagonal) while it is in
cache, then writes it and its transpose. ``H``, the row sums and
``u_stat`` (one flat sum) are bit-identical to the whole-matrix
expressions. The tiles' row blocks, and then the row sums, are split
round-robin over one thread per available CPU (numpy releases the GIL
inside its loops); the threads are started and joined within the call,
also when it raises. The centered Frobenius norm takes one ``vdot`` per
row block, in one reused block buffer in the calling thread: a second
thread would need a second n x 256 buffer. :meth:`KernelMatrix.from_dense`
is the checked entry for any other matrix, such as a custom
:class:`KernelSpec`'s. Above ``DENSE_KERNEL_LIMIT`` observations the build
fails before it evaluates any pair, naming the 8n^2 bytes the matrix would
need.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import parallel

__all__ = [
    "DesignMatrix",
    "LabeledDataset",
    "Partition",
    "KernelSpec",
    "KernelMatrix",
    "build_kernel_matrix",
    "scatter_kernel",
    "auc_kernel",
    "variance_kernel",
    "auc_value",
    "mean_difference_direction",
    "load_design_csv",
    "load_labeled_csv",
    "load_partitioned_csv",
    "write_design_csv",
]

# Largest sample whose kernel matrix is built: 8 n^2 bytes, 128 MB at 4000.
DENSE_KERNEL_LIMIT = 4000


@dataclass(frozen=True)
class DesignMatrix:
    """n observation vectors of identical dimension d, all entries finite."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rows, dtype=np.float64)
        if r.ndim != 2:
            raise ValueError("design matrix must be 2-dimensional (n, d)")
        if r.shape[0] < 2:
            raise ValueError(f"need at least 2 observations, got {r.shape[0]}")
        if r.shape[1] < 1:
            raise ValueError("observation dimension must be >= 1")
        if not np.isfinite(r).all():
            raise ValueError("design matrix contains non-finite entries")
        object.__setattr__(self, "rows", r)
        r.flags.writeable = False

    @property
    def n(self) -> int:
        return int(self.rows.shape[0])

    @property
    def d(self) -> int:
        return int(self.rows.shape[1])


@dataclass(frozen=True)
class LabeledDataset:
    """Design matrix with one label in {-1, +1} per row."""

    design: DesignMatrix
    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels, dtype=np.int64)
        if lab.shape != (self.design.n,):
            raise ValueError("labels must be one value per observation")
        if not np.isin(lab, (-1, 1)).all():
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "labels", lab)
        lab.flags.writeable = False

    @property
    def n_pos(self) -> int:
        return int((self.labels == 1).sum())

    @property
    def n_neg(self) -> int:
        return int((self.labels == -1).sum())


@dataclass(frozen=True)
class Partition:
    """Cell assignment per observation; cell ids are arbitrary integers."""

    assignment: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("partition assignment must be one id per row")
        object.__setattr__(self, "assignment", a)
        a.flags.writeable = False

    @property
    def n(self) -> int:
        return int(self.assignment.shape[0])


@dataclass(frozen=True)
class KernelSpec:
    """A named pairwise kernel.

    ``matrix_fn`` builds the dense n x n kernel matrix from the observation
    array, exactly symmetric with a zero diagonal.
    """

    name: str
    matrix_fn: Callable[[np.ndarray], np.ndarray]


class _TiledKernel(KernelSpec):
    """A built-in kernel: ``matrix_fn`` is the tiled build, which checks its
    output tile by tile, so the build skips the checks of ``from_dense``."""


# Row-block height and tile edge of the dense build and checks: temporaries
# are one tile, or one block (at most _BLOCK x n) of the row statistics.
_BLOCK = 256


def _spans(n: int) -> list[slice]:
    return [slice(r, min(r + _BLOCK, n)) for r in range(0, n, _BLOCK)]


def _tile_pairs(n: int):
    """Slice pairs ``(a, b)`` of the tiles on and above the diagonal."""
    spans = _spans(n)
    for i, a in enumerate(spans):
        for b in spans[i:]:
            yield a, b


class _NonFiniteError(ValueError):
    """A dense kernel matrix holds a NaN or an infinity."""


def _all_finite(h: np.ndarray) -> bool:
    return all(np.isfinite(h[s]).all() for s in _spans(h.shape[0]))


def _tiled_matrix(h: np.ndarray, tile) -> np.ndarray:
    """Fill ``h`` with a kernel matrix, one pair of tiles at a time.

    ``tile(a, b, t, u, v, m)`` writes tile ``(a, b)`` of the matrix into
    ``t``; ``u`` (the shape of tile ``(b, a)``), ``v`` and the boolean ``m``
    are scratch. It may read ``h[a, b]`` and ``h[b, a]``, which no other
    pair touches, so ``h`` may hold the tile's input (the Gram matrix).
    Each finished tile is checked while in cache, then written to
    ``h[a, b]`` and its transpose to ``h[b, a]``. Row blocks go round-robin
    to the threads of :func:`parallel.on_threads`, each with its own
    buffers.
    """
    spans = _spans(h.shape[0])

    def fill(blocks: range) -> None:
        # Flat buffers, so that every tile view is contiguous; ufuncs with a
        # strided boolean ``out`` are slower, and numpy 2.4's ``isfinite``
        # writes wrong values into an (r, 1) strided one.
        buf = np.empty((3, _BLOCK * _BLOCK))
        mask = np.empty(_BLOCK * _BLOCK, dtype=bool)
        for i in blocks:
            a = spans[i]
            for b in spans[i:]:
                ra, rb = a.stop - a.start, b.stop - b.start
                t = buf[0, :ra * rb].reshape(ra, rb)
                u = buf[1, :ra * rb].reshape(rb, ra)
                v = buf[2, :ra * rb].reshape(ra, rb)
                m = mask[:ra * rb].reshape(ra, rb)
                tile(a, b, t, u, v, m)
                if not np.isfinite(t, out=m).all():
                    raise _NonFiniteError(
                        "kernel matrix contains non-finite values")
                if a is b and (np.not_equal(t, t.T, out=m).any()
                               or np.diagonal(t).any()):
                    raise ValueError("kernel tile is not symmetric with a "
                                     "zero diagonal")
                h[a, b] = t
                if a is not b:
                    h[b, a] = t.T

    parallel.on_threads(fill, len(spans))
    return h


def _symmetrize_tile(a: slice, b: slice, t: np.ndarray,
                     u: np.ndarray) -> None:
    """``t <- (t + u.T) / 2`` for tiles ``t = T[a, b]`` and ``u = T[b, a]``,
    then a zero diagonal on the diagonal tiles."""
    np.add(t, u.T, out=t)
    np.divide(t, 2.0, out=t)
    if a is b:
        np.fill_diagonal(t, 0.0)


def _sq_dist_tile(g: np.ndarray, sq: np.ndarray, a: slice, b: slice,
                  t: np.ndarray, u: np.ndarray, v: np.ndarray) -> None:
    """Tile ``(a, b)`` of the squared distances ``(sq_i + sq_j) - 2 G_ij``,
    clipped at 0, symmetrized and with a zero diagonal, into ``t``."""
    np.add(sq[a, None], sq[b], out=v)
    np.multiply(g[a, b], 2.0, out=t)
    np.subtract(v, t, out=t)
    np.maximum(t, 0.0, out=t)
    np.multiply(g[b, a], 2.0, out=u)
    np.subtract(v.T, u, out=u)
    np.maximum(u, 0.0, out=u)
    _symmetrize_tile(a, b, t, u)


def _sq_dist_matrix(x: np.ndarray, finish) -> np.ndarray:
    """Squared-distance kernel matrix, ``finish(a, b, t, m)`` applied to
    each tile (``m`` is boolean scratch). The Gram matrix is one ``x @ x.T``
    (numpy's syrk) written into the result buffer: products of row blocks
    differ from it in the last bits."""
    sq = np.einsum("ij,ij->i", x, x)
    g = np.matmul(x, x.T, out=np.empty((x.shape[0], x.shape[0])))

    def tile(a, b, t, u, v, m):
        _sq_dist_tile(g, sq, a, b, t, u, v)
        finish(a, b, t, m)

    return _tiled_matrix(g, tile)


def scatter_kernel(partition: Partition) -> KernelSpec:
    """Within-cluster point scatter: Euclidean distance for same-cell pairs,
    zero across cells."""
    cells = partition.assignment

    def finish(a, b, t, m):
        np.sqrt(t, out=t)
        np.multiply(t, np.equal(cells[a, None], cells[b], out=m), out=t)

    return _TiledKernel("scatter", lambda x: _sq_dist_matrix(x, finish))


def auc_kernel(theta: np.ndarray, labels: np.ndarray) -> KernelSpec:
    """Raw ranking kernel of a linear scorer.

    ``H_ij = (1 - l_i l_j) * 1{ l_i s_i > -l_j s_j }`` with scores
    ``s = X theta``; ties count as zero (strict inequality). The pair average
    ``u_stat`` of this kernel rescaled by ``n^2 / (4 n_pos n_neg)`` equals
    :func:`auc_value`. The rescaling is applied outside the protocols so the
    protocol layer stays kernel-agnostic.
    """
    theta = np.asarray(theta, dtype=np.float64)
    lab = np.asarray(labels, dtype=np.int64)

    def matrix_fn(x: np.ndarray) -> np.ndarray:
        ls = lab * (x @ theta)
        neg = -ls

        def tile(a, b, t, u, v, m):
            # t = H[a, b] and v = H[b, a].T; every value is 0, 1 or 2, so
            # the order of the exact products and sums does not matter
            np.multiply.outer(lab[a], lab[b], out=t, casting="unsafe")
            np.subtract(1.0, t, out=t)
            np.copyto(v, t)
            np.multiply(t, np.greater(ls[a, None], neg[b], out=m), out=t)
            np.multiply(v, np.less(neg[a, None], ls[b], out=m), out=v)
            # already symmetric; enforce exact bit equality
            _symmetrize_tile(a, b, t, v.T)

        n = ls.shape[0]
        return _tiled_matrix(np.empty((n, n)), tile)

    return _TiledKernel("auc", matrix_fn)


def variance_kernel() -> KernelSpec:
    """H(x, y) = ||x - y||^2 / 2, whose pair average is the biased sample
    variance (1/n) * sum_i ||X_i - mean||^2."""

    def finish(a, b, t, m):
        np.divide(t, 2.0, out=t)

    return _TiledKernel("variance", lambda x: _sq_dist_matrix(x, finish))


def _row_statistics(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Row means and the Frobenius norm of the row-centered matrix, one row
    block at a time. The row sums are split over threads as in the build;
    the norm takes one ``vdot`` per centered block, whose bits depend on the
    block, in one reused block buffer, so it runs in this thread alone."""
    n = h.shape[0]
    spans = _spans(n)
    row_means = np.empty(n)

    def sums(blocks: range) -> None:
        for i in blocks:
            np.divide(h[spans[i]].sum(axis=1), n, out=row_means[spans[i]])

    parallel.on_threads(sums, len(spans))
    c = np.empty((min(_BLOCK, n), n))
    frob_sq = 0.0
    for s in spans:
        cs = c[:s.stop - s.start]
        np.subtract(h[s], row_means[s, None], out=cs)
        frob_sq += float(np.vdot(cs, cs))
    return row_means, float(np.sqrt(frob_sq))


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel matrix with the exact targets and dispersion norms.

    ``H`` is the dense, read-only n x n matrix. ``dim`` is the dimension of
    the underlying observations, used for communication-cost accounting.
    """

    n: int
    dim: int
    u_stat: float
    row_means: np.ndarray
    frob_centered: float
    vec_centered: float
    H: np.ndarray

    def dense(self) -> np.ndarray:
        return self.H

    @classmethod
    def from_dense(cls, h: np.ndarray, dim: int = 1) -> "KernelMatrix":
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("kernel matrix must be square")
        n = h.shape[0]
        if not _all_finite(h):
            raise _NonFiniteError("kernel matrix contains non-finite values")
        if any((h[a, b] != h[b, a].T).any() for a, b in _tile_pairs(n)):
            raise ValueError("kernel matrix must be exactly symmetric")
        if np.diagonal(h).any():
            raise ValueError("kernel diagonal must be exactly zero")
        return cls._from_checked(h, dim)

    @classmethod
    def _from_checked(cls, h: np.ndarray, dim: int) -> "KernelMatrix":
        n = h.shape[0]
        u = float(h.sum() / n**2)
        row_means, frob = _row_statistics(h)
        vec = float(np.linalg.norm(row_means - u))
        h.flags.writeable = False
        return cls(n=n, dim=dim, u_stat=u, row_means=row_means,
                   frob_centered=frob, vec_centered=vec, H=h)


def build_kernel_matrix(kernel, data,
                        partition: Partition | None = None) -> KernelMatrix:
    """Construct a :class:`KernelMatrix` for the given kernel and data.

    ``kernel`` may be a :class:`KernelSpec` or one of the names "variance",
    "scatter" (needs ``partition``) or "auc" (needs a :class:`LabeledDataset`;
    the scoring direction defaults to the difference of the class means).
    Raises ValueError above ``DENSE_KERNEL_LIMIT`` observations, before any
    pair is evaluated.
    """
    if isinstance(kernel, str):
        kernel = _resolve_named_kernel(kernel, data, partition)
    if isinstance(data, LabeledDataset):
        design = data.design
    elif isinstance(data, DesignMatrix):
        design = data
    else:
        raise TypeError("data must be a DesignMatrix or LabeledDataset")
    if kernel.name == "scatter" and partition is not None \
            and partition.n != design.n:
        raise ValueError("partition size does not match the sample size")
    n = design.n
    if n > DENSE_KERNEL_LIMIT:
        raise ValueError(
            f"kernel matrix for n={n} would need {8 * n * n:,} bytes "
            f"(8 n^2) as a dense float64 array; the limit is "
            f"n <= {DENSE_KERNEL_LIMIT}")
    try:
        h = kernel.matrix_fn(design.rows)
        if isinstance(kernel, _TiledKernel):
            return KernelMatrix._from_checked(h, design.d)
        return KernelMatrix.from_dense(h, dim=design.d)
    except _NonFiniteError:
        raise ValueError(f"kernel '{kernel.name}' produced non-finite "
                         "values") from None


def _resolve_named_kernel(name: str, data, partition: Partition | None) -> KernelSpec:
    if name == "variance":
        return variance_kernel()
    if name == "scatter":
        if partition is None:
            raise ValueError("the scatter kernel requires a partition")
        return scatter_kernel(partition)
    if name == "auc":
        if not isinstance(data, LabeledDataset):
            raise ValueError("the auc kernel requires labeled data")
        theta = mean_difference_direction(data)
        return auc_kernel(theta, data.labels)
    raise ValueError(f"unknown kernel '{name}' (expected variance, scatter or auc)")


def mean_difference_direction(ds: LabeledDataset) -> np.ndarray:
    """Difference between the positive and negative class means."""
    if ds.n_pos == 0 or ds.n_neg == 0:
        raise ValueError("both classes must be present")
    x = ds.design.rows
    return x[ds.labels == 1].mean(axis=0) - x[ds.labels == -1].mean(axis=0)


def auc_value(theta: np.ndarray, ds: LabeledDataset) -> float:
    """Pairwise ranking score of the linear classifier ``theta`` in [0, 1].

    Counts ordered pairs (i, j) with ``l_i (theta^T X_i) > -l_j (theta^T X_j)``
    weighted by ``1 - l_i l_j``, normalized by ``4 n_pos n_neg``. Ties count
    as zero.
    """
    if ds.n_pos == 0 or ds.n_neg == 0:
        raise ValueError("AUC requires at least one observation of each class")
    theta = np.asarray(theta, dtype=np.float64)
    lab = ds.labels
    ls = lab * (ds.design.rows @ theta)
    numer = ((1.0 - np.outer(lab, lab)) * (ls[:, None] > -ls[None, :])).sum()
    return float(numer / (4.0 * ds.n_pos * ds.n_neg))


def _sniff_header(first_row: list[str]) -> bool:
    try:
        for tok in first_row:
            float(tok)
        return False
    except ValueError:
        return True


def _read_csv_rows(path: str | Path) -> list[list[str]]:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset file not found: {p}")
    with open(p, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{p}: empty dataset file")
    if _sniff_header(rows[0]):
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{p}: no data rows")
    return rows


def load_design_csv(path: str | Path) -> DesignMatrix:
    """Plain float CSV, one observation per row; optional header."""
    rows = _read_csv_rows(path)
    return DesignMatrix(np.array([[float(v) for v in r] for r in rows]))


def load_labeled_csv(path: str | Path) -> LabeledDataset:
    """Float CSV whose final column is the label (-1/+1)."""
    rows = _read_csv_rows(path)
    arr = np.array([[float(v) for v in r] for r in rows])
    if arr.shape[1] < 2:
        raise ValueError(f"{path}: labeled data needs at least 2 columns")
    return LabeledDataset(DesignMatrix(arr[:, :-1]),
                          arr[:, -1].astype(np.int64))


def load_partitioned_csv(path: str | Path,
                         cell_column: int = -1) -> tuple[DesignMatrix, Partition]:
    """Float CSV with one integer cell-id column (default: the last)."""
    rows = _read_csv_rows(path)
    arr = np.array([[float(v) for v in r] for r in rows])
    ncols = arr.shape[1]
    if ncols < 2:
        raise ValueError(f"{path}: partitioned data needs at least 2 columns")
    col = cell_column if cell_column >= 0 else ncols + cell_column
    if not 0 <= col < ncols:
        raise ValueError(f"{path}: cell column {cell_column} out of range")
    feat = np.delete(arr, col, axis=1)
    return DesignMatrix(feat), Partition(arr[:, col].astype(np.int64))


def write_design_csv(path: str | Path, x: np.ndarray,
                     extra_column: np.ndarray | None = None) -> None:
    """Write observations (plus an optional trailing label/cell column)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i in range(x.shape[0]):
            row = [format(v, ".17g") for v in x[i]]
            if extra_column is not None:
                row.append(str(int(extra_column[i]))
                           if float(extra_column[i]).is_integer()
                           else format(extra_column[i], ".17g"))
            writer.writerow(row)
