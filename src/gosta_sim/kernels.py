"""Pairwise kernels, kernel matrices, and the exact estimation targets.

A kernel H is symmetric with H(x, x) = 0. For a sample of n observations the
target statistic is the n^2-normalized pair average

    u_stat = (1/n^2) * sum_ij H(X_i, X_j),

and the per-node partial means are ``row_means[i] = (1/n) * sum_j H_ij``.
The two dispersion norms of :class:`KernelMatrix` (Frobenius norm of the
row-centered matrix, Euclidean norm of the centered row means) are the
data-dependent constants of the convergence bounds.

Every :class:`KernelSpec` is built by one tiled loop into one n x n
float64 buffer. The loop visits each pair of 256 x 256 tiles on and above
the diagonal once and fills the tile in two preallocated tile buffers with
the kernel's ``tile``. The built-in kernels make no BLAS call: the squared
distances ``sum_k (x_ik - x_jk)^2`` by direct differences in coordinate
order (exactly symmetric with a zero diagonal, and free of the cancellation
in ``|x|^2 + |y|^2 - 2 x.y``), then ``sqrt`` and the cell mask
(``scatter``) or ``/ 2`` (``variance``); ``auc`` scores are
``sum_k x[:, k] theta_k`` in coordinate order. Each finished tile is
checked for non-finite values (a diagonal tile also for exact symmetry and
a zero diagonal) while in cache, written with its transpose, and summed
into the row-sum slots, each written by exactly one tile. The row blocks
are split over one thread per available CPU (numpy releases the GIL in its
loops), started and joined within the call, also when it raises. Every sum
has a fixed order, so a built-in kernel's H and its statistics have the
same bits for any thread count, BLAS setting and host. The two dispersion
norms are computed on first access, since only the bounds read them.
:meth:`KernelMatrix.from_dense` is the checked entry for any matrix that
no :class:`KernelSpec` builds; it fills the same slots, so it reproduces a
built matrix's statistics bit for bit. Above ``DENSE_KERNEL_LIMIT``
observations the build fails before it evaluates any pair, naming the
8n^2 bytes the matrix would need.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, product
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

# The kernels that ``build_kernel_matrix`` builds by name.
KERNEL_NAMES = ("variance", "scatter", "auc")


def whole(values, what: str, least: int | None = None):
    """``values`` as int64 (an int of any size if a scalar) when each is a
    whole number, and at least ``least`` if given: ``1e6`` passes; ``12.7``,
    nan, inf, bools, strings and ``[2**63]`` raise ValueError naming ``what``.
    The one whole-number rule of the CSV columns, constructors and specs."""
    a = np.asarray(values)
    flat = a.ravel()
    if a.dtype.kind == "f":
        bad = flat[~(np.isfinite(flat) & (flat == np.round(flat)))].tolist()
    else:  # np.asarray keeps ints beyond int64 as Python objects
        bad = [] if a.dtype.kind in "iu" else [
            v for v in flat.tolist()
            if not (type(v) is int or type(v) is float and v.is_integer())]
    if a.ndim and not isinstance(values, np.ndarray):
        # np.asarray reads a bool among numbers as the number 0 or 1
        bad += [bool(v) for v in np.asarray(values, object).flat
                if isinstance(v, (bool, np.bool_))]
    if bad:
        rule = "be a whole number" if a.ndim == 0 else "hold whole numbers"
        raise ValueError(f"{what} must {rule}, got {bad[0]!r}")
    wide = (flat < -2**63) | (flat >= 2**63)
    if a.ndim and wide.any():  # named as given, not as np.asarray read it
        raise ValueError(f"{what} must fit in int64, got "
                         f"{np.asarray(values, object).flat[wide.argmax()]!r}")
    out = int(values) if a.ndim == 0 else a.astype(np.int64)
    if least is not None and np.any(np.less(out, least)):
        raise ValueError(f"{what} must be >= {least}")
    return out


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
        lab = whole(self.labels, "labels")
        if np.shape(lab) != (self.design.n,):
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
        a = whole(self.assignment, "partition assignment")
        if np.ndim(a) != 1:
            raise ValueError("partition assignment must be one id per row")
        object.__setattr__(self, "assignment", a)
        a.flags.writeable = False


@dataclass(frozen=True)
class KernelSpec:
    """A named pairwise kernel. ``tile(xt, a, b, t, v, m)`` writes
    ``H[a, b]`` (a and b are row slices) into ``t`` from ``xt = x.T``, with
    ``v`` and the boolean ``m`` of the same shape as scratch; see
    :func:`_tiled_build` for the checks on each tile."""

    name: str
    tile: Callable[..., None]


# Row-block height and tile edge of the dense build, checks and statistics:
# every temporary is at most one tile.
_BLOCK = 256


def _spans(n: int) -> list[slice]:
    return [slice(r, min(r + _BLOCK, n)) for r in range(0, n, _BLOCK)]


def _tile(buf: np.ndarray, a: slice, b: slice) -> np.ndarray:
    """The head of the flat ``buf`` as tile ``(a, b)``, contiguous."""
    shape = (a.stop - a.start, b.stop - b.start)
    return buf[:shape[0] * shape[1]].reshape(shape)


def _fill_slots(slots: np.ndarray, spans: list[slice], i: int, j: int,
                t: np.ndarray) -> None:
    """Sums of tile ``t = H[spans[i], spans[j]]``, i <= j, into the slots:
    ``slots[k, r]`` is the sum of row r over column block k. The row sums
    fill ``slots[j, spans[i]]``; off the diagonal the column sums (the row
    sums of tile (j, i)) fill ``slots[i, spans[j]]``."""
    t.sum(axis=1, out=slots[j, spans[i]])
    if i != j:
        t.sum(axis=0, out=slots[i, spans[j]])


def _tiled_build(x: np.ndarray, kernel: KernelSpec):
    """The kernel matrix of the n observations ``x`` and its row-sum slots,
    a pair of tiles at a time by ``kernel.tile``. Each tile must be finite,
    and a diagonal one exactly symmetric with a zero diagonal (else
    ValueError); it is checked in cache, written to ``h[a, b]`` and
    transposed to ``h[b, a]``, and summed into the slots. Row blocks go to
    the threads of :func:`parallel.on_threads`, each with its own buffers."""
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    spans = _spans(n)
    h = np.empty((n, n))
    slots = np.empty((len(spans), n))

    def fill(blocks) -> None:
        # Flat buffers, so that every tile view is contiguous; ufuncs with a
        # strided boolean ``out`` are slower, and numpy 2.4's ``isfinite``
        # writes wrong values into an (r, 1) strided one.
        buf = np.empty((2, min(_BLOCK, n) ** 2))
        mask = np.empty(buf.shape[1], dtype=bool)
        for i in blocks:
            a = spans[i]
            for j in range(i, len(spans)):
                b = spans[j]
                t, v, m = (_tile(z, a, b) for z in (*buf, mask))
                kernel.tile(xt, a, b, t, v, m)
                if not np.isfinite(t, out=m).all():
                    raise ValueError(f"kernel '{kernel.name}' produced "
                                     "non-finite values")
                if i == j and (np.not_equal(t, t.T, out=m).any()
                               or np.diagonal(t).any()):
                    raise ValueError("kernel tile is not symmetric with a "
                                     "zero diagonal")
                h[a, b] = t
                if i != j:
                    h[b, a] = t.T
                _fill_slots(slots, spans, i, j, t)

    parallel.on_threads(fill, len(spans))
    return h, slots


def _sq_dist_tile(xt: np.ndarray, a: slice, b: slice, t: np.ndarray,
                  v: np.ndarray) -> None:
    """Tile ``(a, b)`` of ``sum_k (x_ik - x_jk)^2`` in coordinate order into
    ``t``. ``(x - y)^2`` equals ``(y - x)^2``, so the squared distances are
    exactly symmetric with a zero diagonal."""
    np.subtract(xt[0, a, None], xt[0, b], out=t)
    np.multiply(t, t, out=t)
    for row in xt[1:]:
        np.subtract(row[a, None], row[b], out=v)
        np.multiply(v, v, out=v)
        np.add(t, v, out=t)


def scatter_kernel(partition: Partition) -> KernelSpec:
    """Within-cluster point scatter: Euclidean distance for same-cell pairs,
    zero across cells."""
    cells = partition.assignment

    def tile(xt, a, b, t, v, m):
        if len(cells) != xt.shape[1]:
            raise ValueError("partition size does not match the sample size")
        _sq_dist_tile(xt, a, b, t, v)
        np.sqrt(t, out=t)
        np.multiply(t, np.equal(cells[a, None], cells[b], out=m), out=t)

    return KernelSpec("scatter", tile)


def _scores(xt: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Scores ``x @ theta`` from ``xt = x.T`` as ``sum_k xt[k] * theta[k]``
    in coordinate order: no BLAS call, so no dependence on its threads."""
    if theta.shape != (xt.shape[0],):
        raise ValueError("theta must hold one weight per coordinate")
    s = xt[0] * theta[0]
    for k in range(1, xt.shape[0]):
        s += xt[k] * theta[k]
    return s


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

    def tile(xt, a, b, t, v, m):
        if len(lab) != xt.shape[1]:
            raise ValueError("label count does not match the sample size")
        # every value is 0, 1 or 2, and l_i s_i > -l_j s_j exactly when
        # l_j s_j > -l_i s_i, so the matrix is exactly symmetric
        ls_a, ls_b = (lab[s] * _scores(xt[:, s], theta) for s in (a, b))
        np.multiply.outer(lab[a], lab[b], out=t, casting="unsafe")
        np.subtract(1.0, t, out=t)
        np.multiply(t, np.greater(ls_a[:, None], -ls_b, out=m), out=t)

    return KernelSpec("auc", tile)


def variance_kernel() -> KernelSpec:
    """H(x, y) = ||x - y||^2 / 2, whose pair average is the biased sample
    variance (1/n) * sum_i ||X_i - mean||^2."""

    def tile(xt, a, b, t, v, m):
        _sq_dist_tile(xt, a, b, t, v)
        np.divide(t, 2.0, out=t)

    return KernelSpec("variance", tile)


@dataclass(frozen=True)
class KernelMatrix:
    """Kernel matrix with the exact targets and dispersion norms.

    ``H`` is the dense, read-only n x n matrix. ``dim`` is the dimension of
    the underlying observations, used for communication-cost accounting.
    The row sums are the slots (:func:`_fill_slots`) added over the column
    blocks. The dispersion norms, which only the bounds read, are computed
    on first access and cached.
    """

    n: int
    dim: int
    u_stat: float
    row_means: np.ndarray
    H: np.ndarray

    def dense(self) -> np.ndarray:
        return self.H

    @cached_property
    def frob_centered(self) -> float:
        """Frobenius norm of the row-centered matrix: ``math.fsum`` of the
        squares of each tile, reduced by ``np.add.reduce`` in one buffer."""
        spans = _spans(self.n)
        buf = np.empty(min(_BLOCK, self.n) ** 2)
        sums = []
        for a, b in product(spans, repeat=2):
            c = _tile(buf, a, b)
            np.subtract(self.H[a, b], self.row_means[a, None], out=c)
            np.multiply(c, c, out=c)
            sums.append(np.add.reduce(c, axis=None))
        return math.sqrt(math.fsum(sums))

    @cached_property
    def vec_centered(self) -> float:
        """Euclidean norm of the centered row means, by ``math.fsum``."""
        return math.sqrt(math.fsum(np.square(self.row_means - self.u_stat)))

    @classmethod
    def from_dense(cls, h: np.ndarray, dim: int = 1) -> "KernelMatrix":
        """The entry for a matrix that no :class:`KernelSpec` builds: ``h``
        must be square, finite, exactly symmetric and zero on the diagonal
        (else ValueError). A float64 ``h`` is held as it is and made
        read-only. ``dim``, the observation dimension, sets the engines'
        communication units: ``dim`` per observation transfer."""
        h = np.asarray(h, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("kernel matrix must be square")
        n = h.shape[0]
        if not all(np.isfinite(h[s]).all() for s in _spans(n)):
            raise ValueError("kernel matrix contains non-finite values")
        spans = _spans(n)
        slots = np.empty((len(spans), n))
        for i, j in combinations_with_replacement(range(len(spans)), 2):
            t = h[spans[i], spans[j]]
            if (t != h[spans[j], spans[i]].T).any():
                raise ValueError("kernel matrix must be exactly symmetric")
            _fill_slots(slots, spans, i, j, t)
        if np.diagonal(h).any():
            raise ValueError("kernel diagonal must be exactly zero")
        return cls._from_checked(h, slots, dim)

    @classmethod
    def _from_checked(cls, h: np.ndarray, slots: np.ndarray,
                      dim: int) -> "KernelMatrix":
        n = h.shape[0]
        row_sums = slots.sum(axis=0)
        row_means = row_sums / n
        h.flags.writeable = row_means.flags.writeable = False
        return cls(n=n, dim=dim, u_stat=float(row_sums.sum() / n**2),
                   row_means=row_means, H=h)


def build_kernel_matrix(kernel, data,
                        partition: Partition | None = None) -> KernelMatrix:
    """Construct a :class:`KernelMatrix` for the given kernel and data.

    ``kernel`` may be a :class:`KernelSpec` or one of the names "variance",
    "scatter" (needs ``partition``) or "auc" (needs a :class:`LabeledDataset`;
    the scoring direction defaults to the difference of the class means).
    Raises ValueError above ``DENSE_KERNEL_LIMIT`` observations, before any
    pair is evaluated, and when a tile fails its checks.
    """
    if isinstance(kernel, str):
        kernel = _resolve_named_kernel(kernel, data, partition)
    if isinstance(data, LabeledDataset):
        design = data.design
    elif isinstance(data, DesignMatrix):
        design = data
    else:
        raise TypeError("data must be a DesignMatrix or LabeledDataset")
    n = design.n
    if n > DENSE_KERNEL_LIMIT:
        raise ValueError(
            f"kernel matrix for n={n} would need {8 * n * n:,} bytes "
            f"(8 n^2) as a dense float64 array; the limit is "
            f"n <= {DENSE_KERNEL_LIMIT}")
    h, slots = _tiled_build(design.rows, kernel)
    return KernelMatrix._from_checked(h, slots, design.d)


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
    raise ValueError(f"unknown kernel '{name}' (expected "
                     f"{', '.join(KERNEL_NAMES[:-1])} or {KERNEL_NAMES[-1]})")


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
    ls = lab * _scores(ds.design.rows.T, theta)
    numer = ((1.0 - np.outer(lab, lab)) * (ls[:, None] > -ls[None, :])).sum()
    return float(numer / (4.0 * ds.n_pos * ds.n_neg))


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _read_csv(path: str | Path) -> np.ndarray:
    """The rows of a float CSV, without its header if it has one; a row of
    another length or a value that is no number is named by its line."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"dataset file not found: {p}")
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ValueError(f"{p}: empty dataset file")
    if not all(map(_is_number, rows[0][1])):  # a header
        rows = rows[1:]
    if not rows:
        raise ValueError(f"{p}: no data rows")
    for line, row in rows:
        if len(row) != len(rows[0][1]):
            raise ValueError(f"{p}: line {line} has {len(row)} values, "
                             f"the first data row {len(rows[0][1])}")
        for v in row:
            if not _is_number(v):
                raise ValueError(f"{p}: line {line}: {v!r} is not a number")
    return np.array([[float(v) for v in row] for _, row in rows])


def _split_column(path, col: int, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The other columns of a float CSV, and its column ``col`` (negative:
    from the end) as int64, if all its values are whole numbers."""
    arr = _read_csv(path)
    ncols = arr.shape[1]
    if ncols < 2:
        raise ValueError(f"{path}: needs a {name} column and another one")
    c = col if col >= 0 else ncols + col
    if not 0 <= c < ncols:
        raise ValueError(f"{path}: {name} column {col} out of range")
    return (np.delete(arr, c, axis=1),
            whole(arr[:, c], f"{path}: {name} column {c}"))


def load_design_csv(path: str | Path) -> DesignMatrix:
    """Plain float CSV, one observation per row; optional header."""
    return DesignMatrix(_read_csv(path))


def load_labeled_csv(path: str | Path) -> LabeledDataset:
    """Float CSV whose final column is the label (-1/+1)."""
    feat, labels = _split_column(path, -1, "label")
    return LabeledDataset(DesignMatrix(feat), labels)


def load_partitioned_csv(path: str | Path,
                         cell_column: int = -1) -> tuple[DesignMatrix, Partition]:
    """Float CSV with one integer cell-id column (default: the last)."""
    feat, cells = _split_column(path, cell_column, "cell")
    return DesignMatrix(feat), Partition(cells)


def write_design_csv(path: str | Path, x: np.ndarray,
                     extra_column: np.ndarray | None = None) -> None:
    """Write observations (plus an optional whole-number label/cell column)."""
    if extra_column is not None:
        extra_column = whole(extra_column, "extra column")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        for i in range(x.shape[0]):
            row = [format(v, ".17g") for v in x[i]]
            if extra_column is not None:
                row.append(str(extra_column[i]))
            writer.writerow(row)
