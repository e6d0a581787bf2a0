"""Independent slow reference implementations used as test oracles.

Everything here is written scalar-first and straight from the protocol
definitions, deliberately sharing no code with the package internals; the
exceptions, ``loop_gosta_async_expectation`` and the dense spectra after
``brute_force_w_alpha``, say why.
The reference engines consume the random stream in the same order as the
production engines (one block of edge draws up front), so traces can be
compared run-for-run.
"""

import numpy as np

from gosta_sim.graph import laplacian


def bfs_connected(n, edges):
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def ref_sweep(g):
    """(connected, bipartite) by a depth-first 2-colouring over Python
    adjacency lists and an int8 colour array: the vertex-by-vertex
    counterpart of ``graph.diagnose``'s level passes over the edge array."""
    adj = [[] for _ in range(g.n)]
    for a, b in g.edges:
        adj[int(a)].append(int(b))
        adj[int(b)].append(int(a))
    color = np.full(g.n, -1, dtype=np.int8)
    bipartite = True
    components = 0
    for start in range(g.n):
        if color[start] >= 0:
            continue
        components += 1
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    bipartite = False
    return components == 1, bipartite


def ref_levels(g):
    """(level, adjacency) by a queue over Python adjacency sets: each
    vertex's breadth-first distance from its component's root, the first
    root the lowest-indexed vertex of largest degree and each later one the
    lowest unseen vertex, the roots ``graph.diagnose`` sweeps from."""
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges.tolist():
        adj[a].add(b)
        adj[b].add(a)
    level = [-1] * g.n
    for root in [max(range(g.n), key=lambda v: len(adj[v])), *range(g.n)]:
        if level[root] >= 0:
            continue
        level[root] = 0
        queue = [root]
        for v in queue:
            for u in adj[v]:
                if level[u] < 0:
                    level[u] = level[v] + 1
                    queue.append(u)
    return level, adj


def brute_force_w_alpha(g, alpha):
    """Edge-average of the per-edge pairwise averaging matrices."""
    n = g.n
    acc = np.zeros((n, n))
    for a, b in g.edges:
        event = np.eye(n)
        v = np.zeros(n)
        v[a], v[b] = 1.0, -1.0
        event -= np.outer(v, v) / alpha
        acc += event
    return acc / g.num_edges


# Dense spectra through the package's Laplacian, which the package itself
# no longer reads: its beta_{n-1} comes from one iterative solve.

def w_alpha(g, alpha):
    """Expected one-event transition matrix with averaging weight 1/alpha.

    Symmetric and doubly stochastic; equals ``I - L/(alpha*m)``.
    """
    if alpha < 1.0:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    m = g.num_edges
    if m == 0:
        raise ValueError("w_alpha is undefined on a graph with no edges")
    return np.eye(g.n) - laplacian(g) / (alpha * m)


def laplacian_spectrum(g):
    """Real Laplacian eigenvalues sorted in decreasing order.

    The multiplicity of the eigenvalue 0 equals the number of connected
    components.
    """
    eigs = np.linalg.eigvalsh(laplacian(g))
    return eigs[::-1].copy()


def w_alpha_eigs_from_laplacian(g, alpha):
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


def brute_force_propagation(g):
    """Expected one-swap transition on the stacked n^2 propagation state.

    State index (k, l) -> k * n + l, block k holding the values node k would
    read from each position l. A swap on edge (i, j) exchanges positions i
    and j inside every block.
    """
    n = g.n
    size = n * n
    acc = np.zeros((size, size))
    for a, b in g.edges:
        perm = np.eye(size)
        for k in range(n):
            ia, ib = k * n + a, k * n + b
            perm[[ia, ib]] = perm[[ib, ia]]
        acc += perm
    return acc / g.num_edges


def u_stat_double_loop(h):
    n = h.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += h[i, j]
    return total / n**2


def auc_double_loop(theta, x, labels):
    n = x.shape[0]
    scores = [float(x[i] @ theta) for i in range(n)]
    numer = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] * scores[i] > -labels[j] * scores[j]:
                numer += 1 - labels[i] * labels[j]
    n_pos = sum(1 for l in labels if l == 1)
    n_neg = sum(1 for l in labels if l == -1)
    return numer / (4.0 * n_pos * n_neg)


def scatter_double_loop(x, cells):
    n = x.shape[0]
    h = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j and cells[i] == cells[j]:
                h[i, j] = np.linalg.norm(x[i] - x[j])
    return h


def ref_run_gosta_sync(g, h, max_iters, seed, checkpoints):
    n = h.shape[0]
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, g.num_edges, size=max_iters)
    z = np.zeros(n)
    y = list(range(n))
    out = {}
    for t in range(1, max_iters + 1):
        for p in range(n):
            z[p] = z[p] * ((t - 1) / t) + h[p, y[p]] / t
        i, j = (int(v) for v in g.edges[eidx[t - 1]])
        mid = 0.5 * (z[i] + z[j])
        z[i] = mid
        z[j] = mid
        y[i], y[j] = y[j], y[i]
        if t in checkpoints:
            out[t] = z.copy()
    return out


def ref_run_u1(g, h, max_iters, seed, checkpoints):
    n = h.shape[0]
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, g.num_edges, size=max_iters)
    z = np.zeros(n)
    y = list(range(n))
    out = {}
    for t in range(1, max_iters + 1):
        i, j = (int(v) for v in g.edges[eidx[t - 1]])
        y[i], y[j] = y[j], y[i]
        for p in range(n):
            z[p] = z[p] * ((t - 1) / t) + h[p, y[p]] / t
        if t in checkpoints:
            out[t] = z.copy()
    return out


def ref_run_u2(g, h, max_iters, seed, checkpoints):
    n = h.shape[0]
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, g.num_edges, size=(max_iters, 2))
    z = np.zeros(n)
    y1 = list(range(n))
    y2 = list(range(n))
    out = {}
    for t in range(1, max_iters + 1):
        for p in range(n):
            z[p] = z[p] * ((t - 1) / t) + h[y1[p], y2[p]] / t
        i, j = (int(v) for v in g.edges[eidx[t - 1, 0]])
        y1[i], y1[j] = y1[j], y1[i]
        a, b = (int(v) for v in g.edges[eidx[t - 1, 1]])
        y2[a], y2[b] = y2[b], y2[a]
        if t in checkpoints:
            out[t] = z.copy()
    return out


def ref_run_gosta_async(g, h, max_iters, seed, checkpoints):
    n = h.shape[0]
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, g.num_edges, size=max_iters)
    m = g.num_edges
    p = [d / m for d in g.degrees]
    z = np.zeros(n)
    y = list(range(n))
    mcount = [0.0] * n
    out = {}
    for t in range(1, max_iters + 1):
        i, j = (int(v) for v in g.edges[eidx[t - 1]])
        mcount[i] += 1.0 / p[i]
        mcount[j] += 1.0 / p[j]
        mid = 0.5 * (z[i] + z[j])
        z[i] = mid
        z[j] = mid
        for node in (i, j):
            w = 1.0 / round(p[node] * mcount[node])
            z[node] = (1.0 - w) * z[node] + w * h[node, y[node]]
        y[i], y[j] = y[j], y[i]
        if t in checkpoints:
            out[t] = z.copy()
    return out


def ref_run_boyd(g, x, max_iters, seed, checkpoints):
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, g.num_edges, size=max_iters)
    z = np.array(x, dtype=float)
    out = {}
    for t in range(1, max_iters + 1):
        i, j = (int(v) for v in g.edges[eidx[t - 1]])
        mid = 0.5 * (z[i] + z[j])
        z[i] = mid
        z[j] = mid
        if t in checkpoints:
            out[t] = z.copy()
    return out


def _ref_flooding_steps(g, max_iters, seed):
    """Yield t and every node's held indices, in arrival order, after each
    iteration t of the flooding baseline."""
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, g.num_edges, size=max_iters)
    held = [[v] for v in range(g.n)]
    for t in range(1, max_iters + 1):
        i, j = (int(v) for v in g.edges[eidx[t - 1]])
        pick_i = held[i][int(rng.integers(0, len(held[i])))]
        pick_j = held[j][int(rng.integers(0, len(held[j])))]
        if pick_i not in held[j]:
            held[j].append(pick_i)
        if pick_j not in held[i]:
            held[i].append(pick_j)
        yield t, held


def ref_run_flooding(g, h, max_iters, seed, checkpoints):
    def estimate(held, k):
        vals = [h[k, l] for l in held[k] if l != k]
        return sum(vals) / len(vals) if vals else 0.0

    return {t: np.array([estimate(held, k) for k in range(g.n)])
            for t, held in _ref_flooding_steps(g, max_iters, seed)
            if t in checkpoints}


def ref_flooding_holdings(g, max_iters, seed):
    """Every node's held indices after ``max_iters`` iterations of
    ``ref_run_flooding``."""
    held = [[v] for v in range(g.n)]
    for _, held in _ref_flooding_steps(g, max_iters, seed):
        pass
    return held


# ------------------------------------------------ expected-dynamics recursions
#
# The step-by-step recursions the eigenbasis oracles replaced, kept as
# independent references. The propagation of the auxiliary observations is
# tracked through an n x n matrix R whose row k lists the expected pair
# values node k would read for each auxiliary position; one swap event
# applies W1 on the position axis, so R evolves as ``R @ W1`` (the
# Kronecker-structured n^2 x n^2 propagation, applied blockwise).


def _ref_adjacency(g):
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = a[j, i] = 1.0
    return a


def _async_m1(g, w2, t):
    """Per-step mean-field transition of the asynchronous protocol."""
    dinv_a = _ref_adjacency(g) / g.degrees[:, None]
    return w2 - (np.eye(g.n) + dinv_a) / (2.0 * t)


def ref_gosta_sync_expectation(g, h, t_max, checkpoints):
    w2 = brute_force_w_alpha(g, 2.0)
    w1 = brute_force_w_alpha(g, 1.0)
    z = np.zeros(g.n)
    r = np.array(h, dtype=float)
    out = {}
    for t in range(1, t_max + 1):
        z = w2 @ (((t - 1) / t) * z + np.diagonal(r) / t)
        r = r @ w1
        if t in checkpoints:
            out[t] = z.copy()
    return out


def ref_gosta_async_expectation(g, h, t_max, checkpoints):
    """The asynchronous mean-field recursion, one step per iteration in
    float64. It drifts linearly in t along the constant vector, because the
    rounded rows of W2 and D^{-1} A do not sum exactly to 1 and 2: 1.5e-13
    at T = 2 10^4 on complete n=24. So it is a 1e-12 reference only up to
    about 10^5 steps; ``extended_gosta_async_expectation`` is the
    long-horizon reference."""
    w2 = brute_force_w_alpha(g, 2.0)
    w1 = brute_force_w_alpha(g, 1.0)
    z = np.zeros(g.n)
    r = np.array(h, dtype=float)
    out = {}
    for t in range(1, t_max + 1):
        z = _async_m1(g, w2, t) @ z + np.diagonal(r) / t
        r = r @ w1
        if t in checkpoints:
            out[t] = z.copy()
    return out


# The asynchronous oracle's former production loop, one interpreted step
# per iteration, kept as a reference for the K-step blocks at n=60 and
# t=20000, where ref_gosta_async_expectation above, which carries the n x n
# matrix H W1^t, is too slow. Like the dense spectra above, it runs on
# package code: the eigenbasis set-up and power helper.
_LOOP_CHUNK_ELEMENTS = 8192


def loop_gosta_async_expectation(g, km, t_max, checkpoints):
    """The per-step loop. Like ``ref_gosta_async_expectation`` it drifts
    linearly in t along the constant vector (1.5e-13 at T = 2 10^4 on
    complete n=24), so it is a 1e-12 reference only up to about 10^5 steps;
    ``extended_gosta_async_expectation`` is the long-horizon reference."""
    from gosta_sim.expectation import _power, _setup

    cps, v, dl, _ = _setup(g, km.n, t_max, checkpoints,
                           "gosta_async_expectation")
    p = (km.dense() @ v) * v
    n = g.n
    step = np.vstack([w_alpha(g, 2.0),
                      -(np.eye(n) + _ref_adjacency(g) / g.degrees[:, None])
                      / 2.0])
    # lambda^k for the k-th step of a chunk; a chunk starting at step s
    # scales P by lambda^(s-1), so one product gives all its drive terms
    powers = _power(dl, np.arange(max(1, _LOOP_CHUNK_ELEMENTS // n))[:, None])
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


def extended_gosta_async_expectation(g, p, lam, t_max, checkpoints):
    """The asynchronous mean-field recursion in extended precision (80-bit
    on x86), with W2 and D^{-1} A formed in it from the integer adjacency;
    the drive ``diag(H W1^{t-1}) = P lambda^{t-1}`` comes from the given
    eigenbasis terms, so that t = 20000 stays cheap."""
    ext = np.longdouble
    a = _ref_adjacency(g).astype(ext)
    deg = a.sum(axis=1)
    w2 = np.eye(g.n, dtype=ext) - (np.diag(deg) - a) / deg.sum()  # 2m
    corr = -(np.eye(g.n, dtype=ext) + a / deg[:, None]) / 2
    p, lam = np.asarray(p, ext), np.asarray(lam, ext)
    z = np.zeros(g.n, ext)
    e = lam.copy()  # lambda^(t-1) at step t = 2
    out = {}
    for t in range(1, t_max + 1):
        if t > 1:
            z = w2 @ z + (corr @ z + p @ e) / t
            e = e * lam
        if t in checkpoints:
            out[t] = z.astype(np.float64)
    return out


def ref_u1_expectation(g, h, t_max, checkpoints):
    w1 = brute_force_w_alpha(g, 1.0)
    v = np.array(h, dtype=float)
    acc = np.zeros(g.n)
    out = {}
    for t in range(1, t_max + 1):
        v = v @ w1
        acc += np.diagonal(v)
        if t in checkpoints:
            out[t] = acc / t
    return out


def ref_u2_expectation(g, h, t_max, checkpoints):
    w1 = brute_force_w_alpha(g, 1.0)
    gmat = np.array(h, dtype=float)
    acc = np.zeros(g.n)
    out = {}
    for t in range(1, t_max + 1):
        acc += np.diagonal(gmat)
        if t in checkpoints:
            out[t] = acc / t
        gmat = w1 @ gmat @ w1
    return out


def ref_boyd_expectation(g, x, t_max, checkpoints):
    w2 = brute_force_w_alpha(g, 2.0)
    z = np.array(x, dtype=float)
    out = {}
    for t in range(1, t_max + 1):
        z = w2 @ z
        if t in checkpoints:
            out[t] = z.copy()
    return out


def _ref_ws_base_ring(n, k):
    half = k // 2
    edges = set()
    for v in range(n):
        for off in range(1, half + 1):
            u = (v + off) % n
            edges.add((min(v, u), max(v, u)))
    if k % 2 == 1:
        off = half + 1
        for v in range(0, n, 2):
            u = (v + off) % n
            if u != v:
                edges.add((min(v, u), max(v, u)))
    return edges


def ref_make_watts_strogatz(n, k, p, rng, max_retries=100):
    """Watts-Strogatz rewiring with an explicit O(n) candidate list per
    rewired edge; returns the sorted (m, 2) int64 edge array.

    Consumes the random stream exactly as ``make_watts_strogatz``: one
    ``rng.random()`` per edge in sorted order and, on a rewire with a
    nonempty candidate list, one ``rng.integers(0, len(candidates))``.
    """
    for _ in range(max_retries):
        edge_set = _ref_ws_base_ring(n, k)
        adj = {v: set() for v in range(n)}
        for a, b in edge_set:
            adj[a].add(b)
            adj[b].add(a)
        for a, b in sorted(edge_set):
            if rng.random() >= p:
                continue
            candidates = [w for w in range(n) if w != a and w not in adj[a]]
            if not candidates:
                continue
            w = candidates[int(rng.integers(0, len(candidates)))]
            edge_set.discard((a, b))
            adj[a].discard(b)
            adj[b].discard(a)
            edge_set.add((min(a, w), max(a, w)))
            adj[a].add(w)
            adj[w].add(a)
        edges = sorted(edge_set)
        if bfs_connected(n, edges):
            return np.array(edges, dtype=np.int64).reshape(-1, 2)
    raise ValueError("failed to generate a connected Watts-Strogatz graph")


def ref_pairwise_sq_dists(x):
    """Whole-matrix squared distances: ``(sq_i + sq_j) - 2 x_i.x_j``, clipped
    at 0, symmetrized as ``(d2 + d2.T) / 2``, zero diagonal."""
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    d2 = (d2 + d2.T) / 2.0
    np.fill_diagonal(d2, 0.0)
    return d2


def ref_pairwise_sq_dists_direct(x):
    """Whole-matrix squared distances by direct differences: the squares of
    ``x_ik - x_jk`` added over the coordinates k in order."""
    n, d = x.shape
    d2 = np.zeros((n, n))
    for k in range(d):
        diff = x[:, k, None] - x[None, :, k]
        d2 += diff * diff
    return d2


def ref_scores_direct(x, theta):
    """``x @ theta`` as the products ``x_ik theta_k`` added over k in
    order."""
    s = np.zeros(x.shape[0])
    for k in range(x.shape[1]):
        s += x[:, k] * theta[k]
    return s


def ref_scatter_matrix(x, cells, sq_dists=ref_pairwise_sq_dists):
    h = np.sqrt(sq_dists(x))
    h *= (cells[:, None] == cells[None, :])
    return h


def ref_variance_matrix(x, sq_dists=ref_pairwise_sq_dists):
    return sq_dists(x) / 2.0


def ref_auc_matrix(x, theta, labels, scores=lambda x, theta: x @ theta):
    s = scores(x, theta)
    ls = labels * s
    h = (1.0 - np.outer(labels, labels)) * (ls[:, None] > -ls[None, :])
    h = (h + h.T) / 2.0
    np.fill_diagonal(h, 0.0)
    return h


def ref_tile_order_statistics(h, block=256):
    """(u_stat, row_means) with every row summed per column block, as the
    tiled build sums it: row i of column block k along the row where k is
    i's own block or a later one, else down column i of the tile (k, i's
    block); then the block sums added over k in order."""
    n = h.shape[0]
    starts = range(0, n, block)
    row_sums = np.zeros(n)
    for c in starts:
        cols = slice(c, c + block)
        block_sums = np.empty(n)
        for r in starts:
            rows = slice(r, r + block)
            if r <= c:
                block_sums[rows] = h[rows, cols].sum(axis=1)
            else:
                block_sums[rows] = h[cols, rows].sum(axis=0)
        row_sums += block_sums
    return float(row_sums.sum() / n**2), row_sums / n


def ref_kernel_statistics(h):
    """(u_stat, row_means, frob_centered, vec_centered) from whole-matrix
    expressions."""
    n = h.shape[0]
    u = float(h.sum() / n**2)
    row_means = h.sum(axis=1) / n
    frob = float(np.linalg.norm(h - row_means[:, None]))
    vec = float(np.linalg.norm(row_means - u))
    return u, row_means, frob, vec
