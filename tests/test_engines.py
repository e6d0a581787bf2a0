import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

import gosta_sim as gs
from gosta_sim.engines import (EngineConfig, InvariantError,
                               _check_permutation, derive_seed,
                               relative_error)
from gosta_sim.expectation import every_checkpoints

import _reference as ref


def small_graph():
    # path 0-1-2-3-4-5 with chords (0,3) and (1,4): connected, non-bipartite
    return gs.make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                             (0, 3), (1, 4)])


def cfg_for(protocol, iters, seed, cps=None):
    kwargs = {"protocol": protocol, "max_iters": iters, "seed": seed}
    if cps is not None:
        kwargs["checkpoints"] = tuple(cps)
    return EngineConfig(**kwargs)


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(protocol="nope", max_iters=10)
    with pytest.raises(ValueError):
        EngineConfig(protocol="boyd", max_iters=0)
    with pytest.raises(ValueError):
        EngineConfig(protocol="boyd", max_iters=10, checkpoints=(5, 3))
    with pytest.raises(ValueError):
        EngineConfig(protocol="boyd", max_iters=10, checkpoints=(4, 11))
    with pytest.raises(ValueError):
        EngineConfig(protocol="boyd", max_iters=10, checkpoints=())
    cfg = EngineConfig(protocol="boyd", max_iters=10,
                       checkpoints=every_checkpoints(10, 4))
    assert cfg.checkpoints == (4, 8, 10)


def test_config_rejects_fractional_checkpoints():
    # whole-valued floats pass as ints; others are not truncated
    with pytest.raises(ValueError) as info:
        EngineConfig(protocol="boyd", max_iters=100, checkpoints=(50.5, 99.9))
    assert str(info.value) == "checkpoints must hold whole numbers, got 50.5"
    cfg = EngineConfig(protocol="boyd", max_iters=100, checkpoints=(50.0, 1e2))
    assert cfg.checkpoints == (50, 100)
    assert all(type(t) is int for t in cfg.checkpoints)


def test_config_rejects_fractional_max_iters():
    # max_iters takes the checkpoints' whole-number rule: 100.7 is not
    # truncated, and 1e2 runs as 100
    with pytest.raises(ValueError) as info:
        EngineConfig(protocol="boyd", max_iters=100.7)
    assert str(info.value) == "max_iters must be a whole number, got 100.7"
    with pytest.raises(ValueError) as info:
        EngineConfig(protocol="boyd", max_iters=True)
    assert str(info.value) == "max_iters must be a whole number, got True"
    cfg = EngineConfig(protocol="boyd", max_iters=1e2)
    assert cfg.max_iters == 100 and type(cfg.max_iters) is int
    assert cfg.checkpoints == tuple(range(1, 101))


def test_config_schedule_is_its_checkpoints():
    # one schedule field, every iteration by default; no second route
    assert [f.name for f in dataclasses.fields(EngineConfig)] == [
        "protocol", "max_iters", "seed", "checkpoints"]
    cfg = EngineConfig(protocol="boyd", max_iters=5)
    assert cfg.checkpoints == (1, 2, 3, 4, 5)
    assert cfg.checkpoints == every_checkpoints(5, 1)
    assert EngineConfig(protocol="boyd", max_iters=100,
                        checkpoints=[50]).checkpoints == (50,)
    with pytest.raises(TypeError):
        EngineConfig(protocol="boyd", max_iters=100, record_every=7,
                     checkpoints=(50,))
    assert not hasattr(cfg, "checkpoint_iters")


# ---------------------------------------------------------------- boyd


def test_boyd_constant_fixed_point():
    g = gs.make_complete(5)
    tr = gs.run_boyd(g, np.full(5, 3.25), cfg_for("boyd", 200, 1, cps=[200]))
    assert (tr.estimates[-1] == 3.25).all()


def test_boyd_single_edge_one_step():
    g = gs.make_graph(2, [(0, 1)])
    tr = gs.run_boyd(g, np.array([0.0, 2.0]), cfg_for("boyd", 1, 0, cps=[1]))
    assert np.array_equal(tr.estimates[-1], [1.0, 1.0])


def test_boyd_conservation_over_long_run(rng):
    g = gs.make_complete(8)
    x = rng.normal(size=8)
    cfg = cfg_for("boyd", 10_000, 5, cps=every_checkpoints(10_000, 1000))
    tr = gs.run_boyd(g, x, cfg)
    total = x.sum()
    for snap in tr.estimates:
        assert abs(snap.sum() - total) <= 1e-12 * abs(total)


def test_boyd_rejects_disconnected():
    g = gs.make_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError):
        gs.run_boyd(g, np.zeros(4), cfg_for("boyd", 10, 0))


# ---------------------------------------------------------------- u1


def test_u1_two_node_deterministic_recursion():
    # single edge: the swap happens every iteration, so the pair value
    # alternates H01, 0, H01, ... giving Z_k(t) = ceil(t/2)/t * H01
    g = gs.make_graph(2, [(0, 1)])
    h = np.array([[0.0, 1.7], [1.7, 0.0]])
    km = gs.KernelMatrix.from_dense(h)
    ts = list(range(1, 11))
    tr = gs.run_u1(g, km, cfg_for("u1", 10, 3, cps=ts))
    for k, t in enumerate(ts):
        expected = np.ceil(t / 2) / t * 1.7
        assert np.allclose(tr.estimates[k], expected, atol=1e-12)


def test_u1_zero_kernel(rng):
    g = small_graph()
    km = gs.KernelMatrix.from_dense(np.zeros((6, 6)))
    tr = gs.run_u1(g, km, cfg_for("u1", 50, 2, cps=[50]))
    assert (tr.estimates[-1] == 0.0).all()


def test_u1_truth_is_row_means(rng, kernel_factory):
    km = kernel_factory(6, rng)
    tr = gs.run_u1(small_graph(), km, cfg_for("u1", 5, 0, cps=[5]))
    assert np.array_equal(tr.truth, km.row_means)


# ---------------------------------------------------------------- u2


def test_u2_zero_kernel():
    g = small_graph()
    km = gs.KernelMatrix.from_dense(np.zeros((6, 6)))
    tr = gs.run_u2(g, km, cfg_for("u2", 30, 1, cps=[30]))
    assert (tr.estimates[-1] == 0.0).all()


def test_u2_first_iteration_all_zero(rng, kernel_factory):
    # update precedes the first swap, so every pair value is a zero diagonal
    km = kernel_factory(6, rng)
    tr = gs.run_u2(small_graph(), km, cfg_for("u2", 1, 9, cps=[1]))
    assert (tr.estimates[-1] == 0.0).all()


# ---------------------------------------------------------------- gosta


def test_gosta_sync_first_iteration_zero(rng, kernel_factory):
    km = kernel_factory(6, rng)
    tr = gs.run_gosta_sync(small_graph(), km, cfg_for("gosta_sync", 1, 4,
                                                      cps=[1]))
    assert (tr.estimates[-1] == 0.0).all()


def test_gosta_sync_pair_equal_after_event():
    # on a single-edge graph the same pair averages every iteration
    g = gs.make_graph(2, [(0, 1)])
    h = np.array([[0.0, -0.6], [-0.6, 0.0]])
    km = gs.KernelMatrix.from_dense(h)
    tr = gs.run_gosta_sync(g, km, cfg_for("gosta_sync", 7, 0,
                                          cps=list(range(1, 8))))
    for snap in tr.estimates:
        assert snap[0] == snap[1]


def test_gosta_async_first_touch_uses_pair_value_only():
    # node first activated after its neighbor moved: picks up H exactly
    g = gs.make_graph(3, [(0, 1), (1, 2)])
    h = np.zeros((3, 3))
    h[0, 1] = h[1, 0] = 2.0
    h[1, 2] = h[2, 1] = -4.0
    h[0, 2] = h[2, 0] = 8.0
    km = gs.KernelMatrix.from_dense(h)
    # find a seed whose first two draws are edge (0,1) then edge (1,2)
    for seed in range(100):
        probe = np.random.default_rng(seed).integers(0, 2, size=2)
        if probe[0] == 0 and probe[1] == 1:
            break
    tr = gs.run_gosta_async(g, km, cfg_for("gosta_async", 2, seed,
                                           cps=[1, 2]))
    # t=1: nodes 0,1 activate; both read their own observation: H(.,.)=0
    assert (tr.estimates[0] == 0.0).all()
    # t=2: nodes 1,2 activate. node 2 is first-touched; its auxiliary is
    # still its own, so Z_2 = H(X_2, X_2) = 0; node 1 now holds Y=0's obs
    # from the first swap: second activation weight 1/2 on H(X_1, Y_1)=H[1,0]
    assert tr.estimates[1][2] == 0.0
    assert tr.estimates[1][1] == pytest.approx(0.5 * h[1, 0], abs=1e-15)


def test_gosta_async_m_snapshots_and_touch_locality(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    ts = [1, 2, 3, 4, 5]
    tr = gs.run_gosta_async(g, km, cfg_for("gosta_async", 5, 8, cps=ts))
    assert tr.m_snapshots is not None
    # m increases only for touched nodes: between consecutive snapshots
    # exactly two entries change
    prev = np.zeros(6)
    prev_z = np.zeros(6)
    for k in range(len(ts)):
        changed = (tr.m_snapshots[k] != prev).sum()
        assert changed == 2
        z_changed = (tr.estimates[k] != prev_z).sum()
        assert z_changed <= 2
        prev = tr.m_snapshots[k]
        prev_z = tr.estimates[k]


def test_gosta_async_zero_kernel():
    km = gs.KernelMatrix.from_dense(np.zeros((6, 6)))
    tr = gs.run_gosta_async(small_graph(), km,
                            cfg_for("gosta_async", 40, 3, cps=[40]))
    assert (tr.estimates[-1] == 0.0).all()


# ---------------------------------------------------------------- flooding


def test_flooding_initial_estimate_zero(rng, kernel_factory):
    km = kernel_factory(6, rng)
    tr = gs.run_flooding(small_graph(), km,
                         cfg_for("flooding", 5, 1, cps=[0, 5]))
    assert (tr.estimates[0] == 0.0).all()


@pytest.mark.parametrize("protocol,lists", [
    ("u1", 1), ("u2", 2), ("gosta_sync", 1), ("gosta_async", 1)])
def test_checkpoint_aux_lists_checked_as_permutations(monkeypatch, rng,
                                                      kernel_factory,
                                                      protocol, lists):
    # every checkpoint row of every auxiliary index list goes through
    # _check_permutation; blocks of two checkpoints make several calls
    import gosta_sim.engines as engines
    checked = []
    monkeypatch.setattr(engines, "_check_permutation",
                        lambda y: checked.append(np.array(y)))
    monkeypatch.setattr(engines, "_BLOCK", 12)
    g = small_graph()
    cps = [0, 1, 7, 20, 39, 40]
    tr = gs.run_protocol(cfg_for(protocol, 40, 6, cps=cps), g=g,
                         km=kernel_factory(6, rng))
    rows = np.concatenate(checked)
    assert len(checked) == lists * 3 and len(rows) == lists * len(cps)
    assert (np.sort(rows, axis=1) == np.arange(6)).all()
    assert (rows != np.arange(6)).any()  # the lists did move
    if protocol == "gosta_async":
        # the iteration estimators m_k = activations_k / p_k sum to 2t
        p = g.degrees / g.num_edges
        assert np.allclose((tr.m_snapshots * p).sum(axis=1), 2 * tr.ts)


@pytest.mark.parametrize("protocol", ["boyd", "u1", "u2", "gosta_sync",
                                      "gosta_async", "flooding"])
def test_run_ends_at_its_last_checkpoint(monkeypatch, rng, kernel_factory,
                                         protocol):
    # no iteration after the last checkpoint is applied: every event that
    # reaches a step is counted
    import gosta_sim.engines as engines
    drive, applied = engines._drive, []

    def counting_drive(g, cfg, rng, rate, step, *args, **kwargs):
        def counted(events, t):
            events = list(events)
            applied.extend(events)
            step(iter(events), t)
        return drive(g, cfg, rng, rate, counted, *args, **kwargs)

    monkeypatch.setattr(engines, "_drive", counting_drive)
    tr = gs.run_protocol(cfg_for(protocol, 500, 3, cps=[0, 7, 30]),
                         g=small_graph(), km=kernel_factory(6, rng),
                         x=np.arange(6.0))
    assert len(applied) == 30 and tr.ts.tolist() == [0, 7, 30]


@pytest.mark.parametrize("protocol", ["boyd", "u1", "u2", "gosta_sync",
                                      "gosta_async", "flooding"])
def test_run_does_not_depend_on_max_iters(rng, kernel_factory, protocol):
    # only the iterations up to the last checkpoint are drawn, so a horizon
    # far past it changes no bit
    km, x, c = kernel_factory(6, rng), np.arange(6.0), 40
    runs = [gs.run_protocol(cfg_for(protocol, iters, 9, cps=[0, 3, 17, c]),
                            g=small_graph(), km=km, x=x)
            for iters in (c, 50 * c)]
    for field in ("ts", "estimates", "comm_units", "m_snapshots"):
        a, b = (getattr(tr, field) for tr in runs)
        assert (a is b is None) or np.array_equal(a, b), field


@pytest.mark.parametrize("graph_n", [7, 5], ids=["larger", "smaller"])
@pytest.mark.parametrize("runner", [gs.run_u1, gs.run_u2, gs.run_gosta_sync,
                                    gs.run_gosta_async, gs.run_flooding],
                         ids=lambda r: r.__name__)
def test_runner_checks_its_graph_against_its_sample(runner, graph_n,
                                                    kernel_factory):
    # a runner called directly fails before it draws an edge, not on an
    # index or a broadcast
    km = kernel_factory(6, np.random.default_rng(0))
    cfg = cfg_for(runner.__name__[4:], 10, 0)
    with pytest.raises(ValueError) as info:
        runner(gs.make_complete(graph_n), km, cfg)
    assert str(info.value) == (f"graph size {graph_n} does not match "
                               "sample size 6")


@pytest.mark.parametrize("x", [np.zeros(5), np.zeros(7), np.zeros((6, 1)),
                               np.float64(0.0)],
                         ids=["shorter", "longer", "column", "scalar"])
def test_run_boyd_names_a_misshapen_x(x):
    with pytest.raises(ValueError) as info:
        gs.run_boyd(small_graph(), x, cfg_for("boyd", 10, 0))
    assert str(info.value) == "x must hold one value per node"


def test_flooding_holdings_contain_self_and_grow(rng, kernel_factory):
    # the holdings are the reference's, whose estimates the engine matches
    # bit for bit
    g = small_graph()
    km = kernel_factory(6, rng)
    prev_sizes = None
    for iters in (5, 20, 80):
        tr = gs.run_flooding(g, km, cfg_for("flooding", iters, 13,
                                            cps=[iters]))
        expected = ref.ref_run_flooding(g, km.dense(), iters, 13, {iters})
        assert np.array_equal(tr.estimates[-1], expected[iters])
        holdings = ref.ref_flooding_holdings(g, iters, 13)
        assert all(k in holdings[k] for k in range(6))
        sizes = [len(s) for s in holdings]
        if prev_sizes is not None:
            # same seed, longer horizon: strictly more information
            assert all(a <= b for a, b in zip(prev_sizes, sizes))
        prev_sizes = sizes


def test_flooding_saturated_node_estimate(rng, kernel_factory):
    km = kernel_factory(6, rng)
    h = km.dense()
    g = gs.make_complete(6)
    tr = gs.run_flooding(g, km, cfg_for("flooding", 4000, 2, cps=[4000]))
    # after many iterations every node holds everything
    expected = np.array([h[k][np.arange(6) != k].mean() for k in range(6)])
    assert np.allclose(tr.estimates[-1], expected, atol=1e-12)
    # which also equals row_means * n/(n-1)
    assert np.allclose(expected, km.row_means * 6 / 5, atol=1e-12)


def test_flooding_picks_uniformly_from_held_lists():
    # the picks, read from the estimates alone: on a star the centre holds
    # itself and then each leaf in the order of the leaves' first events,
    # and a leaf's first event hands it one pick from the centre's list of
    # that size, which h[a, b] = a + b names in the leaf's estimate
    leaves, runs = 8, 400
    g = gs.make_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    v = np.arange(leaves + 1.0)
    km = gs.KernelMatrix.from_dense((v[:, None] + v) * (1 - np.eye(len(v))))
    counts = np.zeros((leaves + 1, leaves))  # [list size, position]
    for seed in range(runs):
        est = gs.run_flooding(g, km, cfg_for("flooding", 80, seed)).estimates
        first = {leaf: np.flatnonzero(est[:, leaf])
                 for leaf in range(1, leaves + 1)}
        held = [0]
        for k, leaf in sorted((f[0], leaf) for leaf, f in first.items()
                              if len(f)):
            counts[len(held), held.index(int(est[k, leaf]) - leaf)] += 1
            held.append(leaf)
    assert counts[1, 0] == runs and counts.sum() >= leaves * runs - 10
    chi2 = sum(((counts[c, :c] - counts[c].sum() / c) ** 2).sum()
               / (counts[c].sum() / c) for c in range(2, leaves + 1))
    # 28 degrees of freedom: a uniform sampler exceeds 78.8 with
    # probability 1e-6
    assert chi2 < 78.8, counts


# ---------------------------------------------------------------- master


def test_master_node_comm_and_estimates(rng, kernel_factory):
    km = kernel_factory(5, rng)
    h = km.dense()
    n, d = 5, 3
    km2 = gs.KernelMatrix.from_dense(np.asarray(h).copy(), dim=d)
    ts = [0, 1, 2, 5, 8]
    tr = gs.run_master_node(km2, cfg_for("master_node", 8, 0, cps=ts))
    for k, t in enumerate(ts):
        b = min(t, n)
        assert tr.comm_units[k] == n * d * (1 + b)
    assert (tr.estimates[0] == 0.0).all()
    # after t >= n every node averages all other observations
    expected = np.array([h[k][np.arange(5) != k].mean() for k in range(5)])
    assert np.allclose(tr.estimates[-1], expected, atol=1e-12)
    # direct-average oracle at t=2: node k averages held indices {0,1}\{k}
    for k in range(5):
        vals = [h[k, l] for l in (0, 1) if l != k]
        assert tr.estimates[2][k] == pytest.approx(np.mean(vals), abs=1e-12)


# ------------------------------------------------------- differential tests


SHORT_CPS = {1, 3, 7, 20, 60}
# t=0, a run of consecutive checkpoints and the horizon, over a path graph
# (u2's two draws often share a node) long enough that the lazy running sums
# of u1, u2 and gosta_sync go many iterations between flushes
LONG_CPS = {0, *range(1000, 1012), 3000}
# a checkpoint at every iteration for more rows than one snapshot block
# holds, then segments long enough to refresh whole lists, then dense again
DENSE_CPS = {*range(1200), *range(1200, 2990, 450), *range(2990, 3001)}


GRAPHS = {"small": small_graph,
          "path": lambda: gs.make_graph(8, [(v, v + 1) for v in range(7)]),
          "complete": lambda: gs.make_complete(30)}


@pytest.mark.parametrize("seed, graph, iters, cps", [
    pytest.param(0, "small", 60, SHORT_CPS, id="0"),
    pytest.param(1, "small", 60, SHORT_CPS, id="1"),
    pytest.param(2, "small", 60, SHORT_CPS, id="2"),
    pytest.param(3, "path", 3000, LONG_CPS, id="long_path"),
    pytest.param(4, "path", 3000, DENSE_CPS, id="dense_path"),
    # an odd horizon, whose edge draws leave half a 64-bit output unused
    # before flooding's first pick, and holdings grow to tens of indices
    pytest.param(5, "complete", 2001, {1, 2, 500, 2001}, id="odd_complete"),
])
def test_engines_match_reference_implementations(seed, graph, iters, cps,
                                                 kernel_factory):
    g = GRAPHS[graph]()
    km = kernel_factory(g.n, np.random.default_rng(seed + 50))
    h = np.asarray(km.dense())
    # the lazy running sums round differently from the eager references;
    # gosta_async and flooding repeat their arithmetic exactly
    for name, engine, reference, exact in [
        ("gosta_sync", gs.run_gosta_sync, ref.ref_run_gosta_sync, False),
        ("u1", gs.run_u1, ref.ref_run_u1, False),
        ("u2", gs.run_u2, ref.ref_run_u2, False),
        ("gosta_async", gs.run_gosta_async, ref.ref_run_gosta_async, True),
        ("flooding", gs.run_flooding, ref.ref_run_flooding, True),
    ]:
        tr = engine(g, km, cfg_for(name, iters, seed, cps=sorted(cps)))
        expected = reference(g, h, iters, seed, cps)
        expected[0] = np.zeros(g.n)
        for k, t in enumerate(tr.ts):
            if exact:
                assert np.array_equal(tr.estimates[k], expected[int(t)]), \
                    f"{name} at t={t}"
            else:
                assert np.allclose(tr.estimates[k], expected[int(t)],
                                   rtol=0, atol=1e-12), f"{name} at t={t}"
    if graph == "complete":  # flooding's compared run spreads observations
        assert max(map(len, ref.ref_flooding_holdings(g, iters, seed))) >= 20
    x = np.random.default_rng(seed + 99).normal(size=g.n)
    tr = gs.run_boyd(g, x, cfg_for("boyd", iters, seed, cps=sorted(cps)))
    expected = ref.ref_run_boyd(g, x, iters, seed, cps)
    expected[0] = x
    for k, t in enumerate(tr.ts):
        assert np.array_equal(tr.estimates[k], expected[int(t)])


@st.composite
def engine_scenarios(draw):
    """A random connected graph (a random tree plus extra edges), a seed,
    a horizon, a checkpoint set and an observation dimension."""
    n = draw(st.integers(3, 20))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    node = st.integers(0, n - 1)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * n)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    iters = draw(st.integers(1, 200))
    cps = sorted(draw(st.sets(st.integers(0, iters), min_size=1, max_size=8)))
    return (gs.make_graph(n, sorted(edges)), draw(st.integers(0, 2**32 - 1)),
            iters, cps, draw(st.integers(1, 4)))


@given(engine_scenarios())
def test_engines_match_reference_on_random_graphs(scenario):
    g, seed, iters, cps, d = scenario
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(g.n, g.n))
    h = (h + h.T) / 2.0
    np.fill_diagonal(h, 0.0)
    km = gs.KernelMatrix.from_dense(h, dim=d)
    x = rng.normal(size=g.n)
    rates = {"boyd": 2, "u1": 2 * d, "u2": 4 * d, "gosta_sync": 2 + 2 * d,
             "gosta_async": 2 + 2 * d, "flooding": 2 * d}
    for name, exact in [("boyd", True), ("u1", False), ("u2", False),
                        ("gosta_sync", False), ("gosta_async", True),
                        ("flooding", True)]:
        tr = gs.run_protocol(cfg_for(name, iters, seed, cps=cps), g=g, km=km,
                             x=x)
        if name == "boyd":
            expected = ref.ref_run_boyd(g, x, iters, seed, set(cps))
            expected[0] = x
        else:
            expected = getattr(ref, f"ref_run_{name}")(g, h, iters, seed,
                                                      set(cps))
            expected[0] = np.zeros(g.n)
        for k, t in enumerate(cps):
            if exact:
                assert np.array_equal(tr.estimates[k], expected[t])
            else:
                assert np.allclose(tr.estimates[k], expected[t],
                                   rtol=0, atol=1e-12)
        assert np.array_equal(tr.comm_units, [rates[name] * t for t in cps])


def test_check_permutation_raises_named_error():
    _check_permutation([2, 0, 1])
    with pytest.raises(InvariantError):
        _check_permutation([0, 2, 2])


def test_bipartite_warning_logged_once_per_graph(caplog, kernel_factory):
    g = gs.make_grid2d(3, 3)
    km = kernel_factory(9, np.random.default_rng(0))
    with caplog.at_level(logging.WARNING, logger="gosta_sim.graph"):
        for proto in ("gosta_sync", "u1", "u2", "gosta_async", "flooding"):
            gs.run_protocol(cfg_for(proto, 20, 0), g=g, km=km)
        gs.run_boyd(g, np.zeros(9), cfg_for("boyd", 20, 0))
    assert sum("bipartite" in r.message for r in caplog.records) == 1


def test_determinism_bit_for_bit(rng, kernel_factory):
    g = small_graph()
    km = kernel_factory(6, rng)
    for proto in ("gosta_sync", "gosta_async", "u1", "u2", "flooding"):
        cfg = cfg_for(proto, 80, 17, cps=every_checkpoints(80, 7))
        tr1 = gs.run_protocol(cfg, g=g, km=km)
        tr2 = gs.run_protocol(cfg, g=g, km=km)
        assert np.array_equal(tr1.estimates, tr2.estimates)
        assert np.array_equal(tr1.comm_units, tr2.comm_units)


def test_derive_seed_is_stable():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)
    assert derive_seed(42.0, 1.0, 2) == derive_seed(42, 1, 2)


@pytest.mark.parametrize("args, message", [
    ((1.5, 0, 0), "seed must be a whole number, got 1.5"),
    ((-1,), "seed must be >= 0"),
    ((1, 0.5), "seed index must be a whole number, got 0.5"),
    ((True, 0), "seed must be a whole number, got True"),
    (("7", 0), "seed must be a whole number, got '7'"),
], ids=["fractional", "negative", "fractional_index", "bool", "string"])
def test_derive_seed_rejects_bad_seeds(args, message):
    with pytest.raises(ValueError) as info:
        derive_seed(*args)
    assert str(info.value) == message


# ------------------------------------------------------- communication


def test_comm_accounting_closed_forms(rng, kernel_factory):
    g = small_graph()
    d = 3
    km_raw = kernel_factory(6, rng)
    km = gs.KernelMatrix.from_dense(np.asarray(km_raw.dense()).copy(), dim=d)
    ts = [1, 10, 25]
    tr = gs.run_gosta_sync(g, km, cfg_for("gosta_sync", 25, 0, cps=ts))
    assert [int(c) for c in tr.comm_units] == [(2 + 2 * d) * t for t in ts]
    tr = gs.run_gosta_async(g, km, cfg_for("gosta_async", 25, 0, cps=ts))
    assert [int(c) for c in tr.comm_units] == [(2 + 2 * d) * t for t in ts]
    tr = gs.run_u2(g, km, cfg_for("u2", 25, 0, cps=ts))
    assert [int(c) for c in tr.comm_units] == [4 * d * t for t in ts]
    tr = gs.run_u1(g, km, cfg_for("u1", 25, 0, cps=ts))
    assert [int(c) for c in tr.comm_units] == [2 * d * t for t in ts]
    tr = gs.run_flooding(g, km, cfg_for("flooding", 25, 0, cps=ts))
    assert [int(c) for c in tr.comm_units] == [2 * d * t for t in ts]
    tr = gs.run_boyd(g, rng.normal(size=6), cfg_for("boyd", 25, 0, cps=ts))
    assert [int(c) for c in tr.comm_units] == [2 * t for t in ts]


# ------------------------------------------------------- relative error


def test_relative_error_exact_match():
    tr = gs.Trace("u2", np.array([1]), np.full((1, 4), 2.5),
                  np.array([4]), truth=2.5)
    err = relative_error(tr)
    assert err.mean[0] == 0.0 and err.std[0] == 0.0 and not err.absolute


def test_relative_error_double_truth():
    tr = gs.Trace("u2", np.array([1]), np.full((1, 4), 5.0),
                  np.array([4]), truth=2.5)
    err = relative_error(tr)
    assert err.mean[0] == 1.0 and err.std[0] == 0.0


def test_relative_error_hand_computed_mixed():
    est = np.array([[1.0, 2.0, 4.0]])
    tr = gs.Trace("u2", np.array([1]), est, np.array([4]), truth=2.0)
    err = relative_error(tr)
    vals = np.array([0.5, 0.0, 1.0])
    assert err.mean[0] == pytest.approx(vals.mean(), abs=1e-15)
    assert err.std[0] == pytest.approx(vals.std(), abs=1e-15)


def test_relative_error_zero_truth_switches_to_absolute():
    tr = gs.Trace("u2", np.array([1]), np.array([[0.5, -0.5]]),
                  np.array([4]), truth=0.0)
    err = relative_error(tr)
    assert err.absolute
    assert err.mean[0] == 0.5


def test_gosta_sync_error_level_on_complete_graph():
    # complete n=8, clustered scatter kernel: after 1e4 iterations the
    # node-averaged relative error over 50 runs sits well below 0.05
    g = gs.make_complete(8)
    dm, part = gs.synth_gaussian_mixture(8, 2, 2, 6.0,
                                         np.random.default_rng(14))
    km = gs.build_kernel_matrix("scatter", dm, part)
    acc = 0.0
    for r in range(50):
        cfg = cfg_for("gosta_sync", 10_000, derive_seed(400, r),
                      cps=[10_000])
        acc += relative_error(gs.run_gosta_sync(g, km, cfg)).mean[0]
    assert acc / 50 < 0.05


# ------------------------------------------------------- statistical


def test_monte_carlo_mean_tracks_oracle_as_runs_grow(kernel_factory):
    # deviation of the empirical mean from the exact expectation shrinks
    # with the run count (checked at R in {500, 2000} against 5 SE)
    g = small_graph()
    km = kernel_factory(6, np.random.default_rng(4))
    t = 20
    oracle = gs.gosta_sync_expectation(g, km, t, [t])[t]
    for runs in (500, 2000):
        acc = np.empty((runs, 6))
        for r in range(runs):
            cfg = cfg_for("gosta_sync", t, derive_seed(31, runs, r), cps=[t])
            acc[r] = gs.run_gosta_sync(g, km, cfg).estimates[-1]
        se = acc.std(axis=0, ddof=1) / np.sqrt(runs)
        assert (np.abs(acc.mean(axis=0) - oracle) <= 5 * se).all()
