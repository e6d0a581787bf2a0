import logging

import numpy as np
import pytest
from hypothesis import settings

import gosta_sim as gs

# Property tests draw the same examples on every run, so they cannot flake,
# and carry no deadline, which a loaded shared host would break.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def _quiet_bipartite_warnings(caplog):
    # Bipartite-topology warnings are expected on path/grid test graphs;
    # caplog restores the logger's level when the test ends.
    caplog.set_level(logging.ERROR, logger="gosta_sim.graph")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_symmetric_kernel(n, rng, scale=1.0):
    h = rng.normal(size=(n, n)) * scale
    h = (h + h.T) / 2.0
    np.fill_diagonal(h, 0.0)
    return gs.KernelMatrix.from_dense(h)


@pytest.fixture
def kernel_factory():
    return random_symmetric_kernel
