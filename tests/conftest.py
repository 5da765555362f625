"""Shared fixtures: one box/machinery per session, several region layouts."""

import numpy as np
import pytest

import fracrec as fr

# canonical desk-scale setup: box [-16,16], 512 nodes, order 1/2
RADIUS = 16.0
POINTS = 512
S = 0.5

# interior region and window layouts used across the suite
OMEGA = [(-1.0, 1.0)]
W1_CLASSIC = [(2.0, 3.0)]
W2_CLASSIC = [(-3.0, -2.0)]
W1_PIPELINE = [(4.0, 5.0)]
W2_PIPELINE = [(-3.0, -1.25), (1.25, 3.0)]


@pytest.fixture(scope="session")
def box():
    return fr.build_box(RADIUS, POINTS)


@pytest.fixture(scope="session")
def mach(box):
    return fr.build_sobolev(box, fr.FractionalOrder(S))


@pytest.fixture(scope="session")
def sets_classic(box):
    return fr.build_index_sets(box, OMEGA, W1_CLASSIC, W2_CLASSIC)


@pytest.fixture(scope="session")
def sets_pipeline(box):
    return fr.build_index_sets(box, OMEGA, W1_PIPELINE, W2_PIPELINE)


@pytest.fixture(scope="session")
def op_onesided(mach, box):
    """Interior-to-window operator with the one-sided window (2,3) as w2."""
    return fr.assemble_ucp(mach, fr.build_index_sets(box, OMEGA, W1_CLASSIC, W1_CLASSIC))


@pytest.fixture(scope="session")
def svd_onesided(op_onesided):
    return fr.ucp_svd(op_onesided)


@pytest.fixture(scope="session")
def op_pipeline(mach, sets_pipeline):
    return fr.assemble_ucp(mach, sets_pipeline)


@pytest.fixture(scope="session")
def svd_pipeline(op_pipeline):
    return fr.ucp_svd(op_pipeline)


def omega_bump(box, center=0.0, width=0.6, amplitude=1.0):
    """Smooth bump supported inside the interior region."""
    return fr.smooth_bump(box, center, width, amplitude)


def random_omega_bump(box, rng):
    """Random smooth bump inside (-1,1), wide enough for the grid to resolve."""
    c = rng.uniform(-0.2, 0.2)
    w = rng.uniform(0.5, 0.78)
    a = rng.uniform(0.5, 2.0)
    return fr.smooth_bump(box, c, w, a)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


def _shape_log(monkeypatch, name):
    """Patch np.linalg.<name> to log the shape of each matrix it is given."""
    calls, real = [], getattr(np.linalg, name)

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counting)
    return calls


@pytest.fixture()
def cholesky_calls(monkeypatch):
    """The shapes of the blocks np.linalg.cholesky factors during the test."""
    return _shape_log(monkeypatch, "cholesky")


@pytest.fixture()
def svd_calls(monkeypatch):
    """The shapes of the matrices np.linalg.svd decomposes during the test."""
    return _shape_log(monkeypatch, "svd")


@pytest.fixture()
def eigvalsh_calls(monkeypatch):
    """The shapes of the matrices np.linalg.eigvalsh is given during the test."""
    return _shape_log(monkeypatch, "eigvalsh")
