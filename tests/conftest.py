"""Shared fixtures: catalog bundles and small simulation configs.

Session scope is used for the analytic engines because they memoize the
evolution measures; rebuilding them per test would repeat the same tail
ODE solves dozens of times.
"""

import math

import numpy as np
import pytest

from kolmolab import catalog, engines, sde
from kolmolab.model import reflect_time

# verdict lines recorded by the acceptance tests; replayed after the test
# table so they are visible even under default output capture
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)


@pytest.fixture(scope="session")
def ou_const_bundle():
    return catalog.get("ou_const")


@pytest.fixture(scope="session")
def ou_periodic_bundle():
    return catalog.get("ou_periodic")


@pytest.fixture(scope="session")
def ou_convergent_bundle():
    return catalog.get("ou_convergent")


@pytest.fixture(scope="session")
def cubic_bundle():
    return catalog.get("cubic_dissipative")


@pytest.fixture(scope="session")
def double_well_bundle():
    return catalog.get("double_well_shifted")


@pytest.fixture(scope="session")
def ou_const_engine(ou_const_bundle):
    return engines.engine_for(ou_const_bundle)


@pytest.fixture(scope="session")
def ou_periodic_engine(ou_periodic_bundle):
    return engines.engine_for(ou_periodic_bundle)


@pytest.fixture
def fast_cfg():
    """Small but honest Monte Carlo config for smoke-level checks."""
    return sde.SimConfig(dt=2e-3, n_paths=4000, seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(20240816)


# ----------------------------------------------------------------------
# plain Monte Carlo estimates over one ensemble, for tests that check the
# path engine without going through MonteCarloEngine
# ----------------------------------------------------------------------


def _path_mean(vals):
    """(mean, standard error) over the paths, along axis 0."""
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])


def mc_G(spec, s, t, f, x, cfg=None, paths=None):
    """(mean, standard error) of f over the mirrored-clock paths of
    ``reflect_time(spec, s + t)`` from x at s to t: a Monte Carlo estimate
    of (G(t, s) f)(x).  ``paths`` reuses such an ensemble."""
    if paths is None:
        paths = sde.simulate(
            reflect_time(spec, s + t), s, t, x, cfg, with_jacobians=False
        )
    return _path_mean(np.asarray(f.value(paths.states), dtype=float))


def mc_grad_G(spec, s, t, f, x, cfg=None):
    """(mean, standard error) of the pathwise gradient J(t)^T grad f(X(t))
    over the same mirrored-clock paths: an estimate of grad (G(t, s) f)(x)."""
    paths = sde.simulate(reflect_time(spec, s + t), s, t, x, cfg)
    g = np.asarray(f.gradient(paths.states), dtype=float)
    return _path_mean(np.einsum("nij,ni->nj", paths.jacobians, g))


def check_gradients(f, xs, h=1e-5):
    """Worst relative error of f.gradient against central finite
    differences of f.value over the points xs."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    g = f.grad(xs)
    worst = 0.0
    scale = np.max(np.abs(g)) + 1.0
    for j in range(f.dim):
        e = np.zeros(f.dim)
        e[j] = h
        fd = (f(xs + e) - f(xs - e)) / (2.0 * h)
        worst = max(worst, float(np.max(np.abs(fd - g[:, j])) / scale))
    return worst
