"""Two interchangeable evaluators for G(t, s) against its measures.

The inequality suites only need a tiny surface:

* ``measure(t)``                       -- mu_t (Gaussian or empirical cloud),
* ``apply_G_at(s, t, f, xs)``          -- (values, variance of each value),
* ``grad_G_at(s, t, f, xs)``           -- (gradients, variance per component),
* declared constants ``eta0, Lambda, r0``.

``AnalyticOUEngine`` evaluates everything by quadrature against the linear
model; ``MonteCarloEngine`` propagates clouds with the path simulator, using
``n_inner`` replicate paths per evaluation point.  The L^p helpers below
debias the inner-mean plug-in (the first-order Jensen correction in the
inner variance) and report delta-method standard errors, so callers can
treat both engines through the same (value, tolerance) contract.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import sde
from .errors import DomainError
from .measures import EmpiricalMeasure, sample_mu
from .model import reflect_time
from .ou import (
    GaussianMeasure,
    estimate_omega0,
    evolution_measure,
    ou_apply_G,
    ou_apply_grad_G,
)

__all__ = [
    "AnalyticOUEngine",
    "MonteCarloEngine",
    "engine_for",
    "lp_norm_measure",
    "lp_norm_of_G",
    "grad_lp_norm_of_G",
    "mean_under_measure",
]


class AnalyticOUEngine:
    """Quadrature-exact evaluation for linear models."""

    kind = "analytic"

    def __init__(self, model, eta0=None, Lambda=None, r0=None, tol=1e-8, order=64):
        self.model = model
        lo, hi = model.ellipticity()
        self.eta0 = eta0 if eta0 is not None else lo
        self.Lambda = Lambda if Lambda is not None else hi
        self.r0 = r0 if r0 is not None else model.dissipativity_rate()
        self.tol = tol
        self.order = order
        self._omega = None
        self._measures = {}

    @property
    def omega_fit(self):
        if self._omega is None:
            self._omega = estimate_omega0(self.model)
        return self._omega

    def measure(self, t):
        key = round(float(t), 12)
        if key not in self._measures:
            self._measures[key] = evolution_measure(
                self.model, t, tol=self.tol, omega_fit=self.omega_fit
            )
        return self._measures[key]

    def apply_G_at(self, s, t, f, xs):
        vals = ou_apply_G(self.model, t, s, f, xs, order=self.order)
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        return vals, np.zeros_like(vals)

    def grad_G_at(self, s, t, f, xs):
        grads = ou_apply_grad_G(self.model, t, s, f, xs, order=self.order)
        grads = np.atleast_2d(np.asarray(grads, dtype=float))
        return grads, np.zeros_like(grads)


class MonteCarloEngine:
    """Nested Monte Carlo evaluation for general dissipative drifts."""

    kind = "mc"

    def __init__(
        self,
        spec,
        cfg=None,
        cloud_size=8192,
        n_inner=192,
        n_outer=2048,
        mu_tol=1e-3,
        sample=None,
    ):
        if spec.r0 >= 0.0:
            raise DomainError("Monte Carlo engine needs a dissipative spec (r0 < 0)")
        self.spec = spec
        self.cfg = cfg or sde.SimConfig(n_paths=cloud_size)
        self.cloud_size = cloud_size
        self.n_inner = n_inner
        # Nested norm estimates subsample the measure cloud to this many
        # outer points; the cloud is i.i.d. so a prefix is unbiased.
        self.n_outer = n_outer
        self.mu_tol = mu_tol
        # ``sample`` stands in for measures.sample_mu, e.g. a run-scoped memo
        self.sample = sample
        self.eta0 = spec.eta0
        self.Lambda = spec.Lambda
        self.r0 = spec.r0
        self._measures = {}

    def _seed_for(self, tag, t):
        return (self.cfg.seed * 1_000_003 + tag * 7919 + int(round(t * 4096))) % (
            2**62
        )

    def measure(self, t):
        key = round(float(t), 12)
        if key not in self._measures:
            cfg = replace(
                self.cfg, n_paths=self.cloud_size, seed=self._seed_for(1, t)
            )
            sample = self.sample or sample_mu
            self._measures[key] = sample(self.spec, t, self.mu_tol, cfg)
        return self._measures[key]

    def apply_G_at(self, s, t, f, xs):
        """Inner means of f over n_inner replicate paths per point.

        The replicates run the mirrored-clock flow (the kernel of G; see
        kolmolab.sde).  Returns (means, variance of each mean)."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n = xs.shape[0]
        starts = np.repeat(xs, self.n_inner, axis=0)
        cfg = replace(
            self.cfg, n_paths=n * self.n_inner, seed=self._seed_for(2, t + 1e3 * s)
        )
        bundle = sde.simulate(
            reflect_time(self.spec, s + t), s, t, starts, cfg,
            with_jacobians=False,
        )
        vals = np.asarray(f.value(bundle.states), dtype=float).reshape(
            n, self.n_inner
        )
        means = vals.mean(axis=1)
        var_means = vals.var(axis=1, ddof=1) / self.n_inner
        return means, var_means

    def grad_G_at(self, s, t, f, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n, d = xs.shape
        starts = np.repeat(xs, self.n_inner, axis=0)
        cfg = replace(
            self.cfg, n_paths=n * self.n_inner, seed=self._seed_for(3, t + 1e3 * s)
        )
        bundle = sde.simulate(
            reflect_time(self.spec, s + t), s, t, starts, cfg,
            with_jacobians=True,
        )
        g = np.asarray(f.gradient(bundle.states), dtype=float)
        per_path = np.einsum("nij,ni->nj", bundle.jacobians, g).reshape(
            n, self.n_inner, d
        )
        means = per_path.mean(axis=1)
        var_means = per_path.var(axis=1, ddof=1) / self.n_inner
        return means, var_means

    def outer_points(self, mu):
        return mu.samples[: self.n_outer]


def engine_for(bundle, cfg=None, tol=1e-8, order=64, kind=None, **mc_kwargs):
    """Pick the analytic engine when the bundle has a linear model.

    ``kind`` forces the choice: "ou" insists on the analytic engine (and
    raises when the bundle has no linear model), "general" forces Monte
    Carlo even when a closed form exists (useful for cross-validation).
    """
    if kind not in (None, "ou", "general"):
        raise DomainError(f"engine kind must be 'ou' or 'general', got {kind!r}")
    if kind == "ou" and bundle.model is None:
        raise DomainError(
            f"bundle {bundle.name!r} has no linear-drift closed form"
        )
    if bundle.model is not None and kind != "general":
        return AnalyticOUEngine(
            bundle.model,
            eta0=bundle.spec.eta0,
            Lambda=bundle.spec.Lambda,
            r0=bundle.spec.r0,
            tol=tol,
            order=order,
        )
    return MonteCarloEngine(bundle.spec, cfg=cfg, **mc_kwargs)


_QUAD_REL_TOL = 1e-6


def mean_under_measure(mu, f, order=64):
    """(mean, tolerance) of f under a Gaussian or empirical measure."""
    if isinstance(mu, GaussianMeasure):
        m = mu.expectation(f.value, order)
        check = mu.expectation(f.value, max(8, order // 2))
        return m, max(1e-12, abs(m - check))
    return mu.expectation(f)


def lp_norm_measure(mu, f, p, order=64):
    """(||f||_{L^p(mu)}, tolerance)."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    if isinstance(mu, GaussianMeasure):
        pts, w = mu.quad_points(order)
        vals = np.abs(np.asarray(f.value(pts), dtype=float))
        mp = float(w @ vals**p)
        norm = mp ** (1.0 / p)
        return norm, _QUAD_REL_TOL * max(1.0, norm)
    vals = np.abs(np.asarray(f.value(mu.samples), dtype=float))
    mp_samples = vals**p
    mp = float(np.mean(mp_samples))
    se = float(np.std(mp_samples, ddof=1) / math.sqrt(vals.shape[0]))
    norm = max(mp, 1e-300) ** (1.0 / p)
    tol = norm / p * se / max(mp, 1e-300)
    return norm, tol


def _debiased_power(means, var_means, p):
    """E|m_i|^p with the first-order Jensen correction removed."""
    a = np.abs(means)
    base = a**p
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = 0.5 * p * (p - 1.0) * np.where(a > 1e-12, a ** (p - 2.0), 0.0) * var_means
    return base - corr


def lp_norm_of_G(engine, s, t, f, p, shift=0.0, order=64):
    """(||G(t,s) f - shift||_{L^p(mu_t)}, tolerance)."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    mu_t = engine.measure(t)
    if isinstance(mu_t, GaussianMeasure):
        pts, w = mu_t.quad_points(order)
        vals, _ = engine.apply_G_at(s, t, f, pts)
        mp = float(w @ np.abs(vals - shift) ** p)
        norm = mp ** (1.0 / p)
        return norm, _QUAD_REL_TOL * max(1.0, norm)
    xs = engine.outer_points(mu_t)
    means, var_means = engine.apply_G_at(s, t, f, xs)
    contrib = _debiased_power(means - shift, var_means, p)
    mp = float(np.mean(contrib))
    se = float(np.std(contrib, ddof=1) / math.sqrt(contrib.shape[0]))
    mp = max(mp, 1e-300)
    norm = mp ** (1.0 / p)
    tol = norm / p * se / mp
    return norm, tol


def grad_lp_norm_of_G(engine, s, t, f, p, order=64):
    """(|| |grad G(t,s) f| ||_{L^p(mu_t)}, tolerance)."""
    mu_t = engine.measure(t)
    if isinstance(mu_t, GaussianMeasure):
        pts, w = mu_t.quad_points(order)
        grads, _ = engine.grad_G_at(s, t, f, pts)
        norms = np.linalg.norm(grads, axis=1)
        mp = float(w @ norms**p)
        norm = mp ** (1.0 / p)
        return norm, _QUAD_REL_TOL * max(1.0, norm)
    xs = engine.outer_points(mu_t)
    means, var_means = engine.grad_G_at(s, t, f, xs)
    # Debias |m_i|^2 by the summed component variances before taking p/2.
    sq = np.einsum("nd,nd->n", means, means) - var_means.sum(axis=1)
    sq = np.clip(sq, 0.0, None)
    contrib = sq ** (p / 2.0)
    mp = float(np.mean(contrib))
    se = float(np.std(contrib, ddof=1) / math.sqrt(contrib.shape[0]))
    mp = max(mp, 1e-300)
    norm = mp ** (1.0 / p)
    tol = norm / p * se / mp
    return norm, tol
