"""Two interchangeable evaluators for G(t, s) against its measures.

The inequality suites only need a tiny surface:

* ``measure(t)``                       -- mu_t (Gaussian or empirical cloud),
* ``outer_points(mu, order)``          -- (points, quadrature weights or None),
* ``apply_G_at(s, t, f, xs)``          -- (values, variance of each value),
* ``grad_G_at(s, t, f, xs)``           -- (gradients, variance per component),
* ``memo``                             -- a :class:`~kolmolab.memo.Memo`,
* ``kind``                             -- "analytic" or "mc",
* ``spec``                             -- the :class:`~kolmolab.model.ProblemSpec`,
* its declared constants ``eta0, Lambda, r0``.

Both kinds of measure share one surface too: ``mu.rule(order)`` gives
(points, weights) -- Gauss-Hermite nodes for a Gaussian, the samples and
``None`` for a cloud -- and ``mu.expectation(f, order)`` gives
(value, tolerance).

``AnalyticOUEngine`` evaluates everything by quadrature against the linear
model; ``MonteCarloEngine`` propagates clouds with the path simulator, using
``n_inner`` replicate paths per evaluation point.  Through its memo (a
run's, when given one) the analytic engine computes its omega fit, measures
and kernel moments once per key, the Monte Carlo engine its burn-in clouds
(``cloud(t, tol, cfg)``), and the L^p helpers below compute G(t, s)f and
its gradient at an engine's outer points once per (s, t, f, order).
The helpers debias the inner-mean plug-in (the first-order Jensen
correction in the inner variance, zero for the analytic engine) and share
one core: a quadrature sum with a fixed relative tolerance under weights, a
sample mean with its delta-method standard error without them.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import sde
from .errors import DomainError
from .measures import sample_mu
from .memo import Memo
from .model import reflect_time
from .ou import estimate_omega0, evolution_measure, ou_apply_G

__all__ = [
    "AnalyticOUEngine",
    "MonteCarloEngine",
    "engine_for",
    "lp_norm_measure",
    "lp_norm_of_G",
    "grad_lp_norm_of_G",
    "rule_mean",
]


class AnalyticOUEngine:
    """Quadrature-exact evaluation for linear models; ``spec`` is the
    model's :class:`~kolmolab.model.ProblemSpec` with its declared
    constants."""

    kind = "analytic"

    def __init__(self, model, spec, tol=1e-8, order=64, memo=None):
        self.model = model
        self.spec = spec
        self.eta0 = spec.eta0
        self.Lambda = spec.Lambda
        self.r0 = spec.r0
        self.tol = tol
        self.order = order
        self.memo = Memo() if memo is None else memo
        # mu_t handed out so far, by time to 12 digits (perfbench's tracer
        # reads it to count first requests)
        self._measures = {}

    @property
    def omega_fit(self):
        return self.memo("omega", estimate_omega0, self.model)

    def measure(self, t):
        t = float(t)
        mu = self.memo("measures", self._evolution_measure, t)
        self._measures[round(t, 12)] = mu
        return mu

    def _evolution_measure(self, t):
        return evolution_measure(self.model, t, self.tol, self.omega_fit)

    def outer_points(self, mu, order=64):
        return mu.rule(order)

    def apply_G_at(self, s, t, f, xs):
        vals = ou_apply_G(self.model, t, s, f, xs, order=self.order, memo=self.memo)
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        return vals, np.zeros_like(vals)

    def grad_G_at(self, s, t, f, xs):
        grads = ou_apply_G(
            self.model, t, s, f, xs, order=self.order, memo=self.memo, grad=True
        )
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
        memo=None,
    ):
        if spec.r0 >= 0.0:
            raise DomainError("Monte Carlo engine needs a dissipative spec (r0 < 0)")
        self.spec = spec
        self.cfg = cfg or sde.SimConfig(n_paths=cloud_size)
        self.cloud_size = cloud_size
        self.n_inner = n_inner
        # Nested norm estimates subsample the measure cloud to this many
        # outer points (see outer_points).
        self.n_outer = n_outer
        self.mu_tol = mu_tol
        self.memo = Memo() if memo is None else memo
        self.eta0 = spec.eta0
        self.Lambda = spec.Lambda
        self.r0 = spec.r0
        self._measures = {}

    def _seed_for(self, tag, t):
        return (self.cfg.seed * 1_000_003 + tag * 7919 + int(round(t * 4096))) % (
            2**62
        )

    def cloud(self, t, tol, cfg):
        """:func:`kolmolab.measures.sample_mu`, computed once per memo key."""
        return self.memo("clouds", sample_mu, self.spec, float(t), float(tol), cfg)

    def measure(self, t):
        key = round(float(t), 12)
        if key not in self._measures:
            cfg = replace(
                self.cfg, n_paths=self.cloud_size, seed=self._seed_for(1, t)
            )
            self._measures[key] = self.cloud(t, self.mu_tol, cfg)
        return self._measures[key]

    def _replicate_means(self, s, t, f, xs, grad):
        """(means, variance of each mean) of f -- or, with ``grad``, of its
        pathwise gradient J^T grad f -- over n_inner replicate paths from
        each point of ``xs``.

        The replicates run the mirrored-clock flow (the kernel of G; see
        kolmolab.sde) on a seed of their own for values and for gradients."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        n = xs.shape[0]
        starts = np.repeat(xs, self.n_inner, axis=0)
        cfg = replace(
            self.cfg,
            n_paths=n * self.n_inner,
            seed=self._seed_for(3 if grad else 2, t + 1e3 * s),
        )
        bundle = sde.simulate(
            reflect_time(self.spec, s + t), s, t, starts, cfg,
            with_jacobians=grad,
        )
        if grad:
            g = np.asarray(f.gradient(bundle.states), dtype=float)
            per_path = np.einsum("nij,ni->nj", bundle.jacobians, g).reshape(
                n, self.n_inner, -1
            )
        else:
            per_path = np.asarray(f.value(bundle.states), dtype=float).reshape(
                n, self.n_inner
            )
        return per_path.mean(axis=1), per_path.var(axis=1, ddof=1) / self.n_inner

    def apply_G_at(self, s, t, f, xs):
        """Inner means of f over n_inner replicate paths per point:
        (means, variance of each mean)."""
        return self._replicate_means(s, t, f, xs, grad=False)

    def grad_G_at(self, s, t, f, xs):
        return self._replicate_means(s, t, f, xs, grad=True)

    def outer_points(self, mu, order=None):
        """The first n_outer cloud points, unweighted; the cloud is i.i.d.,
        so a prefix is unbiased."""
        return mu.samples[: self.n_outer], None


def engine_for(
    bundle, cfg=None, tol=1e-8, order=64, kind=None, memo=None, **mc_kwargs
):
    """Pick the analytic engine when the bundle has a linear model.

    ``kind`` forces the choice: "ou" insists on the analytic engine (and
    raises when the bundle has no linear model), "general" forces Monte
    Carlo even when a closed form exists (useful for cross-validation).
    The analytic engine ignores ``cfg`` and ``mc_kwargs``.  ``memo`` is
    shared by the engine (default: a memo of its own).
    """
    if kind not in (None, "ou", "general"):
        raise DomainError(f"engine kind must be 'ou' or 'general', got {kind!r}")
    if kind == "ou" and bundle.model is None:
        raise DomainError(
            f"bundle {bundle.name!r} has no linear-drift closed form"
        )
    if bundle.model is not None and kind != "general":
        return AnalyticOUEngine(
            bundle.model, bundle.spec, tol=tol, order=order, memo=memo
        )
    return MonteCarloEngine(bundle.spec, cfg=cfg, memo=memo, **mc_kwargs)


_QUAD_REL_TOL = 1e-6


def rule_mean(vals, w):
    """(mean, standard error) of per-point values under a measure's rule.

    Quadrature weights ``w`` give the weighted sum, with no sampling error;
    an unweighted cloud (``w is None``) gives the sample mean."""
    if w is not None:
        return float(w @ vals), 0.0
    return float(np.mean(vals)), float(
        np.std(vals, ddof=1) / math.sqrt(vals.shape[0])
    )


def _lp_core(powers, w, p):
    """(norm, tolerance) from per-point values of |g|^p under a rule.

    A quadrature norm carries the fixed relative tolerance _QUAD_REL_TOL; a
    cloud norm carries the delta-method standard error."""
    mp, se = rule_mean(powers, w)
    if w is not None:
        norm = mp ** (1.0 / p)
        return norm, _QUAD_REL_TOL * max(1.0, norm)
    mp = max(mp, 1e-300)
    norm = mp ** (1.0 / p)
    return norm, norm / p * se / mp


def lp_norm_measure(mu, f, p, order=64):
    """(||f||_{L^p(mu)}, tolerance)."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    pts, w = mu.rule(order)
    vals = np.abs(np.asarray(f.value(pts), dtype=float))
    return _lp_core(vals**p, w, p)


def _debiased_power(means, var_means, p):
    """E|m_i|^p with the first-order Jensen correction removed."""
    a = np.abs(means)
    base = a**p
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = 0.5 * p * (p - 1.0) * np.where(a > 1e-12, a ** (p - 2.0), 0.0) * var_means
    return base - corr


def _G_at_outer_points(engine, grad, s, t, f, order):
    """(weights, means, variances) of G(t,s)f -- or of its gradient, when
    ``grad`` -- at the engine's outer points of mu_t.

    Callers go through ``engine.memo``, which is exact for both engines:
    the analytic values are deterministic, and the Monte Carlo replicates
    are seeded by (s, t) alone."""
    xs, w = engine.outer_points(engine.measure(t), order)
    apply = engine.grad_G_at if grad else engine.apply_G_at
    return (w, *apply(s, t, f, xs))


def lp_norm_of_G(engine, s, t, f, p, shift=0.0, order=64):
    """(||G(t,s) f - shift||_{L^p(mu_t)}, tolerance)."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    w, means, var_means = engine.memo(
        "G", _G_at_outer_points, engine, False, s, t, f, order
    )
    return _lp_core(_debiased_power(means - shift, var_means, p), w, p)


def grad_lp_norm_of_G(engine, s, t, f, p, order=64):
    """(|| |grad G(t,s) f| ||_{L^p(mu_t)}, tolerance)."""
    w, means, var_means = engine.memo(
        "G", _G_at_outer_points, engine, True, s, t, f, order
    )
    # Debias |m_i|^2 by the summed component variances before taking p/2.
    sq = np.einsum("nd,nd->n", means, means) - var_means.sum(axis=1)
    return _lp_core(np.clip(sq, 0.0, None) ** (p / 2.0), w, p)
