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
``n_inner`` replicate paths per evaluation point.  The Monte Carlo engine
alone decides its clouds: ``cloud(t, stream)`` is a burn-in of
``cloud_size`` paths, and ``push(mu, s, t)`` carries a cloud through the
kernel of G(t, s); every seed they use is derived here from ``cfg.seed``
and a stream tag (``_STREAM_TAGS``).
Through its memo (a run's, when given one) the analytic engine computes its
omega fit, measures and kernel moments once per key, the Monte Carlo engine
its burn-in clouds once per (t, size, seed) -- once per (size, seed) for an
autonomous spec, whose mu_t does not depend on t -- and the L^p helpers
below compute G(t, s)f and its gradient at an engine's outer points once per
(s, t, f, order).
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
from .measures import EmpiricalMeasure, burn_in_start, sample_mu
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

    def __init__(self, model, spec, tol=1e-8, memo=None):
        self.model = model
        self.spec = spec
        self.eta0 = spec.eta0
        self.Lambda = spec.Lambda
        self.r0 = spec.r0
        self.tol = tol
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
        vals = ou_apply_G(self.model, t, s, f, xs, memo=self.memo)
        vals = np.atleast_1d(np.asarray(vals, dtype=float))
        return vals, np.zeros_like(vals)

    def grad_G_at(self, s, t, f, xs):
        grads = ou_apply_G(self.model, t, s, f, xs, memo=self.memo, grad=True)
        grads = np.atleast_2d(np.asarray(grads, dtype=float))
        return grads, np.zeros_like(grads)


# Tags of the Monte Carlo streams: the burn-in streams of ``cloud``, the
# push of a cloud through the kernel of G(t, s), the burn-in of
# ``measure(t)``, and the replicate values and gradients of G(t, s).
# invariance's mu_s must be a stream of its own, so that its identity does
# not hold by construction.
_STREAM_TAGS = {
    "mu_t": 0, "mu_s": 1, "flow_mid": 2, "push": 3,
    "measure": 4, "values": 5, "gradients": 6,
}


def _stream_seed(seed, stream, *times):
    """The simulation seed of ``stream`` at ``times`` for run seed ``seed``.

    It is drawn from a SeedSequence on ``seed`` whose spawn key is the
    stream's tag and the float bits of its times (-0.0 read as 0.0), so
    streams that differ in tag or in any bit of a time are distinct by
    construction, up to a 64-bit hash collision."""
    key = (_STREAM_TAGS[stream],) + tuple(
        int(np.float64(float(t) + 0.0).view(np.uint64)) for t in times
    )
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


# Distance-to-equilibrium target of every burn-in (see measures.burn_in_start).
_BURN_IN_TOL = 1e-3


def _invariant_cloud(spec, tol, cfg):
    """The burn-in cloud of an autonomous spec's invariant measure.

    Coefficients that do not read the clock extend to the whole line, so the
    cloud is sampled at t = 0 there; it records no time, since it stands for
    mu_t at every t."""
    mu = sample_mu(replace(spec, interval_start=-math.inf), 0.0, tol, cfg)
    return replace(mu, t=None)


class MonteCarloEngine:
    """Nested Monte Carlo evaluation for general dissipative drifts."""

    kind = "mc"

    def __init__(
        self, spec, cfg=None, cloud_size=8192, n_inner=192, n_outer=2048, memo=None
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
        self.memo = Memo() if memo is None else memo
        self.eta0 = spec.eta0
        self.Lambda = spec.Lambda
        self.r0 = spec.r0
        self._measures = {}

    def _burn_in(self, t, seed):
        """:func:`kolmolab.measures.sample_mu` of cloud_size paths on
        ``seed``, computed once per memo key.

        An autonomous spec's key leaves t out: after checking that t's
        burn-in fits the interval, every t shares one cloud."""
        cfg = replace(self.cfg, n_paths=self.cloud_size, seed=seed)
        if self.spec.autonomous:
            burn_in_start(self.spec, t, _BURN_IN_TOL)
            return self.memo("clouds", _invariant_cloud, self.spec, _BURN_IN_TOL, cfg)
        return self.memo("clouds", sample_mu, self.spec, float(t), _BURN_IN_TOL, cfg)

    def cloud(self, t, stream="mu_t"):
        """A burn-in cloud of mu_t from ``stream``: "mu_t", "mu_s" or
        "flow_mid".  A stream's seed does not depend on t, so flow's two
        offset clouds share their noise (common random numbers), and for an
        autonomous spec a stream gives one cloud at every t."""
        return self._burn_in(t, _stream_seed(self.cfg.seed, stream))

    def push(self, mu, s, t):
        """The cloud ``mu`` carried from s to t, one path per point, by the
        kernel of G(t, s): the mirrored-clock flow."""
        seed = _stream_seed(self.cfg.seed, "push")
        bundle = sde.simulate(
            reflect_time(self.spec, s + t), s, t, mu.samples,
            replace(self.cfg, n_paths=mu.n, seed=seed), with_jacobians=False,
        )
        return EmpiricalMeasure(samples=bundle.states)

    def measure(self, t):
        key = round(float(t), 12)
        if key not in self._measures:
            self._measures[key] = self._burn_in(
                t, _stream_seed(self.cfg.seed, "measure", t)
            )
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
        stream = "gradients" if grad else "values"
        cfg = replace(
            self.cfg,
            n_paths=n * self.n_inner,
            seed=_stream_seed(self.cfg.seed, stream, s, t),
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


def engine_for(bundle, cfg=None, tol=1e-8, memo=None, **mc_kwargs):
    """The analytic engine when the bundle has a linear model, else the
    Monte Carlo engine.

    The analytic engine ignores ``cfg`` and ``mc_kwargs``.  ``memo`` is
    shared by the engine (default: a memo of its own).
    """
    if bundle.model is not None:
        return AnalyticOUEngine(bundle.model, bundle.spec, tol=tol, memo=memo)
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
