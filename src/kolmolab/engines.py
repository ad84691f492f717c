"""Two interchangeable evaluators for G(t, s) against its measures.

The inequality suites only need a tiny surface:

* ``measure(t)``                       -- mu_t (Gaussian or empirical cloud),
* ``outer_points(mu)``                 -- (points, quadrature weights or None),
* ``apply_G_at(s, t, f, xs)``          -- (values, variance of each value),
* ``grad_G_at(s, t, f, xs)``           -- (gradients, variance per component),
* ``cloud(t, stream)``, ``push(mu, s, ts)`` -- mu_t from a stream, and mu
  carried by G(t, s) to each end time t of ts, a measure per t whose
  ``expectation(f)`` is (int G(t,s)f dmu, tol),
* ``memo``                             -- a :class:`~kolmolab.memo.Memo`,
* ``spec``                             -- the :class:`~kolmolab.model.ProblemSpec`,
* its declared constants ``eta0, Lambda, r0`` and decay's defaults
  ``decay_gaps_a``, ``decay_gaps_b`` and ``decay_affine``.

Both kinds of measure share one surface too: ``mu.rule()`` gives
(points, weights) -- Gauss-Hermite nodes of order ``ou.GH_ORDER`` for a
Gaussian, the samples and ``None`` for a cloud -- ``mu.expectation(f)``
gives (value, tolerance), and ``difference``, ``add_errors``, ``tail_mass``,
``parameter_gap`` and ``is_standard`` hold what depends on the kind.

``AnalyticOUEngine`` evaluates everything by quadrature against the linear
model, and every stream of mu_t is its exact ``measure(t)``.
``MonteCarloEngine`` propagates clouds with the path simulator, using
``n_inner`` replicate paths per evaluation point.  Its ``cloud(t, stream)``
is a burn-in of ``cloud_size`` paths, and its ``push`` moves one path per
point, in one run to the last end time for an autonomous spec; every seed
is derived from ``cfg.seed`` and a stream tag.
Through its memo (a run's, when given one) the analytic engine computes its
omega fit, measures and kernel moments once per key, the Monte Carlo engine
its burn-in clouds once per (t, size, seed) -- once per (size, seed) for an
autonomous spec, whose mu_t does not depend on t -- and the L^p helpers
below compute G(t, s)f and its gradient at an engine's outer points once per
(s, t, f).
The helpers debias the inner-mean plug-in (the first-order Jensen
correction in the inner variance, zero for the analytic engine) and share
one core, which scales every magnitude by the largest so that the huge
exponents of long hypercontractivity gaps stay finite: a quadrature sum
with a fixed relative tolerance under weights, a sample mean with its
delta-method standard error without them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import sde
from .errors import DomainError
from .measures import _BURN_IN_TOL, EmpiricalMeasure, burn_in_start, sample_mu
from .memo import Memo
from .model import reflect_time
from .ou import GH_HALF_ORDER, estimate_omega0, evolution_measure, ou_apply_G

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

    # decay's default gaps on sides A and B, and whether its family holds
    # the unbounded affine direction
    decay_gaps_a = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    decay_gaps_b = (1.0, 1.5, 2.0, 3.0, 4.0)
    decay_affine = True

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

    def cloud(self, t, stream="mu_t"):
        """mu_t: a Gaussian is exact, so every stream gets the same one."""
        return self.measure(t)

    def push(self, mu, s, ts):
        """mu carried by G(t, s) for each t of ts: ``expectation(f)`` is mu's
        rule applied to ``ou_apply_G``, with the gap (at least 1e-9) to the
        kernel rule of ``ou.GH_HALF_ORDER`` as its tolerance.  A Gaussian bump
        in d >= 2 is applied in closed form, the same at both orders, so its
        tolerance is the 1e-9 floor."""
        pts, w = mu.rule()

        def pushed(t):
            def expectation(f):
                full = float(w @ ou_apply_G(self.model, t, s, f, pts, memo=self.memo))
                half = float(
                    w @ ou_apply_G(self.model, t, s, f, pts, GH_HALF_ORDER, self.memo)
                )
                return full, max(1e-9, abs(full - half))

            return SimpleNamespace(expectation=expectation)

        return [pushed(t) for t in ts]

    def outer_points(self, mu):
        return mu.rule()

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


def _invariant_cloud(spec, tol, cfg):
    """The burn-in cloud of an autonomous spec's invariant measure.

    Coefficients that do not read the clock extend to the whole line, so the
    cloud is sampled at t = 0 there; it records no time, since it stands for
    mu_t at every t."""
    mu = sample_mu(replace(spec, interval_start=-math.inf), 0.0, tol, cfg)
    return replace(mu, t=None)


class MonteCarloEngine:
    """Nested Monte Carlo evaluation for general dissipative drifts."""

    # decay's defaults (see AnalyticOUEngine)
    decay_gaps_a = decay_gaps_b = (1.0, 2.0, 3.0)
    decay_affine = False

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
            burn_in_start(self.spec, t, _BURN_IN_TOL, cfg)
            return self.memo("clouds", _invariant_cloud, self.spec, _BURN_IN_TOL, cfg)
        return self.memo("clouds", sample_mu, self.spec, float(t), _BURN_IN_TOL, cfg)

    def cloud(self, t, stream="mu_t"):
        """A burn-in cloud of mu_t from ``stream``: "mu_t", "mu_s" or
        "flow_mid".  A stream's seed does not depend on t, so flow's two
        offset clouds share their noise (common random numbers), and for an
        autonomous spec a stream gives one cloud at every t."""
        return self._burn_in(t, _stream_seed(self.cfg.seed, stream))

    def push(self, mu, s, ts):
        """The cloud ``mu`` carried from s to each t of ts, one path per
        point, by the kernel of G(t, s): the mirrored-clock flow.

        The push seed does not depend on t, and an autonomous spec's
        mirrored clock reads no time, so there one run to the last t gives
        every t (``sde.simulate``'s ``ends``); otherwise each t, whose clock
        is mirrored about s + t, gets a run of its own."""
        cfg = replace(
            self.cfg, n_paths=mu.n, seed=_stream_seed(self.cfg.seed, "push")
        )
        runs = [list(ts)] if self.spec.autonomous else [[t] for t in ts]
        pushed = {}
        for ends in runs:
            t = max(ends)
            run = sde.simulate(
                reflect_time(self.spec, s + t), s, t, mu.samples, cfg,
                with_jacobians=False, ends=ends,
            )
            pushed.update((u, EmpiricalMeasure(samples=run.at(u).states)) for u in ends)
        return [pushed[t] for t in ts]

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

    def outer_points(self, mu):
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


def _lp_core(a, w, p, var=None):
    """(norm, tolerance) of the L^p norm from per-point magnitudes ``a`` under
    a rule, debiased by the variance ``var`` of each point's plug-in value.

    The norm is M (mean (a/M)^p - J)^(1/p) with M = max a, so no power
    overflows or underflows at large p.  J is the first-order Jensen term
    0.5 p (p - 1) (a/M)^(p-2) var / M^2, applied only where var > 0 (an
    analytic value has none).  A quadrature norm carries the fixed relative
    tolerance _QUAD_REL_TOL; a cloud norm carries the delta-method standard
    error, and a negative debiased cloud mean is clipped to 1e-300."""
    M = float(np.max(a)) or 1.0
    u = a / M
    powers = u**p
    if var is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            jensen = np.where(
                (var > 0.0) & (a > 1e-12),
                0.5 * p * (p - 1.0) * u ** (p - 2.0) * (var / M**2),
                0.0,
            )
        powers = powers - jensen
    mp, se = rule_mean(powers, w)
    if w is not None:
        norm = M * mp ** (1.0 / p)
        return norm, _QUAD_REL_TOL * max(1.0, norm)
    mp = max(mp, 1e-300)
    norm = M * mp ** (1.0 / p)
    return norm, norm / p * se / mp


def lp_norm_measure(mu, f, p):
    """(||f||_{L^p(mu)}, tolerance)."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    pts, w = mu.rule()
    return _lp_core(np.abs(np.asarray(f.value(pts), dtype=float)), w, p)


def _G_at_outer_points(engine, grad, s, t, f):
    """(weights, means, variances) of G(t,s)f -- or of its gradient, when
    ``grad`` -- at the engine's outer points of mu_t.

    Callers go through ``engine.memo``, which is exact for both engines:
    the analytic values are deterministic, and the Monte Carlo replicates
    are seeded by (s, t) alone."""
    xs, w = engine.outer_points(engine.measure(t))
    apply = engine.grad_G_at if grad else engine.apply_G_at
    return (w, *apply(s, t, f, xs))


def lp_norm_of_G(engine, s, t, f, p, shift=0.0):
    """(||G(t,s) f - shift||_{L^p(mu_t)}, tolerance)."""
    if p < 1.0:
        raise DomainError("p must be >= 1")
    w, means, var_means = engine.memo("G", _G_at_outer_points, engine, False, s, t, f)
    return _lp_core(np.abs(means - shift), w, p, var_means)


def grad_lp_norm_of_G(engine, s, t, f, p):
    """(|| |grad G(t,s) f| ||_{L^p(mu_t)}, tolerance)."""
    w, means, var_means = engine.memo("G", _G_at_outer_points, engine, True, s, t, f)
    # Debias |m_i|^2 by the summed component variances before the root.
    sq = np.einsum("nd,nd->n", means, means) - var_means.sum(axis=1)
    return _lp_core(np.sqrt(np.clip(sq, 0.0, None)), w, p)
