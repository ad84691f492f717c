"""Evolution systems of measures: sampling, functionals, and diagnostics.

The family {mu_t} associated with G(t, s) satisfies

    int G(t, s) f  d mu_t = int f  d mu_s          (s < t),

and, for C^2 functions constant outside a compact set,

    d/dr int f d mu_r = - int A(r) f  d mu_r.

For linear models the measures are the Gaussians N(g_t, Q_t) built in
:mod:`kolmolab.ou`; for general dissipative drifts mu_t is approximated by
the terminal cloud of a long mirrored-clock burn-in (the mixing time is read
off the declared contraction rate r0).  The mirrored clock -- coefficients
swept from t + span back down to t -- is the path picture of the evolution
operator (see :mod:`kolmolab.sde`); for autonomous drifts it coincides with
the familiar burn-in from the past.  The burn-in grid does not depend on t,
so for an autonomous spec, whose mu_t is one invariant measure, every t
gives the same cloud.
"""

from __future__ import annotations

import io as _stdio
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import special

from . import sde
from .errors import DomainError, HorizonError, UnboundedFunctionError
from .functions import bounded_test_family
from .io import atomic_write_text
from .model import apply_generator, reflect_time
from .ou import GaussianMeasure, ou_apply_G

__all__ = [
    "EmpiricalMeasure",
    "Defect",
    "GapReport",
    "burn_in_start",
    "sample_mu",
    "mean_functional",
    "invariance_defect",
    "tightness_profile",
    "flow_derivative_defect",
    "weak_star_gap",
    "export_measure_csv",
    "export_measure_json",
]


@dataclass(frozen=True)
class EmpiricalMeasure:
    """A uniform-weight sample cloud standing in for mu_t."""

    samples: np.ndarray  # (n, d)
    t: Optional[float] = None
    provenance: dict = field(default_factory=dict)

    @property
    def dim(self):
        return self.samples.shape[1]

    @property
    def n(self):
        return self.samples.shape[0]

    def rule(self, order=None):
        """(points, weights) of the cloud: its samples, with no quadrature
        weights (every point counts equally); ``order`` is unused."""
        return self.samples, None

    def expectation(self, f, order=None):
        """(mean, stderr) of f over the cloud; ``order`` is unused."""
        vals = np.asarray(f.value(self.samples), dtype=float)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(self.n)) if self.n > 1 else math.inf
        return mean, se


@dataclass(frozen=True)
class Defect:
    """An |lhs - rhs| style defect together with its statistical tolerance."""

    value: float
    tolerance: float
    lhs: float = math.nan
    rhs: float = math.nan


def _burn_in_span(spec, tol, x0_norm=0.0):
    """The mixing span log(D / tol) / |r0| with D = 10 (1 + |x0|)."""
    if spec.r0 >= 0.0:
        raise DomainError("burn-in needs a negative contraction rate r0")
    return math.log(10.0 * (1.0 + x0_norm) / tol) / abs(spec.r0)


def burn_in_start(spec, t, tol=1e-3, x0_norm=0.0):
    """Start time s0 = t - log(D / tol) / |r0| with D = 10 (1 + |x0|).

    The contraction rate r0 turns the distance-to-equilibrium target ``tol``
    into a mixing span; raises HorizonError when s0 does not fit into the
    time interval."""
    s0 = t - _burn_in_span(spec, tol, x0_norm)
    if s0 <= spec.interval_start:
        raise HorizonError(
            f"burn-in start {s0:.4g} falls outside the interval "
            f"({spec.interval_start}, inf); enlarge the interval or loosen tol"
        )
    return s0


def sample_mu(spec, t, tol=1e-3, cfg=None):
    """Empirical surrogate of mu_t: terminal cloud of a burn-in simulation.

    The burn-in runs ``reflect_time(spec, t)`` on the grid [-span, 0], so
    the dynamics sweep the coefficient window [t, t + span] back toward t;
    long mirrored runs forget their start and settle on the time-t member of
    the evolution system (for autonomous drifts this is the plain burn-in).
    The grid does not depend on t, so an autonomous spec gives the same
    cloud, bit for bit, at every t whose burn-in start ``burn_in_start``
    admits.
    """
    s0 = burn_in_start(spec, t, tol)
    x0 = np.zeros(spec.dim)
    bundle = sde.simulate(
        reflect_time(spec, t), -_burn_in_span(spec, tol), 0.0, x0, cfg,
        with_jacobians=False,
    )
    cfg = bundle.cfg
    return EmpiricalMeasure(
        samples=bundle.states,
        t=float(t),
        provenance={
            "s0": s0,
            "tol": tol,
            "seed": cfg.seed,
            "dt": cfg.dt,
            "scheme": cfg.scheme,
            "n_paths": cfg.n_paths,
        },
    )


def mean_functional(mu, f, certificate=None, order=64):
    """int f d mu.

    Gaussian measures integrate by quadrature (see
    :meth:`GaussianMeasure.expectation`).  Sample clouds (rules without
    quadrature weights) refuse unbounded f unless a Lyapunov certificate
    whose phi dominates |f| on the cloud is supplied.
    """
    if not f.meta.bounded and mu.rule(order)[1] is None:
        if certificate is None:
            raise UnboundedFunctionError(
                f"refusing unbounded integrand {f.meta.name!r} against an "
                "empirical measure without a dominating Lyapunov certificate"
            )
        ratio = np.abs(f.value(mu.samples)) / (
            1.0 + certificate.phi.value(mu.samples)
        )
        if not np.all(np.isfinite(ratio)):
            raise UnboundedFunctionError(
                "certificate does not dominate the integrand on the cloud"
            )
    return mu.expectation(f, order)[0]


def invariance_defect(engine, s, t, fns, mu_s=None, mu_t=None, order=64):
    """| int G(t,s) f d mu_t - int f d mu_s | with its tolerance, one
    :class:`Defect` per function in ``fns``.

    On the analytic engine both sides are quadratures (outer Gauss-Hermite
    over mu_t of the kernel-evaluated G(t,s)f, and a plain quadrature of f
    under mu_s), with missing measures from ``engine.measure`` and the
    kernel moments from ``engine.memo`` (see :func:`kolmolab.ou.ou_apply_G`).
    On the Monte Carlo engine the left side pushes a mu_t cloud from s to t
    (``engine.push``: one path per sample, shared by all functions) and the
    right side averages f over a mu_s cloud; missing clouds are the
    engine's burn-ins ``engine.cloud(t)`` and ``engine.cloud(s, "mu_s")``,
    an independent stream.
    """
    if t <= s:
        raise DomainError(f"need s < t, got s={s}, t={t}")
    if engine.kind == "analytic":
        model = engine.model
        mu_t = mu_t or engine.measure(t)
        mu_s = mu_s or engine.measure(s)
        pts, w = mu_t.rule(order)
        defects = []
        for f in fns:
            lhs = float(w @ ou_apply_G(model, t, s, f, pts, order, engine.memo))
            rhs, rhs_err = mu_s.expectation(f, order)
            lhs_check = float(
                w @ ou_apply_G(model, t, s, f, pts, max(8, order // 2), engine.memo)
            )
            tol = max(1e-9, abs(lhs - lhs_check)) + rhs_err
            defects.append(
                Defect(value=abs(lhs - rhs), tolerance=tol, lhs=lhs, rhs=rhs)
            )
        return defects

    pushed = engine.push(mu_t or engine.cloud(t), s, t)
    mu_s = mu_s or engine.cloud(s, "mu_s")
    defects = []
    for f in fns:
        lhs, se_l = pushed.expectation(f)
        rhs, se_r = mu_s.expectation(f)
        defects.append(
            Defect(
                value=abs(lhs - rhs),
                tolerance=math.hypot(se_l, se_r),
                lhs=lhs,
                rhs=rhs,
            )
        )
    return defects


def tightness_profile(mu, radii):
    """Mass outside the centered balls |x| > R for each R in ``radii``."""
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if isinstance(mu, GaussianMeasure):
        if mu.dim == 1:
            m, sd = float(mu.mean[0]), math.sqrt(float(mu.cov[0, 0]))
            upper = special.ndtr((-radii - m) / sd)
            lower = 1.0 - special.ndtr((radii - m) / sd)
            return upper + lower
        pts = mu.sample(200_000, seed=12345)
        r = np.linalg.norm(pts, axis=1)
        return np.array([float(np.mean(r > R)) for R in radii])
    r = np.linalg.norm(mu.samples, axis=1)
    return np.array([float(np.mean(r > R)) for R in radii])


def flow_derivative_defect(engine, f, r, h=1e-2, order=64):
    """Defect of d/dr m_r(f) = -m_r(A(r) f) via a central difference.

    Only admits functions that are constant outside a compact set (the
    identity is proved for that class); others are refused.  On the
    analytic engine the Gaussians mu_{r-h}, mu_r and mu_{r+h} come from
    ``engine.measure``.  On the Monte Carlo engine the two offset clouds are
    the burn-ins ``engine.cloud(r - h)`` and ``engine.cloud(r + h)``, and the
    mu_r cloud is ``engine.cloud(r, "flow_mid")``.
    """
    if not f.meta.compact_support:
        raise DomainError(
            "flow_derivative_defect needs a function that is constant "
            "outside a compact set"
        )
    if f.hessian is None:
        raise DomainError("flow_derivative_defect needs a C^2 function")

    if engine.kind == "analytic":
        mu_p = engine.measure(r + h)
        mu_m = engine.measure(r - h)
        mu_0 = engine.measure(r)
        m_p, e_p = mu_p.expectation(f, order)
        m_m, e_m = mu_m.expectation(f, order)
        gen = mu_0.expectation(_GeneratorValues(engine.spec, r, f), order)[0]
        diff = (m_p - m_m) / (2.0 * h)
        tol = (e_p + e_m) / (2.0 * h) + 1e-9
        return Defect(value=abs(diff + gen), tolerance=tol, lhs=diff, rhs=-gen)

    # Common random numbers: both offset clouds share the seed and the burn-in
    # span, so the central difference is a mean of pathwise-paired
    # differences.  Each burn-in mirrors its clock about its own target time.
    f_p = np.asarray(f.value(engine.cloud(r + h).samples), dtype=float)
    f_m = np.asarray(f.value(engine.cloud(r - h).samples), dtype=float)
    pair_diff = (f_p - f_m) / (2.0 * h)
    diff = float(np.mean(pair_diff))
    se_diff = float(np.std(pair_diff, ddof=1) / math.sqrt(pair_diff.shape[0]))
    mu_0 = engine.cloud(r, "flow_mid")
    gen, se_gen = mu_0.expectation(_GeneratorValues(engine.spec, r, f))
    return Defect(
        value=abs(diff + gen),
        tolerance=math.hypot(se_diff, se_gen),
        lhs=diff,
        rhs=-gen,
    )


class _GeneratorValues:
    """Adapter exposing x -> (A(r) f)(x) with the batch-value interface.

    Its ``meta`` is f's with outside value 0: A(r) f vanishes where f is
    constant, so a Gaussian integrates a compactly flat A(r) f on the
    support box of f."""

    def __init__(self, spec, r, f):
        self.spec, self.r, self.f = spec, r, f
        self.meta = replace(f.meta, outside_value=0.0)

    def value(self, x):
        return apply_generator(self.spec, self.r, self.f, x)


@dataclass(frozen=True)
class GapReport:
    value: float
    tolerance: float
    per_function: tuple
    mean_gap: Optional[float] = None
    cov_gap: Optional[float] = None


def weak_star_gap(mu1, mu2, family=None, order=64):
    """max_f |m(f; mu1) - m(f; mu2)| over a fixed bounded C^2 family.

    For two Gaussian arguments the exact parameter gaps |mean1 - mean2| and
    ||cov1 - cov2||_2 are reported alongside."""
    dim = mu1.dim
    if family is None:
        family = bounded_test_family(dim)
    gaps = []
    tols = []
    for f in family:
        m1, e1 = mu1.expectation(f, order)
        m2, e2 = mu2.expectation(f, order)
        gaps.append(abs(m1 - m2))
        tols.append(math.hypot(e1, e2))
    mean_gap = cov_gap = None
    if isinstance(mu1, GaussianMeasure) and isinstance(mu2, GaussianMeasure):
        mean_gap = float(np.linalg.norm(mu1.mean - mu2.mean))
        cov_gap = float(np.linalg.norm(mu1.cov - mu2.cov, 2))
    k = int(np.argmax(gaps))
    return GapReport(
        value=float(gaps[k]),
        tolerance=float(tols[k]),
        per_function=tuple(gaps),
        mean_gap=mean_gap,
        cov_gap=cov_gap,
    )


def export_measure_csv(mu, path):
    """Write an empirical cloud as CSV, one sample per row."""
    if not isinstance(mu, EmpiricalMeasure):
        raise DomainError("CSV export is for empirical measures")
    buf = _stdio.StringIO()
    header = ",".join(f"x{i + 1}" for i in range(mu.dim))
    buf.write(header + "\n")
    np.savetxt(buf, mu.samples, delimiter=",", fmt="%.17g")
    atomic_write_text(path, buf.getvalue())


def export_measure_json(mu, path):
    """Write a Gaussian measure as JSON {mean, covariance, t}."""
    import json

    if not isinstance(mu, GaussianMeasure):
        raise DomainError("JSON export is for Gaussian measures")
    atomic_write_text(path, json.dumps(mu.as_dict(), indent=2) + "\n")
