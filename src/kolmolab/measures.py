"""Evolution systems of measures: sampling, functionals, and diagnostics.

The family {mu_t} associated with G(t, s) satisfies

    int G(t, s) f  d mu_t = int f  d mu_s          (s < t),

and, for C^2 functions constant outside a compact set,

    d/dr int f d mu_r = - int A(r) f  d mu_r.

For linear models the measures are the Gaussians N(g_t, Q_t) built in
:mod:`kolmolab.ou`; for general dissipative drifts mu_t is approximated by
the terminal cloud of a long mirrored-clock burn-in (the mixing time is read
off the declared contraction rate r0; an autonomous gradient drift burns in
with the Leimkuhler-Matthews step at h = 5e-2, see ``burn_in_grid``).  The
mirrored clock -- coefficients swept from t + span back down to t -- is the
path picture of the evolution operator (see :mod:`kolmolab.sde`); for
autonomous drifts it coincides with the familiar burn-in from the past.
The burn-in grid does not depend on t, so for an autonomous spec, whose
mu_t is one invariant measure, every t gives the same cloud.
"""

from __future__ import annotations

import io as _stdio
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import sde
from .errors import BlowUpError, DomainError, HorizonError
from .functions import bounded_test_family
from .io import atomic_write_text
from .model import apply_generator, reflect_time
from .ou import GaussianMeasure

__all__ = [
    "EmpiricalMeasure",
    "Defect",
    "GapReport",
    "burn_in_grid",
    "burn_in_start",
    "sample_mu",
    "invariance_defect",
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

    def rule(self):
        """(points, weights) of the cloud: its samples, with no quadrature
        weights (every point counts equally)."""
        return self.samples, None

    def expectation(self, f):
        """(mean, stderr) of f over the cloud."""
        return _mean_se(np.asarray(f.value(self.samples), dtype=float))

    def difference(self, other, f, scale):
        """(mean, stderr) of the paired differences (f(x_i) - f(y_i)) / scale
        between this cloud and ``other``, drawn on common random numbers."""
        f_p = np.asarray(f.value(self.samples), dtype=float)
        f_m = np.asarray(f.value(other.samples), dtype=float)
        return _mean_se((f_p - f_m) / scale)

    @staticmethod
    def add_errors(a, b):
        """Independent standard errors add in quadrature."""
        return math.hypot(a, b)

    def tail_mass(self, radii):
        """Share of the cloud outside |x| > R for each R in ``radii``."""
        r = np.linalg.norm(self.samples, axis=1)
        return np.array([float(np.mean(r > R)) for R in np.atleast_1d(radii)])

    def parameter_gap(self, other):
        """A cloud has no parameters: its :func:`weak_star_gap` to ``other``."""
        return weak_star_gap(self, other).value

    def is_standard(self):
        """Never: a cloud only approximates the standard Gaussian."""
        return False


def _mean_se(vals):
    """(mean, standard error of the mean) of a sample."""
    n = vals.shape[0]
    se = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(np.mean(vals)), se


@dataclass(frozen=True)
class Defect:
    """An |lhs - rhs| style defect together with its statistical tolerance."""

    value: float
    tolerance: float
    lhs: float = math.nan
    rhs: float = math.nan


# Distance-to-equilibrium target of every engine burn-in (see burn_in_start).
_BURN_IN_TOL = 1e-3
# Step of the Leimkuhler-Matthews burn-ins of autonomous gradient drifts.
_LM_STEP = 5e-2
# flow_derivative_defect's default h: its measures at r - h need r - h > start.
FLOW_STEP = 1e-2


def _mixing_span(spec, tol):
    """log(10 / tol) / |r0|: the span after which the burn-in from x0 = 0
    is within tol of equilibrium."""
    if spec.r0 >= 0.0:
        raise DomainError("burn-in needs a negative contraction rate r0")
    return math.log(10.0 / tol) / abs(spec.r0)


def burn_in_grid(spec, tol, cfg):
    """(span, cfg) of the burn-in from x0 = 0 that ``sample_mu`` runs.

    The span is the mixing span log(10 / tol) / |r0|, simulated with cfg.
    For an autonomous gradient drift (``spec.autonomous`` and
    ``spec.gradient_drift``) under the Euler scheme, the burn-in takes
    instead n = ceil(mixing span / h) whole Leimkuhler-Matthews steps of
    h = max(cfg.dt, _LM_STEP), whose bias in equilibrium averages is
    O(h^2) (see :mod:`kolmolab.sde`): the span is n h and cfg carries that
    scheme and step.  A last step shorter than h would bias the cloud.  An
    h that ``SimConfig.check_against`` refuses for the spec's r0 keeps
    cfg."""
    span = _mixing_span(spec, tol)
    if not (spec.autonomous and spec.gradient_drift and cfg.scheme == "euler"):
        return span, cfg
    h = max(cfg.dt, _LM_STEP)
    lm = replace(cfg, dt=h, scheme=sde.LEIMKUHLER_MATTHEWS)
    try:
        lm.check_against(spec)
    except DomainError:
        return span, cfg
    return math.ceil(span / h) * h, lm


def burn_in_start(spec, t, tol=1e-3, cfg=None):
    """Start time s0 = t - span of the burn-in from x0 = 0 (``burn_in_grid``).

    The contraction rate r0 turns the distance-to-equilibrium target ``tol``
    into a mixing span; raises HorizonError when s0 does not fit into the
    time interval."""
    s0 = t - burn_in_grid(spec, tol, cfg or sde.SimConfig())[0]
    if s0 <= spec.interval_start:
        raise HorizonError(
            f"burn-in start {s0:.4g} falls outside the interval "
            f"({spec.interval_start}, inf); enlarge the interval or loosen tol"
        )
    return s0


def sample_mu(spec, t, tol=1e-3, cfg=None):
    """Empirical surrogate of mu_t: terminal cloud of a burn-in simulation.

    The burn-in runs ``reflect_time(spec, t)`` on the grid [-span, 0] of
    ``burn_in_grid``, so the dynamics sweep the coefficient window
    [t, t + span] back toward t; long mirrored runs forget their start and
    settle on the time-t member of the evolution system (for autonomous
    drifts this is the plain burn-in).  An autonomous gradient drift under
    Euler burns in with Leimkuhler-Matthews steps; every other spec, and
    every push-forward or replicate, keeps cfg's scheme and dt.  A
    Leimkuhler-Matthews burn-in that blows up (its explicit step of 5e-2 is
    unstable in the bulk of a stiff law) is rerun with cfg's Euler scheme
    and dt over the mixing span.  The grid does not depend on t, so an
    autonomous spec gives the same cloud, bit for bit, at every t whose
    burn-in start ``burn_in_start`` admits.  ``provenance`` records the
    scheme that ran, its step ``dt`` and its number of steps.
    """
    cfg = cfg or sde.SimConfig()
    burn_in_start(spec, t, tol, cfg)
    span, run_cfg = burn_in_grid(spec, tol, cfg)
    mirrored = reflect_time(spec, t)
    try:
        # an overflow here ends in BlowUpError, which has its answer below
        with np.errstate(over="ignore", invalid="ignore"):
            bundle = sde.simulate(
                mirrored, -span, 0.0, np.zeros(spec.dim), run_cfg,
                with_jacobians=False,
            )
    except BlowUpError:
        if run_cfg.scheme != sde.LEIMKUHLER_MATTHEWS:
            raise
        span, run_cfg = _mixing_span(spec, tol), cfg
        bundle = sde.simulate(
            mirrored, -span, 0.0, np.zeros(spec.dim), cfg, with_jacobians=False
        )
    return EmpiricalMeasure(
        samples=bundle.states,
        t=float(t),
        provenance={
            "s0": t - span,
            "tol": tol,
            "seed": run_cfg.seed,
            "dt": run_cfg.dt,
            "scheme": run_cfg.scheme,
            "steps": len(sde._time_grid(-span, 0.0, run_cfg.dt)) - 1,
            "n_paths": run_cfg.n_paths,
        },
    )


def invariance_defect(engine, s, t, fns, mu_s=None, mu_t=None):
    """| int G(t,s) f d mu_t - int f d mu_s | with its tolerance, one
    :class:`Defect` per function in ``fns``; ``t`` is one end time for all
    of them, or one end time per function.

    The left side averages f over mu_t carried to t by ``engine.push``.
    Functions with one t share its push-forward, and the end times whose
    mu_t is one cloud are pushed by one call: on the Monte Carlo engine an
    autonomous spec's ``cloud(t)`` is one cloud for every t, so one run
    serves every t.  The right side averages f over mu_s.  Missing measures
    are ``engine.cloud(t)`` and ``engine.cloud(s, "mu_s")``, which on the
    Monte Carlo engine are independent burn-in streams.
    """
    ts = [float(u) for u in np.broadcast_to(t, len(fns))]
    if any(u <= s for u in ts):
        raise DomainError(f"need s < t, got s={s}, t={t}")
    clouds = {u: mu_t or engine.cloud(u) for u in ts}
    pushed = {}
    for mu in {id(c): c for c in clouds.values()}.values():
        ends = [u for u, c in clouds.items() if c is mu]
        pushed.update(zip(ends, engine.push(mu, s, ends)))
    mu_s = mu_s or engine.cloud(s, "mu_s")
    defects = []
    for f, u in zip(fns, ts):
        lhs, e_l = pushed[u].expectation(f)
        rhs, e_r = mu_s.expectation(f)
        defects.append(
            Defect(
                value=abs(lhs - rhs),
                tolerance=mu_s.add_errors(e_l, e_r),
                lhs=lhs,
                rhs=rhs,
            )
        )
    return defects


def flow_derivative_defect(engine, f, r, h=FLOW_STEP):
    """Defect of d/dr m_r(f) = -m_r(A(r) f) via a central difference.

    Only admits functions that are constant outside a compact set (the
    identity is proved for that class); others are refused.  The measures
    are ``engine.cloud(r + h)``, ``engine.cloud(r - h)`` -- Monte Carlo
    burn-ins on common random numbers, so ``difference`` pairs them path
    by path -- and ``engine.cloud(r, "flow_mid")``.
    """
    if not f.meta.compact_support:
        raise DomainError(
            "flow_derivative_defect needs a function that is constant "
            "outside a compact set"
        )
    if f.hessian is None:
        raise DomainError("flow_derivative_defect needs a C^2 function")
    mu_p = engine.cloud(r + h)
    diff, e_diff = mu_p.difference(engine.cloud(r - h), f, 2.0 * h)
    mu_0 = engine.cloud(r, "flow_mid")
    gen, e_gen = mu_0.expectation(_GeneratorValues(engine.spec, r, f))
    return Defect(
        value=abs(diff + gen),
        tolerance=mu_p.add_errors(e_diff, e_gen),
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


def weak_star_gap(mu1, mu2, family=None):
    """max_f |m(f; mu1) - m(f; mu2)| over a fixed bounded C^2 family."""
    dim = mu1.dim
    if family is None:
        family = bounded_test_family(dim)
    gaps = []
    tols = []
    for f in family:
        m1, e1 = mu1.expectation(f)
        m2, e2 = mu2.expectation(f)
        gaps.append(abs(m1 - m2))
        tols.append(math.hypot(e1, e2))
    k = int(np.argmax(gaps))
    return GapReport(value=float(gaps[k]), tolerance=float(tols[k]))


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
