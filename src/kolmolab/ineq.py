"""Functional inequalities and decay-rate fits for G(t, s) and {mu_t}.

Everything here certifies a quantitative statement with an explicit
tolerance so a caller can turn it into a pass/fail row:

* logarithmic Sobolev:  for p in (1, inf) and C^1_b functions f,

      int |f|^p log|f| d mu_s
        <= (1/p) m_s(|f|^p) log m_s(|f|^p)
           + (p Lambda / (2 |r0|)) int |f|^{p-2} |grad f|^2 1_{f != 0} d mu_s,

  reported as the deficit RHS - LHS (expected >= 0), with 0 log 0 = 0;

* Poincare:  ||f - m_s(f)||_{L^2(mu_s)} <= sqrt(Lambda/|r0|) || |grad f| ||_{L^2},
  reported as the quotient of the two sides;

* hypercontractivity:  with p(t) = e^{2 eta0 |r0| (t-s)/Lambda} (q - 1) + 1,

      ||G(t,s) f||_{L^{p(t)}(mu_t)} <= ||f||_{L^q(mu_s)};

* decay to averages:  log-linear fits of

      sup_f ||G(t,s)f - m_s(f)||_{L^p(mu_t)} / ||f||_{L^p(mu_s)}        (A side)
      sup_f || |grad G(t,s)f| ||_{L^p(mu_t)} / || |grad f| ||_{L^p(mu_s)}  (B side)

  against t - s; the two fitted rates agree and do not depend on p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .engines import (
    lp_norm_measure,
    lp_norm_of_G,
    grad_lp_norm_of_G,
    rule_mean,
)
from .errors import ConstantFunctionError, DomainError
from .measures import Defect

__all__ = [
    "lsi_deficit",
    "PoincareResult",
    "poincare_quotient",
    "HyperExponent",
    "hyper_exponent",
    "HyperResult",
    "hyper_check",
    "HyperCurve",
    "hyper_curve",
    "RateFit",
    "decay_fit_A",
    "decay_fit_B",
    "RateAgreement",
    "rate_agreement",
    "ExperimentRow",
    "CSV_COLUMNS",
]

_TINY = 1e-300
_EXP_CAP = 700.0


def _lsi_terms(fvals, grads, p):
    """Pointwise entropy and Dirichlet integrands with 0 log 0 = 0."""
    a = np.abs(fvals)
    nz = a > 0.0
    loga = np.zeros_like(a)
    loga[nz] = np.log(np.maximum(a[nz], _TINY))
    entropy = np.where(nz, a**p * loga, 0.0)
    grad_sq = np.einsum("nd,nd->n", grads, grads)
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(nz, np.maximum(a, _TINY) ** (p - 2.0), 0.0)
    dirichlet = np.where(nz, power * grad_sq, 0.0)
    return entropy, dirichlet


def lsi_deficit(mu, f, p, Lambda, r0, order=64):
    """Deficit (RHS - LHS) of the logarithmic Sobolev inequality at mu.

    Positive deficit means the inequality holds with room; the returned
    tolerance is a quadrature-refinement gap (a rule with weights, Gaussian
    mu) or a delta-method standard error (an unweighted cloud)."""
    if p <= 1.0:
        raise DomainError("lsi needs p > 1")
    if r0 >= 0.0:
        raise DomainError("lsi constant needs r0 < 0")
    const = p * Lambda / (2.0 * abs(r0))

    def compute(pts, w):
        """(mean, standard error) of |f|^p, entropy and Dirichlet terms."""
        fvals = np.asarray(f.value(pts), dtype=float)
        grads = np.asarray(f.gradient(pts), dtype=float)
        entropy, dirichlet = _lsi_terms(fvals, grads, p)
        return [rule_mean(v, w) for v in (np.abs(fvals) ** p, entropy, dirichlet)]

    pts, w = mu.rule(order)
    (mass, se_mass), (e_val, se_e), (d_val, se_d) = compute(pts, w)
    if mass <= 0.0:
        # f vanishes mu-a.e.: both sides are zero by the 0 log 0 convention.
        return Defect(value=0.0, tolerance=0.0, lhs=0.0, rhs=0.0)
    rhs = (1.0 / p) * mass * math.log(mass) + const * d_val
    deficit = rhs - e_val
    if w is not None:
        (mass2, _), (e2, _), (d2, _) = compute(*mu.rule(max(8, order // 2)))
        rhs2 = (1.0 / p) * mass2 * math.log(mass2) + const * d2
        tol = max(1e-9, 2.0 * abs((rhs2 - e2) - deficit))
    else:
        dmass = abs(math.log(mass) + 1.0) / p
        tol = math.sqrt(
            se_e**2 + (dmass * se_mass) ** 2 + (const * se_d) ** 2
        )
    return Defect(value=deficit, tolerance=tol, lhs=e_val, rhs=rhs)


@dataclass(frozen=True)
class PoincareResult:
    quotient: float
    tolerance: float
    numerator: float
    denominator: float


class _Shifted:
    def __init__(self, f, shift):
        self.f, self.shift = f, shift

    def value(self, x):
        return self.f.value(x) - self.shift


class _GradNorm:
    def __init__(self, f):
        self.f = f

    def value(self, x):
        g = np.asarray(self.f.gradient(x), dtype=float)
        return np.linalg.norm(g, axis=-1)


def poincare_quotient(mu, f, p=2, order=64):
    """||f - m(f)||_{L^p} / || |grad f| ||_{L^p} under mu.

    Refuses (mu-essentially) constant functions, whose quotient is 0/0."""
    mean, _ = mu.expectation(f, order)
    num, tn = lp_norm_measure(mu, _Shifted(f, mean), p, order)
    den, td = lp_norm_measure(mu, _GradNorm(f), p, order)
    scale = 1.0 + abs(mean)
    if den <= 1e-10 * scale:
        raise ConstantFunctionError(
            "gradient norm vanishes: the Poincare quotient is undefined "
            "for constant functions"
        )
    q = num / den
    tol = q * math.hypot(tn / max(num, _TINY), td / den)
    return PoincareResult(quotient=q, tolerance=tol, numerator=num, denominator=den)


class HyperExponent(NamedTuple):
    p: float
    saturated: bool


def hyper_exponent(q, gap, eta0, Lambda, r0):
    """p(t) = e^{2 eta0 |r0| (t-s) / Lambda} (q - 1) + 1 for gap = t - s.

    The exponential argument is capped at 700; the flag reports saturation.
    """
    if q <= 1.0:
        raise DomainError("hyper exponent needs q > 1")
    if gap < 0.0:
        raise DomainError("need t >= s")
    if r0 >= 0.0:
        raise DomainError("hyper exponent needs r0 < 0")
    arg = 2.0 * eta0 * abs(r0) / Lambda * gap
    saturated = arg > _EXP_CAP
    p = math.exp(min(arg, _EXP_CAP)) * (q - 1.0) + 1.0
    return HyperExponent(p=p, saturated=saturated)


@dataclass(frozen=True)
class HyperResult:
    passed: Optional[bool]
    skipped: bool
    lhs: float
    rhs: float
    tolerance: float
    p: float
    q: float
    s: float
    t: float
    saturated: bool


def hyper_check(engine, s, t, f, q, order=64):
    """Check ||G(t,s)f||_{L^{p(t)}(mu_t)} <= ||f||_{L^q(mu_s)} + 3 tol."""
    if not f.meta.bounded:
        raise DomainError("hypercontractivity checks use bounded test functions")
    exp_ = hyper_exponent(q, t - s, engine.eta0, engine.Lambda, engine.r0)
    if exp_.saturated:
        return HyperResult(
            passed=None,
            skipped=True,
            lhs=math.nan,
            rhs=math.nan,
            tolerance=math.nan,
            p=exp_.p,
            q=q,
            s=s,
            t=t,
            saturated=True,
        )
    lhs, tl = lp_norm_of_G(engine, s, t, f, exp_.p, order=order)
    rhs, tr = lp_norm_measure(engine.measure(s), f, q, order=order)
    tol = tl + tr
    return HyperResult(
        passed=bool(lhs <= rhs + 3.0 * tol),
        skipped=False,
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        p=exp_.p,
        q=q,
        s=s,
        t=t,
        saturated=False,
    )


@dataclass(frozen=True)
class HyperCurve:
    ts: np.ndarray
    betas: np.ndarray
    tolerances: np.ndarray
    max_increase: float
    monotone: bool


def hyper_curve(engine, s, f, q, gaps, order=64):
    """beta(t) = ||G(t,s)f||_{L^{p(t)}(mu_t)} along gaps; must not increase."""
    gaps = np.sort(np.asarray(gaps, dtype=float))
    ts, betas, tols = [], [], []
    for gap in gaps:
        exp_ = hyper_exponent(q, gap, engine.eta0, engine.Lambda, engine.r0)
        if exp_.saturated:
            continue
        t = s + gap
        if gap == 0.0:
            beta, tol = lp_norm_measure(engine.measure(s), f, exp_.p, order)
        else:
            beta, tol = lp_norm_of_G(engine, s, t, f, exp_.p, order=order)
        ts.append(t)
        betas.append(beta)
        tols.append(tol)
    ts = np.asarray(ts)
    betas = np.asarray(betas)
    tols = np.asarray(tols)
    increases = betas[1:] - betas[:-1]
    slack = 3.0 * (tols[1:] + tols[:-1])
    max_inc = float(np.max(increases)) if increases.size else 0.0
    monotone = bool(np.all(increases <= slack)) if increases.size else True
    return HyperCurve(
        ts=ts, betas=betas, tolerances=tols, max_increase=max_inc, monotone=monotone
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit value ~ exp(intercept + omega * gap)."""

    omega: float
    intercept: float
    residual: float
    window: tuple
    gaps: tuple = ()
    values: tuple = ()


def _fit_loglinear(gaps, vals):
    gaps = np.asarray(gaps, dtype=float)
    vals = np.maximum(np.asarray(vals, dtype=float), _TINY)
    design = np.stack([gaps, np.ones_like(gaps)], axis=1)
    coef, *_ = np.linalg.lstsq(design, np.log(vals), rcond=None)
    resid = float(np.max(np.abs(design @ coef - np.log(vals))))
    return RateFit(
        omega=float(coef[0]),
        intercept=float(coef[1]),
        residual=resid,
        window=(float(gaps.min()), float(gaps.max())),
        gaps=tuple(gaps.tolist()),
        values=tuple(vals.tolist()),
    )


def decay_fit_A(engine, s, family, p, gaps, order=64):
    """Fit the decay rate of sup_f ||G f - m_s(f)||_{L^p} / ||f||_{L^p}."""
    gaps = np.asarray(sorted(gaps), dtype=float)
    if gaps.size < 2:
        raise DomainError("need at least two gaps to fit a rate")
    mu_s = engine.measure(s)
    shifts, dens = [], []
    for f in family:
        m, _ = mu_s.expectation(f, order)
        d, _ = lp_norm_measure(mu_s, f, p, order)
        if d <= _TINY:
            raise ConstantFunctionError("family member vanishes under mu_s")
        shifts.append(m)
        dens.append(d)
    vals = []
    for gap in gaps:
        t = s + gap
        best = 0.0
        for f, shift, den in zip(family, shifts, dens):
            v, _ = lp_norm_of_G(engine, s, t, f, p, shift=shift, order=order)
            best = max(best, v / den)
        vals.append(best)
    return _fit_loglinear(gaps, vals)


def decay_fit_B(engine, s, family, p, gaps, order=64):
    """Fit the decay rate of the gradient side; needs gaps >= 1."""
    gaps = np.asarray(sorted(gaps), dtype=float)
    if gaps.size < 2:
        raise DomainError("need at least two gaps to fit a rate")
    if gaps.min() < 1.0:
        raise DomainError(
            "gradient-side fits use t - s >= 1 (the short-time scale is "
            "governed by the smoothing estimate, not the decay rate)"
        )
    mu_s = engine.measure(s)
    dens = []
    for f in family:
        d, _ = lp_norm_measure(mu_s, _GradNorm(f), p, order)
        if d <= _TINY:
            raise ConstantFunctionError("family member is constant under mu_s")
        dens.append(d)
    vals = []
    for gap in gaps:
        t = s + gap
        best = 0.0
        for f, den in zip(family, dens):
            v, _ = grad_lp_norm_of_G(engine, s, t, f, p, order=order)
            best = max(best, v / den)
        vals.append(best)
    return _fit_loglinear(gaps, vals)


@dataclass(frozen=True)
class RateAgreement:
    passed: bool
    gap: float
    cross_spread: Optional[float]
    tol: float


def rate_agreement(fit_a, fit_b, tol=0.1, cross_fits=()):
    """|omega_A - omega_B| <= tol, and (optionally) p-independence of omega.

    ``cross_fits`` are fits of the same side at other exponents p; their
    spread must also stay within tol."""
    gap = abs(fit_a.omega - fit_b.omega)
    spread = None
    ok = gap <= tol
    if cross_fits:
        omegas = [f.omega for f in cross_fits]
        spread = float(max(omegas) - min(omegas))
        ok = ok and spread <= tol
    return RateAgreement(passed=bool(ok), gap=float(gap), cross_spread=spread, tol=tol)


CSV_COLUMNS = ("scenario", "op", "p", "q", "t", "s", "value", "tolerance", "verdict")


@dataclass(frozen=True)
class ExperimentRow:
    """One certified quantity in the fixed CSV schema."""

    scenario: str
    op: str
    value: float
    tolerance: float
    verdict: str
    p: Optional[float] = None
    q: Optional[float] = None
    t: Optional[float] = None
    s: Optional[float] = None

    def as_csv(self):
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return f"{v:.12g}"
            return str(v)

        return ",".join(
            fmt(getattr(self, c)) for c in CSV_COLUMNS
        )
