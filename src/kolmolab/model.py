"""Problem descriptions for nonautonomous second-order operators.

A problem is the data of a family of elliptic operators

    (A(t) zeta)(x) = Tr(Q(t) D^2 zeta(x)) + <b(t, x), grad zeta(x)>,

acting on functions over R^d, for times t in an open half line
I = (interval_start, +inf).  Every quantitative statement in this package
rests on four standing hypotheses on the coefficients, numbered (i)-(iv)
and referred to by number throughout (audit reports, validation messages):

  (i)   Q(t) is symmetric for every t;
  (ii)  uniform ellipticity:  eta0 |xi|^2 <= <Q(t) xi, xi> <= Lambda |xi|^2
        with 0 < eta0 <= Lambda;
  (iii) a Lyapunov function exists:  some phi >= 1 with A(t) phi <= a - c phi
        (constructed, not assumed -- see :func:`build_lyapunov_gaussian`);
  (iv)  joint dissipativity:  <jac_b(t, x) xi, xi> <= r0 |xi|^2 for all
        (t, x) and xi, with a strictly negative constant r0 < 0.

Nothing here trusts the declarations: :func:`audit_hypotheses` and
:func:`check_monotonicity` measure the worst-case slack of each condition on
a grid and report margins, and :func:`build_lyapunov_gaussian` constructs an
explicit certificate function phi with A(t) phi <= a - c phi on the audit
box.

Vectorization convention used throughout the package: state batches are
arrays of shape (n, d); ``b(t, X)`` maps (n, d) -> (n, d) and ``jac_b(t, X)``
maps (n, d) -> (n, d, d).  Single points of shape (d,) are accepted by the
public entry points and promoted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    CertificateUnavailableError,
    DomainError,
    EvaluationError,
)

__all__ = [
    "FunctionMeta",
    "RidgeTerm",
    "RidgeSum",
    "TestFunction",
    "ProblemSpec",
    "reflect_time",
    "LyapunovCertificate",
    "AuditGrid",
    "AuditReport",
    "MonotonicityReport",
    "default_audit_grid",
    "apply_generator",
    "audit_hypotheses",
    "check_monotonicity",
    "build_lyapunov_gaussian",
]

MARGIN_TOL = 1e-9


def as_batch(x, dim):
    """Promote a point of shape (d,) to a batch (1, d); pass batches through.

    Returns (batch, was_single).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.shape[0] != dim:
            raise DomainError(f"expected a point in R^{dim}, got shape {arr.shape}")
        return arr[None, :], True
    if arr.ndim == 2 and arr.shape[1] == dim:
        return arr, False
    raise DomainError(f"expected shape (d,) or (n, d) with d={dim}, got {arr.shape}")


@dataclass(frozen=True)
class FunctionMeta:
    """Declared analytic facts about a test function.

    ``compact_support`` means the function is constant outside the ball of
    radius ``support_radius`` (constant value ``outside_value``, usually
    zero).
    """

    bounded: bool = True
    compact_support: bool = False
    support_radius: Optional[float] = None
    outside_value: float = 0.0
    name: str = ""


class RidgeTerm(NamedTuple):
    """One term a * phi(<w, x> + b) of a sum of ridges; ``phi`` and ``dphi``
    (its derivative) map arrays elementwise."""

    a: float
    w: np.ndarray
    b: float
    phi: Callable[[np.ndarray], np.ndarray]
    dphi: Callable[[np.ndarray], np.ndarray]


class RidgeSum(NamedTuple):
    """f(x) = const + sum of the terms' a * phi(<w, x> + b)."""

    const: float
    terms: tuple


@dataclass(frozen=True)
class TestFunction:
    """A C^1 (optionally C^2) function with vectorized evaluators.

    ``value``    : (n, d) -> (n,)
    ``gradient`` : (n, d) -> (n, d)
    ``hessian``  : (n, d) -> (n, d, d), or None for merely-C^1 functions.
    ``ridges``   : the same function as a :class:`RidgeSum`, when it is one;
                   quadratures may then integrate each term in one dimension.
                   It takes no part in eq or hash, since functions are memo
                   keys and it holds arrays.
    """

    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    meta: FunctionMeta = field(default_factory=FunctionMeta)
    ridges: Optional[RidgeSum] = field(default=None, compare=False, repr=False)

    def __call__(self, x):
        xb, single = as_batch(x, self.dim)
        v = np.asarray(self.value(xb), dtype=float).reshape(xb.shape[0])
        return v[0] if single else v

    def grad(self, x):
        xb, single = as_batch(x, self.dim)
        g = np.asarray(self.gradient(xb), dtype=float).reshape(xb.shape)
        return g[0] if single else g

    def hess(self, x):
        if self.hessian is None:
            raise DomainError(
                f"function {self.meta.name!r} has no Hessian evaluator"
            )
        xb, single = as_batch(x, self.dim)
        h = np.asarray(self.hessian(xb), dtype=float).reshape(
            xb.shape[0], self.dim, self.dim
        )
        return h[0] if single else h


@dataclass(frozen=True)
class ProblemSpec:
    """Coefficients and declared constants of a nonautonomous operator.

    ``Q(t)`` returns the (d, d) diffusion matrix, ``b`` and ``jac_b`` follow
    the batch convention in the module docstring.  ``interval_start`` is the
    left endpoint of the open time interval; use ``-inf`` for the whole line.
    ``affine_drift`` declares b affine in x, so that jac_b(t, x) does not
    depend on x; only the builders of linear specs set it.  ``autonomous``
    declares that Q, b and jac_b do not depend on t, so that the evolution
    system is one invariant measure, mu_t = mu for every t; only the catalog
    builders of time-independent entries set it.
    """

    dim: int
    interval_start: float
    Q: Callable[[float], np.ndarray]
    b: Callable[[float, np.ndarray], np.ndarray]
    jac_b: Callable[[float, np.ndarray], np.ndarray]
    eta0: float
    Lambda: float
    r0: float
    name: str = ""
    affine_drift: bool = False
    autonomous: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise DomainError("dim must be a positive integer")
        if not (0.0 < self.eta0 <= self.Lambda):
            raise DomainError(
                f"ellipticity constants must satisfy 0 < eta0 <= Lambda, "
                f"got eta0={self.eta0}, Lambda={self.Lambda}"
            )
        # r0 is stored as declared; ops that require dissipativity check r0 < 0.

    def require_time(self, t):
        if not np.isfinite(t) or t <= self.interval_start:
            raise DomainError(
                f"t={t} is outside the time interval ({self.interval_start}, inf)"
            )

    def diffusion(self, t):
        self.require_time(t)
        Q = np.asarray(self.Q(t), dtype=float)
        if Q.shape != (self.dim, self.dim):
            raise EvaluationError(
                f"Q(t) returned shape {Q.shape}, expected {(self.dim, self.dim)}", t=t
            )
        if not np.all(np.isfinite(Q)):
            raise EvaluationError("non-finite diffusion matrix", t=t)
        return Q

    def drift(self, t, x):
        xb, single = as_batch(x, self.dim)
        v = np.asarray(self.b(t, xb), dtype=float).reshape(xb.shape)
        if not np.all(np.isfinite(v)):
            bad = xb[~np.all(np.isfinite(v), axis=-1)][0]
            raise EvaluationError("non-finite drift", t=t, x=bad)
        return v[0] if single else v

    def drift_jacobian(self, t, x):
        xb, single = as_batch(x, self.dim)
        J = np.asarray(self.jac_b(t, xb), dtype=float).reshape(
            xb.shape[0], self.dim, self.dim
        )
        if not np.all(np.isfinite(J)):
            bad = xb[~np.all(np.isfinite(J), axis=(1, 2))][0]
            raise EvaluationError("non-finite drift Jacobian", t=t, x=bad)
        return J[0] if single else J


def reflect_time(spec, pivot):
    """A copy of ``spec`` whose coefficient clock runs mirrored: t -> pivot - t.

    The kernel of the evolution operator G(t, s) is realized by paths whose
    drift sweeps the coefficients from t back down to s (the characteristics
    of the forward equation run against the clock); simulating
    ``reflect_time(spec, s + t)`` over [s, t] produces exactly that sweep.
    For autonomous coefficients the reflected problem is the original one.

    The declared constants, ``affine_drift`` and ``autonomous`` carry over
    unchanged -- hypotheses (i), (ii) and (iv) only constrain the
    coefficient values, not how the clock is read.
    The reflected spec has no left time endpoint; callers must keep the swept
    coefficient window ``pivot - [s, t]`` inside the original interval.
    """
    base = spec

    def Q(t):
        return base.Q(pivot - t)

    def b(t, x):
        return base.b(pivot - t, x)

    def jac_b(t, x):
        return base.jac_b(pivot - t, x)

    return replace(
        spec,
        Q=Q,
        b=b,
        jac_b=jac_b,
        interval_start=-math.inf,
    )


@dataclass(frozen=True)
class LyapunovCertificate:
    """A function phi > 0 with phi(x) -> inf and A(t) phi <= a - c phi.

    The inequality is certified on the finite audit box only; ``a`` and ``c``
    are chosen so that the maximum of A(t) phi + c phi over the box is
    attained strictly inside it, which is the numerical proxy for the bound
    extending beyond the box.
    """

    phi: TestFunction
    a: float
    c: float
    delta: float = 0.0

    def __post_init__(self):
        if not (self.a >= 0.0 and self.c > 0.0):
            raise DomainError(f"need a >= 0 and c > 0, got a={self.a}, c={self.c}")


@dataclass(frozen=True)
class AuditGrid:
    """Times and states on which hypotheses are probed."""

    ts: np.ndarray
    xs: np.ndarray  # (n, d)

    @property
    def box_radius(self):
        return float(np.max(np.abs(self.xs)))


_POINTS_PER_AXIS = {1: 41, 2: 15, 3: 9}


def default_audit_grid(spec, box_radius=10.0):
    """32 log-spaced times in (interval_start, interval_start + 50] and a
    uniform lattice on [-box_radius, box_radius]^d."""
    t0 = spec.interval_start if np.isfinite(spec.interval_start) else 0.0
    ts = t0 + np.geomspace(0.1, 50.0, 32)
    per_axis = _POINTS_PER_AXIS.get(spec.dim, 7)
    axis = np.linspace(-box_radius, box_radius, per_axis)
    grids = np.meshgrid(*([axis] * spec.dim), indexing="ij")
    xs = np.stack([g.ravel() for g in grids], axis=-1)
    return AuditGrid(ts=ts, xs=xs)


def apply_generator(spec, t, f, x):
    """Evaluate (A(t) f)(x) = Tr(Q(t) D^2 f(x)) + <b(t, x), grad f(x)>.

    ``x`` may be a point (d,) or a batch (n, d); the result matches.
    Raises DomainError for t outside the interval or missing Hessian.
    """
    spec.require_time(t)
    if f.hessian is None:
        raise DomainError("apply_generator needs a twice-differentiable function")
    xb, single = as_batch(x, spec.dim)
    Q = spec.diffusion(t)
    H = f.hess(xb)
    g = f.grad(xb)
    drift = spec.drift(t, xb)
    trace_term = np.einsum("ij,nji->n", Q, H)
    drift_term = np.einsum("ni,ni->n", drift, g)
    out = trace_term + drift_term
    return out[0] if single else out


@dataclass(frozen=True)
class AuditReport:
    """Worst-case margins of the standing hypotheses over a grid.

    Margins are signed so that nonnegative means satisfied:

    * ``symmetry``:        -max |Q - Q^T| entrywise,
    * ``ellipticity_low``: min over t of (lambda_min(Q(t)) - eta0),
    * ``ellipticity_high``: min over t of (Lambda - lambda_max(Q(t))),
    * ``dissipativity``:   min over (t, x) of (r0 - lambda_max(sym jac_b)).
    """

    passed: bool
    margins: dict
    witnesses: dict
    tol: float = MARGIN_TOL


def audit_hypotheses(spec):
    """Measure ellipticity, symmetry and dissipativity slack on the audit grid."""
    grid = default_audit_grid(spec)
    sym_defect = 0.0
    sym_witness = None
    ell_low = math.inf
    ell_high = math.inf
    ell_witness_low = ell_witness_high = None
    for t in grid.ts:
        Q = spec.diffusion(t)
        d = float(np.max(np.abs(Q - Q.T)))
        if d > sym_defect:
            sym_defect, sym_witness = d, float(t)
        w = np.linalg.eigvalsh(0.5 * (Q + Q.T))
        lo = float(w[0] - spec.eta0)
        hi = float(spec.Lambda - w[-1])
        if lo < ell_low:
            ell_low, ell_witness_low = lo, float(t)
        if hi < ell_high:
            ell_high, ell_witness_high = hi, float(t)

    diss = math.inf
    diss_witness = None
    for t in grid.ts:
        J = spec.drift_jacobian(t, grid.xs)
        S = 0.5 * (J + np.swapaxes(J, 1, 2))
        lam_max = np.linalg.eigvalsh(S)[:, -1]
        margins = spec.r0 - lam_max
        k = int(np.argmin(margins))
        if margins[k] < diss:
            diss = float(margins[k])
            diss_witness = (float(t), grid.xs[k].copy())

    margins = {
        "symmetry": -sym_defect,
        "ellipticity_low": ell_low,
        "ellipticity_high": ell_high,
        "dissipativity": diss,
    }
    witnesses = {
        "symmetry": sym_witness,
        "ellipticity_low": ell_witness_low,
        "ellipticity_high": ell_witness_high,
        "dissipativity": diss_witness,
    }
    passed = all(m >= -MARGIN_TOL for m in margins.values())
    return AuditReport(passed=passed, margins=margins, witnesses=witnesses)


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    max_excess: float
    witness: Optional[tuple]
    tol: float = MARGIN_TOL


def check_monotonicity(spec):
    """Check <b(t,x) - b(t,y), x - y> <= r0 |x - y|^2 on sampled pairs.

    The 256 pairs are drawn uniformly from the audit box with a fixed seed.
    Reports the maximal excess over r0 of the quotient at every fourth time
    of the audit grid.
    """
    ts = default_audit_grid(spec).ts[::4]
    rng = np.random.Generator(np.random.Philox(key=7))
    pairs = rng.uniform(-10.0, 10.0, size=(256, 2, spec.dim))
    diff = pairs[:, 0, :] - pairs[:, 1, :]
    sq = np.einsum("ni,ni->n", diff, diff)
    max_excess = -math.inf
    witness = None
    for t in ts:
        bx = spec.drift(t, pairs[:, 0, :])
        by = spec.drift(t, pairs[:, 1, :])
        quot = np.einsum("ni,ni->n", bx - by, diff) / sq
        excess = quot - spec.r0
        k = int(np.argmax(excess))
        if excess[k] > max_excess:
            max_excess = float(excess[k])
            witness = (float(t), pairs[k, 0].copy(), pairs[k, 1].copy())
    return MonotonicityReport(
        passed=max_excess <= MARGIN_TOL, max_excess=max_excess, witness=witness
    )


def _radial_exp_gaussian(dim, delta):
    """phi(x) = exp(delta |x|^2) as a TestFunction."""

    def value(x):
        return np.exp(delta * np.einsum("ni,ni->n", x, x))

    def gradient(x):
        return 2.0 * delta * x * value(x)[:, None]

    def hessian(x):
        eye = np.eye(dim)
        H = 2.0 * delta * eye[None, :, :] + 4.0 * delta**2 * (
            x[:, :, None] * x[:, None, :]
        )
        return H * value(x)[:, None, None]

    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=FunctionMeta(bounded=False, name="exp(d*|x|^2)"),
    )


def _certificate_grid(spec, delta, grid):
    """Cap the fitting box so exp(delta r^2) stays representable.

    The line search needs finite values of phi and A(t) phi; past the cap
    the certificate is vacuous numerically (the exponential overflows), so
    the box is shrunk to where the exponent is at most 600.
    """
    cap = (600.0 / delta) ** 0.5
    if cap < grid.box_radius:
        return default_audit_grid(spec, box_radius=cap)
    return grid


def _fit_certificate(spec, phi, grid):
    """Line-search c over {|r0| / 2^k}, k < 60; accept when the box maximum
    of A(t) phi + c phi sits within 95% of the box radius, then set
    a = max(0, that maximum)."""
    radius = grid.box_radius
    r = np.linalg.norm(grid.xs, axis=-1)
    c = abs(spec.r0)
    for _ in range(60):
        worst_val = -math.inf
        worst_r = 0.0
        for t in grid.ts:
            vals = apply_generator(spec, t, phi, grid.xs) + c * phi(grid.xs)
            if not np.all(np.isfinite(vals)):
                raise CertificateUnavailableError(
                    "phi or A(t) phi is not finite on the audit box; "
                    "shrink the box radius"
                )
            k = int(np.argmax(vals))
            if vals[k] > worst_val:
                worst_val = float(vals[k])
                worst_r = float(r[k])
        if worst_r <= 0.95 * radius:
            a = max(0.0, worst_val)
            return a, c
        c *= 0.5
    raise CertificateUnavailableError(
        "no c in the halving sequence kept the certificate maximum inside "
        "the audit box; enlarge the box or revisit the drift bounds",
        witness=worst_r,
    )


def build_lyapunov_gaussian(spec):
    """Certificate phi = exp(delta |x|^2) with delta = |r0| / (4 Lambda)."""
    if spec.r0 >= 0.0:
        raise CertificateUnavailableError(
            "certificates require a negative dissipativity constant r0"
        )
    grid = default_audit_grid(spec)
    delta = abs(spec.r0) / (4.0 * spec.Lambda)
    phi = _radial_exp_gaussian(spec.dim, delta)
    a, c = _fit_certificate(spec, phi, _certificate_grid(spec, delta, grid))
    return LyapunovCertificate(phi=phi, a=a, c=c, delta=delta)
