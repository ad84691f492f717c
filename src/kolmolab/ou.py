"""Linear-drift (Ornstein-Uhlenbeck type) models with exact machinery.

An OU model is the operator family

    (A(t) zeta)(x) = (1/2) Tr(B(t) B(t)^T D^2 zeta) + <A(t) x + g(t), grad zeta>,

so the diffusion of the general convention is Q(t) = B(t) B(t)^T / 2.

Everything is driven by one two-parameter family ``U``:

* ``transition_U(model, t, s)`` solves, in the FIRST argument,

      d/dt U(t, s) = -A(t) U(t, s),   U(s, s) = I.

  Its decay (rate ``omega0 < 0``) builds the evolution system of measures

      Q_t = int_t^inf U(t, xi) B(xi) B(xi)^T U(t, xi)^T dxi,
      g_t = int_t^inf U(t, xi) g(xi) dxi,          mu_t = N(g_t, Q_t),

  and the SAME family, read with swapped arguments, is the kernel matrix of
  the evolution operator:

      (G(t, s) f)(x) = E[ f(U(s,t) x + m_{t,s} + Z) ],   Z ~ N(0, C_{t,s}),
      m_{t,s} = int_s^t U(s,xi) g(xi) dxi,
      C_{t,s} = int_s^t U(s,xi) B(xi) B(xi)^T U(s,xi)^T dxi.

  U(s, t) solves d/dt Y = Y A(t), Y(s) = I: every kernel moment is anchored
  at s.  With these moments the pushforward of mu_t through the kernel is

      U(s,t) Q_t U(s,t)^T + C_{t,s} = Q_s        (cocycle U(s,t)U(t,xi)
                                                  = U(s,xi), exactly),

  so the invariance identity int G(t,s)f dmu_t = int f dmu_s holds by
  construction, not approximately.

* ``forward_transition(model, t, s)`` is the state transition Phi of the
  sample paths dx/dt = A(t) x (d/dt Phi = A(t) Phi, Phi(s,s) = I).  It
  governs the simulator's flow, NOT the kernel of G: the characteristics of
  the forward equation sweep the coefficient clock from t down to s, so the
  path representation of G(t, s) simulates the mirrored-clock problem (see
  :mod:`kolmolab.sde`).  For commuting families A(t) -- in particular every
  diagonal catalog entry -- Phi(t, s) and U(s, t) coincide; a regression
  test pins the general identity between ``transition_U`` and the kernel
  matrix instead.

Gaussian expectations use tensorized Gauss-Hermite quadrature of order
``GH_ORDER`` = 64 per axis (desk scale d <= 3), and their tolerances the gap
to order ``GH_HALF_ORDER`` = 32.  Rules are pruned to the nodes of weight at
least 1e-20: the dropped nodes hold at most 3e-19 of the unit mass for d <= 2
and 2e-17 for d = 3, and at d = 2, order 64, 1600 of the 4096 nodes remain.
A test function that declares itself a sum of ridges c + sum a phi(<w, x> + b)
(``TestFunction.ridges``) sees the kernel's Gaussian only through the scalars
<w, Z>, so in d >= 2 ``ou_apply_G`` integrates each ridge by a
one-dimensional rule instead: 94 nodes per point in place of 1600 at d = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy import integrate, special

from .errors import (
    DomainError,
    NoEvolutionMeasureError,
    StiffnessError,
)
from .memo import fresh
from .model import ProblemSpec, as_batch

__all__ = [
    "GaussianMeasure",
    "OUModel",
    "OmegaEstimate",
    "transition_U",
    "forward_transition",
    "estimate_omega0",
    "evolution_measure",
    "ou_apply_G",
    "solve_lyapunov_limit",
    "sqrtm_psd",
    "gauss_hermite_rule",
]

_ODE_METHOD = "DOP853"

# Every Gaussian integral of a run uses the Gauss-Hermite rule of GH_ORDER
# per axis; a quadrature's tolerance is its gap to the rule of GH_HALF_ORDER.
GH_ORDER = 64
GH_HALF_ORDER = GH_ORDER // 2


def sqrtm_psd(M):
    """Symmetric PSD square root via an eigendecomposition."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(0.5 * (M + M.T))
    w = np.clip(w, 0.0, None)
    return (V * np.sqrt(w)) @ V.T


@lru_cache(maxsize=32)
def gauss_hermite_rule(dim, order):
    """Tensorized Gauss-Hermite rule normalized for standard normals, pruned
    by weight.

    Returns (z, w) such that E[h(N(0, I))] ~= sum_k w_k h(sqrt(2) z_k).  Of
    the order**dim tensor nodes only those with weight at least _MIN_WEIGHT
    are kept, in tensor order and without renormalizing, so z has shape
    (kept, dim) and the weights sum to one up to the dropped mass: at most
    3e-19 for d <= 2 and 2e-17 for d = 3 (orders up to 64), below the
    rounding error of a sum over the rule.  At d = 2 and order 64 this keeps
    1600 of 4096 nodes.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    z = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(z.shape[0])
    wg = np.meshgrid(*([weights] * dim), indexing="ij")
    for g in wg:
        w = w * g.ravel()
    keep = w >= _MIN_WEIGHT
    z, w = z[keep], w[keep]
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


# Gauss-Hermite converges poorly for C^2 cut-off functions (the plateau
# family): the error stalls near 1e-3 regardless of order.  Compactly flat
# integrands are therefore integrated against the Gaussian density on their
# support box by fixed-grid Simpson, which sees the full smoothness of the
# density and is exact to ~1e-11 there.
_COMPACT_NODES = {1: 4097, 2: 257, 3: 65}


def _is_compactly_flat(f, dim):
    meta = getattr(f, "meta", None)
    return (
        meta is not None
        and meta.compact_support
        and meta.support_radius is not None
        and np.isfinite(meta.support_radius)
        and dim in _COMPACT_NODES
    )


def _simpson_gaussian(mu, fn, R, n):
    """int fn(x) pdf(x) dx over [-R, R]^dim; sound when fn vanishes outside
    the centered R-ball."""
    d = mu.dim
    axis = np.linspace(-R, R, n)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    vals = (np.asarray(fn(pts), dtype=float) * mu.pdf(pts)).reshape((n,) * d)
    for _ in range(d):
        vals = integrate.simpson(vals, x=axis, axis=-1)
    return float(vals)


@dataclass(frozen=True)
class GaussianMeasure:
    """N(mean, cov), optionally tagged with the time it belongs to."""

    mean: np.ndarray
    cov: np.ndarray
    t: Optional[float] = None
    # factorizations of cov, computed once: every rule, sample and density
    # evaluation of the measure reuses them
    _sqrt_cov: np.ndarray = field(init=False, repr=False, compare=False)
    _precision: np.ndarray = field(init=False, repr=False, compare=False)
    _pdf_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # The measure owns read-only copies: one mu_t serves every
        # experiment of a run, so none of them may write into it.
        mean = np.array(self.mean, dtype=float, ndmin=1)
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        cov = 0.5 * (cov + cov.T)
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise DomainError(
                f"covariance shape {cov.shape} does not match mean {mean.shape}"
            )
        w = np.linalg.eigvalsh(self.cov)
        if w[0] <= 0.0:
            raise DomainError(
                f"covariance must be positive definite (min eigenvalue {w[0]:.3e})"
            )
        root, prec = sqrtm_psd(cov), np.linalg.inv(cov)
        root.flags.writeable = False
        prec.flags.writeable = False
        object.__setattr__(self, "_sqrt_cov", root)
        object.__setattr__(self, "_precision", prec)
        norm = (2.0 * math.pi) ** (-self.dim / 2.0) / math.sqrt(np.linalg.det(cov))
        object.__setattr__(self, "_pdf_norm", norm)

    @property
    def dim(self):
        return self.mean.shape[0]

    def rule(self, order=GH_ORDER):
        """(points, weights) of the Gauss-Hermite rule, ``order`` per axis."""
        z, w = gauss_hermite_rule(self.dim, order)
        pts = self.mean + math.sqrt(2.0) * (z @ self._sqrt_cov.T)
        return pts, w

    def expectation(self, f, order=GH_ORDER):
        """(E[f], tolerance) for a function with the batch ``value`` interface.

        Compactly flat f are integrated by Simpson on their support box, the
        tolerance being the gap to the grid of about half the nodes per axis;
        any other f by Gauss-Hermite of ``order`` per axis, the tolerance
        being the gap to the rule of GH_HALF_ORDER."""
        if _is_compactly_flat(f, self.dim):
            R = float(f.meta.support_radius)
            c = float(f.meta.outside_value)

            def centered(x):
                return np.asarray(f.value(x), dtype=float) - c

            n = _COMPACT_NODES[self.dim]
            full = c + _simpson_gaussian(self, centered, R, n)
            half = c + _simpson_gaussian(self, centered, R, n // 2 + 1)
        else:
            full = self._gauss_hermite(f.value, order)
            half = self._gauss_hermite(f.value, GH_HALF_ORDER)
        return full, max(1e-12, abs(full - half))

    def difference(self, other, f, scale):
        """((E[f] - E_other[f]) / scale, the two tolerances added / scale)."""
        m_p, e_p = self.expectation(f)
        m_m, e_m = other.expectation(f)
        return (m_p - m_m) / scale, (e_p + e_m) / scale

    @staticmethod
    def add_errors(a, b):
        """Quadrature tolerances are bounds, so they add."""
        return a + b

    def tail_mass(self, radii):
        """Mass outside |x| > R for each R in ``radii``: exact in d = 1,
        else the share of 200,000 draws (seed 12345)."""
        radii = np.atleast_1d(np.asarray(radii, dtype=float))
        if self.dim == 1:
            m, sd = float(self.mean[0]), math.sqrt(float(self.cov[0, 0]))
            upper = special.ndtr((-radii - m) / sd)
            lower = 1.0 - special.ndtr((radii - m) / sd)
            return upper + lower
        r = np.linalg.norm(self.sample(200_000, seed=12345), axis=1)
        return np.array([float(np.mean(r > R)) for R in radii])

    def parameter_gap(self, other):
        """max(|mean - other.mean|, ||cov - other.cov||_2) to a Gaussian."""
        return max(
            float(np.linalg.norm(self.mean - other.mean)),
            float(np.linalg.norm(self.cov - other.cov, 2)),
        )

    def is_standard(self):
        """Whether the measure is N(0, I), to 1e-6 in mean and covariance."""
        return np.allclose(self.cov, np.eye(self.dim), atol=1e-6) and np.allclose(
            self.mean, 0.0, atol=1e-6
        )

    def _gauss_hermite(self, fn, order):
        pts, w = self.rule(order)
        return float(w @ np.asarray(fn(pts), dtype=float))

    def sample(self, n, seed=0):
        rng = np.random.Generator(np.random.Philox(key=int(seed)))
        z = rng.standard_normal((int(n), self.dim))
        return self.mean + z @ self._sqrt_cov.T

    def pdf(self, x):
        xb, single = as_batch(x, self.dim)
        dev = xb - self.mean
        quad = np.einsum("ni,ij,nj->n", dev, self._precision, dev)
        out = self._pdf_norm * np.exp(-0.5 * quad)
        return out[0] if single else out

    def as_dict(self):
        return {
            "mean": self.mean.tolist(),
            "covariance": self.cov.tolist(),
            "t": self.t,
        }


@dataclass(frozen=True)
class OUModel:
    """Time-dependent linear drift A(t) x + g(t), additive noise B(t)."""

    dim: int
    A: Callable[[float], np.ndarray]
    B: Callable[[float], np.ndarray]
    g: Optional[Callable[[float], np.ndarray]] = None
    interval_start: float = -math.inf
    name: str = ""

    def A_mat(self, t):
        M = np.asarray(self.A(t), dtype=float).reshape(self.dim, self.dim)
        return M

    def B_mat(self, t):
        M = np.asarray(self.B(t), dtype=float).reshape(self.dim, self.dim)
        return M

    def g_vec(self, t):
        if self.g is None:
            return np.zeros(self.dim)
        return np.asarray(self.g(t), dtype=float).reshape(self.dim)

    def base_time(self):
        return 0.0 if not np.isfinite(self.interval_start) else self.interval_start + 0.1

    def ellipticity(self):
        """(eta0, Lambda) measured from Q(t) = B B^T / 2 over a time grid."""
        lo, hi = math.inf, -math.inf
        for t in self.base_time() + np.linspace(0.0, 20.0, 64):
            Bm = self.B_mat(t)
            w = np.linalg.eigvalsh(0.5 * (Bm @ Bm.T))
            lo = min(lo, float(w[0]))
            hi = max(hi, float(w[-1]))
        return lo, hi

    def dissipativity_rate(self):
        """sup_t lambda_max(sym A(t)) -- the declared r0 must dominate this."""
        worst = -math.inf
        for t in self.base_time() + np.linspace(0.0, 20.0, 64):
            Am = self.A_mat(t)
            w = np.linalg.eigvalsh(0.5 * (Am + Am.T))
            worst = max(worst, float(w[-1]))
        return worst

    def as_problem_spec(self, eta0=None, Lambda=None, r0=None, name=None):
        """The model as a :class:`ProblemSpec`; a constant not given is
        measured (``ellipticity``, ``dissipativity_rate``)."""
        if eta0 is None or Lambda is None:
            lo, hi = self.ellipticity()
            eta0 = lo if eta0 is None else eta0
            Lambda = hi if Lambda is None else Lambda
        if r0 is None:
            r0 = self.dissipativity_rate()
        model = self

        def b(t, x):
            return x @ model.A_mat(t).T + model.g_vec(t)

        def jac_b(t, x):
            return np.broadcast_to(
                model.A_mat(t), (x.shape[0], model.dim, model.dim)
            ).copy()

        return ProblemSpec(
            dim=self.dim,
            interval_start=self.interval_start,
            Q=lambda t: 0.5 * model.B_mat(t) @ model.B_mat(t).T,
            b=b,
            jac_b=jac_b,
            eta0=eta0,
            Lambda=Lambda,
            r0=r0,
            name=name if name is not None else (self.name or "ou"),
            affine_drift=True,
        )


def _solve_matrix_ode(rhs, y0, t0, t1, rtol=1e-10, atol=1e-13, dense=False):
    sol = integrate.solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method=_ODE_METHOD,
        rtol=rtol,
        atol=atol,
        dense_output=dense,
    )
    if not sol.success:
        raise StiffnessError(
            f"transition integration failed over [{t0}, {t1}]: {sol.message}; "
            "try a smaller span"
        )
    return sol


def _left_product(model, t, s, sign, rtol):
    """Y(t) for Y' = sign A(tau) Y, Y(s) = I."""
    d = model.dim
    if t == s:
        return np.eye(d)

    def rhs(tau, y):
        return (sign * model.A_mat(tau) @ y.reshape(d, d)).ravel()

    sol = _solve_matrix_ode(rhs, np.eye(d).ravel(), s, t, rtol=rtol)
    return sol.y[:, -1].reshape(d, d)


def _right_product(model, t0, t1, **tols):
    """Dense solution of Y' = Y A(xi), Y(t0) = I, on [t0, t1]."""
    d = model.dim

    def rhs(xi, y):
        return (y.reshape(d, d) @ model.A_mat(xi)).ravel()

    return _solve_matrix_ode(rhs, np.eye(d).ravel(), t0, t1, dense=True, **tols)


def transition_U(model, t, s, rtol=1e-10):
    """U(t, s) solving d/dt U = -A(t) U, U(s, s) = I (integrated in t)."""
    return _left_product(model, t, s, -1.0, rtol)


def forward_transition(model, t, s, rtol=1e-10):
    """Phi(t, s) solving d/dt Phi = A(t) Phi, Phi(s, s) = I.

    This is the state transition of the sample paths (it gives the closed
    forms the simulator is checked against), not the kernel matrix of the
    evolution operator; that matrix is U(s, t) -- see the module docstring.
    """
    return _left_product(model, t, s, 1.0, rtol)


class OmegaEstimate(NamedTuple):
    omega: float
    M: float
    residual: float


# The longest gap of the omega fit.
_OMEGA_HORIZON = 12.0


def estimate_omega0(model):
    """Least-squares estimate of the decay exponent of U.

    Samples log ||U(t, t + gap)|| at 24 gaps in [1, _OMEGA_HORIZON] from 4
    base times and fits log M + omega * gap.  Returns the fitted
    (omega, M >= 1) together with the maximal absolute fit residual; callers
    decide what to do with a nonnegative omega (no decay).
    """
    bases = model.base_time() + np.linspace(0.0, 2.0 * math.pi, 4)
    gaps = np.geomspace(1.0, _OMEGA_HORIZON, 24)
    d = model.dim
    xs, ys = [], []
    for base in bases:
        sol = _right_product(model, base, base + _OMEGA_HORIZON, rtol=1e-10)
        for gap in gaps:
            V = sol.sol(base + gap).reshape(d, d)
            nrm = np.linalg.norm(V, 2)
            if nrm <= 0.0 or not np.isfinite(nrm):
                raise StiffnessError("transition norm under/overflowed in fit window")
            xs.append(gap)
            ys.append(math.log(nrm))
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    Adesign = np.stack([xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(Adesign, ys, rcond=None)
    omega, intercept = float(coef[0]), float(coef[1])
    residual = float(np.max(np.abs(Adesign @ coef - ys)))
    return OmegaEstimate(omega=omega, M=max(1.0, math.exp(intercept)), residual=residual)


def _sup_norms(model, t, span):
    ts = t + np.linspace(0.0, span, 81)
    bb = max(np.linalg.norm(model.B_mat(x) @ model.B_mat(x).T, 2) for x in ts)
    gg = max(np.linalg.norm(model.g_vec(x)) for x in ts)
    return float(bb), float(gg)


def evolution_measure(model, t, tol=1e-8, omega_fit=None):
    """The time-t member mu_t = N(g_t, Q_t) of the evolution system.

    Q_t and g_t are the improper integrals in the module docstring, computed
    by adaptive (Gauss-Kronrod style) quadrature on [t, T_tail] where T_tail
    is chosen from the fitted decay (omega, M) -- with a factor-2 safety
    margin on M -- so the discarded tail is below ``tol``.
    """
    if omega_fit is None:
        omega_fit = estimate_omega0(model)
    omega, M = omega_fit.omega, omega_fit.M
    if omega >= 0.0:
        raise NoEvolutionMeasureError(
            f"transition family does not decay (fitted omega = {omega:.4g}); "
            "no evolution system of measures exists for this model"
        )
    Msafe = 2.0 * M
    bb, gg = _sup_norms(model, t, 40.0)
    if bb <= 0.0:
        raise DomainError("B(t) B(t)^T vanished on the sampled window")
    # Tail bounds: the Q integrand decays like Msafe^2 bb e^{2 omega (xi - t)},
    # the g integrand like Msafe gg e^{omega (xi - t)}.
    span_q = math.log(2.0 * abs(omega) * tol / (Msafe**2 * bb)) / (2.0 * omega)
    span = max(1.0, span_q)
    if gg > 0.0:
        span_g = math.log(abs(omega) * tol / (Msafe * gg)) / omega
        span = max(span, span_g)
    if span > 40.0:
        bb, gg = _sup_norms(model, t, span)
    T_tail = t + span

    d = model.dim
    sol = _right_product(model, t, T_tail, rtol=1e-12, atol=1e-14)

    def integrand(xi):
        V = sol.sol(xi).reshape(d, d)
        Bm = model.B_mat(xi)
        VB = V @ Bm
        return np.concatenate([(VB @ VB.T).ravel(), V @ model.g_vec(xi)])

    vec, err = integrate.quad_vec(integrand, t, T_tail, epsabs=tol / 2.0, epsrel=0.0)
    Q_t = vec[: d * d].reshape(d, d)
    g_t = vec[d * d :]
    return GaussianMeasure(mean=g_t, cov=Q_t, t=float(t))


def _mehler_moments(model, t, s, rtol=1e-10):
    """(M, m_{t,s}, C_{t,s}) of the G(t, s) kernel, with M = U(s, t).

    One joint ODE pass on [s, t] of the s-anchored system

        M' = M A(tau),   m' = M g(tau),   C' = (M B(tau)) (M B(tau))^T,

    from M(s) = I, m(s) = 0, C(s) = 0.
    """
    d = model.dim
    nM, nm = d * d, d

    def rhs(tau, y):
        M = y[:nM].reshape(d, d)
        Bm = model.B_mat(tau)
        MB = M @ Bm
        dM = M @ model.A_mat(tau)
        dm = M @ model.g_vec(tau)
        dC = MB @ MB.T
        return np.concatenate([dM.ravel(), dm, dC.ravel()])

    y0 = np.concatenate([np.eye(d).ravel(), np.zeros(d), np.zeros(d * d)])
    sol = _solve_matrix_ode(rhs, y0, s, t, rtol=rtol, atol=1e-14)
    y = sol.y[:, -1]
    M = y[:nM].reshape(d, d)
    m = y[nM : nM + nm]
    C = y[nM + nm :].reshape(d, d)
    return M, m, 0.5 * (C + C.T)


# Gauss-Hermite chunks hold about this many point x node x coordinate
# values (1 MB of float64), so memory stays flat as the node count grows
# with the dimension.  Every point still sums over all its nodes at once.
_CHUNK_VALUES = 1 << 17

# Tensor Gauss-Hermite nodes lighter than this are dropped from the rule
# (Jaeckel, "A note on multivariate Gauss-Hermite quadrature", 2005): far
# out in the corners of the grid, together they carry less mass than a sum
# over the rule rounds away.
_MIN_WEIGHT = 1e-20


def _kernel_offsets(model, t, s, order, memo):
    """(M, m, offsets, w): kernel moments and the node offsets sqrt(2) L z,
    so that (G(t, s) f)(x) = sum_k w_k f(M x + m + offsets_k).  Rules of
    every order share the moments through ``memo``."""
    M, m, C = memo("kernels", _mehler_moments, model, t, s)
    z, w = gauss_hermite_rule(model.dim, order)
    offsets = math.sqrt(2.0) * (z @ sqrtm_psd(C).T)
    return M, m, offsets, w


def _point_chunks(n, offsets):
    """Slices of the n evaluation points, about _CHUNK_VALUES values each."""
    step = max(1, _CHUNK_VALUES // offsets.size)
    for i0 in range(0, n, step):
        yield slice(i0, i0 + step)


# A ridge a phi(<w, y> + b) sees the kernel's Z ~ N(0, C) only through the
# scalar <w, Z> ~ N(0, w^T C w), so it is integrated by the one-dimensional
# rule at this many times the tensor rule's order per axis: 256 at the
# default 64, of which 94 nodes survive the weight pruning.  On the hyper
# battery in d = 2 and 3 the worst error against a 300-node reference is
# then 3e-14, where order 64 leaves 2e-7.
_RIDGE_ORDER_FACTOR = 4


def _ridge_apply_G(M, m, C, ridges, xb, order, grad):
    """(G(t, s) f)(x), or its gradient, for f = ``ridges`` and the kernel
    moments (M, m, C), one term at a time: a term a phi(<w, y> + b) maps x
    to a E[phi(u + sqrt(w^T C w) N(0, 1))], u = <x, M^T w> + <m, w> + b,
    and its gradient is a E[phi'(...)] M^T w.

    The rule is summed node by node over all points at once, so a point's
    value does not depend on the batch it comes in."""
    z, w = gauss_hermite_rule(1, _RIDGE_ORDER_FACTOR * order)
    out = np.zeros(xb.shape) if grad else np.full(xb.shape[0], ridges.const)
    for term in ridges.terms:
        direction = M.T @ term.w
        u = xb @ direction + (m @ term.w + term.b)
        scale = math.sqrt(2.0 * max(term.w @ C @ term.w, 0.0))
        phi = term.dphi if grad else term.phi
        mean = np.zeros_like(u)
        for zk, wk in zip(scale * z[:, 0], w):
            mean += wk * phi(u + zk)
        out += term.a * (mean[:, None] * direction if grad else mean)
    return out


def ou_apply_G(model, t, s, f, x, order=GH_ORDER, memo=fresh, grad=False):
    """(G(t, s) f)(x) through the Gaussian kernel representation; with
    ``grad``, its gradient grad_x (G(t, s) f)(x) = M^T E[grad f(M x + m + Z)],
    M = U(s, t).

    ``x`` may be a point (d,) or a batch (n, d).  Requires t >= s;
    ``t == s`` returns f(x) (or grad f(x)) exactly.  The kernel comes from
    ``memo`` (see :mod:`kolmolab.memo`), e.g. a run's memo; the default
    computes it.

    The expectation is the tensor Gauss-Hermite rule of ``order`` per axis,
    except for a function that declares itself a sum of ridges
    (``f.ridges``) in d >= 2: each ridge is integrated by a one-dimensional
    rule of order 4 * ``order`` (see :func:`_ridge_apply_G`).
    In d = 1 the tensor rule is already one-dimensional and is kept.
    """
    if t < s:
        raise DomainError(f"need t >= s, got t={t} < s={s}")
    xb, single = as_batch(x, model.dim)
    shape = xb.shape if grad else xb.shape[:1]
    evaluate = f.gradient if grad else f.value
    if t == s:
        out = np.asarray(evaluate(xb), dtype=float).reshape(shape)
        return out[0] if single else out
    if f.ridges is not None and model.dim > 1:
        M, m, C = memo("kernels", _mehler_moments, model, t, s)
        out = _ridge_apply_G(M, m, C, f.ridges, xb, order, grad)
        return out[0] if single else out
    M, m, offsets, w = memo("kernels", _kernel_offsets, model, t, s, order, memo)
    centers = xb @ M.T + m  # (n, d)
    out = np.empty(shape)
    # Each point's sum over the nodes is row-local (einsum, not a BLAS
    # matrix-vector product, whose rounding depends on the rows in a
    # chunk), so a point's value does not depend on the batch it comes in.
    for chunk in _point_chunks(xb.shape[0], offsets):
        pts = centers[chunk, None, :] + offsets[None, :, :]
        vals = np.asarray(evaluate(pts.reshape(-1, model.dim)), dtype=float)
        if grad:
            out[chunk] = np.einsum(
                "nkd,k->nd", vals.reshape(-1, w.shape[0], model.dim), w
            )
        else:
            out[chunk] = np.einsum("nk,k->n", vals.reshape(-1, w.shape[0]), w)
    if grad:
        out = out @ M
    return out[0] if single else out


def solve_lyapunov_limit(A_inf, B_inf, g_inf=None):
    """Invariant Gaussian of the limit operator with drift A_inf x + g_inf.

    Solves A Q + Q A^T = -B B^T by Kronecker vectorization and returns
    N(-A^{-1} g_inf, Q).  Raises when A_inf is not Hurwitz (no limit measure)
    or the residual exceeds 1e-10.
    """
    A = np.atleast_2d(np.asarray(A_inf, dtype=float))
    B = np.atleast_2d(np.asarray(B_inf, dtype=float))
    d = A.shape[0]
    eig = np.linalg.eigvals(A)
    if np.max(eig.real) >= 0.0:
        raise NoEvolutionMeasureError(
            f"A_inf is not Hurwitz (max Re eig = {np.max(eig.real):.4g}); "
            "the limit operator has no invariant measure"
        )
    BB = B @ B.T
    eye = np.eye(d)
    K = np.kron(eye, A) + np.kron(A, eye)
    q = np.linalg.solve(K, -BB.ravel())
    Q = q.reshape(d, d)
    Q = 0.5 * (Q + Q.T)
    res = np.linalg.norm(A @ Q + Q @ A.T + BB, 2)
    if res > 1e-10:
        raise StiffnessError(f"Lyapunov residual {res:.3e} exceeds 1e-10")
    g = np.zeros(d) if g_inf is None else np.asarray(g_inf, dtype=float).reshape(d)
    mean = np.linalg.solve(A, -g)
    return GaussianMeasure(mean=mean, cov=Q, t=None)
