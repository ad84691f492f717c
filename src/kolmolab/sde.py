"""Path simulation with variational (Jacobian) co-integration.

``simulate`` integrates the flow

    dX = b(t, X) dt + sigma(t) dW,     sigma(t) = sqrt(2 Q(t)),

by explicit Euler-Maruyama or a linearly-implicit drift variant.  Alongside
each path the variational equation dJ = jac_b(t, X) J dt is integrated from
J(s) = I, so that E[J^T grad f(X(t))] estimates grad_x E[f(X(t))] pathwise
and every J carries the per-path contraction certificate
||J(t)|| <= exp((r0 + eps_dt)(t - s)).

When the drift is affine in x (``spec.affine_drift``, set by the builders of
linear specs), jac_b does not depend on the state, so no noise enters the
variational equation and every path carries the same J.
``jacobian_certificate`` then integrates J once, on one row, with the same
step as ``simulate``; its (violations, bound, worst) equal those of the full
ensemble, bit for bit, without simulating a single state.

The kernel of the evolution operator G(t, s) is realized by the
MIRRORED-clock flow: its characteristics sweep the coefficients from t back
down to s, so the Monte Carlo engine (:mod:`kolmolab.engines`) evaluates
G(t, s) on paths of ``reflect_time(spec, s + t)`` (see
:mod:`kolmolab.model`).  For autonomous coefficients the mirrored flow is
the plain flow; for time-dependent ones the distinction is exactly what
makes the evaluated operator satisfy the invariance identity against the
evolution system of measures.

A third step, ``LEIMKUHLER_MATTHEWS``, is for equilibrium sampling only:

    X' = X + h b(X) + (eta_k + eta_{k+1}) / 2,    eta_k = sigma sqrt(h) xi_k,

which for an autonomous gradient drift has O(h^2) bias in equilibrium
averages where Euler's is O(h) (Leimkuhler and Matthews, "Rational
construction of stochastic numerical methods for molecular sampling", AMRX
2013).  :func:`kolmolab.measures.sample_mu` uses it for such burn-ins; no
scenario offers it.  A run of N steps draws N + 1 rows of normals, and step
k averages the scaled rows k and k + 1.  It integrates no Jacobians and
needs whole steps, with no shorter last one.

One run serves several end times.  Every path's noise at step k is fixed
by (seed, path, k) (see below), and the time grid of a run to u is s +
dt * arange(...) closed by u, so when that grid is a prefix of the grid to
t -- u lies on t's grid, bit for bit -- the first steps of the run to t are
the run to u, states and Jacobians alike, whether the paths share a start
or not.  ``simulate``'s ``ends`` reads the ensemble off at such times and
gives any other end time (one that needs a short last step, or any end of
a Leimkuhler-Matthews run, whose last step draws one row more) a run of its
own, so every bundle it returns equals a separate run bit for bit.  A run
checks its states up to t: a path that blows up after an earlier end time
still raises BlowUpError, as the run to t alone would.

Randomness: paths are partitioned into sub-blocks of ``BLOCK`` paths, sub-block
b drawing from its own counter-based Philox stream keyed (seed, b), as in
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011).
Only the sub-blocks that hold paths are drawn, so a run wastes at most
BLOCK - 1 paths' noise per step.  The noise is drawn in chunks of steps into
one buffer of about ``_NOISE_VALUES`` values, allocated once per call, so
an ensemble's noise memory stays bounded however many paths or steps it
has.  Each chunk is scaled by sigma in place, in one pass.  Every stream
runs sequentially, so a path's noise is a pure function
of (seed, path index, step) -- independent of n_paths, the chunk length,
or any parallel scheduling -- and reruns are bit-identical.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BlowUpError, DomainError, EvaluationError
from .model import default_audit_grid
from .ou import sqrtm_psd

__all__ = [
    "BLOCK",
    "LEIMKUHLER_MATTHEWS",
    "SimConfig",
    "PathBundle",
    "simulate",
    "jacobian_norms",
    "jacobian_bound_violations",
    "jacobian_certificate",
    "grid_lipschitz",
    "eps_dt",
]

# Paths per Philox key.
BLOCK = 1024
# Noise values held at once (8 MB): each chunk draws as many steps as fit.
_NOISE_VALUES = 1 << 20
# the schemes a scenario may choose
_SCHEMES = ("euler", "semi_implicit_drift")
# the equilibrium burn-in step (see the module docstring)
LEIMKUHLER_MATTHEWS = "leimkuhler_matthews"


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    n_paths: int = 100_000
    seed: int = 0
    scheme: str = "euler"

    def __post_init__(self):
        if not isinstance(self.dt, numbers.Real) or not 0.0 < self.dt < math.inf:
            raise DomainError(f"dt must be a positive real, got {self.dt!r}")
        if not isinstance(self.n_paths, numbers.Integral) or self.n_paths < 1:
            raise DomainError(
                f"n_paths must be a positive integer, got {self.n_paths!r}"
            )
        if not isinstance(self.seed, numbers.Integral) or not 0 <= self.seed < 2**64:
            raise DomainError(
                f"seed must be a non-negative integer below 2**64, got {self.seed!r}"
            )
        schemes = _SCHEMES + (LEIMKUHLER_MATTHEWS,)
        if self.scheme not in schemes:
            raise DomainError(f"scheme must be one of {schemes}, got {self.scheme!r}")

    def check_against(self, spec):
        if spec.r0 < 0.0 and self.dt * abs(spec.r0) >= 0.5:
            raise DomainError(
                f"dt = {self.dt:g} is too coarse for r0 = {spec.r0:g}: need "
                "dt * |r0| < 0.5 for a stable integrator"
            )


@dataclass(frozen=True)
class PathBundle:
    """Terminal states and Jacobians of one simulated ensemble."""

    states: np.ndarray      # (n, d)
    jacobians: Optional[np.ndarray]  # (n, d, d) or None when skipped
    s: float
    t: float
    cfg: SimConfig
    # the bundles at the run's other end times (``simulate``'s ``ends``)
    earlier: dict = field(default_factory=dict, repr=False)

    @property
    def n_paths(self):
        return self.states.shape[0]

    def at(self, t):
        """The ensemble at end time t: this bundle at its own t, else the
        one its run gave for t among ``simulate``'s ``ends``."""
        t = float(t)
        return self if t == self.t else self.earlier[t]


def _time_grid(s, t, dt):
    """Uniform steps of size dt plus one final shorter step to land on t."""
    n_full = int(math.floor((t - s) / dt + 1e-12))
    times = s + dt * np.arange(n_full + 1)
    if times[-1] < t - 1e-12 * max(1.0, abs(t)):
        times = np.append(times, t)
    else:
        times[-1] = t
    return times


def _checked_starts(spec, s, t, x, cfg):
    """The (n_paths, d) starting points of a run from x over [s, t], after
    checking the span, the step size and the start."""
    spec.require_time(s)
    spec.require_time(t)
    if not (s < t):
        raise DomainError(f"need s < t, got s={s}, t={t}")
    cfg.check_against(spec)

    d = spec.dim
    n = cfg.n_paths
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        if x.shape != (d,):
            raise DomainError(f"x must have shape ({d},), got {x.shape}")
        starts = np.broadcast_to(x, (n, d))
    elif x.shape == (n, d):
        starts = x
    else:
        raise DomainError(
            f"x must have shape ({d},) or ({n}, {d}), got {x.shape}"
        )
    if not np.all(np.isfinite(starts)):
        raise DomainError("non-finite starting point")
    return starts


def _drift(spec, tk, X, k):
    """b(tk, X) at step k; non-finite coefficients raise BlowUpError."""
    try:
        return spec.drift(tk, X)
    except EvaluationError as exc:
        # mid-integration overflow of the coefficients is the numerical
        # signature of an exploding trajectory
        raise BlowUpError(
            f"drift became non-finite by step {k} "
            f"(t ~ {tk:.4g}); reduce dt or check the drift",
            step=k,
        ) from exc


def _refuse_lm_jacobians(cfg, with_jacobians):
    if with_jacobians and cfg.scheme == LEIMKUHLER_MATTHEWS:
        raise DomainError("the Leimkuhler-Matthews step integrates no Jacobians")


def _jacobian_step(J, L, h, A_step=None):
    """One step of dJ = L J dt, L = jac_b at the step's start: explicit
    Euler, or the linearly-implicit solve A_step J_new = J with
    A_step = I - h L."""
    if A_step is not None:
        return np.linalg.solve(A_step, J)
    return J + h * np.einsum("nij,njk->nik", L, J)


def simulate(spec, s, t, x, cfg=None, with_jacobians=True, ends=()):
    """Run cfg.n_paths paths of the flow from x at time s to time t.

    ``x`` is a single starting point (d,) shared by all paths, or an
    (n_paths, d) array of per-path starting points.  ``ends`` are further
    end times in (s, t]: ``bundle.at(u)`` is then the ensemble at u, equal
    bit for bit to ``simulate(spec, s, u, x, cfg, with_jacobians)``.  It is
    read off this run when u's time grid is a prefix of t's, and is a run of
    its own otherwise (see the module docstring).
    """
    cfg = cfg or SimConfig()
    starts = _checked_starts(spec, s, t, x, cfg)
    d = spec.dim
    n = cfg.n_paths

    times = _time_grid(s, t, cfg.dt)
    hs = np.diff(times)
    n_steps = len(hs)
    _refuse_lm_jacobians(cfg, with_jacobians)
    lm = cfg.scheme == LEIMKUHLER_MATTHEWS
    if lm and not math.isclose(hs[-1], cfg.dt, rel_tol=1e-9):
        raise DomainError(
            "the Leimkuhler-Matthews step needs whole steps: t - s = "
            f"{t - s:.6g} is not a multiple of dt = {cfg.dt:.6g}"
        )
    # the ends read off this run, by step count, and those run on their own
    stops, off_grid = {}, []
    for u in dict.fromkeys(map(float, ends)):
        if not s < u <= t:
            raise DomainError(f"end times must lie in (s, t], got {u} for s={s}, t={t}")
        grid = _time_grid(s, u, cfg.dt)
        if not lm and np.array_equal(grid, times[: len(grid)]):
            stops[len(grid) - 1] = u
        else:
            off_grid.append(u)
    stops.pop(n_steps, None)  # t itself is the run's own bundle
    snaps = {}
    # one row of normals per step, and one more for the LM step k, which
    # averages the scaled rows k and k + 1 (the last row takes the last h)
    n_rows = n_steps + lm
    sqrt_h = np.sqrt(np.append(hs, hs[-1])[:n_rows])
    # sigma(t) = sqrt(2 Q(t)) is state-independent: precompute per row,
    # taking a new square root only where Q changes from the previous row.
    sig = np.empty((n_rows, d, d))
    Q_prev = None
    for k, tk in enumerate(times[:n_rows]):
        Q = spec.diffusion(tk)
        if Q_prev is None or not np.array_equal(Q, Q_prev):
            root = sqrtm_psd(2.0 * Q)
            Q_prev = Q.copy()
        sig[k] = root
    # a diagonal sigma scales elementwise: the matmul's only nonzero term
    eye = np.eye(d)
    diag = None
    if not np.any(sig[:, eye == 0.0]):
        diag = sig[:, eye == 1.0][:, None, :]  # (n_rows, 1, d)
    sig_t = sig.transpose(0, 2, 1)
    semi = cfg.scheme == "semi_implicit_drift"

    n_sub = -(-n // BLOCK)
    n_full = n // BLOCK
    # a uint64 key array: a list of Python ints above 2**63 would pass
    # through float64 and lose the seed's low bits
    rngs = [
        np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, b], dtype=np.uint64))
        )
        for b in range(n_sub)
    ]
    chunk = max(1, min(n_rows, _NOISE_VALUES // (n_sub * BLOCK * d)))
    buf = np.empty((n_sub, chunk, BLOCK, d))
    X = np.array(starts, dtype=float)
    J = np.broadcast_to(eye, (n, d, d)).copy() if with_jacobians else None
    # views of X by sub-block: the full ones and the partly used last one
    X_full = X[: n_full * BLOCK].reshape(n_full, BLOCK, d)
    X_rem = X[n_full * BLOCK :]
    rem = n - n_full * BLOCK
    prev = None
    r = 0
    while r < n_rows:
        rc = min(chunk, n_rows - r)
        for b, rng in enumerate(rngs):
            rng.standard_normal(out=buf[b, :rc])
        if diag is not None:
            buf[:, :rc] *= diag[r : r + rc]
        else:
            np.matmul(buf[:, :rc], sig_t[r : r + rc], out=buf[:, :rc])
        for j in range(rc):
            row = buf[:, j]  # (n_sub, BLOCK, d), strided
            row *= sqrt_h[r + j]
            k = r + j - lm
            if lm:
                # a copy: the next chunk overwrites buf
                cur = row.reshape(-1, d)[:n].copy()
                if prev is not None:
                    X += hs[k] * _drift(spec, times[k], X, k)
                    X += 0.5 * (prev + cur)
                prev = cur
                continue
            tk = times[k]
            h = hs[k]
            drift = _drift(spec, tk, X, k)
            L = spec.drift_jacobian(tk, X) if semi or with_jacobians else None
            A_step = eye - h * L if semi else None
            if with_jacobians:
                J = _jacobian_step(J, L, h, A_step)
            if semi:
                noise = row.reshape(-1, d)[:n]
                X += np.linalg.solve(A_step, (h * drift + noise)[..., None])[
                    ..., 0
                ]
            else:
                X += h * drift
                # the noise goes in sub-block by sub-block, with no copy
                X_full += row[:n_full]
                if rem:
                    X_rem += row[n_full, :rem]
            if k + 1 in stops:
                # X moves in place; each step binds J to a new array
                snaps[stops[k + 1]] = (X.copy(), J)
        if not np.all(np.isfinite(X)):
            bad_step = r + rc - lm
            raise BlowUpError(
                f"path state became non-finite by step {bad_step} "
                f"(t ~ {times[min(bad_step, len(times) - 1)]:.4g}); "
                "reduce dt or check the drift",
                step=bad_step,
            )
        r += rc

    earlier = {
        u: PathBundle(states=Xu, jacobians=Ju, s=float(s), t=u, cfg=cfg)
        for u, (Xu, Ju) in snaps.items()
    }
    for u in off_grid:
        earlier[u] = simulate(spec, s, u, x, cfg, with_jacobians)
    return PathBundle(
        states=X, jacobians=J, s=float(s), t=float(t), cfg=cfg, earlier=earlier
    )


def jacobian_norms(bundle):
    """Spectral norm of each terminal Jacobian."""
    if bundle.jacobians is None:
        raise DomainError("bundle carries no Jacobians")
    return _spectral_norms(bundle.jacobians)


def _spectral_norms(J):
    if J.shape[1] == 1:
        return np.abs(J[:, 0, 0])
    return np.linalg.svd(J, compute_uv=False)[:, 0]


def grid_lipschitz(spec):
    """max ||jac_b(t, x)||_2 over the audit grid (curvature proxy)."""
    grid = default_audit_grid(spec)
    worst = 0.0
    for tk in grid.ts:
        J = spec.drift_jacobian(tk, grid.xs)
        worst = max(worst, float(np.max(_spectral_norms(J))))
    return worst


def eps_dt(spec, dt):
    """Discretization allowance for the pathwise Jacobian bound."""
    return 10.0 * dt * grid_lipschitz(spec)


def jacobian_bound_violations(spec, bundle):
    """Count paths violating ||J|| <= exp((r0 + eps_dt)(t-s)).

    Returns (violations, bound, worst_norm)."""
    return _bound_violations(
        spec, bundle.cfg.dt, bundle.t - bundle.s, jacobian_norms(bundle)
    )


def _bound_violations(spec, dt, span, norms):
    eps = eps_dt(spec, dt)
    bound = math.exp((spec.r0 + eps) * span)
    return int(np.sum(norms > bound)), bound, float(np.max(norms))


def jacobian_certificate(spec, s, ts, x, cfg=None):
    """(violations, bound, worst_norm) of ||J(t)|| <= exp((r0 + eps_dt)(t-s))
    over cfg.n_paths paths from x at time s, for each end time t of ``ts``,
    as ``jacobian_bound_violations(spec, simulate(spec, s, t, x, cfg))``.

    One run to the last t serves every t, through ``simulate``'s ``ends``.
    For a spec with ``affine_drift``, jac_b does not depend on the state, so
    every path carries the same Jacobian: it is integrated once per t, on one
    row, by ``simulate``'s own step, and no state or noise is simulated.  The
    count is then 0 or n_paths.  A non-finite J raises BlowUpError, as a
    non-finite state does in ``simulate``."""
    cfg = cfg or SimConfig()
    _refuse_lm_jacobians(cfg, True)
    if not spec.affine_drift:
        run = simulate(spec, s, max(ts), x, cfg, ends=ts)
        return [jacobian_bound_violations(spec, run.at(t)) for t in ts]
    return [_affine_certificate(spec, s, t, x, cfg) for t in ts]


def _affine_certificate(spec, s, t, x, cfg):
    """``jacobian_certificate`` at one t for an affine drift."""
    row = _checked_starts(spec, s, t, x, cfg)[:1]
    times = _time_grid(s, t, cfg.dt)
    semi = cfg.scheme == "semi_implicit_drift"
    eye = np.eye(spec.dim)
    J = eye[None].copy()
    for k, (tk, h) in enumerate(zip(times[:-1], np.diff(times))):
        L = spec.drift_jacobian(tk, row)
        J = _jacobian_step(J, L, h, eye - h * L if semi else None)
        if not np.all(np.isfinite(J)):
            raise BlowUpError(
                f"path Jacobian became non-finite by step {k + 1} "
                f"(t ~ {times[k + 1]:.4g}); reduce dt or check the drift",
                step=k + 1,
            )
    viol, bound, worst = _bound_violations(
        spec, cfg.dt, float(t) - float(s), _spectral_norms(J)
    )
    return viol * cfg.n_paths, bound, worst
