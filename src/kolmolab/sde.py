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
down to s, so ``evaluate_G``/``evaluate_grad_G`` run the paths of
``reflect_time(spec, s + t)`` (see :mod:`kolmolab.model`).  For autonomous
coefficients the mirrored flow is the plain flow; for time-dependent ones
the distinction is exactly what makes the evaluated operator satisfy the
invariance identity against the evolution system of measures.

Randomness: paths are partitioned into sub-blocks of ``BLOCK`` paths, sub-block
b drawing from its own counter-based Philox stream keyed (seed, b), as in
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC 2011).
Only the sub-blocks that hold paths are drawn, so a run wastes at most
BLOCK - 1 paths' noise per step.  The noise is drawn in chunks of steps into
one buffer of about ``_NOISE_VALUES`` values, allocated once per call, so
an ensemble's noise memory stays bounded however many paths or steps it
has.  Every stream runs sequentially, so a path's noise is a pure function
of (seed, path index, step) -- independent of n_paths, the chunk length,
or any parallel scheduling -- and reruns are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BlowUpError, DomainError, EvaluationError
from .model import as_batch, default_audit_grid, reflect_time
from .ou import sqrtm_psd

__all__ = [
    "BLOCK",
    "SimConfig",
    "PathBundle",
    "GradEstimate",
    "simulate",
    "evaluate_G",
    "evaluate_grad_G",
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
_SCHEMES = ("euler", "semi_implicit_drift")


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    n_paths: int = 100_000
    seed: int = 0
    scheme: str = "euler"

    def __post_init__(self):
        if not (self.dt > 0.0):
            raise DomainError("dt must be positive")
        if self.n_paths < 1:
            raise DomainError("n_paths must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise DomainError("seed must be a nonnegative integer below 2**64")
        if self.scheme not in _SCHEMES:
            raise DomainError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")

    def check_against(self, spec):
        if spec.r0 < 0.0 and self.dt * abs(spec.r0) >= 0.5:
            raise DomainError(
                f"dt * |r0| = {self.dt * abs(spec.r0):.3g} >= 0.5; "
                "refusing an unstable step size"
            )


@dataclass(frozen=True)
class PathBundle:
    """Terminal states and Jacobians of one simulated ensemble."""

    states: np.ndarray      # (n, d)
    jacobians: Optional[np.ndarray]  # (n, d, d) or None when skipped
    s: float
    t: float
    cfg: SimConfig

    @property
    def n_paths(self):
        return self.states.shape[0]


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


def _jacobian_step(J, L, h, A_step=None):
    """One step of dJ = L J dt, L = jac_b at the step's start: explicit
    Euler, or the linearly-implicit solve A_step J_new = J with
    A_step = I - h L."""
    if A_step is not None:
        return np.linalg.solve(A_step, J)
    return J + h * np.einsum("nij,njk->nik", L, J)


def simulate(spec, s, t, x, cfg=None, with_jacobians=True):
    """Run cfg.n_paths paths of the flow from x at time s to time t.

    ``x`` is a single starting point (d,) shared by all paths, or an
    (n_paths, d) array of per-path starting points.
    """
    cfg = cfg or SimConfig()
    starts = _checked_starts(spec, s, t, x, cfg)
    d = spec.dim
    n = cfg.n_paths

    times = _time_grid(s, t, cfg.dt)
    hs = np.diff(times)
    # sigma(t) = sqrt(2 Q(t)) is state-independent: precompute per step,
    # taking a new square root only where Q changes from the previous step.
    sig = np.empty((len(hs), d, d))
    Q_prev = None
    for k, tk in enumerate(times[:-1]):
        Q = spec.diffusion(tk)
        if Q_prev is None or not np.array_equal(Q, Q_prev):
            root = sqrtm_psd(2.0 * Q)
            Q_prev = Q.copy()
        sig[k] = root
    sqrt_h = np.sqrt(hs)
    semi = cfg.scheme == "semi_implicit_drift"
    eye = np.eye(d)

    n_steps = len(hs)
    n_sub = -(-n // BLOCK)
    # a uint64 key array: a list of Python ints above 2**63 would pass
    # through float64 and lose the seed's low bits
    rngs = [
        np.random.Generator(
            np.random.Philox(key=np.array([cfg.seed, b], dtype=np.uint64))
        )
        for b in range(n_sub)
    ]
    chunk = max(1, min(n_steps, _NOISE_VALUES // (n_sub * BLOCK * d)))
    buf = np.empty((n_sub, chunk, BLOCK, d))
    X = np.array(starts, dtype=float)
    J = np.broadcast_to(eye, (n, d, d)).copy() if with_jacobians else None
    k = 0
    while k < n_steps:
        kc = min(chunk, n_steps - k)
        for b, rng in enumerate(rngs):
            rng.standard_normal(out=buf[b, :kc])
        for j in range(kc):
            tk = times[k + j]
            h = hs[k + j]
            try:
                drift = spec.drift(tk, X)
            except EvaluationError as exc:
                # mid-integration overflow of the coefficients is the
                # numerical signature of an exploding trajectory
                raise BlowUpError(
                    f"drift became non-finite by step {k + j} "
                    f"(t ~ {tk:.4g}); reduce dt or check the drift",
                    step=k + j,
                ) from exc
            # the matmul reads the strided sub-blocks of step j directly;
            # copying them out first is slower
            noise = (buf[:, j] @ sig[k + j].T).reshape(-1, d)[:n] * sqrt_h[k + j]
            L = spec.drift_jacobian(tk, X) if semi or with_jacobians else None
            A_step = eye - h * L if semi else None
            if with_jacobians:
                J = _jacobian_step(J, L, h, A_step)
            if semi:
                incr = np.linalg.solve(A_step, (h * drift + noise)[..., None])[
                    ..., 0
                ]
                X = X + incr
            else:
                X = X + h * drift + noise
        if not np.all(np.isfinite(X)):
            bad_step = k + kc
            raise BlowUpError(
                f"path state became non-finite by step {bad_step} "
                f"(t ~ {times[min(bad_step, len(times) - 1)]:.4g}); "
                "reduce dt or check the drift",
                step=bad_step,
            )
        k += kc

    return PathBundle(states=X, jacobians=J, s=float(s), t=float(t), cfg=cfg)


def evaluate_G(spec, s, t, f, x, cfg=None, bundle=None):
    """Monte Carlo (mean, stderr) of (G(t,s) f)(x).

    The ensemble runs the mirrored-clock flow (module docstring), which is
    the path picture of the evolution operator.  Reuses ``bundle`` when
    given; it must match (s, t, x) and come from the same mirrored run."""
    if bundle is None:
        bundle = simulate(
            reflect_time(spec, s + t), s, t, x, cfg, with_jacobians=False
        )
    vals = np.asarray(f.value(bundle.states), dtype=float)
    mean = float(np.mean(vals))
    n = vals.shape[0]
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return mean, stderr


@dataclass(frozen=True)
class GradEstimate:
    """Pathwise gradient estimate with its contraction certificate.

    ``bound`` is exp(r0 (t-s)) * E[|grad f(X(t))|] (+stderr), which the
    euclidean norm of ``grad`` must respect up to sampling error.
    """

    grad: np.ndarray
    stderr: np.ndarray
    bound: float
    bound_stderr: float


def evaluate_grad_G(spec, s, t, f, x, cfg=None, bundle=None):
    """Pathwise estimate E[J(t)^T grad f(X(t))] of grad_x (G(t,s) f)(x).

    Like :func:`evaluate_G`, the ensemble runs the mirrored-clock flow."""
    if bundle is None:
        bundle = simulate(
            reflect_time(spec, s + t), s, t, x, cfg, with_jacobians=True
        )
    if bundle.jacobians is None:
        raise DomainError("bundle was simulated without Jacobians")
    g = np.asarray(f.gradient(bundle.states), dtype=float)
    per_path = np.einsum("nij,ni->nj", bundle.jacobians, g)
    n = per_path.shape[0]
    grad = per_path.mean(axis=0)
    stderr = per_path.std(axis=0, ddof=1) / math.sqrt(n)
    norms = np.linalg.norm(g, axis=1)
    factor = math.exp(spec.r0 * (t - s))
    bound = factor * float(norms.mean())
    bound_stderr = factor * float(norms.std(ddof=1) / math.sqrt(n))
    return GradEstimate(grad=grad, stderr=stderr, bound=bound, bound_stderr=bound_stderr)


def jacobian_norms(bundle):
    """Spectral norm of each terminal Jacobian."""
    if bundle.jacobians is None:
        raise DomainError("bundle carries no Jacobians")
    return _spectral_norms(bundle.jacobians)


def _spectral_norms(J):
    if J.shape[1] == 1:
        return np.abs(J[:, 0, 0])
    return np.linalg.svd(J, compute_uv=False)[:, 0]


def grid_lipschitz(spec, grid=None):
    """max ||jac_b(t, x)||_2 over the audit grid (curvature proxy)."""
    if grid is None:
        grid = default_audit_grid(spec)
    worst = 0.0
    for tk in grid.ts:
        J = spec.drift_jacobian(tk, grid.xs)
        worst = max(worst, float(np.max(_spectral_norms(J))))
    return worst


def eps_dt(spec, dt, L_grid=None):
    """Discretization allowance for the pathwise Jacobian bound."""
    if L_grid is None:
        L_grid = grid_lipschitz(spec)
    return 10.0 * dt * L_grid


def jacobian_bound_violations(spec, bundle, L_grid=None):
    """Count paths violating ||J|| <= exp((r0 + eps_dt)(t-s)).

    Returns (violations, bound, worst_norm)."""
    return _bound_violations(
        spec, bundle.cfg.dt, bundle.t - bundle.s, jacobian_norms(bundle), L_grid
    )


def _bound_violations(spec, dt, span, norms, L_grid=None):
    eps = eps_dt(spec, dt, L_grid)
    bound = math.exp((spec.r0 + eps) * span)
    return int(np.sum(norms > bound)), bound, float(np.max(norms))


def jacobian_certificate(spec, s, t, x, cfg=None):
    """(violations, bound, worst_norm) of ||J(t)|| <= exp((r0 + eps_dt)(t-s))
    over cfg.n_paths paths from x at time s, as
    ``jacobian_bound_violations(spec, simulate(spec, s, t, x, cfg))``.

    For a spec with ``affine_drift``, jac_b does not depend on the state, so
    every path carries the same Jacobian: it is integrated once, on one row,
    by ``simulate``'s own step, and no state or noise is simulated.  The
    count is then 0 or n_paths.  A non-finite J raises BlowUpError, as a
    non-finite state does in ``simulate``."""
    cfg = cfg or SimConfig()
    if not spec.affine_drift:
        return jacobian_bound_violations(spec, simulate(spec, s, t, x, cfg))
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
