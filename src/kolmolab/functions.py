"""A small library of test functions with analytic derivatives.

Everything returns :class:`~kolmolab.model.TestFunction` objects following
the batch convention (value (n,d)->(n,), gradient ->(n,d), hessian
->(n,d,d)).  The fixed 16-member bounded family used for weak-star gaps,
the randomized batteries used by the inequality suites, and the
compactly-flat bumps used by the flow-derivative check all live here.
"""

from __future__ import annotations

import numpy as np

from .model import BumpTerm, FunctionMeta, RidgeSum, RidgeTerm, TestFunction

__all__ = [
    "constant",
    "affine",
    "quadratic",
    "coordinate",
    "tanh_ridge",
    "sin_ridge",
    "gaussian_bump",
    "smooth_plateau",
    "truncated_exp_ridge",
    "combine",
    "bounded_test_family",
    "lsi_battery",
    "hyper_battery",
    "compact_flat_battery",
]


def constant(c, dim=1):
    cval = float(c)

    def value(x):
        return np.full(x.shape[0], cval)

    def gradient(x):
        return np.zeros_like(x)

    def hessian(x):
        return np.zeros((x.shape[0], dim, dim))

    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=FunctionMeta(bounded=True, name=f"const({cval:g})"),
    )


def _ridge(w, b, phi, dphi, d2phi, dim, meta):
    """The ridge phi(<w, x> + b), with gradient and Hessian from phi' and
    phi'' and its one-term :class:`RidgeSum` declaration."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    dim = w.shape[0] if dim is None else dim
    ww = w[:, None] * w[None, :]

    def value(x):
        return phi(x @ w + b)

    def gradient(x):
        return dphi(x @ w + b)[:, None] * w

    def hessian(x):
        return d2phi(x @ w + b)[:, None, None] * ww

    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=meta,
        ridges=RidgeSum(0.0, (RidgeTerm(1.0, w, float(b), phi, dphi),)),
    )


def affine(v, c=0.0, dim=None):
    return _ridge(
        v,
        c,
        lambda u: u,
        np.ones_like,
        np.zeros_like,
        dim,
        FunctionMeta(bounded=False, name="affine"),
    )


def coordinate(i=0, dim=1):
    e = np.zeros(dim)
    e[i] = 1.0
    return affine(e, 0.0, dim)


def quadratic(S, u=None, c=0.0):
    S = np.atleast_2d(np.asarray(S, dtype=float))
    dim = S.shape[0]
    u = np.zeros(dim) if u is None else np.asarray(u, dtype=float)
    Ssym = S + S.T

    def value(x):
        return np.einsum("ni,ij,nj->n", x, S, x) + x @ u + c

    def gradient(x):
        return x @ Ssym.T + u

    def hessian(x):
        return np.broadcast_to(Ssym, (x.shape[0], dim, dim)).copy()

    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=FunctionMeta(bounded=False, name="quadratic"),
    )


def _tanh_d1(u):
    return 1.0 - np.tanh(u) ** 2


def _tanh_d2(u):
    T = np.tanh(u)
    return -2.0 * T * (1.0 - T**2)


def tanh_ridge(w, b=0.0, dim=None):
    wn = float(np.linalg.norm(w))
    meta = FunctionMeta(bounded=True, name=f"tanh({wn:g},{b:g})")
    return _ridge(w, b, np.tanh, _tanh_d1, _tanh_d2, dim, meta)


def sin_ridge(w, b=0.0, dim=None):
    wn = float(np.linalg.norm(w))
    meta = FunctionMeta(bounded=True, name=f"sin({wn:g},{b:g})")
    return _ridge(w, b, np.sin, np.cos, lambda u: -np.sin(u), dim, meta)


def gaussian_bump(center=0.0, width=1.0, dim=None):
    """exp(-|x - c|^2 / (2 width^2)), declared as a one-term :class:`RidgeSum`
    (a :class:`BumpTerm`); a scalar centre stands for c = center * (1, ..., 1)."""
    c = np.atleast_1d(np.asarray(center, dtype=float))
    dim = c.shape[0] if dim is None else dim
    w2 = float(width) ** 2

    def _parts(x):
        """y = x - c and the bump's value, computed once per call."""
        y = x - c
        return y, np.exp(-0.5 * np.einsum("ni,ni->n", y, y) / w2)

    def value(x):
        return _parts(x)[1]

    def gradient(x):
        y, v = _parts(x)
        return -(y / w2) * v[:, None]

    def hessian(x):
        y, v = _parts(x)
        eye = np.eye(dim)
        H = (y[:, :, None] * y[:, None, :]) / w2**2 - eye[None, :, :] / w2
        return H * v[:, None, None]

    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=FunctionMeta(bounded=True, name=f"bump({c[0]:g},{float(width):g})"),
        ridges=RidgeSum(0.0, (BumpTerm(1.0, np.broadcast_to(c, (dim,)), w2),)),
    )


def _quintic(u):
    """Smoothstep profile S with S(0)=1, S(1)=0 and two flat derivatives."""
    return 1.0 - (10.0 * u**3 - 15.0 * u**4 + 6.0 * u**5)


def _quintic_d1(u):
    return -30.0 * u**2 * (1.0 - u) ** 2


def _quintic_d2(u):
    return -60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


def smooth_plateau(r1=2.0, r2=4.0, center=0.0, dim=1, height=1.0):
    """C^2 radial plateau: ``height`` inside |x-c|<=r1, zero outside r2."""
    c = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (dim,))
    width = float(r2 - r1)
    if width <= 0:
        raise ValueError("need r1 < r2")

    def _parts(x):
        """y = x - c, r = |y|, the points with r1 < r < r2, and the
        quintic's argument u = (r - r1) / width on them.  The squares of y
        are summed left to right, the order of ``np.linalg.norm``."""
        y = x - c
        sq = y[..., 0] * y[..., 0]
        for k in range(1, dim):
            sq = sq + y[..., k] * y[..., k]
        r = np.sqrt(sq)
        active = (r > r1) & (r < r2)
        return y, r, active, (r[active] - r1) / width

    def value(x):
        _, r, active, u = _parts(x)
        v = np.where(r <= r1, height, 0.0)
        v[active] = height * _quintic(u)
        return v

    def gradient(x):
        y, r, active, u = _parts(x)
        g = np.zeros_like(x)
        if np.any(active):
            ra = r[active]
            coeff = height * _quintic_d1(u) / width
            g[active] = coeff[:, None] * (y[active] / ra[:, None])
        return g

    def hessian(x):
        y, r, active, u = _parts(x)
        H = np.zeros((x.shape[0], dim, dim))
        if np.any(active):
            ra = r[active][:, None, None]
            unit = y[active] / r[active][:, None]
            outer = unit[:, :, None] * unit[:, None, :]
            eye = np.eye(dim)[None, :, :]
            d1 = (height * _quintic_d1(u) / width)[:, None, None]
            d2 = (height * _quintic_d2(u) / width**2)[:, None, None]
            H[active] = d2 * outer + (d1 / ra) * (eye - outer)
        return H

    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=FunctionMeta(
            bounded=True,
            compact_support=True,
            support_radius=float(r2 + np.linalg.norm(c)),
            outside_value=0.0,
            name=f"plateau({r1:g},{r2:g})",
        ),
    )


def _saturate(theta, flat, cap):
    """C^2 odd map equal to the identity on [-flat, flat], constant past cap.

    Its derivative is the quintic step from 1 down to 0 on [flat, cap], so the
    saturated value is flat + 0.5 (cap - flat).
    """
    w = cap - flat
    a = np.abs(theta)
    u = np.clip((a - flat) / w, 0.0, 1.0)
    # integral of the quintic step from 0 to u
    integ = u - (2.5 * u**4 - 3.0 * u**5 + u**6)
    s = np.where(a <= flat, a, flat + w * integ)
    d1 = np.where(a <= flat, 1.0, _quintic(u))
    d2 = np.where((a > flat) & (a < cap), _quintic_d1(u) / w, 0.0)
    sign = np.sign(theta)
    return sign * s, d1, sign * d2


def truncated_exp_ridge(lam=0.5):
    """f = exp(lam * s(x)) on the line, with s the identity smoothly
    saturated at 8.

    Inside |x| <= 7 this is exactly exp(lam x); the function is bounded and
    C^2 everywhere.
    """
    w = np.ones(1)

    def value(x):
        s, _, _ = _saturate(x @ w, 7.0, 8.0)
        return np.exp(lam * s)

    def gradient(x):
        s, d1, _ = _saturate(x @ w, 7.0, 8.0)
        return (lam * d1 * np.exp(lam * s))[:, None] * w

    def hessian(x):
        s, d1, d2 = _saturate(x @ w, 7.0, 8.0)
        coeff = (lam * d2 + (lam * d1) ** 2) * np.exp(lam * s)
        return coeff[:, None, None] * (w[:, None] * w[None, :])

    return TestFunction(
        dim=1,
        value=value,
        gradient=gradient,
        hessian=hessian,
        meta=FunctionMeta(bounded=True, name=f"trunc-exp({lam:g})"),
    )


def combine(coeffs, fns, const=0.0):
    """Linear combination sum_k coeffs[k] * fns[k] + const."""
    coeffs = [float(a) for a in coeffs]
    if len(coeffs) != len(fns) or not fns:
        raise ValueError("need one coefficient per function")
    dim = fns[0].dim
    if any(f.dim != dim for f in fns):
        raise ValueError("mixed dimensions in combination")

    def value(x):
        out = np.full(x.shape[0], const)
        for a, f in zip(coeffs, fns):
            out = out + a * f.value(x)
        return out

    def gradient(x):
        out = np.zeros_like(x)
        for a, f in zip(coeffs, fns):
            out = out + a * f.gradient(x)
        return out

    have_hess = all(f.hessian is not None for f in fns)

    def hessian(x):
        out = np.zeros((x.shape[0], dim, dim))
        for a, f in zip(coeffs, fns):
            out = out + a * f.hessian(x)
        return out

    ridges = None
    if all(f.ridges is not None for f in fns):
        ridges = RidgeSum(
            const + sum(a * f.ridges.const for a, f in zip(coeffs, fns)),
            tuple(
                term._replace(a=a * term.a)
                for a, f in zip(coeffs, fns)
                for term in f.ridges.terms
            ),
        )
    compact = all(f.meta.compact_support for f in fns)
    return TestFunction(
        dim=dim,
        value=value,
        gradient=gradient,
        hessian=hessian if have_hess else None,
        meta=FunctionMeta(
            bounded=all(f.meta.bounded for f in fns),
            compact_support=compact,
            support_radius=max((f.meta.support_radius or 0.0) for f in fns)
            if compact
            else None,
            outside_value=const
            + sum(a * f.meta.outside_value for a, f in zip(coeffs, fns))
            if compact
            else 0.0,
            name="combo",
        ),
        ridges=ridges,
    )


def bounded_test_family(dim=1):
    """The fixed 16-member family of bounded C^2 functions used for
    weak-star gaps: smoothed plateaus, Gaussian bumps, tanh and sine ridges."""
    fams = []
    e = [np.eye(dim)[i] for i in range(dim)]
    diag = np.ones(dim) / np.sqrt(dim)
    fams.append(smooth_plateau(1.0, 2.0, 0.0, dim))
    fams.append(smooth_plateau(2.0, 4.0, 0.0, dim))
    fams.append(smooth_plateau(0.5, 1.5, 0.5 * np.ones(dim) / np.sqrt(dim), dim))
    fams.append(smooth_plateau(1.5, 3.0, -np.ones(dim) / np.sqrt(dim), dim))
    fams.append(gaussian_bump(np.zeros(dim), 1.0, dim))
    fams.append(gaussian_bump(np.zeros(dim), 2.0, dim))
    fams.append(gaussian_bump(0.8 * diag, 0.8, dim))
    fams.append(gaussian_bump(-1.2 * diag, 1.5, dim))
    fams.append(tanh_ridge(e[0], 0.0, dim))
    fams.append(tanh_ridge(e[0], 1.0, dim))
    fams.append(tanh_ridge(0.5 * e[0], -0.5, dim))
    fams.append(tanh_ridge(diag, 0.3, dim))
    fams.append(sin_ridge(e[0], 0.0, dim))
    fams.append(sin_ridge(2.0 * e[0], 0.7, dim))
    fams.append(sin_ridge(diag, -0.4, dim))
    fams.append(tanh_ridge(2.0 * diag, 0.0, dim))
    return fams


def _random_direction(rng, dim):
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.3, 2.0)


def lsi_battery(dim=1, n=50, seed=2024):
    """Randomized C^1_b battery with positive infimum >= 0.2.

    Each member is 1 + (tanh-ridge mixture) + (Gaussian bump), with the
    mixture amplitudes summing below 0.8 so the functions stay uniformly
    positive -- which keeps |f|^(p-2) integrable for p < 2.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(n):
        parts = []
        amps = []
        weights = rng.uniform(0.2, 1.0, size=3)
        weights *= 0.7 / weights.sum()
        for j in range(3):
            parts.append(tanh_ridge(_random_direction(rng, dim), rng.uniform(-1, 1), dim))
            amps.append(weights[j] * rng.choice([-1.0, 1.0]))
        parts.append(gaussian_bump(rng.uniform(-1.5, 1.5, size=dim), rng.uniform(0.7, 2.0), dim))
        amps.append(0.1 * rng.choice([-1.0, 1.0]))
        out.append(combine(amps, parts, const=1.0))
    return out


def hyper_battery(dim=1, n=20, seed=77):
    """Bounded, positive-infimum battery for hypercontractivity checks."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    out = []
    for _ in range(n):
        a1 = rng.uniform(0.1, 0.45)
        a2 = rng.uniform(0.05, 0.3)
        f = combine(
            [a1, a2],
            [
                sin_ridge(_random_direction(rng, dim), rng.uniform(-2, 2), dim),
                tanh_ridge(_random_direction(rng, dim), rng.uniform(-1, 1), dim),
            ],
            const=1.0,
        )
        out.append(f)
    return out


def compact_flat_battery(dim=1, n=5):
    """Compactly-flat C^2 bumps (constant outside a ball) for the
    flow-derivative identity."""
    radii = [(1.0, 2.5), (2.0, 4.0), (0.8, 2.0), (1.5, 3.5), (2.5, 5.0)]
    centers = [0.0, 0.4, -0.6, 0.2, -0.3]
    out = []
    for k in range(n):
        r1, r2 = radii[k % len(radii)]
        c = centers[k % len(centers)] * np.ones(dim) / np.sqrt(dim)
        out.append(smooth_plateau(r1, r2, c, dim, height=1.0 + 0.2 * k))
    return out
