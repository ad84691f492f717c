"""Operator coefficients, hypothesis audits, and Lyapunov certificates."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_gradients
from kolmolab import catalog, functions
from kolmolab.errors import (
    DomainError,
    EvaluationError,
)
from kolmolab.model import (
    MARGIN_TOL,
    ProblemSpec,
    apply_generator,
    audit_hypotheses,
    build_lyapunov_gaussian,
    check_monotonicity,
    default_audit_grid,
    reflect_time,
)
from kolmolab.ou import OUModel


def scalar_spec(b, jac_b, r0, Q=None, interval_start=-math.inf, name="test"):
    if Q is None:
        Q = lambda t: np.array([[1.0]])
    return ProblemSpec(
        dim=1,
        interval_start=interval_start,
        Q=Q,
        b=b,
        jac_b=jac_b,
        eta0=1.0,
        Lambda=1.0,
        r0=r0,
        name=name,
    )


def linear_scalar_spec(rate=1.0, r0=None):
    return scalar_spec(
        b=lambda t, x: -rate * x,
        jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -rate),
        r0=-rate if r0 is None else r0,
    )


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------


def test_apply_generator_quadratic():
    spec = linear_scalar_spec()
    f = functions.quadratic(np.array([[1.0]]))
    # tr(Q D^2 f) + <b, grad f> = 2 - 2 x^2
    assert apply_generator(spec, 0.0, f, np.array([0.0])) == pytest.approx(2.0)
    assert apply_generator(spec, 0.0, f, np.array([1.0])) == pytest.approx(0.0)


def test_apply_generator_2d():
    spec = ProblemSpec(
        dim=2,
        interval_start=-math.inf,
        Q=lambda t: np.eye(2),
        b=lambda t, x: -x,
        jac_b=lambda t, x: np.broadcast_to(-np.eye(2), (x.shape[0], 2, 2)),
        eta0=1.0,
        Lambda=1.0,
        r0=-1.0,
    )
    f = functions.quadratic(np.eye(2))
    x = np.array([1.0, 1.0])  # tr(2 I) - 2 |x|^2 = 4 - 4
    assert apply_generator(spec, 0.0, f, x) == pytest.approx(0.0, abs=1e-12)


def test_apply_generator_batch_shape():
    spec = linear_scalar_spec()
    f = functions.quadratic(np.array([[1.0]]))
    out = apply_generator(spec, 0.5, f, np.array([[0.0], [1.0], [2.0]]))
    assert out.shape == (3,)
    assert np.allclose(out, [2.0, 0.0, -6.0])


def test_apply_generator_needs_hessian():
    spec = linear_scalar_spec()
    no_hess = functions.TestFunction(
        dim=1,
        value=lambda x: np.zeros(x.shape[0]),
        gradient=lambda x: np.zeros_like(x),
        hessian=None,
        meta=functions.FunctionMeta(bounded=True),
    )
    with pytest.raises(DomainError):
        apply_generator(spec, 0.0, no_hess, np.array([0.0]))


def test_generator_respects_time_interval():
    spec = ProblemSpec(
        dim=1,
        interval_start=0.0,
        Q=lambda t: np.array([[1.0]]),
        b=lambda t, x: -x,
        jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
        eta0=1.0,
        Lambda=1.0,
        r0=-1.0,
    )
    f = functions.quadratic(np.array([[1.0]]))
    with pytest.raises(DomainError):
        apply_generator(spec, -1.0, f, np.array([0.0]))


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(-3.0, 3.0, allow_nan=False),
    b=st.floats(-3.0, 3.0, allow_nan=False),
    x=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_generator_is_linear(a, b, x):
    spec = linear_scalar_spec()
    f1 = functions.quadratic(np.array([[1.0]]))
    f2 = functions.sin_ridge(np.array([1.0]), 0.2)
    combo = functions.combine([a, b], [f1, f2])
    pt = np.array([x])
    direct = apply_generator(spec, 0.0, combo, pt)
    parts = a * apply_generator(spec, 0.0, f1, pt) + b * apply_generator(
        spec, 0.0, f2, pt
    )
    assert abs(direct - parts) <= 1e-12 * (1.0 + abs(direct))


def test_nan_drift_reports_location():
    def bad_drift(t, x):
        v = -x.copy()
        v[np.abs(x[:, 0]) > 5.0] = np.nan
        return v

    spec = scalar_spec(
        b=bad_drift,
        jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
        r0=-1.0,
    )
    with pytest.raises(EvaluationError):
        spec.drift(0.0, np.array([[1.0], [6.0]]))


# ----------------------------------------------------------------------
# hypothesis audit
# ----------------------------------------------------------------------


def test_audit_passes_linear_model(ou_const_bundle):
    report = audit_hypotheses(ou_const_bundle.spec)
    assert report.passed
    # the dissipativity margin of dX = -X dt is exactly zero
    assert abs(report.margins["dissipativity"]) <= 1e-12
    assert report.margins["symmetry"] == 0.0
    assert abs(report.margins["ellipticity_low"]) <= 1e-12
    assert abs(report.margins["ellipticity_high"]) <= 1e-12


def test_audit_fails_overclaimed_rate():
    spec = linear_scalar_spec(rate=1.0, r0=-2.0)
    report = audit_hypotheses(spec)
    assert not report.passed
    assert report.margins["dissipativity"] == pytest.approx(-1.0, abs=1e-12)
    t_w, x_w = report.witnesses["dissipativity"]
    assert np.isfinite(t_w) and x_w.shape == (1,)


def test_audit_cubic_margin_zero(cubic_bundle):
    report = audit_hypotheses(cubic_bundle.spec)
    assert report.passed
    # jac b = -1 - 3 x^2 touches r0 = -1 only at x = 0
    assert abs(report.margins["dissipativity"]) <= 1e-12


def test_audit_flags_asymmetric_diffusion():
    spec = scalar_spec(
        b=lambda t, x: -x,
        jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
        r0=-1.0,
    )
    spec2 = ProblemSpec(
        dim=2,
        interval_start=-math.inf,
        Q=lambda t: np.array([[1.0, 0.3], [0.0, 1.0]]),
        b=lambda t, x: -x,
        jac_b=lambda t, x: np.broadcast_to(-np.eye(2), (x.shape[0], 2, 2)),
        eta0=0.5,
        Lambda=2.0,
        r0=-1.0,
    )
    assert audit_hypotheses(spec).passed
    report = audit_hypotheses(spec2)
    assert not report.passed
    assert report.margins["symmetry"] == pytest.approx(-0.3)


def test_spec_validates_constants():
    with pytest.raises(DomainError):
        linear_scalar_spec().__class__(
            dim=0,
            interval_start=-math.inf,
            Q=lambda t: np.array([[1.0]]),
            b=lambda t, x: -x,
            jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
            eta0=1.0,
            Lambda=1.0,
            r0=-1.0,
        )
    with pytest.raises(DomainError):
        scalar_spec(
            b=lambda t, x: -x,
            jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
            r0=-1.0,
            Q=lambda t: np.array([[1.0]]),
        ).__class__(
            dim=1,
            interval_start=-math.inf,
            Q=lambda t: np.array([[1.0]]),
            b=lambda t, x: -x,
            jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
            eta0=2.0,
            Lambda=1.0,
            r0=-1.0,
        )


# ----------------------------------------------------------------------
# monotonicity
# ----------------------------------------------------------------------


def test_monotonicity_linear_slack_zero():
    report = check_monotonicity(linear_scalar_spec(rate=1.0))
    assert report.passed
    assert abs(report.max_excess) <= 1e-12

    report2 = check_monotonicity(linear_scalar_spec(rate=2.0, r0=-1.0))
    assert report2.passed
    assert report2.max_excess == pytest.approx(-1.0, abs=1e-12)


def test_monotonicity_cubic(cubic_bundle):
    report = check_monotonicity(cubic_bundle.spec)
    assert report.passed
    assert report.max_excess <= MARGIN_TOL


def test_monotonicity_catches_violation():
    # drift -x + 2 sin x has slope up to +1 > r0 = -0.5
    spec = scalar_spec(
        b=lambda t, x: -x + 2.0 * np.sin(x),
        jac_b=lambda t, x: (-1.0 + 2.0 * np.cos(x))[..., None],
        r0=-0.5,
    )
    report = check_monotonicity(spec)
    assert not report.passed
    assert report.max_excess > 1.0
    assert report.witness is not None


# ----------------------------------------------------------------------
# Lyapunov certificates
# ----------------------------------------------------------------------


def test_gaussian_certificate_linear(ou_const_bundle):
    cert = build_lyapunov_gaussian(ou_const_bundle.spec)
    assert cert.delta == pytest.approx(0.25)
    spec = ou_const_bundle.spec
    grid = default_audit_grid(spec)
    for t in grid.ts[::8]:
        lhs = apply_generator(spec, t, cert.phi, grid.xs)
        rhs = cert.a - cert.c * cert.phi(grid.xs)
        assert np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs)))


def test_gaussian_certificate_periodic_forcing():
    spec = scalar_spec(
        b=lambda t, x: -x + math.sin(t),
        jac_b=lambda t, x: np.full((x.shape[0], 1, 1), -1.0),
        r0=-1.0,
    )
    cert = build_lyapunov_gaussian(spec)
    assert cert.delta == pytest.approx(0.25)


def test_certificate_requires_valid_shape():
    from kolmolab.model import LyapunovCertificate

    phi = functions.constant(1.0, dim=1)
    with pytest.raises(DomainError):
        LyapunovCertificate(phi=phi, a=-1.0, c=1.0, delta=0.1)
    with pytest.raises(DomainError):
        LyapunovCertificate(phi=phi, a=0.0, c=0.0, delta=0.1)


# ----------------------------------------------------------------------
# time reflection and derivative checks
# ----------------------------------------------------------------------


def test_reflect_time_mirrors_coefficients(ou_periodic_bundle):
    spec = ou_periodic_bundle.spec
    mirrored = reflect_time(spec, 3.0)
    x = np.array([[0.7]])
    for tau in (0.2, 1.1, 2.9):
        assert np.allclose(mirrored.b(tau, x), spec.b(3.0 - tau, x))
        assert np.allclose(mirrored.Q(tau), spec.Q(3.0 - tau))
        assert np.allclose(mirrored.jac_b(tau, x), spec.jac_b(3.0 - tau, x))
    assert mirrored.interval_start == -math.inf


def test_reflect_time_fixes_autonomous_drift(cubic_bundle):
    spec = cubic_bundle.spec
    mirrored = reflect_time(spec, 5.0)
    x = np.array([[1.3], [-0.4]])
    assert np.allclose(mirrored.b(0.3, x), spec.b(0.3, x))


def test_check_gradients_on_library():
    fns = functions.bounded_test_family(dim=1)
    xs = np.linspace(-3.0, 3.0, 41)[:, None]
    for f in fns:
        assert check_gradients(f, xs) <= 1e-5

    fns2 = functions.bounded_test_family(dim=2)
    rng = np.random.default_rng(4)
    xs2 = rng.uniform(-3.0, 3.0, size=(50, 2))
    for f in fns2:
        assert check_gradients(f, xs2) <= 1e-5


def _closure_tanh_ridge(w, b):
    # the hand-written evaluators that functions.tanh_ridge had before it
    # was built by the shared ridge helper
    def value(x):
        return np.tanh(x @ w + b)

    def gradient(x):
        T = np.tanh(x @ w + b)
        return (1.0 - T**2)[:, None] * w

    def hessian(x):
        T = np.tanh(x @ w + b)
        coeff = -2.0 * T * (1.0 - T**2)
        return coeff[:, None, None] * (w[:, None] * w[None, :])

    return value, gradient, hessian


def _closure_sin_ridge(w, b):
    def value(x):
        return np.sin(x @ w + b)

    def gradient(x):
        return np.cos(x @ w + b)[:, None] * w

    def hessian(x):
        return -np.sin(x @ w + b)[:, None, None] * (w[:, None] * w[None, :])

    return value, gradient, hessian


def _closure_affine(v, c):
    def value(x):
        return x @ v + c

    def gradient(x):
        return np.broadcast_to(v, x.shape).copy()

    def hessian(x):
        return np.zeros((x.shape[0], v.shape[0], v.shape[0]))

    return value, gradient, hessian


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ridge_helper_matches_the_closures_it_replaced(dim):
    rng = np.random.default_rng(11)
    xs = rng.normal(scale=2.0, size=(64, dim))
    w = rng.normal(size=dim)
    cases = [
        (functions.tanh_ridge(w, 0.4), _closure_tanh_ridge(w, 0.4)),
        (functions.sin_ridge(w, -0.7), _closure_sin_ridge(w, -0.7)),
        (functions.affine(w, 1.5), _closure_affine(w, 1.5)),
    ]
    for f, closures in cases:
        for built, old in zip((f.value, f.gradient, f.hessian), closures):
            assert np.array_equal(built(xs), old(xs))


def _every_battery_member():
    for dim in (1, 2, 3):
        yield from functions.bounded_test_family(dim)
        yield from functions.lsi_battery(dim)
        yield from functions.hyper_battery(dim)
        yield from functions.compact_flat_battery(dim)


def test_battery_members_are_memo_keys():
    # functions key the run memo, so each must hash, and the array-holding
    # ridge declaration must take no part in eq or hash
    assert not next(f for f in fields(functions.TestFunction) if f.name == "ridges").compare
    for f in _every_battery_member():
        twin = replace(f)
        assert twin == f and hash(twin) == hash(f)
        bare = replace(f, ridges=None)
        assert bare == f and hash(bare) == hash(f)
    ridged = [f for f in functions.hyper_battery(2) if f.ridges is not None]
    assert len(ridged) == 20


def test_check_gradients_flags_wrong_gradient():
    bad = functions.TestFunction(
        dim=1,
        value=lambda x: np.tanh(x[:, 0]),
        gradient=lambda x: 2.0 / np.cosh(x) ** 2,  # off by a factor of 2
        hessian=None,
        meta=functions.FunctionMeta(bounded=True),
    )
    xs = np.linspace(-2.0, 2.0, 21)[:, None]
    assert check_gradients(bad, xs) > 0.1


@pytest.mark.parametrize("name", ["cubic_dissipative", "double_well_shifted"])
def test_cubic_drift_matches_power_form(name):
    bundle = catalog.get(name)
    p = bundle.params
    x = np.linspace(-6.0, 6.0, 2001)[:, None]
    y = x - p.get("center", 0.0)
    ref = -p["lin"] * y - p["cub"] * y**3
    assert np.allclose(bundle.spec.drift(0.0, x), ref, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("name", catalog.names())
def test_only_linear_specs_declare_an_affine_drift(name):
    bundle = catalog.get(name)
    linear = name not in ("cubic_dissipative", "double_well_shifted")
    assert (bundle.model is not None) is linear
    assert bundle.spec.affine_drift is linear
    assert reflect_time(bundle.spec, 1.0).affine_drift is linear
    if linear:
        assert bundle.model.as_problem_spec().affine_drift is True


@pytest.mark.parametrize("name", catalog.names())
def test_only_autonomous_specs_declare_it(name):
    # a wrong declaration would merge the clouds of distinct mu_t
    spec = catalog.get(name).spec
    autonomous = name in ("cubic_dissipative", "double_well_shifted", "ou_const")
    assert spec.autonomous is autonomous
    assert reflect_time(spec, 1.0).autonomous is autonomous
    if autonomous:
        x = np.linspace(-3.0, 3.0, 7)[:, None] * np.ones(spec.dim)
        ref = (spec.drift(0.0, x), spec.drift_jacobian(0.0, x), spec.diffusion(0.0))
        for t in (-3.0, 0.7, 5.0):
            assert np.array_equal(spec.drift(t, x), ref[0])
            assert np.array_equal(spec.drift_jacobian(t, x), ref[1])
            assert np.array_equal(spec.diffusion(t), ref[2])


def test_hand_built_spec_has_no_affine_drift():
    # even a linear one: only the builders of linear specs declare it, and
    # only catalog builders declare a spec autonomous
    assert linear_scalar_spec().affine_drift is False
    assert linear_scalar_spec().autonomous is False


def test_as_problem_spec_measures_only_missing_constants(monkeypatch):
    model = catalog.get("ou_periodic").model

    def unasked(*args, **kwargs):
        raise AssertionError("a given constant was measured")

    monkeypatch.setattr(OUModel, "ellipticity", unasked)
    monkeypatch.setattr(OUModel, "dissipativity_rate", unasked)
    spec = model.as_problem_spec(eta0=0.5, Lambda=2.0, r0=-1.0, name="given")
    assert (spec.eta0, spec.Lambda, spec.r0, spec.name) == (0.5, 2.0, -1.0, "given")


@pytest.mark.parametrize(
    "name, overrides, rate, load",
    [
        ("ou_const", {"load": 0.5}, lambda p, t: p["rate"], 0.5),
        (
            "ou_periodic",
            {"dim": 2},
            lambda p, t: p["base"] + p["amp"] * math.sin(p["freq"] * t),
            0.0,
        ),
    ],
    ids=["ou_const", "ou_periodic"],
)
def test_diagonal_ou_coefficients_are_exact(name, overrides, rate, load):
    bundle = catalog.get(name, **overrides)
    p, spec = bundle.params, bundle.spec
    d = int(p["dim"])
    q = 0.5 * p["noise"] ** 2
    grids = np.meshgrid(*([np.linspace(-5.0, 5.0, 41)] * d), indexing="ij")
    x = np.stack([g.ravel() for g in grids], axis=-1)
    for t in (-3.0, 0.0, 0.7, 2.5):
        r = rate(p, t)
        assert np.array_equal(spec.drift(t, x), -r * x + load)
        jac = np.broadcast_to(-r * np.eye(d), (x.shape[0], d, d))
        assert np.array_equal(spec.drift_jacobian(t, x), jac)
        assert np.array_equal(spec.diffusion(t), q * np.eye(d))
