"""Functional inequalities: log-Sobolev, Poincare, hypercontractivity, decay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmolab import engines, functions, sde
from kolmolab.errors import ConstantFunctionError, DomainError
from kolmolab.ineq import (
    CSV_COLUMNS,
    ExperimentRow,
    RateFit,
    _fit_loglinear,
    decay_fit_A,
    decay_fit_B,
    hyper_check,
    hyper_curve,
    hyper_exponent,
    lsi_deficit,
    poincare_quotient,
    rate_agreement,
)
from kolmolab.measures import EmpiricalMeasure
from kolmolab.ou import GaussianMeasure


def std_gaussian():
    return GaussianMeasure(mean=np.zeros(1), cov=np.eye(1))


# ----------------------------------------------------------------------
# log-Sobolev deficits
# ----------------------------------------------------------------------


def test_lsi_constant_function_is_tight():
    # for f = c both sides reduce to |c|^p log |c|: deficit exactly zero
    f = functions.constant(2.0, dim=1)
    d = lsi_deficit(std_gaussian(), f, p=2.0, Lambda=1.0, r0=-1.0)
    assert abs(d.value) <= 1e-12


def test_lsi_vanishing_function_uses_zero_convention():
    f = functions.combine([0.0], [functions.tanh_ridge(np.array([1.0]), 0.0)])
    d = lsi_deficit(std_gaussian(), f, p=2.0, Lambda=1.0, r0=-1.0)
    assert d.value == 0.0 and d.tolerance == 0.0


def test_lsi_rejects_bad_parameters():
    f = functions.constant(1.0, dim=1)
    with pytest.raises(DomainError):
        lsi_deficit(std_gaussian(), f, p=1.0, Lambda=1.0, r0=-1.0)
    with pytest.raises(DomainError):
        lsi_deficit(std_gaussian(), f, p=2.0, Lambda=1.0, r0=0.0)


def test_lsi_near_extremal_exponential():
    # exp(x/2) saturates the Gaussian inequality at p = 2; the truncated
    # version must sit within a whisker of zero deficit, from above
    f = functions.truncated_exp_ridge(lam=0.5)
    d = lsi_deficit(std_gaussian(), f, p=2.0, Lambda=1.0, r0=-1.0)
    assert -d.tolerance - 1e-12 <= d.value <= 0.05


def test_lsi_positive_for_generic_functions():
    f = functions.combine(
        [0.1], [functions.tanh_ridge(np.array([1.0]), 0.0)], const=1.0
    )
    d = lsi_deficit(std_gaussian(), f, p=2.0, Lambda=1.0, r0=-1.0)
    assert d.value >= 0.0


def test_lsi_battery_nonnegative():
    for p in (1.5, 2.0, 4.0):
        for f in functions.lsi_battery(1, n=12, seed=99):
            d = lsi_deficit(std_gaussian(), f, p=p, Lambda=1.0, r0=-1.0)
            assert d.value >= -3.0 * d.tolerance - 1e-9


def test_lsi_handles_vanishing_regions():
    # plateau functions are exactly zero outside a ball: |f|^p log |f|
    # must use the 0 log 0 = 0 convention without NaN, even for p < 2
    f = functions.smooth_plateau(1.0, 2.0, dim=1)
    for p in (1.5, 2.0, 4.0):
        d = lsi_deficit(std_gaussian(), f, p=p, Lambda=1.0, r0=-1.0)
        assert np.isfinite(d.value)
        assert d.value >= -3.0 * d.tolerance - 1e-9


def test_lsi_empirical_measure(rng):
    cloud = EmpiricalMeasure(samples=rng.normal(size=(20000, 1)))
    f = functions.combine(
        [0.2], [functions.sin_ridge(np.array([1.0]), 0.0)], const=1.0
    )
    d = lsi_deficit(cloud, f, p=2.0, Lambda=1.0, r0=-1.0)
    assert d.value >= -3.0 * d.tolerance


# ----------------------------------------------------------------------
# Poincare quotients
# ----------------------------------------------------------------------


def test_poincare_affine_is_extremal():
    f = functions.affine(np.array([1.0]), c=0.3)
    res = poincare_quotient(std_gaussian(), f, p=2)
    assert res.quotient == pytest.approx(1.0, abs=1e-10)


def test_poincare_quadratic_value():
    f = functions.quadratic(np.array([[1.0]]))
    res = poincare_quotient(std_gaussian(), f, p=2)
    assert res.quotient == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-9)


def test_poincare_shift_invariance():
    base = functions.tanh_ridge(np.array([1.0]), 0.4)
    shifted = functions.combine([1.0], [base], const=5.0)
    a = poincare_quotient(std_gaussian(), base, p=2)
    b = poincare_quotient(std_gaussian(), shifted, p=2)
    assert a.quotient == pytest.approx(b.quotient, abs=1e-9)


def test_poincare_rejects_constants():
    with pytest.raises(ConstantFunctionError):
        poincare_quotient(std_gaussian(), functions.constant(4.0, dim=1), p=2)


def test_poincare_higher_exponents_finite():
    f = functions.tanh_ridge(np.array([1.0]), 0.0)
    for p in (4, 6):
        res = poincare_quotient(std_gaussian(), f, p=p)
        assert np.isfinite(res.quotient) and res.quotient > 0.0


def test_poincare_respects_spectral_bound(ou_const_engine):
    # quotient <= sqrt(Lambda / |r0|) for every C^1_b function
    mu = ou_const_engine.measure(0.0)
    bound = math.sqrt(ou_const_engine.Lambda / abs(ou_const_engine.r0))
    for f in functions.bounded_test_family(1):
        res = poincare_quotient(mu, f, p=2)
        assert res.quotient <= bound * (1.0 + 1e-2)


def test_compactly_flat_means_match_adaptive_quadrature(ou_const_engine):
    # Gauss-Hermite stalls near 1e-3 on C^2 cut-offs; the one mean path of a
    # Gaussian integrates them by Simpson on the support box, and Poincare
    # quotients centre with that mean
    from scipy.integrate import quad

    from kolmolab.engines import lp_norm_measure

    mu = ou_const_engine.measure(1.0)
    flat = [f for f in functions.bounded_test_family(1) if f.meta.compact_support]
    assert len(flat) == 4
    for f in flat:
        R = f.meta.support_radius
        ref, _ = quad(
            lambda x: f.value(np.array([[x]]))[0] * mu.pdf(np.array([x])),
            -R, R, epsabs=1e-14, epsrel=1e-13, limit=400,
        )
        mean, tol = mu.expectation(f)
        assert abs(mean - ref) <= 1e-9, f.meta.name
        assert tol <= 1e-9
        res = poincare_quotient(mu, f, p=4)
        centred = functions.combine([1.0], [f], const=-ref)
        num, _ = lp_norm_measure(mu, centred, 4)
        assert res.numerator == pytest.approx(num, abs=1e-9), f.meta.name


# ----------------------------------------------------------------------
# hypercontractivity
# ----------------------------------------------------------------------


def test_hyper_exponent_closed_forms():
    assert hyper_exponent(2.0, 0.0, 1.0, 1.0, -1.0).p == pytest.approx(2.0)
    assert hyper_exponent(
        2.0, 0.5 * math.log(3.0), 1.0, 1.0, -1.0
    ).p == pytest.approx(4.0, rel=1e-12)
    assert hyper_exponent(2.0, 1.0, 1.0, 1.0, -1.0).p == pytest.approx(
        math.exp(2.0) + 1.0, rel=1e-12
    )


def test_hyper_exponent_validation():
    with pytest.raises(DomainError):
        hyper_exponent(1.0, 1.0, 1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        hyper_exponent(2.0, -0.5, 1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        hyper_exponent(2.0, 1.0, 1.0, 1.0, 0.0)


def test_hyper_exponent_saturates():
    exp_ = hyper_exponent(2.0, 1e6, 1.0, 1.0, -1.0)
    assert exp_.saturated


@settings(max_examples=30, deadline=None)
@given(
    q=st.floats(1.1, 4.0),
    g1=st.floats(0.0, 5.0),
    g2=st.floats(0.0, 5.0),
)
def test_hyper_exponent_monotone_in_gap(q, g1, g2):
    lo, hi = sorted((g1, g2))
    p_lo = hyper_exponent(q, lo, 1.0, 1.0, -1.0).p
    p_hi = hyper_exponent(q, hi, 1.0, 1.0, -1.0).p
    assert p_lo <= p_hi + 1e-12
    assert p_lo >= q - 1e-12


def test_hyper_check_constant_function(ou_const_engine):
    res = hyper_check(ou_const_engine, 0.0, 1.0, functions.constant(1.0, dim=1), 2.0)
    assert res.passed
    assert res.lhs == pytest.approx(1.0, abs=1e-10)
    assert res.rhs == pytest.approx(1.0, abs=1e-10)


def test_hyper_check_battery(ou_const_engine):
    f = functions.combine(
        [1.0], [functions.sin_ridge(np.array([1.0]), 0.0)], const=2.0
    )
    for gap in (0.25, 1.0, 2.0):
        res = hyper_check(ou_const_engine, 0.0, gap, f, 2.0)
        assert res.passed and not res.skipped


def test_hyper_check_at_a_long_gap(ou_const_engine):
    # at gap 8, p(t) is 4.4e6 (q = 1.5) or 8.9e6 (q = 2): |G f|^p overflows
    # where |G f| > 1 and underflows where it is < 1, unless the norm is
    # scaled by max |G f|, which it then approaches
    s, t = 0.0, 8.0
    xs, _ = ou_const_engine.outer_points(ou_const_engine.measure(t))
    for f in functions.hyper_battery(1, 10):
        top = np.max(np.abs(ou_const_engine.apply_G_at(s, t, f, xs)[0]))
        for q in (1.5, 2.0):
            res = hyper_check(ou_const_engine, s, t, f, q)
            assert np.isfinite([res.lhs, res.rhs, res.tolerance]).all()
            assert res.passed and not res.skipped
            assert abs(res.lhs - top) <= 1e-4 * top


def test_hyper_check_continuity_at_equal_times(ou_const_engine):
    from kolmolab.engines import lp_norm_measure

    f = functions.tanh_ridge(np.array([1.0]), 0.5)
    res = hyper_check(ou_const_engine, 0.0, 1e-6, f, 2.0)
    base, _ = lp_norm_measure(ou_const_engine.measure(0.0), f, 2.0)
    assert abs(res.lhs - base) <= 1e-3


def test_hyper_check_skips_when_saturated(ou_const_engine):
    f = functions.tanh_ridge(np.array([1.0]), 0.0)
    res = hyper_check(ou_const_engine, 0.0, 1e6, f, 2.0)
    assert res.skipped and res.passed is None


def test_hyper_check_refuses_unbounded(ou_const_engine):
    with pytest.raises(DomainError):
        hyper_check(ou_const_engine, 0.0, 1.0, functions.affine(np.array([1.0])), 2.0)


def test_hyper_curve_monotone(ou_periodic_engine):
    f = functions.combine(
        [0.5], [functions.tanh_ridge(np.array([1.0]), 0.2)], const=1.5
    )
    curve = hyper_curve(ou_periodic_engine, 0.5, f, 2.0, [0.0, 0.25, 0.5, 1.0, 2.0])
    assert curve.monotone
    assert len(curve.ts) == 5


def test_hyper_check_monte_carlo(cubic_bundle):
    cfg = sde.SimConfig(dt=2e-3, n_paths=4000, seed=7)
    engine = engines.engine_for(
        cubic_bundle, cfg=cfg, cloud_size=4096, n_inner=48, n_outer=384
    )
    f = functions.combine(
        [1.0], [functions.tanh_ridge(np.array([1.0]), 0.0)], const=2.0
    )
    res = hyper_check(engine, 0.0, 0.5, f, 2.0)
    assert res.passed


# ----------------------------------------------------------------------
# L^p contraction of G against the measure family
# ----------------------------------------------------------------------


def test_lp_contraction(ou_periodic_engine):
    from kolmolab.engines import lp_norm_measure, lp_norm_of_G

    engine = ou_periodic_engine
    f = functions.combine(
        [1.0], [functions.sin_ridge(np.array([1.0]), 0.3)], const=1.2
    )
    for p in (1.0, 2.0, 4.0):
        lhs, tl = lp_norm_of_G(engine, 0.25, 1.25, f, p)
        rhs, tr = lp_norm_measure(engine.measure(0.25), f, p)
        assert lhs <= rhs + 3.0 * (tl + tr)


# ----------------------------------------------------------------------
# decay-rate fits
# ----------------------------------------------------------------------


def decay_family():
    return [
        functions.affine(np.array([1.0])),
        functions.tanh_ridge(np.array([1.0]), 0.0),
    ]


def test_decay_rates_linear_model(ou_const_engine):
    gaps_a = [0.5, 1.0, 2.0, 3.0, 4.0]
    fit_a = decay_fit_A(ou_const_engine, 0.0, decay_family(), 2.0, gaps_a)
    assert abs(fit_a.omega - (-1.0)) <= 0.05
    assert np.isfinite(fit_a.residual)

    fit_b = decay_fit_B(ou_const_engine, 0.0, decay_family(), 2.0, [1.0, 2.0, 3.0, 4.0])
    assert abs(fit_b.omega - (-1.0)) <= 0.05

    agree = rate_agreement(fit_a, fit_b)
    assert agree.passed and agree.gap <= 0.1


def test_decay_rate_p_independent(ou_const_engine):
    fits = [
        decay_fit_A(ou_const_engine, 0.0, decay_family(), p, [0.5, 1.0, 2.0, 3.0])
        for p in (1.5, 2.0, 4.0)
    ]
    agree = rate_agreement(fits[0], fits[1], cross_fits=fits)
    assert agree.cross_spread <= 0.1


def test_decay_refuses_constant_family(ou_const_engine):
    fam = [functions.constant(2.0, dim=1)]
    with pytest.raises(ConstantFunctionError):
        decay_fit_B(ou_const_engine, 0.0, fam, 2.0, [1.0, 2.0])
    # side A refuses a family member that vanishes a.e.
    fam0 = [functions.combine([0.0], [functions.tanh_ridge(np.array([1.0]), 0.0)])]
    with pytest.raises(ConstantFunctionError):
        decay_fit_A(ou_const_engine, 0.0, fam0, 2.0, [0.5, 1.0])


def test_decay_gradient_window_starts_at_one(ou_const_engine):
    with pytest.raises(DomainError):
        decay_fit_B(ou_const_engine, 0.0, decay_family(), 2.0, [0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        decay_fit_A(ou_const_engine, 0.0, decay_family(), 2.0, [1.0])


def test_rate_agreement_flags_mismatch():
    a = RateFit(omega=-1.0, residual=0.0, window=(1.0, 4.0))
    b = RateFit(omega=-2.0, residual=0.0, window=(1.0, 4.0))
    assert not rate_agreement(a, b).passed
    assert rate_agreement(a, a).passed


@settings(max_examples=30, deadline=None)
@given(
    omega=st.floats(-3.0, -0.2),
    logM=st.floats(-1.0, 1.0),
)
def test_loglinear_fit_recovers_exact_decay(omega, logM):
    gaps = np.linspace(0.5, 6.0, 6)
    vals = math.exp(logM) * np.exp(omega * gaps)
    fit = _fit_loglinear(gaps, vals)
    assert abs(fit.omega - omega) <= 1e-9
    assert fit.residual <= 1e-9
    assert fit.window == (0.5, 6.0)


# ----------------------------------------------------------------------
# CSV row formatting
# ----------------------------------------------------------------------


def test_experiment_row_csv():
    row = ExperimentRow(
        scenario="demo",
        op="poincare",
        value=0.5,
        tolerance=1e-3,
        verdict="pass",
        p=2.0,
        q=None,
        t=1.0,
        s=0.0,
    )
    assert row.as_csv() == "demo,poincare,2,,1,0,0.5,0.001,pass"
    assert CSV_COLUMNS[0] == "scenario" and CSV_COLUMNS[-1] == "verdict"
