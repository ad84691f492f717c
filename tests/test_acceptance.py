"""Acceptance suite: the ten headline guarantees of the package.

Each test certifies one numbered guarantee and emits a single verdict
line before asserting; the lines are replayed in a terminal-summary
section so they stay visible under output capture.
All tolerances are fixed here, not tuned at run time:

  - pathwise Jacobian bound: zero violations allowed
  - closed-form identities: 1e-8 absolute (2x the quadrature target)
  - statistical checks: 3 x reported standard error
  - flow derivative: max(100 h^2, 4 tol) with h = 1e-2
  - time-step refinement: max(4 combined stderr, 10 dt)
  - rate fits: +/- 0.1 around the certified/estimated rate
"""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import mc_G
from kolmolab import catalog, engines, functions, measures, sde
from kolmolab.ineq import (
    decay_fit_A,
    decay_fit_B,
    hyper_check,
    hyper_curve,
    lsi_deficit,
    poincare_quotient,
    rate_agreement,
)
from kolmolab.model import reflect_time
from kolmolab.ou import (
    estimate_omega0,
    evolution_measure,
    ou_apply_G,
    solve_lyapunov_limit,
)

TWO_PI = 2.0 * math.pi


def verdict(num, ok, label, detail=""):
    import conftest

    mark = "pass" if ok else "FAIL"
    line = f"[{num:2d}/10] {mark} - {label}"
    if detail:
        line += f": {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return ok


# ---------------------------------------------------------------------
# shared heavyweight state
# ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def cubic_spec(cubic_bundle):
    return cubic_bundle.spec


@pytest.fixture(scope="module")
def cubic_mu_cloud(cubic_spec):
    """Equilibrium cloud of the cubic drift at t = 1, reused across checks."""
    cfg = sde.SimConfig(dt=2e-3, n_paths=8192, seed=303)
    return measures.sample_mu(cubic_spec, 1.0, 1e-3, cfg)


# ---------------------------------------------------------------------
# 1. pathwise gradient (Jacobian) bound
# ---------------------------------------------------------------------


def test_01_pathwise_jacobian_bound(
    ou_const_bundle, ou_periodic_bundle, cubic_bundle
):
    n_paths = 100_000
    cases = [
        ("ou_const", ou_const_bundle.spec, 0.0),
        ("ou_periodic", ou_periodic_bundle.spec, 0.3),
        ("cubic", cubic_bundle.spec, 0.0),
    ]
    spans = [(0.5, 1e-3), (1.0, 1e-3), (4.0, 4e-3)]
    rng = np.random.default_rng(1001)
    total = 0
    bad = []
    for name, spec, s in cases:
        starts = 1.5 * rng.standard_normal((n_paths, spec.dim))
        for span, dt in spans:
            cfg = sde.SimConfig(dt=dt, n_paths=n_paths, seed=41)
            bundle = sde.simulate(spec, s, s + span, starts, cfg)
            nviol, bound, worst = sde.jacobian_bound_violations(spec, bundle)
            total += n_paths
            if nviol:
                bad.append((name, span, nviol, worst, bound))
    ok = not bad
    verdict(
        1,
        ok,
        "pathwise Jacobian bound ||J|| <= exp((r0+eps_dt)(t-s))",
        f"0 violations over {total} paths (3 drifts x 3 spans)"
        if ok
        else f"violations: {bad}",
    )
    assert ok


# ---------------------------------------------------------------------
# 2. evolution-measure exactness
# ---------------------------------------------------------------------


def periodic_future_cov(t, horizon=30.0, n=65537):
    # independent fixed-grid Simpson evaluation of the forward noise
    # integral for A(t) = -(2 + sin t), B = sqrt(2)
    xi = np.linspace(t, t + horizon, n)
    vals = 2.0 * np.exp(2.0 * (-2.0 * (xi - t) + np.cos(xi) - np.cos(t)))
    return float(simpson(vals, x=xi))


def test_02_evolution_measure_exactness(ou_const_bundle, ou_periodic_bundle):
    worst_const = 0.0
    for t in (0.0, 1.7):
        mu = evolution_measure(ou_const_bundle.model, t)
        worst_const = max(
            worst_const,
            abs(float(mu.cov[0, 0]) - 1.0),
            abs(float(mu.mean[0])),
        )
    ok_const = worst_const <= 1e-8

    tol = 1e-8
    worst_per = 0.0
    for t in (0.0, 0.7, 1.5):
        mu = evolution_measure(ou_periodic_bundle.model, t, tol=tol)
        worst_per = max(worst_per, abs(float(mu.cov[0, 0]) - periodic_future_cov(t)))
    ok_per = worst_per <= 2.0 * tol

    ok = ok_const and ok_per
    verdict(
        2,
        ok,
        "evolution measures exact",
        f"constant-A |Q-1|,|g| <= {worst_const:.2e}; "
        f"periodic-A vs Simpson oracle <= {worst_per:.2e}",
    )
    assert ok


# ---------------------------------------------------------------------
# 3. invariance identity of the measure family
# ---------------------------------------------------------------------


def test_03_invariance_identity(ou_const_bundle, ou_periodic_bundle, cubic_bundle):
    fam = functions.bounded_test_family(1)[4:14]  # ten smooth members
    pairs = [(0.0, 0.5), (0.25, 1.25), (0.5, 2.0)]

    worst_ou = 0.0
    for bundle in (ou_const_bundle, ou_periodic_bundle):
        engine = engines.engine_for(bundle)
        for k, f in enumerate(fam):
            s, t = pairs[k % len(pairs)]
            d, = measures.invariance_defect(engine, s, t, [f])
            worst_ou = max(worst_ou, abs(d.value))
    ok_ou = worst_ou <= 1e-6

    # mu_s and mu_t from the engine's independent streams: clouds from one
    # seed would be one cloud of the autonomous cubic's invariant measure
    cfg = sde.SimConfig(dt=2e-3, n_paths=8000, seed=71)
    mc_engine = engines.engine_for(cubic_bundle, cfg=cfg, cloud_size=8000)
    worst_z = 0.0
    for j, (s, t) in enumerate([(0.0, 0.75), (0.5, 1.5)]):
        mu_s = mc_engine.cloud(s, "mu_s")
        mu_t = mc_engine.cloud(t)
        for f in fam[5 * j : 5 * j + 5]:
            d, = measures.invariance_defect(mc_engine, s, t, [f], mu_s=mu_s, mu_t=mu_t)
            worst_z = max(worst_z, abs(d.value) / d.tolerance)
    ok_mc = worst_z <= 3.0

    ok = ok_ou and ok_mc
    verdict(
        3,
        ok,
        "invariance of {mu_t} under G(t,s)",
        f"10 smooth cases/scenario; closed-form defect <= {worst_ou:.1e} "
        f"(cap 1e-6), Monte Carlo worst z = {worst_z:.2f} (cap 3)",
    )
    assert ok


# ---------------------------------------------------------------------
# 4. logarithmic Sobolev inequality
# ---------------------------------------------------------------------


def test_04_log_sobolev(ou_const_engine, ou_periodic_engine, cubic_mu_cloud):
    battery = functions.lsi_battery(1, n=50, seed=2024)
    ps = (1.5, 2.0, 4.0)
    cases = 0
    ok = True

    for mu in (ou_const_engine.measure(0.0), ou_periodic_engine.measure(1.5)):
        for p in ps:
            for f in battery:
                d = lsi_deficit(mu, f, p, Lambda=1.0, r0=-1.0)
                ok &= d.value >= -d.tolerance - 1e-12
                cases += 1
    for p in ps:
        for f in battery:
            d = lsi_deficit(cubic_mu_cloud, f, p, Lambda=1.0, r0=-1.0)
            ok &= d.value >= -3.0 * d.tolerance
            cases += 1

    near = lsi_deficit(
        ou_const_engine.measure(0.0),
        functions.truncated_exp_ridge(lam=0.5),
        2.0,
        Lambda=1.0,
        r0=-1.0,
    )
    ok_near = -3.0 * near.tolerance <= near.value <= 0.05
    ok &= ok_near
    verdict(
        4,
        ok,
        "log-Sobolev deficit nonnegative",
        f"{cases} randomized cases (50 fns x p in {ps} x 3 scenarios); "
        f"near-extremal deficit {near.value:.2e} <= 0.05",
    )
    assert ok


# ---------------------------------------------------------------------
# 5. Poincare inequality with the spectral constant
# ---------------------------------------------------------------------


class AtOrder:
    """A Gaussian mu whose rule and expectations use ``order`` per axis."""

    def __init__(self, mu, order):
        self.mu, self.order = mu, order

    def rule(self):
        return self.mu.rule(self.order)

    def expectation(self, f):
        return self.mu.expectation(f, self.order)


def test_05_poincare(ou_const_engine, ou_periodic_engine, cubic_mu_cloud):
    battery = functions.bounded_test_family(1)
    bound = 1.0  # sqrt(Lambda/|r0|) for every shipped scenario
    mus = [
        ou_const_engine.measure(0.0),
        ou_periodic_engine.measure(1.5),
        cubic_mu_cloud,
    ]
    worst = 0.0
    for mu in mus:
        for f in battery:
            res = poincare_quotient(mu, f, p=2)
            worst = max(worst, res.quotient)
    ok_bound = worst <= bound * (1.0 + 1e-2)

    aff = poincare_quotient(
        ou_const_engine.measure(0.0), functions.affine(np.array([1.0])), p=2
    )
    ok_aff = aff.quotient >= 0.95 * bound

    # higher exponents: finite, and stable when resolution doubles
    f = battery[6]
    ok_hi = True
    for p in (4, 6):
        a = poincare_quotient(AtOrder(mus[0], 48), f, p=p)
        b = poincare_quotient(AtOrder(mus[0], 96), f, p=p)
        ok_hi &= (
            np.isfinite(a.quotient)
            and abs(a.quotient - b.quotient) <= 1e-2 * b.quotient + 1e-6
        )
        half = measures.EmpiricalMeasure(samples=cubic_mu_cloud.samples[:4096])
        c = poincare_quotient(half, f, p=p)
        d = poincare_quotient(cubic_mu_cloud, f, p=p)
        ok_hi &= abs(c.quotient - d.quotient) <= 0.1 * d.quotient + 1e-3

    ok = ok_bound and ok_aff and ok_hi
    verdict(
        5,
        ok,
        "Poincare quotient <= sqrt(Lambda/|r0|)",
        f"worst quotient {worst:.4f} vs cap {bound * 1.01:.2f}; affine "
        f"achieves {aff.quotient:.4f}; p in (4,6) stable under doubling",
    )
    assert ok


# ---------------------------------------------------------------------
# 6. hypercontractivity
# ---------------------------------------------------------------------


def test_06_hypercontractivity(
    ou_const_engine, ou_periodic_engine, cubic_bundle
):
    battery = functions.hyper_battery(1, n=20, seed=77)
    qs = (1.5, 2.0, 3.0)
    gaps = (0.25, 0.5, 1.0, 2.0)
    checked = 0
    ok = True
    for engine in (ou_const_engine, ou_periodic_engine):
        for k, f in enumerate(battery):
            s = 0.25
            res = hyper_check(engine, s, s + gaps[k % 4], f, qs[k % 3])
            ok &= bool(res.passed) and not res.skipped
            checked += 1

    curves_ok = True
    for engine in (ou_const_engine, ou_periodic_engine):
        curve = hyper_curve(
            engine, 0.25, battery[0], 2.0, [0.0, 0.25, 0.5, 1.0, 2.0]
        )
        curves_ok &= curve.monotone

    mc_engine = sde_engine_for_cubic(cubic_bundle)
    mc_ok = True
    for k, f in enumerate(battery[:5]):
        res = hyper_check(mc_engine, 0.0, (0.25, 0.5, 1.0)[k % 3], f, 2.0)
        mc_ok &= bool(res.passed)

    ok = ok and curves_ok and mc_ok
    verdict(
        6,
        ok,
        "hypercontractivity G(t,s): L^q(mu_s) -> L^p(t)(mu_t)",
        f"{checked} closed-form cases + 5 Monte Carlo spot checks; "
        f"norm curves non-increasing: {curves_ok}",
    )
    assert ok


def sde_engine_for_cubic(cubic_bundle):
    from kolmolab import engines

    cfg = sde.SimConfig(dt=2e-3, n_paths=4000, seed=13)
    return engines.engine_for(
        cubic_bundle, cfg=cfg, cloud_size=4096, n_inner=96, n_outer=1024
    )


# ---------------------------------------------------------------------
# 7. decay to averages: function-side and gradient-side rates agree
# ---------------------------------------------------------------------


def decay_family():
    return [
        functions.affine(np.array([1.0])),
        functions.tanh_ridge(np.array([1.0]), 0.0),
    ]


def test_07_decay_rates(ou_const_engine, ou_periodic_engine, ou_periodic_bundle):
    fam = decay_family()
    fit_a = decay_fit_A(ou_const_engine, 0.0, fam, 2.0, [0.5, 1.0, 2.0, 3.0])
    fit_b = decay_fit_B(ou_const_engine, 0.0, fam, 2.0, [1.0, 1.5, 2.0, 3.0])
    agree = rate_agreement(fit_a, fit_b, tol=0.1)
    ok_const = (
        fit_a.omega <= -1.0 + 0.1 and fit_b.omega <= -1.0 + 0.1 and agree.passed
    )

    cross = [
        decay_fit_A(ou_const_engine, 0.0, fam, p, [0.5, 1.0, 2.0, 3.0])
        for p in (1.5, 2.0, 4.0)
    ]
    ok_p = rate_agreement(cross[0], cross[1], tol=0.1, cross_fits=cross).cross_spread <= 0.1

    # periodic coefficients: the sharp rate is the dichotomy exponent of
    # the transition matrix (-2 here), strictly better than r0 = -1.
    # Period-matched gaps cancel the oscillating prefactor.
    est = estimate_omega0(ou_periodic_bundle.model)
    gaps = [1.0, 1.0 + TWO_PI]
    per_a = decay_fit_A(ou_periodic_engine, 0.0, fam, 2.0, gaps)
    per_b = decay_fit_B(ou_periodic_engine, 0.0, fam, 2.0, gaps)
    ok_per = (
        abs(est.omega - (-2.0)) <= 0.05
        and abs(per_a.omega - est.omega) <= 0.1
        and abs(per_b.omega - est.omega) <= 0.1
    )

    ok = ok_const and ok_p and ok_per
    verdict(
        7,
        ok,
        "decay rates coincide on both sides",
        f"const: wA={fit_a.omega:.3f} wB={fit_b.omega:.3f} (target -1); "
        f"p-spread {rate_agreement(cross[0], cross[1], cross_fits=cross).cross_spread:.3f}; "
        f"periodic: wA={per_a.omega:.3f} wB={per_b.omega:.3f} vs w0={est.omega:.3f}",
    )
    assert ok


# ---------------------------------------------------------------------
# 8. convergent coefficients: weak* limit of the measure family
# ---------------------------------------------------------------------


def test_08_convergent_limit(ou_convergent_bundle):
    model = ou_convergent_bundle.model
    limit = solve_lyapunov_limit(np.array([[-1.0]]), np.array([[math.sqrt(2.0)]]))
    ts = [1.0, 2.0, 4.0, 8.0, 16.0]
    q_gaps, g_gaps = [], []
    for t in ts:
        mu = evolution_measure(model, t)
        q_gaps.append(abs(float(mu.cov[0, 0]) - float(limit.cov[0, 0])))
        g_gaps.append(abs(float(mu.mean[0]) - float(limit.mean[0])))
    q_gaps = np.array(q_gaps)
    g_gaps = np.array(g_gaps)
    ok = (
        bool(np.all(np.diff(q_gaps) <= 0.0))
        and bool(np.all(np.diff(g_gaps) <= 1e-12))
        and q_gaps[-1] < 1e-3
        and g_gaps[-1] < 1e-3
    )
    verdict(
        8,
        ok,
        "A(t) -> A_inf drives mu_t to the Lyapunov limit",
        f"|Q_t - Q_inf| falls {q_gaps[0]:.3f} -> {q_gaps[-1]:.2e} over t in "
        f"{ts}; mean gap <= {g_gaps.max():.1e}",
    )
    assert ok


# ---------------------------------------------------------------------
# 9. mean-flow identity d/dt int f dmu_t = -int A(t) f dmu_t
# ---------------------------------------------------------------------


def test_09_mean_flow_identity(ou_periodic_bundle, cubic_bundle):
    ou_engine = engines.engine_for(ou_periodic_bundle)
    bumps = functions.compact_flat_battery(1, n=5)
    h = 1e-2
    ok = True
    worst = 0.0
    for f in bumps:
        d = measures.flow_derivative_defect(ou_engine, f, 0.8, h=h)
        cap = max(100.0 * h * h, 4.0 * d.tolerance)
        worst = max(worst, abs(d.value) / cap)
        ok &= abs(d.value) <= cap

    cfg = sde.SimConfig(dt=2e-3, n_paths=6000, seed=29)
    mc_engine = engines.engine_for(cubic_bundle, cfg=cfg, cloud_size=cfg.n_paths)
    for f in bumps:
        d = measures.flow_derivative_defect(mc_engine, f, 1.0, h=h)
        cap = max(100.0 * h * h, 4.0 * d.tolerance)
        worst = max(worst, abs(d.value) / cap)
        ok &= abs(d.value) <= cap

    verdict(
        9,
        ok,
        "mean-flow derivative identity",
        f"5 compactly-flat bumps x 2 scenarios, h = {h:g}; worst "
        f"|defect|/cap = {worst:.2f} (cap = max(100h^2, 4 tol))",
    )
    assert ok


# ---------------------------------------------------------------------
# 10. cross-engine agreement and time-step refinement
# ---------------------------------------------------------------------


def mc_cases():
    fs = [
        functions.tanh_ridge(np.array([1.0]), 0.3),
        functions.gaussian_bump(np.zeros(1), 1.0),
        functions.sin_ridge(np.array([1.0]), 0.0),
        functions.affine(np.array([1.0]), c=0.2),
        functions.quadratic(np.array([[1.0]])),
    ]
    models = [
        ("ou_const", catalog.get("ou_const")),
        ("ou_periodic", catalog.get("ou_periodic")),
        ("ou_loaded", catalog.get("ou_const", load=1.0)),
    ]
    return fs, models


def test_10_cross_engine_agreement():
    fs, models = mc_cases()
    s, t = 0.3, 1.1
    worst_z = 0.0
    n_cases = 0
    for name, bundle in models:
        for x0 in (0.0, 1.2):
            x = np.array([x0])
            cfg = sde.SimConfig(dt=1e-3, n_paths=25000, seed=97)
            paths = sde.simulate(
                reflect_time(bundle.spec, s + t), s, t, x, cfg,
                with_jacobians=False,
            )
            for f in fs:
                exact = float(ou_apply_G(bundle.model, t, s, f, x[None, :])[0])
                est, se = mc_G(bundle.spec, s, t, f, x, paths=paths)
                worst_z = max(worst_z, abs(est - exact) / max(se, 1e-300))
                n_cases += 1
    ok_z = worst_z <= 3.0

    # halving the step must not move the answers beyond noise + O(dt)
    bundle = models[1][1]
    x = np.array([1.2])
    vals = {}
    for dt in (1e-3, 5e-4):
        cfg = sde.SimConfig(dt=dt, n_paths=25000, seed=53)
        paths = sde.simulate(
            reflect_time(bundle.spec, s + t), s, t, x, cfg,
            with_jacobians=False,
        )
        vals[dt] = [mc_G(bundle.spec, s, t, f, x, paths=paths) for f in fs]
    worst_dt = 0.0
    ok_dt = True
    for (v1, s1), (v2, s2) in zip(vals[1e-3], vals[5e-4]):
        cap = max(4.0 * math.hypot(s1, s2), 10.0 * 1e-3)
        worst_dt = max(worst_dt, abs(v1 - v2) / cap)
        ok_dt &= abs(v1 - v2) <= cap

    ok = ok_z and ok_dt
    verdict(
        10,
        ok,
        "Monte Carlo agrees with the Gaussian closed form",
        f"{n_cases} cases, worst z = {worst_z:.2f} (cap 3); dt-halving worst "
        f"|change|/cap = {worst_dt:.2f}",
    )
    assert ok
