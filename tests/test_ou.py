"""Closed-form linear machinery, validated against independent oracles.

The oracles live at the top of this file and are deliberately dumb: the
textbook integrals for the periodically forced scalar model, evaluated by
fixed-grid Simpson quadrature with every exponential written out by hand.
`transition_U`, `evolution_measure`, and `ou_apply_G` are checked against
them -- and against the Monte Carlo path engine, which shares no code with
the quadrature -- before anything else in the package leans on them.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.special import roots_hermite

from conftest import mc_G
from kolmolab import catalog, functions, runner, sde
from kolmolab.errors import DomainError, NoEvolutionMeasureError
from kolmolab.ou import (
    _MIN_WEIGHT,
    GaussianMeasure,
    OUModel,
    _mehler_moments,
    estimate_omega0,
    evolution_measure,
    forward_transition,
    gauss_hermite_rule,
    ou_apply_G,
    solve_lyapunov_limit,
    sqrtm_psd,
    transition_U,
)

# ----------------------------------------------------------------------
# Oracles for the scalar model  dX = -(2 + sin t) X dt + sqrt(2) dW.
#
#   U(t, s)        = exp(2 (t-s) - cos t + cos s)         (expanding family)
#   M = U(s, t)    = exp(-2 (t-s) + cos t - cos s)        (kernel contraction)
#   C_{t,s}        = int_s^t U(s, xi)^2 * 2 dxi           (kernel covariance)
#   Q_t            = int_t^inf U(t, xi)^2 * 2 dxi         (measure covariance)
#
# The integrals are done on fixed Simpson grids; the infinite tail is cut
# at t + 30, where the integrand is below exp(-110).
# ----------------------------------------------------------------------


def periodic_U_oracle(t, s):
    return math.exp(2.0 * (t - s) - math.cos(t) + math.cos(s))


def periodic_kernel_cov_oracle(t, s, n=16385):
    xi = np.linspace(s, t, n)
    y = 2.0 * np.exp(2.0 * (-2.0 * (xi - s) + np.cos(xi) - math.cos(s)))
    return float(simpson(y, x=xi))


def periodic_future_cov_oracle(t, horizon=30.0, n=65537):
    xi = np.linspace(t, t + horizon, n)
    y = 2.0 * np.exp(2.0 * (-2.0 * (xi - t) + np.cos(xi) - math.cos(t)))
    return float(simpson(y, x=xi))


def make_noncommuting_model():
    """2-d upper-triangular A(t) whose values at different times do not commute."""

    def A(t):
        return np.array([[-2.0 - math.sin(t), 1.0], [0.0, -1.0 - 0.5 * math.cos(t)]])

    def B(t):
        return math.sqrt(2.0) * np.eye(2)

    return OUModel(dim=2, A=A, B=B, name="triangular")


# ----------------------------------------------------------------------
# transition_U
# ----------------------------------------------------------------------


def test_transition_constant_rate(ou_const_bundle):
    model = ou_const_bundle.model
    for (t, s) in [(1.0, 0.0), (2.5, 1.0), (0.3, -1.2)]:
        U = transition_U(model, t, s)
        assert U.shape == (1, 1)
        assert abs(U[0, 0] - math.exp(t - s)) <= 1e-9 * math.exp(t - s)
    assert np.allclose(transition_U(model, 0.7, 0.7), np.eye(1), atol=1e-13)


def test_transition_periodic_closed_form(ou_periodic_bundle):
    model = ou_periodic_bundle.model
    for (t, s) in [(1.0, 0.0), (2.5, 0.3), (7.1, 2.4), (0.3, 2.5)]:
        got = transition_U(model, t, s)[0, 0]
        want = periodic_U_oracle(t, s)
        assert abs(got - want) <= 1e-8 * abs(want)
    # frozen literals, so a regression cannot hide behind the oracle
    assert transition_U(model, 1.0, 0.0)[0, 0] == pytest.approx(
        11.701273641557519, rel=1e-9
    )
    assert transition_U(model, 0.0, 1.0)[0, 0] == pytest.approx(
        0.08546078235863674, rel=1e-9
    )


def test_transition_cocycle_random_triples(ou_periodic_bundle, rng):
    models = [ou_periodic_bundle.model, make_noncommuting_model()]
    for model in models:
        for _ in range(10):
            s, r, t = np.sort(rng.uniform(-10.0, 10.0, size=3))
            U_ts = transition_U(model, t, s)
            U_tr = transition_U(model, t, r)
            U_rs = transition_U(model, r, s)
            defect = np.linalg.norm(U_tr @ U_rs - U_ts)
            assert defect <= 1e-8 * max(1.0, np.linalg.norm(U_ts))


def test_forward_transition_inverts_U(ou_periodic_bundle):
    model = ou_periodic_bundle.model
    U = transition_U(model, 2.0, 0.5)
    Phi = forward_transition(model, 2.0, 0.5)
    assert np.allclose(U @ Phi, np.eye(1), atol=1e-9)


def test_noncommutativity_is_real():
    # sanity: the 2-d model's A(t) genuinely fails to commute across times,
    # so the cocycle test above is not vacuous
    model = make_noncommuting_model()
    A0, A1 = model.A_mat(0.0), model.A_mat(2.0)
    assert np.linalg.norm(A0 @ A1 - A1 @ A0) > 0.1


# ----------------------------------------------------------------------
# long-time contraction fits
# ----------------------------------------------------------------------


def test_omega_estimate_constant_rate(ou_const_bundle):
    fit = estimate_omega0(ou_const_bundle.model)
    assert abs(fit.omega - (-1.0)) <= 0.01
    assert 1.0 <= fit.M <= 1.1
    assert fit.residual <= 1e-6


def test_omega_estimate_periodic(ou_periodic_bundle):
    fit = estimate_omega0(ou_periodic_bundle.model)
    assert abs(fit.omega - (-2.0)) <= 0.05


def test_omega_estimate_flags_growth():
    model = OUModel(
        dim=1,
        A=lambda t: np.array([[1.0]]),
        B=lambda t: np.array([[math.sqrt(2.0)]]),
        name="expanding",
    )
    fit = estimate_omega0(model)
    assert fit.omega > 0.5
    with pytest.raises(NoEvolutionMeasureError):
        evolution_measure(model, 0.0)


# ----------------------------------------------------------------------
# evolution measures
# ----------------------------------------------------------------------


def test_evolution_measure_constant_rate(ou_const_bundle):
    for t in (0.0, 1.7):
        mu = evolution_measure(ou_const_bundle.model, t)
        assert abs(mu.cov[0, 0] - 1.0) <= 1e-8
        assert abs(mu.mean[0]) <= 1e-8
        assert mu.t == t


def test_evolution_measure_with_load():

    mu = catalog.get("ou_const", load=1.0)
    measure = evolution_measure(mu.model, 0.9)
    assert abs(measure.mean[0] - 1.0) <= 1e-8
    assert abs(measure.cov[0, 0] - 1.0) <= 1e-8


def test_evolution_measure_periodic_vs_simpson(ou_periodic_bundle):
    model = ou_periodic_bundle.model
    tol = 1e-8
    for t in (0.0, 0.7, 1.5, 3.9):
        mu = evolution_measure(model, t, tol=tol)
        want = periodic_future_cov_oracle(t)
        assert abs(mu.cov[0, 0] - want) <= 2.0 * tol
        assert abs(mu.mean[0]) <= tol


def test_evolution_measure_periodic_in_time(ou_periodic_bundle):
    model = ou_periodic_bundle.model
    a = evolution_measure(model, 0.5)
    b = evolution_measure(model, 0.5 + 2.0 * math.pi)
    assert abs(a.cov[0, 0] - b.cov[0, 0]) <= 5e-8


# ----------------------------------------------------------------------
# the evolution operator on Gaussians (kernel orientation regressions)
# ----------------------------------------------------------------------


def test_kernel_matrix_is_swapped_transition(ou_periodic_bundle):
    # grad_x G(t,s) applied to the coordinate functions recovers the rows of
    # the kernel matrix M, which must equal U(s, t) -- not U(t, s)
    model = ou_periodic_bundle.model
    s, t = 0.4, 1.7
    g = ou_apply_G(
        model, t, s, functions.coordinate(0, dim=1), np.array([0.3]), grad=True
    )
    want = transition_U(model, s, t)[0, 0]
    assert abs(g[0] - want) <= 1e-9

    model2 = make_noncommuting_model()
    rows = [
        ou_apply_G(
            model2, t, s, functions.coordinate(i, dim=2), np.zeros(2), grad=True
        )
        for i in range(2)
    ]
    M = np.vstack(rows)
    assert np.allclose(M, transition_U(model2, s, t), atol=1e-9)


def test_kernel_moments_close_the_measure_cocycle(ou_periodic_bundle):
    # E[(G(t,s) x^2)](0) = m^2 + C and (G(t,s) x)(0) = m expose the kernel
    # moments; with M from the gradient they must satisfy
    # M Q_t M^T + C = Q_s exactly (this is what makes {mu_t} an evolution
    # system rather than just a family of Gaussians)
    model = ou_periodic_bundle.model
    s, t = 0.4, 1.7
    x2 = functions.quadratic(np.array([[1.0]]))
    m = ou_apply_G(model, t, s, functions.coordinate(0, dim=1), np.array([0.0]))
    C = ou_apply_G(model, t, s, x2, np.array([0.0])) - m**2
    M = ou_apply_G(
        model, t, s, functions.coordinate(0, dim=1), np.array([0.0]), grad=True
    )[0]

    assert abs(C - periodic_kernel_cov_oracle(t, s)) <= 1e-8
    Q_t = evolution_measure(model, t).cov[0, 0]
    Q_s = evolution_measure(model, s).cov[0, 0]
    assert abs(M * Q_t * M + C - Q_s) <= 1e-8


def test_pushforward_identity_quadratics(ou_periodic_bundle):
    # int G(t,s) f dmu_t = int f dmu_s for polynomials of degree <= 2
    model = ou_periodic_bundle.model
    s, t = 0.25, 1.75
    mu_s = evolution_measure(model, s)
    mu_t = evolution_measure(model, t)
    fns = [
        functions.constant(3.0, dim=1),
        functions.affine(np.array([2.0]), c=-1.0),
        functions.quadratic(np.array([[1.0]]), u=np.array([0.5]), c=0.2),
    ]
    for f in fns:
        pts, w = mu_t.rule()
        lhs = w @ ou_apply_G(model, t, s, f, pts)
        rhs, _ = mu_s.expectation(f)
        assert abs(lhs - rhs) <= 1e-6


def test_pushforward_identity_with_load():

    bundle = catalog.get("ou_const", load=1.0)
    model = bundle.model
    s, t = 0.0, 1.3
    mu_s = evolution_measure(model, s)
    mu_t = evolution_measure(model, t)
    f = functions.quadratic(np.array([[1.0]]))
    pts, w = mu_t.rule()
    lhs = w @ ou_apply_G(model, t, s, f, pts)
    rhs, _ = mu_s.expectation(f)
    assert abs(lhs - rhs) <= 1e-6
    assert abs(mu_s.mean[0] - 1.0) <= 1e-8


def test_apply_G_identities(ou_const_bundle):
    model = ou_const_bundle.model
    f = functions.tanh_ridge(np.array([1.0]), 0.3)
    x = np.array([0.7])
    assert ou_apply_G(model, 1.0, 1.0, f, x) == pytest.approx(float(f(x)), abs=0.0)
    with pytest.raises(DomainError):
        ou_apply_G(model, 0.5, 1.0, f, x)

    one = functions.constant(1.0, dim=1)
    assert abs(ou_apply_G(model, 2.0, 0.5, one, x) - 1.0) <= 1e-12

    # first moment of the constant-rate model decays at the exact rate
    ident = functions.coordinate(0, dim=1)
    for span in (0.5, 1.0, 3.0):
        got = ou_apply_G(model, span, 0.0, ident, np.array([1.4]))
        assert abs(got - 1.4 * math.exp(-span)) <= 1e-10


def test_apply_G_batch_matches_single(ou_periodic_bundle):
    model = ou_periodic_bundle.model
    f = functions.gaussian_bump(np.zeros(1), 1.3)
    xs = np.array([[-1.0], [0.0], [0.8]])
    batch = ou_apply_G(model, 1.2, 0.1, f, xs)
    singles = [ou_apply_G(model, 1.2, 0.1, f, xs[i]) for i in range(3)]
    assert np.allclose(batch, singles, atol=1e-13)


# ----------------------------------------------------------------------
# quadrature vs the path engine: the two evaluators of G(t,s) must agree
# ----------------------------------------------------------------------


def test_mehler_vs_monte_carlo(ou_const_bundle, ou_periodic_bundle):
    from kolmolab.model import reflect_time

    loaded = catalog.get("ou_const", load=1.0)
    battery = [
        functions.tanh_ridge(np.array([1.0]), 0.0),
        functions.gaussian_bump(np.zeros(1), 1.2),
        functions.affine(np.array([1.0])),
    ]
    cfg = sde.SimConfig(dt=1e-3, n_paths=16000, seed=5)
    s, t = 0.3, 1.1
    worst = 0.0
    for bundle in (ou_const_bundle, ou_periodic_bundle, loaded):
        spec = bundle.spec
        model = bundle.model
        for x0 in (0.0, 1.2):
            x = np.array([x0])
            paths = sde.simulate(
                reflect_time(spec, s + t), s, t, x, cfg, with_jacobians=False
            )
            for f in battery:
                mc, se = mc_G(spec, s, t, f, x, paths=paths)
                exact = ou_apply_G(model, t, s, f, x)
                z = abs(mc - exact) / max(se, 1e-12)
                worst = max(worst, z)
    assert worst <= 3.0, f"worst z-score {worst:.2f}"


def test_monte_carlo_engine_vs_closed_form(ou_const_bundle, ou_periodic_bundle):
    # the evaluator the Monte Carlo engine runs in reports, values and
    # pathwise gradients, z-scored with the engine's own variances
    from kolmolab.engines import MonteCarloEngine

    battery = [
        functions.tanh_ridge(np.array([1.0]), 0.3),
        functions.gaussian_bump(np.zeros(1), 1.2),
        functions.sin_ridge(np.array([0.8]), 0.3),
    ]
    s, t = 0.3, 1.1
    xs = np.array([[0.0], [1.2]])
    worst = 0.0
    for bundle in (ou_const_bundle, ou_periodic_bundle):
        engine = MonteCarloEngine(
            bundle.spec, cfg=sde.SimConfig(dt=1e-3, seed=0), n_inner=8192
        )
        for f in battery:
            for grad in (False, True):
                apply = engine.grad_G_at if grad else engine.apply_G_at
                mc, var = apply(s, t, f, xs)
                exact = ou_apply_G(bundle.model, t, s, f, xs, grad=grad)
                z = np.abs(mc - exact) / np.sqrt(var)
                worst = max(worst, float(np.max(z)))
    assert worst <= 3.0, f"worst z-score {worst:.2f}"


# ----------------------------------------------------------------------
# limit problem
# ----------------------------------------------------------------------


def test_solve_lyapunov_limit_identity():
    mu = solve_lyapunov_limit(-np.eye(2), math.sqrt(2.0) * np.eye(2))
    assert np.allclose(mu.cov, np.eye(2), atol=1e-12)
    assert np.allclose(mu.mean, 0.0, atol=1e-12)


def test_solve_lyapunov_limit_scalar():
    mu = solve_lyapunov_limit(np.array([[-2.0]]), np.array([[math.sqrt(2.0)]]))
    assert mu.cov[0, 0] == pytest.approx(0.5, abs=1e-12)

    loaded = solve_lyapunov_limit(
        np.array([[-1.0]]), np.array([[math.sqrt(2.0)]]), g_inf=np.array([1.0])
    )
    assert loaded.mean[0] == pytest.approx(1.0, abs=1e-12)


def test_solve_lyapunov_limit_rejects_non_hurwitz():
    with pytest.raises(NoEvolutionMeasureError):
        solve_lyapunov_limit(np.array([[1.0]]), np.array([[1.0]]))
    with pytest.raises(NoEvolutionMeasureError):
        # purely rotational: spectrum on the imaginary axis
        solve_lyapunov_limit(
            np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2)
        )


# ----------------------------------------------------------------------
# Gaussian measure plumbing
# ----------------------------------------------------------------------


def test_gaussian_measure_rejects_bad_cov():
    with pytest.raises(DomainError):
        GaussianMeasure(mean=np.zeros(1), cov=np.array([[-0.5]]))
    with pytest.raises(DomainError):
        GaussianMeasure(mean=np.zeros(2), cov=np.eye(3))


def test_gaussian_measure_is_read_only():
    # one mu_t is shared by every experiment of a run
    mean = np.zeros(2)
    mu = GaussianMeasure(mean=mean, cov=np.eye(2))
    with pytest.raises(ValueError):
        mu.mean[0] = 1.0
    with pytest.raises(ValueError):
        mu.cov[0, 0] = 2.0
    mean[0] = 1.0  # the caller's array stays the caller's
    assert mu.mean[0] == 0.0


def test_gaussian_factorizations_are_computed_once(monkeypatch):
    mu = GaussianMeasure(mean=np.zeros(2), cov=np.array([[1.0, 0.3], [0.3, 0.8]]))
    x = np.array([[0.5, -1.0], [2.0, 0.1]])
    first = (mu.rule(16)[0], mu.sample(8, seed=1), mu.pdf(x))

    def factorized_again(*args, **kwargs):
        raise AssertionError("covariance factorized again")

    for name in ("eigh", "inv", "det"):
        monkeypatch.setattr(np.linalg, name, factorized_again)
    again = (mu.rule(16)[0], mu.sample(8, seed=1), mu.pdf(x))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


def test_gaussian_density_integrates_to_one():
    mu1 = GaussianMeasure(mean=np.array([0.3]), cov=np.array([[1.4]]))
    xs = np.linspace(-14.0, 14.0, 4001)
    mass = simpson(mu1.pdf(xs[:, None]), x=xs)
    assert abs(mass - 1.0) <= 1e-9

    mu2 = GaussianMeasure(
        mean=np.array([0.1, -0.2]), cov=np.array([[1.0, 0.3], [0.3, 0.8]])
    )
    grid = np.linspace(-9.0, 9.0, 361)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    vals = mu2.pdf(pts).reshape(X.shape)
    mass2 = simpson(simpson(vals, x=grid, axis=1), x=grid)
    assert abs(mass2 - 1.0) <= 1e-6


def test_gaussian_expectation_and_sampling(rng):
    mu = GaussianMeasure(mean=np.array([1.0]), cov=np.array([[1.0]]))
    one = functions.constant(1.0, dim=1)
    assert mu.expectation(one)[0] == pytest.approx(1.0, abs=1e-13)
    ident = functions.coordinate(0, dim=1)
    assert mu.expectation(ident)[0] == pytest.approx(1.0, abs=1e-12)

    xs = mu.sample(40000, seed=3)
    assert abs(xs.mean() - 1.0) <= 3.0 / math.sqrt(40000) * 1.1
    assert abs(xs.var(ddof=1) - 1.0) <= 3.0 * math.sqrt(2.0 / 40000) * 1.1
    # same seed, same draw
    assert np.array_equal(xs, mu.sample(40000, seed=3))


def test_gauss_hermite_rule_moments():
    for dim, order in [(1, 32), (2, 16), (2, 64), (3, 64)]:
        z, w = gauss_hermite_rule(dim, order)
        assert abs(w.sum() - 1.0) <= 1e-12
        pts = math.sqrt(2.0) * z
        assert abs(w @ pts[:, 0]) <= 1e-12
        assert abs(w @ pts[:, 0] ** 2 - 1.0) <= 1e-12
        assert abs(w @ pts[:, 0] ** 4 - 3.0) <= 1e-11
        if dim == 2:
            assert abs(w @ (pts[:, 0] ** 2 * pts[:, 1] ** 2) - 1.0) <= 1e-11


def _full_tensor_rule(dim, order):
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    weights = weights / math.sqrt(math.pi)
    z = np.array(list(itertools.product(nodes, repeat=dim)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=dim))), axis=1)
    return z, w


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", [16, 32, 64])
def test_pruned_rule_drops_only_negligible_weight(dim, order):
    z_full, w_full = _full_tensor_rule(dim, order)
    z, w = gauss_hermite_rule(dim, order)
    kept = {tuple(p) for p in z}
    dropped = np.array([tuple(p) not in kept for p in z_full])
    assert len(kept) == len(z) == int((~dropped).sum())
    # every dropped node is below the threshold, every kept one at or above
    assert np.all(w_full[dropped] < _MIN_WEIGHT)
    assert np.all(w >= _MIN_WEIGHT)
    # the dropped mass is below the rounding error of a sum over the rule
    # (measured: 2.9e-19 at d = 2 and 1.6e-17 at d = 3, order 64)
    assert w_full[dropped].sum() <= (1e-18 if dim <= 2 else 2e-17)
    # symmetric under z -> -z, weights included
    mirrored = dict(zip(map(tuple, -z), w))
    assert all(mirrored[tuple(p)] == wk for p, wk in zip(z, w))
    # moments up to degree 4, mixed ones included, as for N(0, I)
    pts = math.sqrt(2.0) * z
    for powers in itertools.product(range(5), repeat=dim):
        if sum(powers) > 4:
            continue
        exact = math.prod(0 if k % 2 else math.prod(range(k - 1, 0, -2)) for k in powers)
        moment = w @ np.prod(pts**np.array(powers), axis=1)
        assert abs(moment - exact) <= 1e-12, powers


def test_sqrtm_psd_roundtrip(rng):
    R = rng.normal(size=(3, 3))
    A = R @ R.T + 0.1 * np.eye(3)
    S = sqrtm_psd(A)
    assert np.allclose(S, S.T, atol=1e-12)
    assert np.allclose(S @ S, A, atol=1e-10)


def tensor_rule_G(model, t, s, f, xs, grad=False, order=64):
    """G(t, s)f at xs by the tensor Gauss-Hermite rule in one unchunked pass,
    each point summed over its nodes alone."""
    M, m, C = _mehler_moments(model, t, s)
    z, w = gauss_hermite_rule(model.dim, order)
    d = model.dim
    pts = (xs @ M.T + m)[:, None, :] + math.sqrt(2.0) * (z @ sqrtm_psd(C).T)[None]
    flat = pts.reshape(-1, d)
    if grad:
        return np.einsum("nkd,k->nd", f.gradient(flat).reshape(len(xs), -1, d), w) @ M
    return np.einsum("nk,k->n", f.value(flat).reshape(len(xs), -1), w)


def ridge_rule_G(model, t, s, f, xs, z, w, grad=False):
    """G(t, s)f at xs for a declared sum of ridges: each term integrated by
    the one-dimensional rule (z, w) on E phi(N(0, 1)), summed in node order."""
    M, m, C = _mehler_moments(model, t, s)
    out = np.zeros(xs.shape) if grad else np.full(len(xs), f.ridges.const)
    for term in f.ridges.terms:
        direction = M.T @ term.w
        u = xs @ direction + (m @ term.w + term.b)
        nodes = u[:, None] + math.sqrt(2.0 * (term.w @ C @ term.w)) * z[None, :]
        vals = (term.dphi if grad else term.phi)(nodes)
        mean = np.zeros(len(xs))
        for k in range(len(w)):
            mean += w[k] * vals[:, k]
        out += term.a * (mean[:, None] * direction if grad else mean)
    return out


def ridge_rule_G_at_default_order(model, t, s, f, xs, grad=False):
    z, w = gauss_hermite_rule(1, 256)
    return ridge_rule_G(model, t, s, f, xs, z[:, 0], w, grad)


@pytest.mark.parametrize("n", [1, 2, 33, 40, 81, 100])
def test_apply_G_chunking_matches_single_chunk(rng, n):
    # d = 2 at order 64 (1600 nodes) puts 40 points in a chunk of the tensor
    # rule, so 81 and 100 points make several (81 would leave one point
    # over); each point must come out exactly as from one unchunked pass.
    # The bump takes the tensor rule and the ridge the one-dimensional rule
    # of order 256, each checked against a one-pass reference of its rule.
    model = catalog.get("ou_periodic", dim=2).model
    cases = [
        (functions.gaussian_bump(np.array([0.3, -0.5]), 1.2), tensor_rule_G),
        (functions.tanh_ridge(np.array([0.6, -0.8]), 0.2), ridge_rule_G_at_default_order),
    ]
    t, s = 1.3, 0.2
    xs = rng.normal(size=(n, 2))
    for f, reference in cases:
        for grad in (False, True):
            ref = reference(model, t, s, f, xs, grad=grad)
            assert np.array_equal(ou_apply_G(model, t, s, f, xs, grad=grad), ref)


@pytest.mark.parametrize(
    "dim, n, ridge",
    [(2, 300, True), (3, 9, False), (3, 40, False), (2, 1394, False)],
    ids=["ridge-d2-300", "tensor-d3-9", "tensor-d3-40", "tensor-d2-1394"],
)
def test_rule_values_do_not_depend_on_the_batch(rng, dim, n, ridge):
    # in the tensor cases, a BLAS matrix-vector sum over the nodes gave a
    # point in the batch a value up to 7e-16 away from its value alone
    model = catalog.get("ou_periodic", dim=dim).model
    if ridge:
        f = functions.hyper_battery(dim, 1)[0]
    else:
        f = functions.gaussian_bump(0.2 * np.ones(dim), 1.2)
    xs = rng.normal(size=(n, dim))
    for grad in (False, True):
        whole = ou_apply_G(model, 1.3, 0.2, f, xs, grad=grad)
        parts = [ou_apply_G(model, 1.3, 0.2, f, xs[i : i + 7], grad=grad)
                 for i in range(0, n, 7)]
        assert np.array_equal(np.concatenate(parts), whole)
        for i in (0, 5, n - 1):
            assert np.array_equal(ou_apply_G(model, 1.3, 0.2, f, xs[i], grad=grad), whole[i])


def _ridge_cases(dim):
    """The ridges that experiments hand to ou_apply_G, plus the builders."""
    fns = [
        functions.tanh_ridge(np.linspace(0.5, -0.8, dim), 0.2),
        functions.sin_ridge(np.linspace(1.5, 0.3, dim), -0.4),
        functions.affine(np.linspace(-0.7, 1.1, dim), 0.3),
        *functions.hyper_battery(dim, 20),
        *(f for f in runner._decay_family(dim, True) if f.ridges is not None),
    ]
    assert len(fns) == 26
    return fns


@pytest.mark.parametrize(
    "model",
    [
        make_noncommuting_model(),
        catalog.get("ou_periodic", dim=2).model,
        catalog.get("ou_periodic", dim=3).model,
    ],
    ids=["triangular-d2", "ou_periodic-d2", "ou_periodic-d3"],
)
def test_ridge_rule_matches_a_300_node_reference(model):
    # a ridge sees Z only through <w, Z>, so a one-dimensional rule is exact
    # up to its order; roots_hermite(300) is an independent rule of more
    # nodes than the one under test
    z, w = roots_hermite(300)
    w = w / math.sqrt(math.pi)
    xs = np.random.default_rng(5).normal(scale=1.5, size=(40, model.dim))
    worst = 0.0
    for f in _ridge_cases(model.dim):
        for t, s in ((1.3, 0.2), (0.55, 0.5), (4.0, 0.0)):
            for grad in (False, True):
                got = ou_apply_G(model, t, s, f, xs, grad=grad)
                ref = ridge_rule_G(model, t, s, f, xs, z, w, grad=grad)
                worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-13


def test_tensor_rule_serves_d1_ridges_and_non_ridge_combinations(rng):
    # in d = 1 the tensor rule is already one-dimensional; a combination
    # with a non-ridge member (a Gaussian bump) declares no ridges
    one_d = catalog.get("ou_periodic").model
    two_d = catalog.get("ou_periodic", dim=2).model
    cases = [
        (one_d, functions.tanh_ridge(np.array([0.7]), 0.2)),
        (one_d, functions.hyper_battery(1, 1)[0]),
        (two_d, functions.lsi_battery(2, 1)[0]),
    ]
    assert cases[2][1].ridges is None
    for model, f in cases:
        xs = rng.normal(size=(30, model.dim))
        for grad in (False, True):
            ref = tensor_rule_G(model, 1.3, 0.2, f, xs, grad=grad)
            assert np.array_equal(ou_apply_G(model, 1.3, 0.2, f, xs, grad=grad), ref)
