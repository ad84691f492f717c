"""Path engine: determinism, closed-form moments, Jacobian transport."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import mc_G, mc_grad_G
from kolmolab import catalog, functions, sde
from kolmolab.errors import BlowUpError, DomainError
from kolmolab.model import ProblemSpec, reflect_time
from kolmolab.ou import OUModel, sqrtm_psd


# ----------------------------------------------------------------------
# reproducibility contracts
# ----------------------------------------------------------------------


def test_simulate_is_deterministic(ou_const_bundle, fast_cfg):
    spec = ou_const_bundle.spec
    a = sde.simulate(spec, 0.0, 0.7, np.array([0.3]), fast_cfg)
    b = sde.simulate(spec, 0.0, 0.7, np.array([0.3]), fast_cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.jacobians, b.jacobians)


def test_noise_does_not_depend_on_path_count():
    # counter-based streams: path i sees the same noise whether the ensemble
    # holds BLOCK + 7 paths (two sub-blocks, one partly used) or 3 BLOCK, so
    # subsampling is well defined
    small = sde.SimConfig(dt=2e-3, n_paths=sde.BLOCK + 7, seed=9)
    large = sde.SimConfig(dt=2e-3, n_paths=3 * sde.BLOCK, seed=9)
    for name in ("ou_const", "cubic_dissipative"):
        spec = catalog.get(name).spec
        a = sde.simulate(spec, 0.0, 0.5, np.array([1.0]), small)
        b = sde.simulate(spec, 0.0, 0.5, np.array([1.0]), large)
        assert np.array_equal(a.states, b.states[: small.n_paths])
        assert np.array_equal(a.jacobians, b.jacobians[: small.n_paths])


def test_noise_does_not_depend_on_chunk_length(monkeypatch):
    # a noise budget of one value forces one step per chunk
    spec = catalog.get("cubic_dissipative", dim=2).spec
    cfg = sde.SimConfig(dt=1e-2, n_paths=2 * sde.BLOCK + 5, seed=5)
    x = np.array([0.3, -0.1])
    a = sde.simulate(spec, 0.0, 0.75, x, cfg)
    monkeypatch.setattr(sde, "_NOISE_VALUES", 1)
    b = sde.simulate(spec, 0.0, 0.75, x, cfg)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.jacobians, b.jacobians)


def test_different_seeds_differ(ou_const_bundle, fast_cfg):
    # seeds that differ only in their low bits, also above 2**63 (the engine
    # derives 64-bit seeds), must give different noise
    spec = ou_const_bundle.spec
    for seed in (fast_cfg.seed, 2**64 - 2):
        a, b = (
            sde.simulate(
                spec, 0.0, 0.5, np.array([0.0]), replace(fast_cfg, seed=seed + k)
            )
            for k in (0, 1)
        )
        assert not np.array_equal(a.states, b.states)


def time_dependent_noise_spec():
    """A d = 2 OU drift whose non-diagonal Q(t) is piecewise constant."""

    def Q(t):
        level = 1.0 + 0.5 * math.floor(8.0 * t)
        return np.array([[level, 0.3], [0.3, 0.8 * level]])

    return ProblemSpec(
        dim=2,
        interval_start=-math.inf,
        Q=Q,
        b=lambda t, x: -x,
        jac_b=lambda t, x: np.broadcast_to(-np.eye(2), (x.shape[0], 2, 2)),
        eta0=0.1,
        Lambda=10.0,
        r0=-1.0,
    )


# (spec, t, start, cfg, with_jacobians) of runs from s = 0 whose states and
# Jacobians are pinned by SHA-256; the d = 1 runs span three noise chunks,
# the others end on a short last step
PINNED_RUNS = {
    "cubic_d1": (
        lambda: catalog.get("cubic_dissipative").spec, 1.5, [0.3],
        sde.SimConfig(dt=2e-3, n_paths=2 * sde.BLOCK + 5, seed=11), True,
    ),
    "cubic_d1_no_jacobians": (
        lambda: catalog.get("cubic_dissipative").spec, 1.5, [0.3],
        sde.SimConfig(dt=2e-3, n_paths=2 * sde.BLOCK + 5, seed=11), False,
    ),
    "cubic_d3": (
        lambda: catalog.get("cubic_dissipative", dim=3).spec, 0.505,
        [0.3, -0.2, 0.1], sde.SimConfig(dt=1e-2, n_paths=sde.BLOCK + 3, seed=12),
        True,
    ),
    "time_dependent_q": (
        time_dependent_noise_spec, 1.02, [0.5, -0.2],
        sde.SimConfig(dt=0.05, n_paths=2 * sde.BLOCK + 5, seed=4), False,
    ),
    "semi_implicit": (
        lambda: catalog.get("cubic_dissipative", dim=2).spec, 0.505, [0.3, -0.2],
        sde.SimConfig(
            dt=1e-2, n_paths=sde.BLOCK + 5, seed=13, scheme="semi_implicit_drift"
        ),
        True,
    ),
}
PINNED_DIGESTS = {
    "cubic_d1": "8169c801f587e29dab4c8b49a2dc89986da2fa67bffa15e423b97f14fc5b3e57",
    "cubic_d1_no_jacobians": "3ee43f68d6d3b608a78b44113e7b9b4d4c2181d3d5882c20d2b09cb592c374d0",
    "cubic_d3": "7a262272ab8a984f8971322783e088349f55f75d460146bda7adc21f2e5333fb",
    "time_dependent_q": "8aa17084926c6b4b2072878ee9f6cd636902534cd50059f02fc8690c5df4268a",
    "semi_implicit": "dccdd738a2bbcfc220393e18534f1ca951c6622bf9a4c68ecf8cd3755d1a988e",
}


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_euler_and_semi_implicit_bits_are_pinned(name):
    # the digests of the per-step matmul loop that the chunk-wise scaling
    # replaced: reordering the noise arithmetic must not move a bit
    make_spec, t, x, cfg, with_jacobians = PINNED_RUNS[name]
    bundle = sde.simulate(make_spec(), 0.0, t, np.array(x), cfg, with_jacobians)
    digest = hashlib.sha256(bundle.states.tobytes())
    if with_jacobians:
        digest.update(bundle.jacobians.tobytes())
    assert digest.hexdigest() == PINNED_DIGESTS[name]


# ----------------------------------------------------------------------
# closed-form moments of the linear model
# ----------------------------------------------------------------------


def test_linear_moments():
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=1e-3, n_paths=20000, seed=3)
    x0, span = 2.0, 1.0
    bundle = sde.simulate(spec, 0.0, span, np.array([x0]), cfg)
    xs = bundle.states[:, 0]
    mean_exact = x0 * math.exp(-span)
    var_exact = 1.0 - math.exp(-2.0 * span)
    se_mean = xs.std(ddof=1) / math.sqrt(len(xs))
    assert abs(xs.mean() - mean_exact) <= 3.5 * se_mean
    se_var = xs.var(ddof=1) * math.sqrt(2.0 / (len(xs) - 1))
    assert abs(xs.var(ddof=1) - var_exact) <= 3.5 * se_var + 1e-3


def test_linear_jacobian_is_deterministic_contraction():
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=1e-3, n_paths=64, seed=0)
    span = 1.0
    bundle = sde.simulate(spec, 0.0, span, np.array([0.0]), cfg)
    J = bundle.jacobians[:, 0, 0]
    assert np.ptp(J) == 0.0  # no noise enters the variational flow
    assert abs(J[0] - math.exp(-span)) <= 1e-3 * math.exp(-span)


def test_grad_estimate_linear_identity():
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=1e-3, n_paths=4000, seed=2)
    grad, se = mc_grad_G(
        spec, 0.0, 1.0, functions.coordinate(0, dim=1), np.array([0.5]), cfg
    )
    # the estimator averages J^T grad f; for f = x that is the deterministic
    # Jacobian itself, and it must respect the contraction certificate
    # exp(r0 (t - s)) |grad f|, with |grad f| = 1
    assert se[0] <= 1e-12
    assert abs(grad[0] - math.exp(-1.0)) <= 1e-3
    assert grad[0] <= math.exp(spec.r0 * 1.0) + 1e-12


# ----------------------------------------------------------------------
# Monte Carlo means of G(t, s) f
# ----------------------------------------------------------------------


def test_evaluate_constant_function(ou_const_bundle, fast_cfg):
    mean, se = mc_G(
        ou_const_bundle.spec,
        0.0,
        1.0,
        functions.constant(1.0, dim=1),
        np.array([0.4]),
        fast_cfg,
    )
    assert mean == 1.0
    assert se == 0.0


def test_evaluate_second_moment():
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=1e-3, n_paths=40000, seed=6)
    f = functions.quadratic(np.array([[1.0]]))
    mean, se = mc_G(spec, 0.0, 1.0, f, np.array([0.0]), cfg)
    assert abs(mean - (1.0 - math.exp(-2.0))) <= 3.5 * se + 1e-3


def test_bounded_functions_stay_bounded(cubic_bundle, fast_cfg):
    f = functions.tanh_ridge(np.array([1.0]), 0.0)
    mean, se = mc_G(cubic_bundle.spec, 0.0, 1.0, f, np.array([2.0]), fast_cfg)
    assert abs(mean) <= 1.0 + 1e-12


def test_gradient_matches_common_noise_differences(cubic_bundle):
    # central difference of the mean under common random numbers is an
    # independent route to grad G; the pathwise J^T grad f estimator must
    # agree without any Monte Carlo slack beyond the FD bias
    spec = cubic_bundle.spec
    cfg = sde.SimConfig(dt=1e-3, n_paths=8000, seed=14)
    f = functions.tanh_ridge(np.array([1.0]), 0.2)
    s, t, x0, eps = 0.0, 1.0, 0.6, 1e-3
    grad, _ = mc_grad_G(spec, s, t, f, np.array([x0]), cfg)
    up, _ = mc_G(spec, s, t, f, np.array([x0 + eps]), cfg)
    dn, _ = mc_G(spec, s, t, f, np.array([x0 - eps]), cfg)
    fd = (up - dn) / (2.0 * eps)
    assert abs(fd - grad[0]) <= 5e-3


# ----------------------------------------------------------------------
# pathwise Jacobian bound
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", ["ou_const", "cubic_dissipative", "double_well_shifted"])
def test_jacobian_bound_zero_violations(name):
    bundle_def = catalog.get(name)
    spec = bundle_def.spec
    cfg = sde.SimConfig(dt=1e-3, n_paths=8000, seed=21)
    paths = sde.simulate(spec, 0.0, 1.0, np.array([0.5]), cfg)
    violations, bound, worst = sde.jacobian_bound_violations(spec, paths)
    assert violations == 0
    assert worst <= bound


def test_jacobian_bound_semi_implicit(cubic_bundle):
    cfg = sde.SimConfig(dt=1e-3, n_paths=4000, seed=22, scheme="semi_implicit_drift")
    paths = sde.simulate(cubic_bundle.spec, 0.0, 1.0, np.array([0.5]), cfg)
    violations, _, _ = sde.jacobian_bound_violations(cubic_bundle.spec, paths)
    assert violations == 0


def noncommuting_spec():
    """A d = 2 linear drift whose A(t) at different times do not commute."""
    model = OUModel(
        dim=2,
        A=lambda t: np.array(
            [[-2.0 - math.sin(t), 1.0], [0.0, -1.0 - 0.5 * math.cos(t)]]
        ),
        B=lambda t: math.sqrt(2.0) * np.eye(2),
        name="triangular",
    )
    return model.as_problem_spec()


LINEAR_SPECS = {
    "ou_const": lambda: catalog.get("ou_const").spec,
    "ou_periodic_d2": lambda: catalog.get("ou_periodic", dim=2).spec,
    "triangular_d2": noncommuting_spec,
    # r0 = -3 overclaims the contraction of rate 1: every path violates
    "overclaimed_r0": lambda: OUModel(
        dim=1, A=lambda t: -np.eye(1), B=lambda t: math.sqrt(2.0) * np.eye(1)
    ).as_problem_spec(r0=-3.0),
}


@pytest.mark.parametrize("scheme", sde._SCHEMES)
@pytest.mark.parametrize("name", LINEAR_SPECS)
def test_jacobian_certificate_equals_the_simulated_one(name, scheme, monkeypatch):
    # the one-row Jacobian of a linear drift against the full ensemble, bit
    # for bit; the second span ends off the dt grid, so a short last step runs
    spec = LINEAR_SPECS[name]()
    cfg = sde.SimConfig(dt=1e-3, n_paths=300, seed=3, scheme=scheme)
    x = np.full(spec.dim, 0.4)
    spans = ((0.0, 0.5), (0.25, 0.9505))
    full = [
        sde.jacobian_bound_violations(spec, sde.simulate(spec, s, t, x, cfg))
        for s, t in spans
    ]
    monkeypatch.setattr(sde, "simulate", None)  # no path may be simulated
    assert [sde.jacobian_certificate(spec, s, [t], x, cfg)[0] for s, t in spans] == full
    expected = cfg.n_paths if name == "overclaimed_r0" else 0
    assert [v for v, _, _ in full] == [expected, expected]


def test_eps_dt_scales_linearly(ou_const_bundle):
    spec = ou_const_bundle.spec
    assert sde.grid_lipschitz(spec) == pytest.approx(1.0)
    assert sde.eps_dt(spec, 1e-3) == pytest.approx(1e-2)
    assert sde.eps_dt(spec, 2e-3) == pytest.approx(2.0 * sde.eps_dt(spec, 1e-3))


# ----------------------------------------------------------------------
# schemes and refinement
# ----------------------------------------------------------------------


def test_schemes_agree_on_cubic(cubic_bundle):
    spec = cubic_bundle.spec
    f = functions.gaussian_bump(np.zeros(1), 1.0)
    a = mc_G(
        spec, 0.0, 1.0, f, np.array([1.0]), sde.SimConfig(dt=1e-3, n_paths=20000, seed=31)
    )
    b = mc_G(
        spec,
        0.0,
        1.0,
        f,
        np.array([1.0]),
        sde.SimConfig(dt=1e-3, n_paths=20000, seed=32, scheme="semi_implicit_drift"),
    )
    z = abs(a[0] - b[0]) / math.hypot(a[1], b[1])
    assert z <= 3.5


def test_dt_refinement_is_first_order(ou_const_bundle):
    spec = ou_const_bundle.spec
    f = functions.tanh_ridge(np.array([1.0]), 0.0)
    coarse = mc_G(
        spec, 0.0, 1.0, f, np.array([0.8]), sde.SimConfig(dt=2e-3, n_paths=20000, seed=41)
    )
    fine = mc_G(
        spec, 0.0, 1.0, f, np.array([0.8]), sde.SimConfig(dt=1e-3, n_paths=20000, seed=42)
    )
    gap = abs(coarse[0] - fine[0])
    assert gap <= max(4.0 * math.hypot(coarse[1], fine[1]), 10.0 * 2e-3)


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(DomainError):
        sde.SimConfig(dt=0.0)
    with pytest.raises(DomainError):
        sde.SimConfig(n_paths=0)
    with pytest.raises(DomainError):
        sde.SimConfig(seed=-1)
    with pytest.raises(DomainError):
        sde.SimConfig(seed=2**64)
    with pytest.raises(DomainError):
        sde.SimConfig(scheme="rk4")


@pytest.mark.parametrize(
    "field, value",
    [("n_paths", 2.5), ("seed", 1.5), ("dt", math.inf), ("dt", "1e-3")],
)
def test_config_checks_field_types(field, value):
    # each would be accepted, or end in a TypeError, without a type check
    with pytest.raises(DomainError, match=field):
        sde.SimConfig(**{field: value})


def test_coarse_dt_rejected(ou_const_bundle):
    cfg = sde.SimConfig(dt=0.6, n_paths=10)
    with pytest.raises(DomainError):
        sde.simulate(ou_const_bundle.spec, 0.0, 1.0, np.array([0.0]), cfg)


def test_time_ordering_enforced(ou_const_bundle, fast_cfg):
    with pytest.raises(DomainError):
        sde.simulate(ou_const_bundle.spec, 1.0, 1.0, np.array([0.0]), fast_cfg)
    with pytest.raises(DomainError):
        sde.simulate(ou_const_bundle.spec, 1.0, 0.5, np.array([0.0]), fast_cfg)


def test_start_shape_checked(ou_const_bundle, fast_cfg):
    with pytest.raises(DomainError):
        sde.simulate(ou_const_bundle.spec, 0.0, 1.0, np.zeros(2), fast_cfg)


def test_per_path_starts(ou_const_bundle):
    spec = ou_const_bundle.spec
    cfg = sde.SimConfig(dt=2e-3, n_paths=6, seed=1)
    x0 = np.linspace(-1.0, 1.0, 6)[:, None]
    bundle = sde.simulate(spec, 0.0, 0.5, x0, cfg, with_jacobians=False)
    assert bundle.states.shape == (6, 1)
    # an (n, d) start whose rows are all equal is the same ensemble as the
    # broadcast single start, path for path
    same = sde.simulate(
        spec, 0.0, 0.5, np.full((6, 1), 0.25), cfg, with_jacobians=False
    )
    broadcast = sde.simulate(
        spec, 0.0, 0.5, np.array([0.25]), cfg, with_jacobians=False
    )
    assert np.array_equal(same.states, broadcast.states)


def test_blow_up_reported_with_step():
    spec = catalog.get("cubic_dissipative").spec
    flipped = spec.__class__(
        dim=1,
        interval_start=spec.interval_start,
        Q=spec.Q,
        b=lambda t, x: x**3,
        jac_b=lambda t, x: (3.0 * x**2)[..., None],
        eta0=spec.eta0,
        Lambda=spec.Lambda,
        r0=-1.0,  # deliberately wrong; simulate trusts the declaration
        name="explosive",
    )
    cfg = sde.SimConfig(dt=0.05, n_paths=16, seed=0)
    with pytest.raises(BlowUpError) as err, np.errstate(over="ignore"):
        sde.simulate(flipped, 0.0, 2.0, np.array([3.0]), cfg, with_jacobians=False)
    # x' = x^3 from 3 overflows within 8 steps of 0.05, whatever the noise
    assert err.value.step == 8


# End times of one run at dt 2e-2 from 0 to 0.5: 0.1, 0.3 and 0.48 lie on its
# grid, 0.25 and 0.45 need a short last step of their own.
ON_GRID, OFF_GRID = (0.3, 0.1, 0.48), (0.25, 0.45)


def recording_simulate(monkeypatch):
    """Route sde.simulate through a recorder of each run's (s, t)."""
    runs = []
    real = sde.simulate

    def simulate(spec, s, t, x, cfg=None, with_jacobians=True, ends=()):
        runs.append((s, t))
        return real(spec, s, t, x, cfg, with_jacobians, ends)

    monkeypatch.setattr(sde, "simulate", simulate)
    return runs, real


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("with_jacobians", [True, False])
@pytest.mark.parametrize("scheme", sde._SCHEMES)
def test_each_end_time_equals_a_separate_run(scheme, with_jacobians, dim, monkeypatch):
    # one run to 0.5 gives the ensemble at every end time, bit for bit as a
    # run to that time alone: read off the run on the grid, run on its own
    # off it; for one path, one partly used sub-block and one path past it,
    # from a shared start and from per-path starts
    spec = catalog.get("cubic_dissipative", dim=dim).spec
    ends = ON_GRID + OFF_GRID + (0.5,)
    runs, real = recording_simulate(monkeypatch)
    for n in (1, sde.BLOCK - 1, sde.BLOCK + 1):
        cfg = sde.SimConfig(dt=2e-2, n_paths=n, seed=n, scheme=scheme)
        per_path = np.random.default_rng(n).normal(size=(n, dim))
        for x in (np.full(dim, 0.3), per_path):
            runs.clear()
            run = sde.simulate(spec, 0.0, 0.5, x, cfg, with_jacobians, ends=ends)
            assert runs == [(0.0, 0.5)] + [(0.0, u) for u in OFF_GRID]
            for u in ends:
                alone = real(spec, 0.0, u, x, cfg, with_jacobians)
                got = run.at(u)
                assert (got.s, got.t, got.cfg) == (alone.s, alone.t, alone.cfg)
                assert np.array_equal(got.states, alone.states)
                if with_jacobians:
                    assert np.array_equal(got.jacobians, alone.jacobians)
                else:
                    assert got.jacobians is None and alone.jacobians is None


def test_end_times_with_time_dependent_noise_and_leimkuhler_matthews(monkeypatch):
    # the prefix holds for a clock-reading, non-diagonal Q; a
    # Leimkuhler-Matthews run reads no end off its grid, since its last step
    # averages one row more
    runs, real = recording_simulate(monkeypatch)
    spec = time_dependent_noise_spec()
    cfg = sde.SimConfig(dt=0.05, n_paths=sde.BLOCK + 5, seed=4)
    x = np.array([0.5, -0.2])
    run = sde.simulate(spec, 0.0, 1.02, x, cfg, ends=[0.5, 0.73])
    assert runs == [(0.0, 1.02), (0.0, 0.73)]
    for u in (0.5, 0.73):
        alone = real(spec, 0.0, u, x, cfg)
        assert np.array_equal(run.at(u).states, alone.states)
        assert np.array_equal(run.at(u).jacobians, alone.jacobians)
    lm = sde.SimConfig(dt=0.05, n_paths=16, seed=2, scheme=LM)
    cubic = catalog.get("cubic_dissipative").spec
    runs.clear()
    run = sde.simulate(cubic, 0.0, 1.0, np.zeros(1), lm, False, ends=[0.5])
    assert runs == [(0.0, 1.0), (0.0, 0.5)]
    alone = real(cubic, 0.0, 0.5, np.zeros(1), lm, False)
    assert np.array_equal(run.at(0.5).states, alone.states)


def test_end_times_are_checked_and_a_blow_up_still_raises():
    spec = catalog.get("cubic_dissipative").spec
    cfg = sde.SimConfig(dt=0.05, n_paths=16, seed=0)
    for u in (0.0, -0.5, 2.5):
        with pytest.raises(DomainError, match="end times"):
            sde.simulate(spec, 0.0, 2.0, np.zeros(1), cfg, ends=[u])
    # x' = x^3 from 3 overflows within 8 steps of 0.05, before the first end
    explosive = replace(
        spec, b=lambda t, x: x**3, jac_b=lambda t, x: (3.0 * x**2)[..., None]
    )
    with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
        sde.simulate(explosive, 0.0, 2.0, np.array([3.0]), cfg, ends=[0.5, 1.0])


def test_mirrored_flow_equals_plain_flow_for_autonomous(cubic_bundle, fast_cfg):
    # for time-independent coefficients the mirrored-clock ensemble is the
    # plain one: same states, bit for bit
    spec = cubic_bundle.spec
    a = sde.simulate(spec, 0.0, 1.0, np.array([0.2]), fast_cfg, with_jacobians=False)
    b = sde.simulate(
        reflect_time(spec, 1.0), 0.0, 1.0, np.array([0.2]), fast_cfg, with_jacobians=False
    )
    assert np.array_equal(a.states, b.states)


def test_time_dependent_noise_matches_per_step_square_roots(monkeypatch):
    # Q(t) is piecewise constant, so simulate reuses sqrt(2 Q) across runs of
    # equal steps; the reference below takes the square root on every step
    spec = time_dependent_noise_spec()
    cfg = sde.SimConfig(dt=0.05, n_paths=2 * sde.BLOCK + 5, seed=4)
    roots = []
    monkeypatch.setattr(
        sde, "sqrtm_psd", lambda M: roots.append(M) or sqrtm_psd(M)
    )
    got = sde.simulate(spec, 0.0, 1.02, np.array([0.5, -0.2]), cfg, with_jacobians=False)

    times = sde._time_grid(0.0, 1.02, cfg.dt)
    assert len(roots) == 9 < len(times) - 1  # one per level of Q on [0, 1.02)
    # one Philox stream per sub-block of BLOCK paths, the last one partly used
    Z = np.concatenate(
        [
            np.random.Generator(np.random.Philox(key=[cfg.seed, b])).standard_normal(
                (len(times) - 1, sde.BLOCK, 2)
            )
            for b in range(3)
        ],
        axis=1,
    )[:, : cfg.n_paths, :]
    X = np.tile([0.5, -0.2], (cfg.n_paths, 1))
    for k, (tk, h) in enumerate(zip(times[:-1], np.diff(times))):
        sig = sqrtm_psd(2.0 * spec.diffusion(tk))
        X = X + h * spec.drift(tk, X) + (Z[k] @ sig.T) * np.sqrt(h)
    assert np.array_equal(got.states, X)


# ----------------------------------------------------------------------
# the Leimkuhler-Matthews step
# ----------------------------------------------------------------------

LM = sde.LEIMKUHLER_MATTHEWS


@pytest.mark.parametrize("n_paths", [5, 2 * sde.BLOCK + 5])
@pytest.mark.parametrize("noise_values", [None, 1])
def test_leimkuhler_matthews_averages_adjacent_rows(n_paths, noise_values, monkeypatch):
    # N steps draw N + 1 rows of the (seed, path, step) layout, and step k
    # adds the mean of the scaled rows k and k + 1; a noise budget of one
    # value makes every row a chunk of its own
    if noise_values is not None:
        monkeypatch.setattr(sde, "_NOISE_VALUES", noise_values)
    spec = catalog.get("cubic_dissipative").spec
    cfg = sde.SimConfig(dt=0.05, n_paths=n_paths, seed=8, scheme=LM)
    got = sde.simulate(spec, -1.0, 0.0, np.zeros(1), cfg, with_jacobians=False)

    times = sde._time_grid(-1.0, 0.0, cfg.dt)
    hs = np.diff(times)
    n_steps = len(hs)
    assert n_steps == 20
    n_sub = -(-n_paths // sde.BLOCK)
    Z = np.concatenate(
        [
            np.random.Generator(np.random.Philox(key=[cfg.seed, b])).standard_normal(
                (n_steps + 1, sde.BLOCK, 1)
            )
            for b in range(n_sub)
        ],
        axis=1,
    )[:, :n_paths]
    sig = sqrtm_psd(2.0 * spec.diffusion(0.0))
    # the last row takes the last step's h
    eta = (Z @ sig.T) * np.sqrt(np.append(hs, hs[-1]))[:, None, None]
    X = np.zeros((n_paths, 1))
    for k in range(n_steps):
        X = X + hs[k] * spec.drift(times[k], X) + 0.5 * (eta[k] + eta[k + 1])
    assert np.array_equal(got.states, X)


def test_leimkuhler_matthews_refuses_jacobians_and_short_steps():
    spec = catalog.get("cubic_dissipative").spec
    cfg = sde.SimConfig(dt=0.05, n_paths=16, scheme=LM)
    with pytest.raises(DomainError, match="Jacobians"):
        sde.simulate(spec, 0.0, 1.0, np.zeros(1), cfg)
    with pytest.raises(DomainError, match="whole steps"):
        sde.simulate(spec, 0.0, 1.01, np.zeros(1), cfg, with_jacobians=False)
    ou_spec = catalog.get("ou_const").spec
    with pytest.raises(DomainError, match="Jacobians"):
        sde.jacobian_certificate(ou_spec, 0.0, [1.0], np.zeros(1), cfg)
