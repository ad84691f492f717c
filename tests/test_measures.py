"""Evolution families of measures: sampling, integration, invariance, flow."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from kolmolab import catalog, cli, engines, functions, measures, sde
from kolmolab.errors import BlowUpError, DomainError, HorizonError
from kolmolab.model import build_lyapunov_gaussian, reflect_time
from kolmolab.ou import GaussianMeasure, evolution_measure


def std_gaussian(dim=1):
    return GaussianMeasure(mean=np.zeros(dim), cov=np.eye(dim))


# ----------------------------------------------------------------------
# mean functionals: int f d mu
# ----------------------------------------------------------------------


def test_mean_of_constant_is_exact():
    one = functions.constant(1.0, dim=1)
    assert std_gaussian().expectation(one)[0] == pytest.approx(1.0, abs=1e-13)
    cloud = measures.EmpiricalMeasure(samples=np.random.default_rng(0).normal(size=(500, 1)))
    assert cloud.expectation(one)[0] == pytest.approx(1.0, abs=1e-12)


def test_mean_functional_gaussian_moments():
    mu = GaussianMeasure(mean=np.array([1.0]), cov=np.array([[1.0]]))
    ident = functions.coordinate(0, dim=1)
    assert mu.expectation(ident)[0] == pytest.approx(1.0, abs=1e-12)
    x2 = functions.quadratic(np.array([[1.0]]))
    assert std_gaussian().expectation(x2)[0] == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# sampling mu_t
# ----------------------------------------------------------------------


def test_sampled_linear_measure_matches_gaussian():
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=2e-3, n_paths=12000, seed=8)
    mu = measures.sample_mu(spec, 1.5, cfg=cfg)
    xs = mu.samples[:, 0]
    n = len(xs)
    assert abs(xs.mean()) <= 3.0 / math.sqrt(n) + 1e-3
    assert abs(xs.var(ddof=1) - 1.0) <= 3.0 * math.sqrt(2.0 / n) + 5e-3
    assert mu.provenance["n_paths"] == 12000
    assert mu.provenance["s0"] < 1.5


def test_sampled_measure_with_load_shifts_mean():
    spec = catalog.get("ou_const", load=1.0).spec
    cfg = sde.SimConfig(dt=2e-3, n_paths=12000, seed=9)
    mu = measures.sample_mu(spec, 0.5, cfg=cfg)
    xs = mu.samples[:, 0]
    assert abs(xs.mean() - 1.0) <= 3.5 / math.sqrt(len(xs)) + 2e-3


def test_burn_in_respects_interval():
    spec = catalog.get("ou_convergent").spec
    assert spec.interval_start == 0.0
    with pytest.raises(HorizonError):
        measures.burn_in_start(spec, 1.0, tol=1e-3)
    # far enough in the future there is room to mix
    s0 = measures.burn_in_start(spec, 20.0, tol=1e-3)
    assert 0.0 < s0 < 20.0


def test_burn_in_needs_contraction():
    spec = catalog.get("ou_const").spec
    relabeled = spec.__class__(
        dim=1, interval_start=spec.interval_start, Q=spec.Q, b=spec.b,
        jac_b=spec.jac_b, eta0=1.0, Lambda=1.0, r0=0.5,
    )
    with pytest.raises(DomainError):
        measures.burn_in_start(relabeled, 1.0)


def test_longer_burn_in_changes_nothing(cubic_bundle):
    # doubling the mixing span must leave bounded means inside sampling noise
    spec = cubic_bundle.spec
    cfg = sde.SimConfig(dt=2e-3, n_paths=6000, seed=12)
    f = functions.gaussian_bump(np.zeros(1), 1.0)
    mu_short = measures.sample_mu(spec, 1.0, tol=1e-3, cfg=cfg)
    mu_long = measures.sample_mu(spec, 1.0, tol=1e-6, cfg=cfg)
    assert mu_long.provenance["s0"] < mu_short.provenance["s0"]
    m1, e1 = mu_short.expectation(f)
    m2, e2 = mu_long.expectation(f)
    assert abs(m1 - m2) <= 4.0 * math.hypot(e1, e2) + 1e-4


def test_lyapunov_moment_bound(cubic_bundle):
    spec = cubic_bundle.spec
    cert = build_lyapunov_gaussian(spec)
    cfg = sde.SimConfig(dt=2e-3, n_paths=6000, seed=13)
    mu = measures.sample_mu(spec, 1.0, cfg=cfg)
    mean, se = mu.expectation(cert.phi)
    assert mean <= cert.a / cert.c + 3.0 * se + 0.05 * cert.a / cert.c


# ----------------------------------------------------------------------
# the Gibbs oracle: burn-ins of the cubic family against its exact law
# ----------------------------------------------------------------------

GIBBS_MOMENTS = (1, 2, 4)
GIBBS_CFG = sde.SimConfig(dt=2e-3, n_paths=16384)


def gibbs_moments(name, **params):
    """Exact E y^k, y = x - center, under the invariant law of a cubic-family
    entry at its defaults, or at ``params``: proportional to e^{-V/q}, with
    V = lin y^2 / 2 + cub y^4 / 4 and q = noise^2 / 2."""
    p = catalog.get(name, **params).params
    q = 0.5 * p["noise"] ** 2

    def density(y):
        return math.exp(-(p["lin"] * y * y / 2.0 + p["cub"] * y**4 / 4.0) / q)

    mass = quad(density, -np.inf, np.inf)[0]
    return {
        k: quad(lambda y: y**k * density(y), -np.inf, np.inf)[0] / mass
        for k in GIBBS_MOMENTS
    }


def cloud_moments(name, mu):
    """{k: (mean, standard error)} of y^k over a cloud."""
    y = mu.samples[:, 0] - catalog.get(name).params.get("center", 0.0)
    return {
        k: (float(np.mean(y**k)), float(np.std(y**k, ddof=1) / math.sqrt(len(y))))
        for k in GIBBS_MOMENTS
    }


def pooled_second_moment_z(name, spec, cfg=GIBBS_CFG):
    """(per-seed moments, z of the pooled E y^2 bias) over seeds 0-9 of
    ``sample_mu(spec, 1.0, cfg=cfg)`` against the Gibbs law of ``name``."""
    exact = gibbs_moments(name)
    per_seed = [
        cloud_moments(name, measures.sample_mu(spec, 1.0, cfg=replace(cfg, seed=seed)))
        for seed in range(10)
    ]
    bias = np.mean([m[2][0] for m in per_seed]) - exact[2]
    se = math.sqrt(sum(m[2][1] ** 2 for m in per_seed)) / len(per_seed)
    return per_seed, bias / se


@pytest.mark.parametrize("name", ["cubic_dissipative", "double_well_shifted"])
def test_burn_in_clouds_match_the_gibbs_law(name):
    exact = gibbs_moments(name)
    per_seed, z = pooled_second_moment_z(name, catalog.get(name).spec)
    for moments in per_seed:
        for k in GIBBS_MOMENTS:
            mean, se = moments[k]
            assert abs(mean - exact[k]) <= 3.0 * se, (k, mean, exact[k])
    assert abs(z) <= 3.0


def test_gibbs_check_fails_on_euler_at_the_same_step():
    # Euler's O(h) bias at h = 5e-2 (about +0.015 in E x^2) is far outside
    # the pooled standard error the Leimkuhler-Matthews clouds meet
    spec = replace(catalog.get("cubic_dissipative").spec, gradient_drift=False)
    cfg = replace(GIBBS_CFG, dt=5e-2)
    assert pooled_second_moment_z("cubic_dissipative", spec, cfg)[1] > 3.0


def test_gibbs_check_fails_on_a_wrong_drift():
    spec = catalog.get("cubic_dissipative", cub=1.2).spec
    assert abs(pooled_second_moment_z("cubic_dissipative", spec)[1]) > 3.0


def counting_drift(spec):
    """``spec`` whose b counts its calls in the returned list."""
    calls = []

    def b(t, x):
        calls.append(t)
        return spec.b(t, x)

    return replace(spec, b=b), calls


def test_gradient_burn_in_takes_whole_leimkuhler_matthews_steps():
    # log(1e4) = 9.21 time units: 185 steps of 5e-2, not 4606 of 2e-3
    spec, calls = counting_drift(catalog.get("cubic_dissipative").spec)
    mu = measures.sample_mu(spec, 1.0, cfg=GIBBS_CFG)
    assert len(calls) == 185
    assert {k: mu.provenance[k] for k in ("scheme", "dt", "steps")} == {
        "scheme": sde.LEIMKUHLER_MATTHEWS, "dt": 5e-2, "steps": 185,
    }
    assert mu.provenance["s0"] == pytest.approx(1.0 - 185 * 5e-2)
    # a coarser scenario step is kept, and the span stays whole steps
    span, cfg = measures.burn_in_grid(spec, 1e-3, replace(GIBBS_CFG, dt=0.1))
    assert (cfg.dt, round(span / cfg.dt)) == (0.1, 93)

    euler, calls = counting_drift(replace(spec, gradient_drift=False))
    mu = measures.sample_mu(euler, 1.0, cfg=replace(GIBBS_CFG, n_paths=16))
    assert len(calls) == mu.provenance["steps"] == 4606
    assert mu.provenance["scheme"] == "euler"


@pytest.mark.parametrize(
    "name, scheme",
    [("ou_const", "euler"), ("cubic_dissipative", "semi_implicit_drift")],
)
def test_other_burn_ins_keep_the_scenario_scheme(name, scheme):
    cfg = sde.SimConfig(dt=2e-2, n_paths=16, scheme=scheme)
    mu = measures.sample_mu(catalog.get(name).spec, 1.0, cfg=cfg)
    assert (mu.provenance["scheme"], mu.provenance["dt"]) == (scheme, 2e-2)


def test_unstable_leimkuhler_matthews_burn_in_blows_up():
    # h (lin + 3 cub y^2) is about 3 at the law's E y^2 = 0.021: the explicit
    # step at h = 5e-2 is unstable in the bulk, and so is the Euler rerun at
    # a scenario step of 5e-2
    spec = catalog.get("cubic_dissipative", cub=1000.0).spec
    with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
        measures.sample_mu(spec, 1.0, cfg=sde.SimConfig(dt=5e-2, n_paths=256))


STIFF = """\
scenario stiff
  catalog cubic_dissipative
  param {param} {value}
  sim
    dt 2e-3
    paths 1024
  end
  experiment measure
    times [1.0]
    cloud 1024
  end
end
"""


@pytest.mark.parametrize("param, value, reruns", [("lin", 12.0, None), ("cub", 1000.0, 1)])
def test_refused_or_unstable_leimkuhler_matthews_step_falls_back_to_euler(
    param, value, reruns, tmp_path, capsys
):
    # lin 12 declares r0 = -12, so check_against refuses h = 5e-2
    # (h |r0| = 0.6); at cub 1000 the step of 5e-2 blows up in the bulk.
    # Both burn in with Euler at the scenario's dt, pass, and sample the
    # Gibbs law; only the blown-up burn-in is recorded as a rerun
    path = tmp_path / "stiff.scn"
    path.write_text(STIFF.format(param=param, value=value))
    assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    base = tmp_path / "stiff"
    summary = json.loads((base / "summary.json").read_text())
    assert [e["verdict"] for e in summary["experiments"]] == ["pass"]
    burn_in = summary["metadata"].get("burn_in")
    assert (burn_in and burn_in["euler_reruns"]) == reruns
    cloud = measures.EmpiricalMeasure(
        samples=np.loadtxt(base / "measure_t1.csv", delimiter=",", skiprows=1)[:, None]
    )
    assert cloud.n == 1024
    exact = gibbs_moments("cubic_dissipative", **{param: value})
    mean, se = cloud_moments("cubic_dissipative", cloud)[2]
    assert abs(mean - exact[2]) <= 3.0 * se, (mean, exact[2], se)
    spec = catalog.get("cubic_dissipative", **{param: value}).spec
    mu = measures.sample_mu(spec, 1.0, cfg=sde.SimConfig(dt=2e-3, n_paths=16))
    assert (mu.provenance["scheme"], mu.provenance["dt"]) == ("euler", 2e-3)
    assert mu.provenance["s0"] == pytest.approx(1.0 - math.log(1e4) / abs(spec.r0))


# ----------------------------------------------------------------------
# tightness
# ----------------------------------------------------------------------


def test_tightness_gaussian_exact():
    prof = std_gaussian().tail_mass([1.96])
    assert prof[0] == pytest.approx(0.05, abs=1e-4)


def test_tightness_monotone():
    radii = [0.5, 1.0, 2.0, 4.0]
    prof = std_gaussian().tail_mass(radii)
    assert np.all(np.diff(prof) < 0.0)
    cloud = measures.EmpiricalMeasure(
        samples=np.random.default_rng(2).normal(size=(20000, 1))
    )
    prof_emp = cloud.tail_mass(radii)
    assert np.all(np.diff(prof_emp) <= 0.0)
    # empirical tails agree with the exact ones up to binomial noise
    for p_exact, p_emp in zip(prof, prof_emp):
        se = math.sqrt(p_exact * (1.0 - p_exact) / 20000)
        assert abs(p_emp - p_exact) <= 3.5 * se + 1e-4


def test_tightness_2d_gaussian():
    mu = GaussianMeasure(mean=np.zeros(2), cov=np.eye(2))
    prof = mu.tail_mass([1.0, 2.0])
    # |Z|^2 is chi^2(2): P(|Z| > R) = exp(-R^2 / 2)
    assert prof[0] == pytest.approx(math.exp(-0.5), abs=5e-3)
    assert prof[1] == pytest.approx(math.exp(-2.0), abs=5e-3)


# ----------------------------------------------------------------------
# invariance of the evolution family
# ----------------------------------------------------------------------


def test_invariance_constant_function(ou_const_engine):
    one = functions.constant(1.0, dim=1)
    d, = measures.invariance_defect(ou_const_engine, 0.0, 1.0, [one])
    assert d.value <= 1e-12


def test_invariance_quadratic_exact(ou_const_engine, ou_periodic_engine):
    x2 = functions.quadratic(np.array([[1.0]]))
    d, = measures.invariance_defect(ou_const_engine, 0.0, 1.0, [x2])
    # both sides are the second moment of the N(0,1) member of the family,
    # known only up to the measure-construction tolerance 1e-8
    assert d.lhs == pytest.approx(1.0, abs=2e-8)
    assert d.rhs == pytest.approx(1.0, abs=2e-8)
    assert d.value <= 1e-6

    d2, = measures.invariance_defect(ou_periodic_engine, 0.4, 1.7, [x2])
    assert d2.value <= 1e-6


def test_invariance_smooth_battery(ou_periodic_engine):
    for f in functions.bounded_test_family(1)[4:8]:
        d, = measures.invariance_defect(ou_periodic_engine, 0.25, 1.25, [f])
        assert d.value <= max(3.0 * d.tolerance, 1e-6)


def test_invariance_rejects_bad_times(ou_const_engine):
    one = functions.constant(1.0, dim=1)
    with pytest.raises(DomainError):
        measures.invariance_defect(ou_const_engine, 1.0, 1.0, [one])


def test_invariance_monte_carlo(cubic_bundle):
    cfg = sde.SimConfig(dt=2e-3, n_paths=8000, seed=17)
    engine = engines.engine_for(cubic_bundle, cfg=cfg, cloud_size=cfg.n_paths)
    f = functions.tanh_ridge(np.array([1.0]), 0.1)
    d, = measures.invariance_defect(engine, 0.0, 1.0, [f])
    assert d.value <= 3.5 * d.tolerance
    one = functions.constant(2.0, dim=1)
    d1, = measures.invariance_defect(engine, 0.0, 1.0, [one])
    assert d1.value <= 1e-12


def test_invariance_shares_one_push_forward(cubic_bundle, monkeypatch):
    # functions of one call share the pushed cloud, and each gets the
    # defect a call of its own would give
    cfg = sde.SimConfig(dt=2e-2, n_paths=512, seed=23)
    engine = engines.engine_for(cubic_bundle, cfg=cfg)
    mu_s = measures.sample_mu(engine.spec, 0.0, cfg=cfg)
    mu_t = measures.sample_mu(engine.spec, 0.5, cfg=cfg)
    fns = functions.bounded_test_family(1)[4:7]
    calls = []
    real = sde.simulate
    monkeypatch.setattr(
        sde, "simulate", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    together = measures.invariance_defect(engine, 0.0, 0.5, fns, mu_s=mu_s, mu_t=mu_t)
    assert len(calls) == 1
    alone = [
        measures.invariance_defect(engine, 0.0, 0.5, [f], mu_s=mu_s, mu_t=mu_t)[0]
        for f in fns
    ]
    assert together == alone


# The Monte Carlo streams, pinned: a cloud is a burn-in of cloud_size paths
# at tolerance 1e-3, on its stream's seed, which does not depend on t.
STREAM_CFG = sde.SimConfig(dt=2e-2, n_paths=100, seed=4)


@pytest.mark.parametrize("stream", ["mu_t", "mu_s", "flow_mid"])
def test_cloud_streams_are_pinned(cubic_bundle, stream):
    engine = engines.engine_for(cubic_bundle, cfg=STREAM_CFG, cloud_size=64)
    seed = engines._stream_seed(STREAM_CFG.seed, stream)
    expected = measures.sample_mu(
        cubic_bundle.spec, 0.5, 1e-3, replace(STREAM_CFG, n_paths=64, seed=seed)
    )
    assert np.array_equal(engine.cloud(0.5, stream).samples, expected.samples)


def test_measure_and_push_streams_are_pinned(cubic_bundle):
    engine = engines.engine_for(cubic_bundle, cfg=STREAM_CFG, cloud_size=64)
    spec, t = cubic_bundle.spec, 0.5
    seed = engines._stream_seed(STREAM_CFG.seed, "measure", t)
    expected = measures.sample_mu(
        spec, t, 1e-3, replace(STREAM_CFG, n_paths=64, seed=seed)
    )
    mu = engine.measure(t)
    assert np.array_equal(mu.samples, expected.samples)
    pushed = sde.simulate(
        reflect_time(spec, 0.5 + 1.0), 0.5, 1.0, mu.samples,
        replace(
            STREAM_CFG, n_paths=64, seed=engines._stream_seed(STREAM_CFG.seed, "push")
        ),
        with_jacobians=False,
    )
    pushed_by_engine, = engine.push(mu, 0.5, [1.0])
    assert np.array_equal(pushed_by_engine.samples, pushed.states)


def test_every_stream_of_a_run_is_distinct(cubic_bundle, monkeypatch):
    # every seed the engine derives at run seeds 0-3, recorded in place of
    # the burn-ins and path runs: measure(t) at times closer than 1/4096,
    # measure(0) next to the mu_s cloud, and replicate values and gradients
    # at (s, t) pairs with equal t + 1e3 s, which once shared a seed
    seeds = []

    def burn_in(spec, t, tol, cfg):
        seeds.append(cfg.seed)
        return measures.EmpiricalMeasure(samples=np.zeros((cfg.n_paths, 1)), t=t)

    def paths(spec, s, t, x, cfg, with_jacobians, ends=()):
        seeds.append(cfg.seed)
        n = cfg.n_paths
        return sde.PathBundle(np.zeros((n, 1)), np.ones((n, 1, 1)), s, t, cfg)

    monkeypatch.setattr(engines, "sample_mu", burn_in)
    monkeypatch.setattr(sde, "simulate", paths)
    f = functions.bounded_test_family(1)[0]
    xs = np.zeros((2, 1))
    for run_seed in range(4):
        cfg = sde.SimConfig(n_paths=8, seed=run_seed)
        engine = engines.engine_for(cubic_bundle, cfg=cfg, cloud_size=8, n_inner=4)
        for t in (0.0, 1e-4, 0.5, 0.5 + 1e-4, 1.0):
            engine.measure(t)
        for stream in ("mu_t", "mu_s", "flow_mid"):
            engine.cloud(0.0, stream)
        engine.push(engine.cloud(0.0), 0.0, [0.5])
        for s, t in ((0.0, 0.5), (1e-4, 0.5), (0.0, 0.5 + 1e-4), (0.0, 1.5), (1e-3, 0.5)):
            engine.apply_G_at(s, t, f, xs)
            engine.grad_G_at(s, t, f, xs)
    assert len(seeds) == 4 * (5 + 3 + 1 + 10)
    assert len(set(seeds)) == len(seeds)


def test_autonomous_clouds_are_one_burn_in(cubic_bundle, monkeypatch):
    # mu_t = mu for an autonomous spec: the mu_t stream is sampled once for
    # every t, while measure(t) keeps a stream per t
    calls = []
    real = engines.sample_mu

    def sample(spec, t, tol, cfg):
        calls.append(cfg.seed)
        return real(spec, t, tol, cfg)

    monkeypatch.setattr(engines, "sample_mu", sample)
    engine = engines.engine_for(cubic_bundle, cfg=STREAM_CFG, cloud_size=64)
    clouds = [engine.cloud(t) for t in (0.0, 0.5, 0.99, 1.01)]
    assert calls == [engines._stream_seed(STREAM_CFG.seed, "mu_t")]
    assert all(c is clouds[0] for c in clouds)
    assert clouds[0].t is None
    a, b = engine.measure(0.5), engine.measure(1.0)
    assert len(calls) == 3
    assert a is not b and not np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("t", [0.5, 1.5])
def test_burn_in_grid_matches_the_mirrored_window(ou_periodic_bundle, t):
    # the burn-in on [-span, 0] about pivot t sweeps the same coefficients
    # as the run of reflect_time(spec, 2t) over [t - span, t]
    spec = ou_periodic_bundle.spec
    engine = engines.MonteCarloEngine(spec, cfg=STREAM_CFG, cloud_size=64)
    cfg = replace(
        STREAM_CFG, n_paths=64, seed=engines._stream_seed(STREAM_CFG.seed, "mu_t")
    )
    s0 = measures.burn_in_start(spec, t, 1e-3)
    ref = sde.simulate(
        reflect_time(spec, 2.0 * t), s0, t, np.zeros(1), cfg, with_jacobians=False
    )
    got = engine.cloud(t).samples
    assert got.shape == ref.states.shape
    assert np.max(np.abs(got - ref.states)) <= 1e-12


def test_autonomous_cloud_still_checks_each_horizon(cubic_bundle):
    # the shared cloud does not waive the interval check of the asked t
    spec = replace(cubic_bundle.spec, interval_start=0.0)
    engine = engines.MonteCarloEngine(spec, cfg=STREAM_CFG, cloud_size=64)
    mu = engine.cloud(20.0)
    assert engine.cloud(30.0) is mu
    with pytest.raises(HorizonError):
        engine.cloud(5.0)


def test_invariance_reuses_supplied_measures(ou_const_engine):
    mu = evolution_measure(ou_const_engine.model, 0.0)
    x2 = functions.quadratic(np.array([[1.0]]))
    d, = measures.invariance_defect(
        ou_const_engine, 0.0, 2.0, [x2],
        mu_s=mu,
        mu_t=GaussianMeasure(mean=mu.mean, cov=mu.cov, t=2.0),
    )
    assert d.value <= 1e-6


# ----------------------------------------------------------------------
# flow derivative
# ----------------------------------------------------------------------


def plateau_const(c):
    """A function that is identically c, carrying compact-support metadata."""
    base = functions.smooth_plateau(1.0, 2.0, dim=1, height=1.0)
    return functions.combine([0.0], [base], const=c)


def test_flow_derivative_constant_vanishes(ou_periodic_engine):
    d = measures.flow_derivative_defect(ou_periodic_engine, plateau_const(3.0), 1.0)
    assert d.value <= 1e-9


def test_flow_derivative_linear_quadrature(ou_periodic_engine):
    f = functions.smooth_plateau(1.0, 2.5, dim=1)
    d = measures.flow_derivative_defect(ou_periodic_engine, f, 0.8, h=1e-2)
    assert d.value <= max(100.0 * 1e-2**2, 4.0 * d.tolerance)


def test_flow_derivative_autonomous_is_static(ou_const_engine):
    # for the time-independent model, m_r(f) does not move and the generator
    # mean vanishes in equilibrium
    f = functions.smooth_plateau(1.0, 2.5, dim=1)
    d = measures.flow_derivative_defect(ou_const_engine, f, 1.0, h=1e-2)
    assert abs(d.lhs) <= 1e-6
    assert d.value <= max(1e-4, 4.0 * d.tolerance)


def test_flow_derivative_monte_carlo(cubic_bundle):
    cfg = sde.SimConfig(dt=2e-3, n_paths=8000, seed=23)
    engine = engines.engine_for(cubic_bundle, cfg=cfg, cloud_size=cfg.n_paths)
    f = functions.smooth_plateau(1.0, 2.5, dim=1)
    d = measures.flow_derivative_defect(engine, f, 1.0, h=1e-2)
    assert d.value <= max(100.0 * 1e-2**2, 4.0 * d.tolerance)


def test_flow_derivative_draws_its_clouds_through_the_memo(cubic_bundle, monkeypatch):
    # a second call on the same engine finds all three burn-ins in the memo
    cfg = sde.SimConfig(dt=2e-2, n_paths=512, seed=23)
    engine = engines.engine_for(cubic_bundle, cfg=cfg, cloud_size=cfg.n_paths)
    f = functions.smooth_plateau(1.0, 2.5, dim=1)
    first = measures.flow_derivative_defect(engine, f, 1.0)
    calls = []
    real = sde.simulate
    monkeypatch.setattr(
        sde, "simulate", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    assert measures.flow_derivative_defect(engine, f, 1.0) == first
    assert calls == []


def test_flow_derivative_refuses_unbounded(ou_const_engine):
    with pytest.raises(DomainError):
        measures.flow_derivative_defect(
            ou_const_engine, functions.tanh_ridge(np.array([1.0]), 0.0), 1.0
        )


@pytest.mark.parametrize("name, r", [("ou_const", 1.0), ("ou_periodic", 0.8)])
def test_analytic_flow_tolerance_covers_its_generator_term(name, r):
    # the Simpson gap of m_r(A(r) f) is part of the defect's error, and
    # the defect stays within the tolerance that includes it
    bundle = catalog.get(name)
    engine = engines.engine_for(bundle)
    for f in functions.compact_flat_battery(1, 5):
        generator = measures._GeneratorValues(bundle.spec, r, f)
        gap = engine.measure(r).expectation(generator)[1]
        d = measures.flow_derivative_defect(engine, f, r)
        assert d.tolerance >= gap, f.meta.name
        assert d.value <= d.tolerance, f.meta.name


# ----------------------------------------------------------------------
# weak* gaps
# ----------------------------------------------------------------------


def test_weak_star_gap_identical_measures():
    mu = std_gaussian()
    rep = measures.weak_star_gap(mu, mu)
    assert rep.value <= 1e-12
    assert mu.parameter_gap(mu) == 0.0


def test_weak_star_gap_detects_variance_shift():
    eps = 0.1
    mu1 = std_gaussian()
    mu2 = GaussianMeasure(mean=np.zeros(1), cov=np.array([[1.0 + eps]]))
    x2 = functions.quadratic(np.array([[1.0]]))
    rep = measures.weak_star_gap(mu1, mu2, family=[x2])
    assert rep.value == pytest.approx(eps, abs=1e-9)
    assert mu1.parameter_gap(mu2) == pytest.approx(eps, abs=1e-12)


def test_weak_star_gap_empirical_vs_gaussian():
    cloud = measures.EmpiricalMeasure(
        samples=np.random.default_rng(3).normal(size=(30000, 1))
    )
    rep = measures.weak_star_gap(cloud, std_gaussian())
    assert rep.value <= 4.0 * rep.tolerance + 5e-3


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def test_export_csv_roundtrip(tmp_path):
    samples = np.random.default_rng(4).normal(size=(50, 2))
    mu = measures.EmpiricalMeasure(samples=samples, t=1.0)
    path = tmp_path / "cloud.csv"
    measures.export_measure_csv(mu, path)
    text = path.read_text().splitlines()
    assert text[0] == "x1,x2"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(back, samples, atol=0.0)

    with pytest.raises(DomainError):
        measures.export_measure_csv(std_gaussian(), tmp_path / "bad.csv")


def test_export_json_roundtrip(tmp_path):
    mu = GaussianMeasure(
        mean=np.array([0.5, -0.25]), cov=np.array([[1.0, 0.2], [0.2, 0.7]]), t=2.5
    )
    path = tmp_path / "measure.json"
    measures.export_measure_json(mu, path)
    data = json.loads(path.read_text())
    assert np.allclose(data["mean"], mu.mean)
    assert np.allclose(data["covariance"], mu.cov)
    assert data["t"] == 2.5

    cloud = measures.EmpiricalMeasure(samples=np.zeros((3, 1)))
    with pytest.raises(DomainError):
        measures.export_measure_json(cloud, tmp_path / "bad.json")
