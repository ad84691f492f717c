"""Runner: the run-scoped memo, engine sizes, the keys each kind reads, the
experiment error boundary, and sequential execution in declared order."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from kolmolab import engines, measures, ou, runner, scenario, sde
from kolmolab.catalog import ScenarioBundle
from kolmolab.memo import KINDS
from kolmolab.scenario import ExperimentDecl, parse_scenario, validate_scenario

# measure and lsi share one engine cloud at t = 1; invariance needs mu_0.5,
# mu_1 and an independently seeded mu_0 -- four distinct burn-ins
TINY_GENERAL = """\
scenario memo
  catalog cubic_dissipative
  kind general
  sim
    dt 2e-2
    paths 256
    seed 5
  end
  experiment measure
    times [1.0]
    cloud 256
  end
  experiment lsi
    t 1.0
    p [2.0]
    n 4
    cloud 256
  end
  experiment invariance
    s 0.0
    spans [0.5, 1.0]
    n 4
    cloud 256
  end
end
"""


# every experiment runs on the one analytic engine of the run
TINY_OU = """\
scenario memo_ou
  catalog ou_const
  kind ou
  experiment measure
    times [1.0, 2.0]
    export false
  end
  experiment invariance
    s 0.0
    spans [0.5, 1.0]
    n 4
  end
  experiment flow
    r [1.0]
    n 2
  end
  experiment hyper
    s 0.0
    q [1.5, 2.0]
    gaps [0.5, 1.0]
    n 4
    curve_gaps [0.0, 0.5, 1.0]
  end
end
"""

# the hyper experiment of TINY_OU on the nested Monte Carlo engine
TINY_MC_HYPER = """\
scenario memo_mc
  catalog cubic_dissipative
  kind general
  sim
    dt 2e-2
    seed 5
  end
  experiment hyper
    s 0.0
    q [1.5, 2.0]
    gaps [0.5, 1.0]
    n 4
    curve_gaps [0.0, 0.5, 1.0]
    cloud 256
    outer 32
    inner 8
  end
end
"""


def tiny_context(text=TINY_GENERAL):
    scn, bundle, cfg = validate_scenario(parse_scenario(text))
    return runner.RunContext(scn=scn, bundle=bundle, cfg=cfg)


def counting_sampler(monkeypatch, fail_first=False):
    """Route the memo's burn-ins through a recorder of their keys."""
    calls = []
    real = engines.sample_mu

    def sample(spec, t, tol, cfg):
        calls.append((t, tol, cfg))
        if fail_first and len(calls) == 1:
            raise RuntimeError("burn-in exploded")
        return real(spec, t, tol, cfg)

    monkeypatch.setattr(engines, "sample_mu", sample)
    return calls


def test_burn_in_runs_once_per_distinct_key(monkeypatch):
    calls = counting_sampler(monkeypatch)
    report = runner.run_scenario(parse_scenario(TINY_GENERAL))
    assert [e.verdict for e in report.experiments] == ["pass"] * 3
    # measure(1.0), and the mu_t and mu_s streams; the autonomous cubic's
    # mu_t stream serves both invariance spans with one cloud
    assert len(calls) == len(set(calls)) == 3


def test_invariance_pushes_every_span_in_one_run(monkeypatch):
    # one invariance_defect call for all cases, and the autonomous cubic's
    # pushes of its one mu_t cloud to both spans are one run to the last
    calls, runs = [], []
    real, real_simulate = runner.invariance_defect, sde.simulate

    def defect(engine, s, t, fns, **kw):
        calls.append((s, tuple(t), len(fns)))
        return real(engine, s, t, fns, **kw)

    def simulate(spec, s, t, x, cfg=None, with_jacobians=True, ends=()):
        runs.append((s, t, tuple(ends)))
        return real_simulate(spec, s, t, x, cfg, with_jacobians, ends)

    monkeypatch.setattr(runner, "invariance_defect", defect)
    monkeypatch.setattr(sde, "simulate", simulate)
    ctx = tiny_context()
    exp = next(e for e in ctx.scn.experiments if e.kind == "invariance")
    rows = runner._run_invariance(ctx, exp)
    assert calls == [(0.0, (0.5, 1.0, 0.5, 1.0), 4)]
    # the burn-ins of the clouds start before 0
    assert [r for r in runs if r[0] == 0.0] == [(0.0, 1.0, (0.5, 1.0))]
    # rows keep the declared case order: spans alternate
    assert [r.t for r in rows] == [0.5, 1.0, 0.5, 1.0]
    assert [r.verdict for r in rows] == ["pass"] * 4


SIMULATE = """\
scenario sim
  catalog {catalog}
  kind general
  sim
    dt {dt}
    paths 64
    seed 5
  end
  experiment simulate
    spans {spans}
  end
end
"""


@pytest.mark.parametrize("catalog, runs", [("cubic_dissipative", 1), ("ou_const", 0)])
def test_simulate_runs_paths_only_for_state_dependent_jacobians(
    monkeypatch, catalog, runs
):
    # both spans of a state-dependent Jacobian are read off one run to the
    # last; a linear drift's certificates simulate no path
    calls = []
    real = sde.simulate

    def simulate(spec, s, t, x, cfg=None, with_jacobians=True, ends=()):
        calls.append((s, t, tuple(ends)))
        return real(spec, s, t, x, cfg, with_jacobians, ends)

    monkeypatch.setattr(sde, "simulate", simulate)
    ctx = tiny_context(SIMULATE.format(catalog=catalog, dt=2e-2, spans="[0.5, 1.0]"))
    rows = runner._run_simulate(ctx, ctx.scn.experiments[0])
    assert calls == [(0.0, 1.0, (0.5, 1.0))][:runs]
    assert [r.verdict for r in rows] == ["pass", "info", "info"] * 2


def test_unstable_linear_euler_step_ends_as_error_verdict():
    # h * rate = 5 > 2, so the Euler step multiplies by -4 and overflows
    # within the span, while the declared r0 = -1 passes check_against
    # (dt * |r0| = 0.1 < 0.5)
    model = ou.OUModel(
        dim=1,
        A=lambda t: -50.0 * np.eye(1),
        B=lambda t: np.sqrt(2.0) * np.eye(1),
        name="stiff",
    )
    scn = parse_scenario(SIMULATE.format(catalog="ou_const", dt=0.1, spans="[60.0]"))
    bundle = ScenarioBundle("stiff", model.as_problem_spec(r0=-1.0), model, {})
    scn, _, cfg = validate_scenario(scn)
    ctx = runner.RunContext(scn=scn, bundle=bundle, cfg=cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = runner._run_one(ctx, scn.experiments[0])
    assert rep.verdict == "error"
    assert rep.error.startswith("BlowUpError")
    assert "by step 511 " in rep.error


def test_experiments_run_in_declared_order_on_the_calling_thread(monkeypatch):
    monkeypatch.delenv("KOLMOLAB_THREADS", raising=False)
    calls = []

    def record(ctx, exp):
        calls.append((threading.get_ident(), exp.kind))
        return []

    scn = parse_scenario(TINY_OU)
    for decl in scn.experiments:
        monkeypatch.setitem(runner._RUNNERS, decl.kind, record)
    report = runner.run_scenario(scn)
    main = threading.get_ident()
    assert calls == [(main, decl.kind) for decl in scn.experiments]
    assert [e.kind for e in report.experiments] == ["measure", "invariance", "flow", "hyper"]


def recorder(monkeypatch, owner, name, key):
    """Replace owner.name by a pass-through that records key(*args)."""
    calls = []
    real = getattr(owner, name)

    def record(*args):
        calls.append(key(*args))
        return real(*args)

    monkeypatch.setattr(owner, name, record)
    return calls


def test_ou_run_computes_each_ingredient_once(monkeypatch):
    fits = recorder(monkeypatch, engines, "estimate_omega0", lambda model: model)
    mus = recorder(
        monkeypatch, engines, "evolution_measure", lambda model, t, *rest: t
    )
    # each kernel solve with the function that asked for it: mu_t is the
    # kernel of G(T_tail, t), solved by evolution_measure itself, and the
    # G(t, s) kernels come through the run's memo
    solves = recorder(
        monkeypatch,
        ou,
        "_mehler_moments",
        lambda m, t, s: (sys._getframe(2).f_code.co_name, t, s),
    )
    # the estimators reach mu_t only through the run's engine
    assert not hasattr(measures, "evolution_measure")
    report = runner.run_scenario(parse_scenario(TINY_OU))
    assert [e.verdict for e in report.experiments] == ["pass"] * 4
    assert len(fits) == 1
    assert len(mus) == len(set(mus))
    assert set(mus) == {0.0, 0.5, 0.99, 1.0, 1.01, 2.0}
    pairs = [(t, s) for _, t, s in solves]
    assert len(pairs) == len(set(pairs))
    kernels = {(t, s) for who, t, s in solves if who != "evolution_measure"}
    assert kernels == {(0.5, 0.0), (1.0, 0.0)}
    measure_solves = [s for who, _, s in solves if who == "evolution_measure"]
    assert sorted(measure_solves) == sorted(mus)
    counts = report.metadata["memo"]
    assert set(counts) == set(KINDS)
    assert counts["measures"]["misses"] == len(mus)
    assert counts["measures"]["hits"] > 0
    assert counts["omega"] == {"hits": len(mus) - 1, "misses": 1}
    assert counts["clouds"] == {"hits": 0, "misses": 0}


def test_flow_fits_omega_once(monkeypatch):
    fits = recorder(monkeypatch, engines, "estimate_omega0", lambda model: model)
    assert not hasattr(measures, "evolution_measure")
    ctx = tiny_context(TINY_OU)
    exp = next(e for e in ctx.scn.experiments if e.kind == "flow")
    rows = runner._run_flow(ctx, exp)
    assert [r.verdict for r in rows] == ["pass"] * 2
    assert len(fits) == 1


@pytest.mark.parametrize(
    "text, engine_cls",
    [(TINY_OU, engines.AnalyticOUEngine), (TINY_MC_HYPER, engines.MonteCarloEngine)],
    ids=["analytic", "mc"],
)
def test_hyper_applies_G_once_per_key(monkeypatch, text, engine_cls):
    calls = recorder(
        monkeypatch, engine_cls, "apply_G_at", lambda eng, s, t, f, xs: (s, t, f)
    )
    ctx = tiny_context(text)
    exp = next(e for e in ctx.scn.experiments if e.kind == "hyper")
    rows = runner._run_hyper(ctx, exp)
    assert len(rows) == 5
    # four checks (two q per gap) and the curve need G at two (s, t) only
    assert len(calls) == len(set(calls)) == 2
    assert {(s, t) for s, t, _ in calls} == {(0.0, 0.5), (0.0, 1.0)}


def test_repeated_requests_share_one_measure(monkeypatch):
    ctx = tiny_context(TINY_OU)
    calls = []
    real = engines.evolution_measure

    def counting_measure(model, t, *rest):
        calls.append(t)
        return real(model, t, *rest)

    monkeypatch.setattr(engines, "evolution_measure", counting_measure)
    exp = ctx.scn.experiments[0]
    results = [ctx.engine(exp).measure(1.5) for _ in range(8)]
    assert calls == [1.5]
    assert all(r is results[0] for r in results)
    assert not results[0].cov.flags.writeable


def run_engine(ctx, cfg):
    """A Monte Carlo engine on the run's memo whose clouds are ``cfg``'s."""
    return engines.MonteCarloEngine(
        ctx.spec, cfg, cloud_size=cfg.n_paths, memo=ctx.memo
    )


def test_cached_clouds_are_shared_and_read_only():
    ctx = tiny_context()
    cfg = sde.SimConfig(dt=2e-2, n_paths=64, seed=3)
    a = run_engine(ctx, cfg).cloud(1.0)
    assert run_engine(ctx, cfg).cloud(1.0) is a
    assert not a.samples.flags.writeable
    with pytest.raises(ValueError):
        a.samples[0, 0] = 0.0


def test_repeated_requests_share_one_burn_in(monkeypatch):
    ctx = tiny_context()
    calls = []
    real = engines.sample_mu

    def counting_sample(spec, t, tol, cfg):
        calls.append(t)
        return real(spec, t, tol, cfg)

    monkeypatch.setattr(engines, "sample_mu", counting_sample)
    cfg = sde.SimConfig(dt=2e-2, n_paths=16, seed=1)
    results = [run_engine(ctx, cfg).cloud(0.5) for _ in range(8)]
    # the autonomous cubic's one cloud is sampled at t = 0
    assert calls == [0.0]
    assert all(r is results[0] for r in results)
    assert not results[0].samples.flags.writeable


def test_failed_burn_in_is_an_error_verdict_and_releases_its_key(monkeypatch):
    # measure's burn-in raises a non-kolmolab exception; lsi needs the same
    # cloud and must recompute it rather than get the failure from the cache
    calls = counting_sampler(monkeypatch, fail_first=True)
    report = runner.run_scenario(parse_scenario(TINY_GENERAL))
    measure, lsi, invariance = report.experiments
    assert measure.verdict == "error"
    assert measure.error == "RuntimeError: burn-in exploded"
    assert measure.rows == ()
    assert lsi.verdict == "pass" and invariance.verdict == "pass"
    assert calls[0] == calls[1]
    assert report.verdict == "fail"


@pytest.mark.parametrize(
    "kind, sizes",
    [
        ("invariance", (16384, 192, 2048)),
        ("flow", (16384, 192, 2048)),
        ("hyper", (4096, 96, 1024)),
        ("decay", (4096, 96, 1024)),
        ("measure", (8192, 192, 2048)),
        ("lsi", (8192, 192, 2048)),
        ("poincare", (8192, 192, 2048)),
        ("limit", (8192, 192, 2048)),
    ],
)
def test_engine_sizes_by_kind_and_keys(kind, sizes):
    def engine(engine_kind, params):
        # ou_const on either engine: limit needs a linear model
        decl = ExperimentDecl(kind=kind, name=kind, params=params)
        scn = replace(
            parse_scenario(KEYS_SCENARIO.format(kind=engine_kind)), experiments=(decl,)
        )
        scn, bundle, cfg = validate_scenario(scn)
        ctx = runner.RunContext(scn=scn, bundle=bundle, cfg=cfg)
        return ctx, ctx.engine(scn.experiments[0])

    ctx, mc = engine("general", {})
    assert (mc.cloud_size, mc.n_inner, mc.n_outer) == sizes
    assert mc.memo is ctx.memo and mc.cfg is ctx.cfg
    keys = {"cloud": 100, "inner": 7, "outer": 9}
    _, mc = engine("general", keys)
    assert (mc.cloud_size, mc.n_inner, mc.n_outer) == (100, 7, 9)
    _, analytic = engine("ou", keys)
    assert isinstance(analytic, engines.AnalyticOUEngine)


class ReadRecorder(dict):
    """Experiment parameters that record every key read, by subscript or
    through ``get``."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# ou_const on both engines: every kind, limit included, runs on each
KEYS_SCENARIO = """\
scenario keys
  catalog ou_const
  kind {kind}
  sim
    dt 5e-2
    paths 64
    seed 1
  end
end
"""

# small cases of every kind; the Monte Carlo sizes are added on engine kinds
SMALL_CASES = {
    "audit": {},
    "simulate": {"spans": [0.2], "paths": 16},
    "measure": {"times": [1.0], "export": False},
    "invariance": {"spans": [0.5], "n": 2},
    "flow": {"n": 1},
    "lsi": {"p": [2.0], "n": 2},
    "poincare": {"p": [2.0]},
    "hyper": {"q": [2.0], "gaps": [0.5], "n": 2, "curve_gaps": [0.0, 0.5]},
    "decay": {"p": [2.0], "gaps_a": [0.5, 1.0], "gaps_b": [1.0, 1.5]},
    "limit": {"times": [1.0, 2.0]},
}
MC_SIZES = {"cloud": 512, "inner": 8, "outer": 16}


def test_each_kind_reads_only_its_declared_keys():
    assert set(SMALL_CASES) == set(scenario.EXPERIMENT_KINDS)
    declared = scenario._EXPERIMENT_KEYS
    read = {kind: set() for kind in SMALL_CASES}
    for engine_kind in ("ou", "general"):
        decls = tuple(
            ExperimentDecl(kind=kind, name=kind, params=dict(params))
            if kind in ("audit", "simulate")
            else ExperimentDecl(kind=kind, name=kind, params={**params, **MC_SIZES})
            for kind, params in SMALL_CASES.items()
        )
        scn = replace(
            parse_scenario(KEYS_SCENARIO.format(kind=engine_kind)), experiments=decls
        )
        scn, bundle, cfg = validate_scenario(scn)
        ctx = runner.RunContext(scn=scn, bundle=bundle, cfg=cfg)
        for decl in scn.experiments:
            # validation fills in every key of the table, and only those
            assert decl.params.keys() == declared[decl.kind].keys(), decl.kind
            params = ReadRecorder(decl.params)
            rows = runner._RUNNERS[decl.kind](ctx, replace(decl, params=params))
            assert rows, decl.kind
            assert params.read <= set(declared[decl.kind]), decl.kind
            read[decl.kind] |= params.read
    # and every declared key is read by one engine or the other
    assert read == {kind: set(keys) for kind, keys in declared.items()}
