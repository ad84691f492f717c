"""Tests of the benchmark's tracing and of its agreement with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys

import numpy as np

import kolmolab
from kolmolab import catalog, runner, scenario, sde
from kolmolab.engines import AnalyticOUEngine, MonteCarloEngine
from kolmolab.model import ProblemSpec

import run
import spans
from spans import Tracer
import worker

ROOT = run.ROOT


def _kolmolab_modules():
    return [m for n, m in sys.modules.items() if n == "kolmolab" or n.startswith("kolmolab.")]


def test_no_module_keeps_an_unwrapped_reference(tracer):
    originals = {id(f) for f in tracer.originals}
    assert len(originals) > 40
    for mod in _kolmolab_modules():
        for attr, value in vars(mod).items():
            assert id(value) not in originals, f"{mod.__name__}.{attr} is unwrapped"
    for cls in (ProblemSpec, MonteCarloEngine, AnalyticOUEngine):
        for attr, value in vars(cls).items():
            assert id(value) not in originals, f"{cls.__name__}.{attr} is unwrapped"
    for kind, fn in runner._RUNNERS.items():
        assert id(fn) not in originals, f"runner._RUNNERS[{kind!r}] is unwrapped"
    # names imported by name are rebound too
    assert runner.simulate is sde.simulate is kolmolab.simulate


def test_uninstall_restores_every_reference():
    before = {(m.__name__, k): v for m in _kolmolab_modules() for k, v in vars(m).items()}
    drift = ProblemSpec.__dict__["drift"]
    tr = Tracer().install()
    tr.uninstall()
    after = {(m.__name__, k): v for m in _kolmolab_modules() for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert ProblemSpec.__dict__["drift"] is drift


def test_path_steps_and_noise_use(tracer):
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=1e-2, n_paths=8192, seed=1)
    runner.simulate(spec, 0.0, 0.1, np.zeros(1), cfg, with_jacobians=False)
    t = tracer.totals()
    assert t["sde.simulate.calls"] == 1
    assert t["sde.path_steps"] == 8192 * 10
    assert t.get("sde.jac_path_steps", 0) == 0
    assert t["model.drift.calls"] == 10
    assert spans.derive(t)["sde.noise_use_ratio"] == 0.5


def test_self_time_excludes_children(tracer):
    spec = catalog.get("ou_const").spec
    cfg = sde.SimConfig(dt=1e-2, n_paths=100, seed=1)
    sde.simulate(spec, 0.0, 0.5, np.zeros(1), cfg)
    t = tracer.totals()
    children = t["model.drift.busy_s"] + t["model.drift_jacobian.busy_s"] + t[
        "model.diffusion.busy_s"] + t["ou.sqrtm_psd.busy_s"]
    assert t["sde.simulate.self_s"] <= t["sde.simulate.busy_s"] - children + 1e-9


TINY = """\
scenario tiny_{name}
catalog {catalog}
kind {kind}
out {out}
sim
    dt 1e-2
    paths 2000
    seed 3
end
experiment audit
end
experiment simulate
    s 0.0
    spans [0.2]
    paths 2000
end
experiment measure
    times [1.0]
    cloud 2048
end
end
"""


def _run_tiny(out):
    for name, cat, kind in (("ou", "ou_const", "ou"), ("mc", "cubic_dissipative", "general")):
        scn = scenario.parse_scenario(TINY.format(name=name, catalog=cat, kind=kind, out=out))
        rep = runner.run_scenario(scn)
        assert rep.verdict == "pass"
        runner.write_report(rep, out)


def test_tracing_does_not_change_reports(tmp_path):
    _run_tiny(tmp_path / "plain")
    tr = Tracer().install()
    try:
        _run_tiny(tmp_path / "traced")
    finally:
        tr.uninstall()
    assert tr.totals()["runner.measure.calls"] == 2
    plain = sorted(p.relative_to(tmp_path / "plain") for p in (tmp_path / "plain").rglob("*.csv"))
    traced = sorted(p.relative_to(tmp_path / "traced") for p in (tmp_path / "traced").rglob("*.csv"))
    assert plain == traced and len(plain) == 7
    for rel in plain:
        assert (tmp_path / "plain" / rel).read_bytes() == (tmp_path / "traced" / rel).read_bytes()
    assert worker.digest(tmp_path / "plain") == worker.digest(tmp_path / "traced")


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.NAMES)
