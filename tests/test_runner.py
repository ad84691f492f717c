"""Runner: the run-scoped burn-in memo and the experiment error boundary."""

import json
import sys
import threading
import time

import pytest

from kolmolab import cli, runner, sde
from kolmolab.scenario import parse_scenario, validate_scenario

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


def tiny_context():
    scn = parse_scenario(TINY_GENERAL)
    return runner.RunContext(
        scn=scn, bundle=validate_scenario(scn), cfg=runner._build_cfg(scn)
    )


def counting_sampler(monkeypatch, fail_first=False):
    """Route the memo's burn-ins through a recorder of their keys."""
    calls = []
    real = runner.sample_mu

    def sample(spec, t, tol, cfg):
        calls.append((t, tol, cfg))
        if fail_first and len(calls) == 1:
            raise RuntimeError("burn-in exploded")
        return real(spec, t, tol, cfg)

    monkeypatch.setattr(runner, "sample_mu", sample)
    return calls


def test_burn_in_runs_once_per_distinct_key(monkeypatch):
    monkeypatch.setenv("KOLMOLAB_THREADS", "1")
    calls = counting_sampler(monkeypatch)
    report = runner.run_scenario(parse_scenario(TINY_GENERAL))
    assert [e.verdict for e in report.experiments] == ["pass"] * 3
    assert len(calls) == len(set(calls)) == 4


def test_invariance_pushes_forward_once_per_span(monkeypatch):
    calls = []
    real = runner.invariance_defect

    def defect(obj, s, t, fns, **kw):
        calls.append((s, t, len(fns)))
        return real(obj, s, t, fns, **kw)

    monkeypatch.setattr(runner, "invariance_defect", defect)
    ctx = tiny_context()
    exp = next(e for e in ctx.scn.experiments if e.kind == "invariance")
    rows = runner._run_invariance(ctx, exp)
    assert calls == [(0.0, 0.5, 2), (0.0, 1.0, 2)]
    # rows keep the declared case order: spans alternate
    assert [r.t for r in rows] == [0.5, 1.0, 0.5, 1.0]
    assert [r.verdict for r in rows] == ["pass"] * 4


def test_reports_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    outputs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("KOLMOLAB_THREADS", threads)
        report = runner.run_scenario(parse_scenario(TINY_GENERAL))
        base = runner.write_report(report, tmp_path / threads).parent
        summary = json.loads((base / "summary.json").read_text())
        summary.pop("metadata")
        csvs = {p.name: p.read_bytes() for p in sorted(base.glob("*.csv"))}
        outputs[threads] = (csvs, summary)
    assert len(outputs["1"][0]) == 3
    assert outputs["1"] == outputs["4"]


def test_cached_clouds_are_shared_and_read_only():
    ctx = tiny_context()
    cfg = sde.SimConfig(dt=2e-2, n_paths=64, seed=3)
    a = ctx.sample_mu(ctx.spec, 1.0, 1e-3, cfg)
    assert ctx.sample_mu(ctx.spec, 1.0, 1e-3, cfg) is a
    assert not a.samples.flags.writeable
    with pytest.raises(ValueError):
        a.samples[0, 0] = 0.0


def test_concurrent_requests_share_one_burn_in(monkeypatch):
    ctx = tiny_context()
    calls = []
    real = runner.sample_mu

    def slow_sample(spec, t, tol, cfg):
        calls.append(t)
        time.sleep(0.01)  # let the other workers reach the memo meanwhile
        return real(spec, t, tol, cfg)

    monkeypatch.setattr(runner, "sample_mu", slow_sample)
    cfg = sde.SimConfig(dt=2e-2, n_paths=16, seed=1)
    results = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(
                target=lambda: results.append(ctx.sample_mu(ctx.spec, 0.5, 1e-3, cfg))
            )
            for _ in range(8)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    assert calls == [0.5]
    assert len(results) == 8 and all(r is results[0] for r in results)


def test_failed_burn_in_is_an_error_verdict_and_releases_its_key(monkeypatch):
    # measure's burn-in raises a non-kolmolab exception; lsi needs the same
    # cloud and must recompute it rather than block on the key or get the
    # failure from the cache
    monkeypatch.setenv("KOLMOLAB_THREADS", "1")
    calls = counting_sampler(monkeypatch, fail_first=True)
    scn = parse_scenario(TINY_GENERAL)
    reports = []
    worker = threading.Thread(
        target=lambda: reports.append(runner.run_scenario(scn)), daemon=True
    )
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    measure, lsi, invariance = reports[0].experiments
    assert measure.verdict == "error"
    assert measure.error == "RuntimeError: burn-in exploded"
    assert measure.rows == ()
    assert lsi.verdict == "pass" and invariance.verdict == "pass"
    assert calls[0] == calls[1]
    assert reports[0].verdict == "fail"


def test_bad_parameter_value_is_an_error_verdict(capsys):
    code = cli.main(["lsi", "ou_const", "--set", "n=abc"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[lsi] lsi: error" in out
    assert "error: ValueError: invalid literal for int()" in out
