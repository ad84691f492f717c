"""Executes a scenario's experiment list and assembles a report.

Each experiment kind maps to a function ``(ctx, decl) -> [ExperimentRow]``.
Rows carry one of four verdicts:

* ``pass`` / ``fail`` -- a toleranced comparison that counts toward the
  experiment verdict;
* ``info`` -- a measured quantity reported for plotting, never mandatory;
* ``skip`` -- a case whose hypothesis left the representable range
  (e.g. a hypercontractivity exponent overflowing the double range).

An experiment passes iff none of its rows fail; a report passes iff every
experiment passes.  Experiments are independent and may run concurrently
(``KOLMOLAB_THREADS`` caps the worker count); results are assembled in
declared order, so reports do not depend on scheduling.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import functions as fb
from ._version import __version__
from .engines import AnalyticOUEngine, MonteCarloEngine
from .errors import CertificateUnavailableError, ScenarioError
from .ineq import (
    ExperimentRow,
    CSV_COLUMNS,
    decay_fit_A,
    decay_fit_B,
    hyper_check,
    hyper_curve,
    lsi_deficit,
    poincare_quotient,
    rate_agreement,
)
from .io import atomic_write_text
from .memo import Memo
from .measures import (
    _BURN_IN_TOL,
    burn_in_grid,
    export_measure_csv,
    export_measure_json,
    flow_derivative_defect,
    invariance_defect,
    weak_star_gap,
)
from .model import (
    MARGIN_TOL,
    audit_hypotheses,
    build_lyapunov_gaussian,
    check_monotonicity,
)
from .ou import solve_lyapunov_limit
from .scenario import validate_scenario
# runner does not call simulate; perfbench's tracing tests reach the
# simulator as runner.simulate
from .sde import SimConfig, eps_dt, jacobian_certificate, simulate  # noqa: F401
from .sde import LEIMKUHLER_MATTHEWS

__all__ = ["RunContext", "ExperimentReport", "Report", "run_scenario", "write_report"]

SCHEMA_VERSION = 1

# Monte Carlo engine sizes (cloud, inner, outer) by experiment kind; an
# experiment's cloud/inner/outer keys override them.
_MC_SIZES = {
    "invariance": (16384, 192, 2048),
    "flow": (16384, 192, 2048),
    "hyper": (4096, 96, 1024),
    "decay": (4096, 96, 1024),
}
_MC_DEFAULT_SIZES = (8192, 192, 2048)


@dataclass
class RunContext:
    """What the experiments of one run share: the scenario, its bundle, the
    simulation config, and one :class:`~kolmolab.memo.Memo` through which
    every deterministic ingredient of G(t, s) is computed once."""

    scn: object
    bundle: object
    cfg: SimConfig
    memo: Memo = field(default_factory=Memo, init=False, repr=False)

    def __post_init__(self):
        # one analytic engine serves every experiment
        self._analytic_engine = None
        if self.analytic:
            self._analytic_engine = AnalyticOUEngine(
                self.model, self.spec, tol=min(self.scn.tol, 1e-8), memo=self.memo
            )

    @property
    def spec(self):
        return self.bundle.spec

    @property
    def model(self):
        return self.bundle.model

    @property
    def dim(self):
        return self.bundle.spec.dim

    @property
    def analytic(self):
        """Whether experiments run on the closed-form (OU) engine."""
        return self.model is not None and self.scn.kind != "general"

    def engine(self, exp):
        """The run's analytic engine, or a Monte Carlo engine sized by the
        experiment's kind and keys; both draw on the run's memo."""
        if self.analytic:
            return self._analytic_engine
        cloud, inner, outer = _MC_SIZES.get(exp.kind, _MC_DEFAULT_SIZES)
        return MonteCarloEngine(
            self.spec,
            cfg=self.cfg,
            memo=self.memo,
            cloud_size=int(exp.params.get("cloud", cloud)),
            n_inner=int(exp.params.get("inner", inner)),
            n_outer=int(exp.params.get("outer", outer)),
        )

    def default_s(self):
        start = self.spec.interval_start
        return 0.0 if math.isinf(start) else start + 1.0


@dataclass
class ExperimentReport:
    name: str
    kind: str
    rows: tuple
    verdict: str
    error: Optional[str] = None


@dataclass
class Report:
    scenario: str
    catalog: str
    seed: int
    verdict: str
    experiments: tuple
    metadata: dict


def _row(ctx, op, value, tolerance, verdict, **where):
    """One report row.  ``verdict`` is "info", "skip", or whether the check
    passed; ``where`` holds the row's p, q, t and s."""
    if not isinstance(verdict, str):
        verdict = "pass" if verdict else "fail"
    return ExperimentRow(
        scenario=ctx.scn.name,
        op=op,
        value=float(value),
        tolerance=float(tolerance),
        verdict=verdict,
        **where,
    )


def _fname(f, k):
    return f.meta.name or f"fn{k:02d}"


def _times(params, key, default):
    v = params.get(key, default)
    if isinstance(v, (list, tuple)):
        return [float(x) for x in v]
    return [float(v)]


# ---------------------------------------------------------------------------
# experiment kinds


def _run_audit(ctx, exp):
    rows = []
    rep = audit_hypotheses(ctx.spec)
    for name, margin in rep.margins.items():
        rows.append(
            _row(ctx, f"audit:{name}", margin, MARGIN_TOL, margin >= -MARGIN_TOL)
        )
    mono = check_monotonicity(ctx.spec)
    rows.append(
        _row(
            ctx,
            "monotonicity_excess",
            mono.max_excess,
            MARGIN_TOL,
            mono.max_excess <= MARGIN_TOL,
        )
    )
    try:
        cert = build_lyapunov_gaussian(ctx.spec)
        rows.append(_row(ctx, "lyapunov_c", cert.c, 0.0, cert.c > 0.0))
        rows.append(_row(ctx, "lyapunov_a", cert.a, 0.0, "info"))
    except CertificateUnavailableError:
        rows.append(_row(ctx, "lyapunov_c", math.nan, 0.0, False))
    return rows


def _run_simulate(ctx, exp):
    s = float(exp.params.get("s", ctx.default_s()))
    spans = _times(exp.params, "spans", [0.5, 1.0])
    n_paths = int(exp.params.get("paths", ctx.cfg.n_paths))
    cfg = replace(ctx.cfg, n_paths=n_paths)
    x0 = np.zeros(ctx.dim)
    rows = []
    for span in spans:
        t = s + span
        viol, bound, worst = jacobian_certificate(ctx.spec, s, t, x0, cfg)
        rows.append(
            _row(ctx, "jacobian_violations", viol, 0.0, viol == 0, s=s, t=t)
        )
        rows.append(
            _row(ctx, "jacobian_worst_ratio", worst / bound, 0.0, "info", s=s, t=t)
        )
        rows.append(
            _row(ctx, "eps_dt", eps_dt(ctx.spec, cfg.dt), 0.0, "info", s=s, t=t)
        )
    return rows


def _run_measure(ctx, exp):
    engine = ctx.engine(exp)
    s0 = ctx.default_s()
    ts = _times(exp.params, "times", exp.params.get("t", s0 + 2.0))
    radii = _times(exp.params, "radii", [1.0, 2.0, 4.0, 8.0])
    export = exp.params.get("export", True) and bool(ctx.scn.out_dir)
    rows = []
    prev = None
    for t in ts:
        mu = engine.measure(t)
        outside = mu.tail_mass(radii)
        for R, frac in zip(radii, outside):
            op = f"tightness_outside[R={R:g}]"
            rows.append(_row(ctx, op, frac, 0.0, "info", t=t))
        mean, _ = mu.expectation(fb.coordinate(0, ctx.dim))
        rows.append(_row(ctx, "measure_mean_x1", mean, 0.0, "info", t=t))
        if prev is not None:
            gap = weak_star_gap(prev, mu)
            rows.append(
                _row(ctx, "weak_star_gap_prev", gap.value, gap.tolerance, "info", t=t)
            )
        prev = mu
        if export:
            base = Path(ctx.scn.out_dir) / ctx.scn.name
            base.mkdir(parents=True, exist_ok=True)
            stem = f"{exp.name}_t{t:g}"
            if hasattr(mu, "samples"):
                export_measure_csv(mu, base / f"{stem}.csv")
            else:
                export_measure_json(mu, base / f"{stem}.json")
    return rows


def _run_invariance(ctx, exp):
    engine = ctx.engine(exp)
    s0 = float(exp.params.get("s", ctx.default_s()))
    spans = _times(exp.params, "spans", [0.5, 1.0, 2.0])
    n_cases = int(exp.params.get("n", 10))
    fns = fb.bounded_test_family(ctx.dim)
    cases = [(fns[k % len(fns)], spans[k % len(spans)]) for k in range(n_cases)]
    # one call per distinct span: cases that share it share the push-forward
    defects = {}
    for span in dict.fromkeys(span for _, span in cases):
        ks = [k for k, (_, sp) in enumerate(cases) if sp == span]
        ds = invariance_defect(engine, s0, s0 + span, [cases[k][0] for k in ks])
        defects.update(zip(ks, ds))
    rows = []
    for k, (f, span) in enumerate(cases):
        d = defects[k]
        tol = max(3.0 * d.tolerance, 1e-9)
        rows.append(
            _row(
                ctx,
                f"invariance_defect[{_fname(f, k)}]",
                d.value,
                tol,
                d.value <= tol,
                s=s0,
                t=s0 + span,
            )
        )
    return rows


def _run_flow(ctx, exp):
    engine = ctx.engine(exp)
    rs = _times(exp.params, "r", [ctx.default_s() + 1.0])
    h = float(exp.params.get("h", 1e-2))
    n = int(exp.params.get("n", 5))
    fns = fb.compact_flat_battery(ctx.dim, n)
    rows = []
    for r in rs:
        for k, f in enumerate(fns):
            d = flow_derivative_defect(engine, f, r, h=h)
            tol = max(100.0 * h * h, 4.0 * d.tolerance)
            rows.append(
                _row(
                    ctx,
                    f"flow_defect[{_fname(f, k)}]",
                    d.value,
                    tol,
                    abs(d.value) <= tol,
                    t=r,
                )
            )
    return rows


def _run_lsi(ctx, exp):
    engine = ctx.engine(exp)
    t = float(exp.params.get("t", ctx.default_s() + 2.0))
    ps = _times(exp.params, "p", [1.5, 2.0, 4.0])
    n = int(exp.params.get("n", 50))
    mu = engine.measure(t)
    fns = fb.lsi_battery(ctx.dim, n)
    rows = []
    for p in ps:
        worst = math.inf
        worst_tol = 0.0
        for k, f in enumerate(fns):
            d = lsi_deficit(mu, f, p, engine.Lambda, engine.r0)
            if d.value < worst:
                worst, worst_tol = d.value, d.tolerance
        tol = max(3.0 * worst_tol, 1e-9)
        rows.append(
            _row(ctx, "lsi_min_deficit", worst, tol, worst >= -tol, p=p, t=t)
        )
    # the truncated exponential saturates the inequality only under the
    # standard Gaussian; for any other measure its deficit is genuinely O(1)
    if (
        ctx.dim == 1
        and abs(engine.Lambda - abs(engine.r0)) < 1e-12
        and mu.is_standard()
    ):
        f = fb.truncated_exp_ridge(lam=0.5)
        d = lsi_deficit(mu, f, 2.0, engine.Lambda, engine.r0)
        tol = max(3.0 * d.tolerance, 1e-9)
        ok = -tol <= d.value <= 0.05
        rows.append(_row(ctx, "lsi_near_extremal", d.value, 0.05, ok, p=2.0, t=t))
    return rows


def _run_poincare(ctx, exp):
    engine = ctx.engine(exp)
    t = float(exp.params.get("t", ctx.default_s() + 2.0))
    ps = _times(exp.params, "p", [2.0, 4.0, 6.0])
    mu = engine.measure(t)
    bound = math.sqrt(engine.Lambda / abs(engine.r0))
    fns = fb.bounded_test_family(ctx.dim)[:8]
    rows = []
    if 2.0 in ps:
        for k, f in enumerate(fns):
            res = poincare_quotient(mu, f, 2.0)
            ratio = res.quotient / bound
            tol = max(3.0 * res.tolerance / bound, 0.01)
            rows.append(
                _row(
                    ctx,
                    f"poincare_ratio[{_fname(f, k)}]",
                    ratio,
                    tol,
                    ratio <= 1.0 + tol,
                    p=2.0,
                    t=t,
                )
            )
        aff = poincare_quotient(mu, fb.affine(np.ones(ctx.dim)), 2.0)
        ratio = aff.quotient / bound
        rows.append(_row(ctx, "poincare_affine_ratio", ratio, 0.0, "info", p=2.0, t=t))
    for p in ps:
        if p == 2.0:
            continue
        for k, f in enumerate(fns[:3]):
            res = poincare_quotient(mu, f, p)
            rows.append(
                _row(
                    ctx,
                    f"poincare_p_quotient[{_fname(f, k)}]",
                    res.quotient,
                    max(3.0 * res.tolerance, 1e-9),
                    math.isfinite(res.quotient),
                    p=p,
                    t=t,
                )
            )
    return rows


def _run_hyper(ctx, exp):
    engine = ctx.engine(exp)
    s = float(exp.params.get("s", ctx.default_s()))
    qs = _times(exp.params, "q", [1.5, 2.0])
    gaps = _times(exp.params, "gaps", [0.25, 0.5, 1.0, 2.0])
    n_cases = int(exp.params.get("n", 20))
    fns = fb.hyper_battery(ctx.dim, max(4, n_cases // (len(qs) * len(gaps)) + 1))
    cases = []
    for f in fns:
        for q in qs:
            for gap in gaps:
                cases.append((f, q, gap))
    rows = []
    for k, (f, q, gap) in enumerate(cases[:n_cases]):
        res = hyper_check(engine, s, s + gap, f, q)
        if res.skipped:
            rows.append(
                _row(
                    ctx,
                    f"hyper_check[{_fname(f, k)}]",
                    math.nan,
                    math.nan,
                    "skip",
                    p=res.p,
                    q=q,
                    t=s + gap,
                    s=s,
                )
            )
            continue
        rows.append(
            _row(
                ctx,
                f"hyper_check[{_fname(f, k)}]",
                res.lhs - res.rhs,
                3.0 * res.tolerance,
                bool(res.passed),
                p=res.p,
                q=q,
                t=res.t,
                s=s,
            )
        )
    curve_gaps = _times(exp.params, "curve_gaps", [0.0, 0.25, 0.5, 1.0, 2.0, 3.0])
    curve = hyper_curve(engine, s, fns[0], qs[0], curve_gaps)
    slack = 3.0 * float(np.max(curve.tolerances)) + 1e-5 if curve.ts.size else 0.0
    rows.append(
        _row(
            ctx,
            "hyper_curve_max_increase",
            curve.max_increase,
            slack,
            curve.monotone or curve.max_increase <= slack,
            q=qs[0],
            s=s,
        )
    )
    return rows


def _decay_family(dim, affine):
    fns = [
        fb.tanh_ridge(np.full(dim, 1.0 / math.sqrt(dim))),
        fb.sin_ridge(np.full(dim, 0.8 / math.sqrt(dim)), b=0.3),
        fb.gaussian_bump(center=0.5, width=1.5, dim=dim),
    ]
    if affine:
        fns.insert(0, fb.affine(np.ones(dim) / math.sqrt(dim)))
    return fns


def _run_decay(ctx, exp):
    engine = ctx.engine(exp)
    s = float(exp.params.get("s", ctx.default_s()))
    ps = _times(exp.params, "p", [1.5, 2.0, 4.0])
    gaps_a = _times(exp.params, "gaps_a", engine.decay_gaps_a)
    gaps_b = _times(exp.params, "gaps_b", engine.decay_gaps_b)
    family = _decay_family(ctx.dim, engine.decay_affine)
    r0 = engine.r0
    rows = []
    fits_a = {}
    for p in ps:
        fit = decay_fit_A(engine, s, family, p, gaps_a)
        fits_a[p] = fit
        rows.append(
            _row(ctx, "decay_omega_A", fit.omega, 0.1, fit.omega <= r0 + 0.1, p=p, s=s)
        )
        rows.append(
            _row(ctx, "decay_residual_A", fit.residual, 0.0, "info", p=p, s=s)
        )
    p_b = float(exp.params.get("p_b", 2.0))
    fit_b = decay_fit_B(engine, s, family, p_b, gaps_b)
    rows.append(
        _row(
            ctx,
            "decay_omega_B",
            fit_b.omega,
            0.1,
            fit_b.omega <= r0 + 0.1,
            p=p_b,
            s=s,
        )
    )
    base_p = p_b if p_b in fits_a else ps[0]
    agree = rate_agreement(
        fits_a[base_p], fit_b, tol=0.1, cross_fits=tuple(fits_a.values())
    )
    rows.append(_row(ctx, "rate_gap_AB", agree.gap, 0.1, agree.gap <= 0.1, s=s))
    if agree.cross_spread is not None:
        rows.append(
            _row(
                ctx,
                "rate_spread_A",
                agree.cross_spread,
                0.1,
                agree.cross_spread <= 0.1,
                s=s,
            )
        )
    return rows


def _run_limit(ctx, exp):
    model = ctx.model
    ts = _times(exp.params, "times", [1.0, 2.0, 4.0, 8.0, 16.0])
    t_inf = float(exp.params.get("t_inf", 50.0))
    tol_final = float(exp.params.get("tol_final", 1e-3))
    slack = float(exp.params.get("slack", 1e-5))
    limit = solve_lyapunov_limit(
        model.A_mat(t_inf), model.B_mat(t_inf), model.g_vec(t_inf)
    )
    engine = ctx.engine(exp)
    gaps = []
    rows = []
    for t in sorted(ts):
        mu = engine.measure(t)
        gaps.append(mu.parameter_gap(limit))
        rows.append(_row(ctx, "limit_gap", gaps[-1], 0.0, "info", t=t))
    increases = np.diff(gaps)
    worst_inc = float(np.max(increases)) if increases.size else 0.0
    rows.append(
        _row(ctx, "limit_monotone_increase", worst_inc, slack, worst_inc <= slack)
    )
    rows.append(
        _row(
            ctx,
            "limit_final_gap",
            gaps[-1],
            tol_final,
            gaps[-1] <= tol_final,
            t=max(ts),
        )
    )
    return rows


_RUNNERS = {
    "audit": _run_audit,
    "simulate": _run_simulate,
    "measure": _run_measure,
    "invariance": _run_invariance,
    "flow": _run_flow,
    "lsi": _run_lsi,
    "poincare": _run_poincare,
    "hyper": _run_hyper,
    "decay": _run_decay,
    "limit": _run_limit,
}


# ---------------------------------------------------------------------------
# orchestration


def _build_cfg(scn):
    sim = scn.sim
    return SimConfig(
        dt=float(sim.get("dt", 1e-3)),
        n_paths=int(sim.get("paths", 100_000)),
        seed=int(sim.get("seed", 0)),
        scheme=str(sim.get("scheme", "euler")),
    )


def max_workers(n_tasks):
    """Worker count for concurrent experiments; KOLMOLAB_THREADS caps it."""
    raw = os.environ.get("KOLMOLAB_THREADS")
    cap = min(4, n_tasks) if n_tasks else 1
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise ScenarioError(
                f"KOLMOLAB_THREADS must be a positive integer, got {raw!r}"
            )
        if cap < 1:
            raise ScenarioError(
                f"KOLMOLAB_THREADS must be a positive integer, got {raw!r}"
            )
    return max(1, min(cap, n_tasks or 1))


def _run_one(ctx, decl):
    try:
        rows = tuple(_RUNNERS[decl.kind](ctx, decl))
    except Exception as exc:
        # one experiment's failure, expected (KolmolabError) or not (say, a
        # bad parameter value), must not take the report or its siblings down
        return ExperimentReport(
            name=decl.name,
            kind=decl.kind,
            rows=(),
            verdict="error",
            error=f"{type(exc).__name__}: {exc}",
        )
    failed = any(r.verdict == "fail" for r in rows)
    return ExperimentReport(
        name=decl.name,
        kind=decl.kind,
        rows=rows,
        verdict="fail" if failed else "pass",
    )


def run_scenario(scn):
    """Validate and execute a scenario; returns a :class:`Report`."""
    t0 = time.monotonic()
    bundle = validate_scenario(scn)
    cfg = _build_cfg(scn)
    cfg.check_against(bundle.spec)
    ctx = RunContext(scn=scn, bundle=bundle, cfg=cfg)

    decls = list(scn.experiments)
    workers = max_workers(len(decls))
    if workers > 1 and len(decls) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(lambda d: _run_one(ctx, d), decls))
    else:
        reports = [_run_one(ctx, d) for d in decls]

    verdict = "pass"
    for rep in reports:
        if rep.verdict in ("fail", "error"):
            verdict = "fail"
            break
    metadata = {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": round(time.monotonic() - t0, 3),
        "package_version": __version__,
        # hits and misses of the run memo, per cache kind
        "memo": ctx.memo.counts(),
    }
    span, burn = burn_in_grid(ctx.spec, _BURN_IN_TOL, cfg)
    if burn.scheme == LEIMKUHLER_MATTHEWS:
        # the Monte Carlo burn-ins do not run at the scenario's scheme and dt
        metadata["burn_in"] = {
            "scheme": burn.scheme,
            "step": burn.dt,
            "steps": round(span / burn.dt),
        }
    return Report(
        scenario=scn.name,
        catalog=scn.catalog,
        seed=cfg.seed,
        verdict=verdict,
        experiments=tuple(reports),
        metadata=metadata,
    )


def rows_to_csv(rows):
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(r.as_csv() for r in rows)
    return "\n".join(lines) + "\n"


def write_report(report, out_root):
    """Write per-experiment CSVs and summary.json under out_root/<scenario>/."""
    base = Path(out_root) / report.scenario
    base.mkdir(parents=True, exist_ok=True)
    summary_experiments = []
    for rep in report.experiments:
        csv_name = f"{rep.name}.csv"
        atomic_write_text(base / csv_name, rows_to_csv(rep.rows))
        entry = {
            "name": rep.name,
            "kind": rep.kind,
            "verdict": rep.verdict,
            "rows": len(rep.rows),
            "failures": sum(1 for r in rep.rows if r.verdict == "fail"),
            "csv": csv_name,
        }
        if rep.error:
            entry["error"] = rep.error
        summary_experiments.append(entry)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": report.scenario,
        "catalog": report.catalog,
        "seed": report.seed,
        "verdict": report.verdict,
        "experiments": summary_experiments,
        "metadata": report.metadata,
    }
    atomic_write_text(base / "summary.json", json.dumps(summary, indent=2) + "\n")
    return base / "summary.json"
