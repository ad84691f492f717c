"""kolmolab benchmark: run one workload, check its reports, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  One pass runs the workload's scenarios
back to back through ``run_scenario`` and ``write_report`` in a fresh
process (``perfbench/worker.py``), the way a user's ``kolmolab run`` does,
importing kolmolab from the checkout's ``src/``.
Passes repeat until ``--seconds`` would be exceeded; there is always at
least one.  The load is a closed loop with one client, at
``KOLMOLAB_THREADS=1``, one BLAS/OpenMP thread and numpy's huge-page
requests on (``PINNED_ENV``).

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``), ``--trace 1`` runs the passes traced (``spans.py``) and
prints the per-layer metrics.  Every pass is checked: each experiment's
verdict is ``pass``, each scenario's CSV row count equals its pinned count,
and every pass gives the same output digest.  The last line of output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when ``correct`` is true.  The line
before it is one JSON object with the output digest, the CSV row counts
and the machine facts, so that runs of one seed can be compared.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
RUN_LIMIT_S = 165.0  # a run must end within 180 s
# Set for every pass.  numpy asks the kernel for huge pages on large arrays
# unless NUMPY_MADVISE_HUGEPAGE=0; ou_quad_d2 runs about 55% slower without
# them, so the variable is pinned to numpy's own default rather than taken
# from the caller.
PINNED_ENV = {
    "KOLMOLAB_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The per-layer metrics in BENCHMARK.json: every one the README's
# metric -> layer -> workload map names.  A span reads 0 on the workloads
# where it does not run; the map says where each one runs.
PER_LAYER = {
    "traced.wall_s": "s",
    "scenario.parse_scenario.busy_s": "s",
    "scenario.validate_scenario.busy_s": "s",
    "model.drift.calls": "count",
    "model.drift.busy_s": "s",
    "model.drift_jacobian.calls": "count",
    "model.drift_jacobian.busy_s": "s",
    "model.diffusion.calls": "count",
    "sde.simulate.calls": "count",
    "sde.simulate.busy_s": "s",
    "sde.simulate.self_s": "s",
    "sde.path_steps": "count",
    "sde.jac_path_steps": "count",
    "sde.ns_per_path_step": "ns",
    "sde.noise_use_ratio": "ratio",
    "measures.sample_mu.calls": "count",
    "measures.sample_mu.busy_s": "s",
    "measures.sample_mu.repeat_ratio": "ratio",
    "measures.invariance_defect.busy_s": "s",
    "measures.flow_derivative_defect.busy_s": "s",
    "measures.weak_star_gap.busy_s": "s",
    "measures.export.busy_s": "s",
    "engines.mc.measure.calls": "count",
    "engines.mc.measure.misses": "count",
    "engines.mc.apply_G_at.busy_s": "s",
    "engines.mc.apply_G_at.path_steps": "count",
    "engines.ou.measure.calls": "count",
    "engines.ou.measure.misses": "count",
    "engines.lp_norm_of_G.busy_s": "s",
    "engines.grad_lp_norm_of_G.busy_s": "s",
    "ou.evolution_measure.calls": "count",
    "ou.evolution_measure.busy_s": "s",
    "ou.evolution_measure.repeat_ratio": "ratio",
    "ou.estimate_omega0.calls": "count",
    "ou.estimate_omega0.busy_s": "s",
    "ou.ode_solves": "count",
    "ou.ode_solve.busy_s": "s",
    "ou.ou_apply_G.busy_s": "s",
    "ou.ou_apply_G.nodes": "count",
    "ou.ou_apply_G.ns_per_node": "ns",
    "ou.ou_apply_grad_G.busy_s": "s",
    "ou.ou_apply_grad_G.nodes": "count",
    "ou.ou_apply_grad_G.ns_per_node": "ns",
    **{
        f"ineq.{f}.busy_s": "s"
        for f in ("lsi_deficit", "poincare_quotient", "hyper_check", "hyper_curve",
                  "decay_fit_A", "decay_fit_B")
    },
    **{
        f"runner.{kind}.busy_s": "s"
        for kind in ("audit", "simulate", "measure", "invariance", "flow", "lsi",
                     "poincare", "hyper", "decay", "limit")
    },
    "runner.write_report.busy_s": "s",
    "io.bytes_written": "count",
}


def machine_facts(worker_facts):
    facts = {"nproc": os.cpu_count(), "platform": platform.platform()}
    facts.update(worker_facts)
    facts.update({name: os.environ[name] for name in PINNED_ENV})
    thp = Path("/sys/kernel/mm/transparent_hugepage/enabled")
    facts["transparent_hugepage"] = thp.read_text().strip() if thp.exists() else None
    return facts


def run_worker(args, out_dir, extra, timeout):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(out_dir),
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def run_passes(args, out_dir):
    """Passes until --seconds would be exceeded; returns (results, error)."""
    extra = ["--trace"] if args.trace else []
    results, durations = [], []
    start = time.perf_counter()
    while True:
        left = RUN_LIMIT_S - (time.perf_counter() - start)
        try:
            res, elapsed = run_worker(args, out_dir, extra, timeout=max(left, 1.0))
        except (subprocess.TimeoutExpired, RuntimeError, ValueError) as exc:
            return results, f"pass {len(results) + 1}: {type(exc).__name__}: {exc}"
        results.append(res)
        durations.append(elapsed)
        done = time.perf_counter() - start
        if done + statistics.median(durations) > min(args.seconds, RUN_LIMIT_S - 40.0):
            return results, None


def check(results, error, workload):
    """(correct, attempted, failed, reasons) over all passes."""
    reasons = [error] if error else []
    attempted = failed = 0
    if error:  # a crashed or timed-out pass fails all of its experiments
        attempted = failed = len(results[0]["experiments"]) if results else 1
    for res in results:
        attempted += len(res["experiments"])
        bad = [e for e in res["experiments"] if e[2] != "pass"]
        failed += len(bad)
        reasons += [f"{s}/{e}: verdict {v}" for s, e, v in bad] + res["errors"]
        for scn, pinned in workloads.PINNED_ROWS[workload].items():
            rows = res["rows"].get(scn)
            if rows != pinned:
                reasons.append(f"{scn}: {rows} CSV rows, pinned {pinned}")
    if len({res["digest"] for res in results}) > 1:
        reasons.append("passes gave different output digests")
    return not reasons, attempted, failed, sorted(set(reasons))


def end_to_end(args, out_dir, results):
    walls = [r["wall_s"] for r in results]
    setups = [r["setup_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        res, _ = run_worker(args, out_dir, ["--setup-only"], timeout=60.0)
        setups.append(res["setup_s"])
    rss = [r["peak_rss_mb"] for r in results]
    print(f"  wall_s       {statistics.median(walls):10.4f} s   "
          f"median of {len(walls)} passes, max {max(walls):.4f}")
    print(f"  setup_s      {statistics.median(setups):10.4f} s   "
          f"median of {len(setups)} fresh processes, max {max(setups):.4f}")
    print(f"  peak_rss_mb  {statistics.median(rss):10.1f} MB  "
          f"median of {len(rss)} passes, max {max(rss):.1f}")
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }


def per_layer(results):
    """Median over passes of each additive total, then the derived metrics."""
    keys = set().union(*(r["layers"] for r in results))
    totals = {
        k: statistics.median(r["layers"].get(k, 0.0) for r in results) for k in keys
    }
    layers = spans.derive(totals)
    layers["traced.wall_s"] = statistics.median(r["wall_s"] for r in results)
    for name in sorted(set(layers) | set(PER_LAYER)):
        note = "" if name in layers else "  (did not run on this workload)"
        print(f"  {name:48s} {layers.get(name, 0):.6g}{note}")
    return {name: layers.get(name, 0) for name in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kolmolab" / "__init__.py").is_file() or not (
        workloads.SCENARIO_DIR.is_dir()
    ):
        sys.stderr.write(f"no kolmolab source tree under {ROOT}; run from a checkout\n")
        return 2

    os.environ.update(PINNED_ENV)

    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        results, error = run_passes(args, out_dir)
        correct, attempted, failed, reasons = check(results, error, args.workload)
        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"passes {len(results)}")
        print(f"  failed_frac  {failed}/{attempted} = {failed / attempted:.4g} experiments")
        for reason in reasons:
            print(f"  FAIL         {reason}")
        metrics = {}
        if correct:
            if args.trace:
                values, units = per_layer(results), PER_LAYER
            else:
                values, units = end_to_end(args, out_dir, results), END_TO_END_UNITS
            metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        print(f"  correct      {str(correct).lower()}")
        # What is needed to compare runs, on its own line: the result line
        # below may hold only the four keys of the benchmark's contract.
        print(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "digest": results[0]["digest"] if results else None,
            "rows": results[0]["rows"] if results else None,
            "machine": machine_facts(results[0]["machine"] if results else {}),
        }, sort_keys=True))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
