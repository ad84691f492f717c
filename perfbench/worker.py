"""One pass of a workload in a fresh process, as a user's `kolmolab run` is.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

Prints one JSON object: set-up time, wall time, peak RSS, experiment
verdicts, CSV row counts, the output digest and, with ``--trace``, the
per-layer totals.  ``perfbench/run.py`` starts this script with the thread
caps set; run it through ``run.py``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def digest(out_dir):
    """SHA-256 over every CSV and every summary.json without its metadata."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.suffix == ".csv":
            data = path.read_bytes()
        elif path.name == "summary.json":
            summary = json.loads(path.read_text())
            summary.pop("metadata", None)
            data = json.dumps(summary, sort_keys=True).encode()
        else:
            continue
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def csv_rows(out_dir, scenario_name, experiments):
    base = out_dir / scenario_name
    return sum(
        len((base / f"{e.name}.csv").read_text().splitlines()) - 1 for e in experiments
    )


def machine():
    import numpy
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import workloads

    sys.path.insert(0, str(workloads.SCENARIO_DIR.parent / "src"))
    from kolmolab import runner, scenario

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()

    if args.out.exists():
        shutil.rmtree(args.out)
    scns = workloads.build(args.workload, args.seed, args.out)
    for scn in scns:
        scenario.validate_scenario(scn)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    reports, errors = [], []
    t0 = time.perf_counter()
    for scn in scns:
        try:
            rep = runner.run_scenario(scn)
            runner.write_report(rep, scn.out_dir)
        except Exception as exc:  # a crashed scenario fails all its experiments
            errors.append(f"{scn.name}: {type(exc).__name__}: {exc}")
            rep = None
        reports.append((scn, rep))
    wall_s = time.perf_counter() - t0

    experiments, rows = [], {}
    for scn, rep in reports:
        if rep is None:
            experiments += [(scn.name, e.name, "error") for e in scn.experiments]
            continue
        experiments += [(scn.name, e.name, e.verdict) for e in rep.experiments]
        rows[scn.name] = csv_rows(args.out, scn.name, rep.experiments)

    result.update(
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        experiments=experiments,
        errors=errors,
        rows=rows,
        digest=digest(args.out),
        machine=machine(),
    )
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
