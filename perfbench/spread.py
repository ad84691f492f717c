"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 0-9 [--workloads mc_cubic,ou_shipped]
                                [--out FILE.json]

Runs ``perfbench/run.py`` once per (workload, seed), untraced and then
traced, one run at a time, for ``run_seconds`` of ``BENCHMARK.json``.  It
prints for each metric its median, its quartiles and the spread (the
distance between the first and third quartile as a share of the median),
and the tracing overhead (traced wall time minus untraced wall time,
medians).  It checks that the traced and untraced runs of each seed give
the same output digest.  ``--out`` writes every run's result together with
the machine facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=900)
    lines = proc.stdout.strip().splitlines()
    # run.py ends with two JSON lines: the run's digest and machine facts,
    # then its result
    try:
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
    except (IndexError, ValueError):
        info, result = {}, {"correct": False, "metrics": {}}
    metrics = {k: m["value"] for k, m in result.pop("metrics").items()}
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "digest": info.get("digest"), "machine": info.get("machine"),
            **result, "metrics": metrics}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    ap.add_argument("--workloads", default=",".join(workloads.NAMES))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": SECONDS, "workloads": {}}
    ok = True
    for w in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            for trace in (0, 1):
                runs.append(run_once(w, seed, trace))
                r = runs[-1]
                print(f"{w} seed {seed} trace {trace}: correct {r['correct']} "
                      f"exit {r['exit']} failed {r.get('failed')}/{r.get('attempted')}",
                      flush=True)
        ok &= all(r["correct"] and r["exit"] == 0 for r in runs)
        metrics = {}
        for trace in (0, 1):
            sel = [r for r in runs if r["trace"] == trace and r["correct"]]
            names = sel[0]["metrics"] if sel else {}
            for name in names:
                if len(sel) >= 2:
                    metrics[name] = summary([r["metrics"][name] for r in sel])
        if "traced.wall_s" in metrics and "wall_s" in metrics:
            overhead = metrics["traced.wall_s"]["median"] - metrics["wall_s"]["median"]
            metrics["tracing_overhead_s"] = {"median": overhead,
                                             "share": overhead / metrics["wall_s"]["median"]}
        # traced and untraced runs of one seed must write identical reports
        by_seed = {}
        for r in runs:
            by_seed.setdefault(r["seed"], set()).add(r["digest"])
        mismatch = [s for s, d in by_seed.items() if len(d) > 1 or None in d]
        ok &= not mismatch
        machine = next((r["machine"] for r in runs if r["machine"]), None)
        for r in runs:
            del r["machine"]
        report["workloads"][w] = {"machine": machine, "metrics": metrics,
                                  "digest_mismatch_seeds": mismatch, "runs": runs}
        print(f"== {w}")
        for name, m in metrics.items():
            print(f"  {name:40s} " + "  ".join(f"{k} {v:.6g}" for k, v in m.items()))
        if mismatch:
            print(f"  traced and untraced digests differ or are missing at seeds {mismatch}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
