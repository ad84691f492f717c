"""Command-line front end.

    kolmolab run <scenario.scn> [--seed N --paths N --dt H --out DIR --tol T]
    kolmolab <kind> <target>       (one per scenario.EXPERIMENT_KINDS)
    kolmolab list-catalog

``<target>`` is a scenario file or a built-in catalog entry name.  The
single-kind subcommands run just the experiments of that kind (declared in
the file, or a default one); ``--set key=value`` tweaks their parameters.

Exit codes: 0 all checks passed, 1 a property violation or runtime failure,
2 a configuration error (unparsable scenario, unknown catalog entry,
inadmissible constants such as r0 >= 0).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import catalog
from ._version import __version__
from .errors import DomainError, KolmolabError, ScenarioError
from .runner import run_scenario, write_report
from .scenario import (
    EXPERIMENT_KINDS,
    ExperimentDecl,
    Overrides,
    Scenario,
    _param_value,
    _tokenize,
    apply_overrides,
    load_scenario,
)


def _common_flags(p):
    p.add_argument("--seed", type=int, default=None, help="override the sim seed")
    p.add_argument("--paths", type=int, default=None, help="override path count")
    p.add_argument("--dt", type=float, default=None, help="override the time step")
    p.add_argument("--out", default=None, help="output directory for CSV/JSON reports")
    p.add_argument("--tol", type=float, default=None, help="override accuracy target")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="kolmolab",
        description="certify gradient estimates, functional inequalities and "
        "measure convergence for dissipative diffusion semigroups",
    )
    parser.add_argument("--version", action="version", version=f"kolmolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario file end to end")
    run_p.add_argument("target", help="scenario file (or catalog entry name)")
    _common_flags(run_p)

    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment only")
        p.add_argument("target", help="scenario file or catalog entry name")
        p.add_argument(
            "--set",
            dest="assignments",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="experiment parameter, e.g. --set p=[1.5,2] (repeatable)",
        )
        _common_flags(p)

    sub.add_parser("list-catalog", help="list built-in coefficient families")
    return parser


def _parse_assignment(text):
    if "=" not in text:
        raise ScenarioError(f"--set expects KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    if not key:
        raise ScenarioError(f"--set expects KEY=VALUE, got {text!r}")
    tokens = _tokenize(raw.strip(), 1)
    if not tokens:
        raise ScenarioError(f"--set {key} has no value")
    return key, _param_value(key, tokens, 1)


def _load_target(target):
    """A scenario from a file path or a bare catalog entry name."""
    if os.path.exists(target):
        return load_scenario(target)
    if target in catalog.names():
        return Scenario(name=target, catalog=target, source="<builtin>")
    raise ScenarioError(
        f"{target!r} is neither a scenario file nor a catalog entry; "
        f"known entries: {', '.join(catalog.names())}"
    )


def _target_with_overrides(args):
    """The target's scenario with the --seed/--paths/--dt/--out/--tol flags."""
    return apply_overrides(
        _load_target(args.target),
        Overrides(
            seed=args.seed, paths=args.paths, dt=args.dt, out=args.out, tol=args.tol
        ),
    )


def _fmt(v, spec="%g"):
    if v is None:
        return "-"
    try:
        if v != v:  # nan
            return "nan"
    except TypeError:
        pass
    return spec % v


def _print_report(report, stream):
    for rep in report.experiments:
        stream.write(f"[{rep.kind}] {rep.name}: {rep.verdict}\n")
        if rep.error:
            stream.write(f"  error: {rep.error}\n")
        for r in rep.rows:
            stream.write(
                "  %-38s p=%-6s q=%-6s t=%-8s s=%-8s value=%-14s tol=%-10s %s\n"
                % (
                    r.op,
                    _fmt(r.p),
                    _fmt(r.q),
                    _fmt(r.t),
                    _fmt(r.s),
                    _fmt(r.value, "%.8g"),
                    _fmt(r.tolerance, "%.3g"),
                    r.verdict,
                )
            )
    stream.write(f"verdict: {report.verdict}\n")


def _exit_code(report):
    if report.verdict == "pass":
        return 0
    return 1


def _cmd_list_catalog(stream):
    info = catalog.describe()
    for name in catalog.names():
        entry = info[name]
        params = " ".join(f"{k}={v:g}" for k, v in entry["defaults"].items())
        stream.write(f"{name:22s} {entry['description']}\n")
        stream.write(f"{'':22s} parameters: {params}\n")
    return 0


def _cmd_run(args, stream):
    scn = _target_with_overrides(args)
    report = run_scenario(scn)
    out_dir = scn.out_dir or "out"
    path = write_report(report, out_dir)
    _print_report(report, stream)
    stream.write(f"report: {path}\n")
    return _exit_code(report)


def _cmd_kind(kind, args, stream):
    scn = _target_with_overrides(args)
    params = dict(_parse_assignment(a) for a in args.assignments)
    declared = [e for e in scn.experiments if e.kind == kind]
    if declared:
        decls = tuple(
            replace(e, params={**e.params, **params}) for e in declared
        )
    else:
        decls = (ExperimentDecl(kind=kind, name=kind, params=params),)
    scn = replace(scn, experiments=decls)
    report = run_scenario(scn)
    if scn.out_dir:
        path = write_report(report, scn.out_dir)
        stream.write(f"report: {path}\n")
    _print_report(report, stream)
    return _exit_code(report)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    stream = sys.stdout
    try:
        if args.command == "list-catalog":
            return _cmd_list_catalog(stream)
        if args.command == "run":
            return _cmd_run(args, stream)
        return _cmd_kind(args.command, args, stream)
    except (ScenarioError, DomainError, OSError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except KolmolabError as exc:
        sys.stderr.write(f"runtime failure: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
