"""End-to-end command line checks, run in process via cli.main (the
``python -m kolmolab`` entry point runs in a subprocess)."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kolmolab
from kolmolab import cli, sde
from kolmolab.ineq import CSV_COLUMNS
from kolmolab.scenario import _EXPERIMENT_KEYS, EXPERIMENT_KINDS

TINY_OU = """\
scenario cli_ou
  catalog ou_const
  kind ou
  sim
    dt 1e-3
    paths 1000
    seed 7
  end
  experiment audit
  end
  experiment poincare
    t 1.0
    p [2.0]
  end
end
"""

TINY_MC = """\
scenario cli_mc
  catalog cubic_dissipative
  sim
    dt 2e-3
    paths 1500
    seed 7
  end
  experiment audit
  end
  experiment simulate
    s 0.0
    spans [0.5]
    paths 1500
  end
end
"""


def write_scn(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_list_catalog(capsys):
    assert cli.main(["list-catalog"]) == 0
    out = capsys.readouterr().out
    for name in (
        "ou_const",
        "ou_periodic",
        "ou_convergent",
        "cubic_dissipative",
        "double_well_shifted",
    ):
        assert name in out


def test_version_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as ei:
        cli.main(["--version"])
    assert ei.value.code == 0
    assert "kolmolab" in capsys.readouterr().out


def test_module_entry_point_runs():
    # a checkout without an installed console script runs as a module
    src = str(Path(kolmolab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "kolmolab", "--help"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: kolmolab")


def test_run_writes_reports(tmp_path, capsys):
    scn = write_scn(tmp_path, TINY_OU)
    code = cli.main(["run", str(scn), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: pass" in out

    base = tmp_path / "out" / "cli_ou"
    csv = (base / "poincare.csv").read_text().splitlines()
    assert csv[0] == ",".join(CSV_COLUMNS)
    assert any(line.startswith("cli_ou,") for line in csv[1:])
    assert (base / "audit.csv").exists()

    summary = json.loads((base / "summary.json").read_text())
    assert summary["schema_version"] == 1
    assert summary["scenario"] == "cli_ou"
    assert summary["verdict"] == "pass"
    assert {e["name"] for e in summary["experiments"]} == {"audit", "poincare"}
    assert "created_at" in summary["metadata"]

    # the measure experiment writes mu_t unless its export flag is false
    for flag, exported in (("True", True), ("False", False)):
        out = tmp_path / f"export_{flag}"
        args = ["--set", "times=[1.0]", "--set", f"export={flag}"]
        assert cli.main(["measure", "ou_const", "--out", str(out), *args]) == 0
        assert (out / "ou_const" / "measure_t1.json").exists() == exported


def test_summary_reports_the_burn_in_step(tmp_path, capsys):
    # the cubic drift's burn-ins take Leimkuhler-Matthews steps of 5e-2, not
    # the scenario's Euler steps of 2e-3; an OU run has no such entry
    for text, name in ((TINY_MC, "cli_mc"), (TINY_OU, "cli_ou")):
        scn = write_scn(tmp_path, text)
        assert cli.main(["audit", str(scn), "--out", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / name / "summary.json").read_text())
        expected = {"scheme": "leimkuhler_matthews", "step": 0.05, "steps": 185}
        assert summary["metadata"].get("burn_in") == (expected if name == "cli_mc" else None)
    capsys.readouterr()


def test_leimkuhler_matthews_is_no_scenario_scheme(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sde, "simulate", None)  # no work may start
    text = TINY_MC.replace("    seed 7\n", "    seed 7\n    scheme leimkuhler_matthews\n")
    scn = write_scn(tmp_path, text)
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert "sim scheme must be one of" in capsys.readouterr().err


def test_unstable_burn_in_step_ends_as_error_verdict(tmp_path, capsys, monkeypatch):
    # h (lin + 3 cub y^2) is about 3 in the bulk of the law at h = 5e-2, so
    # the explicit burn-in step blows up, and so does the Euler rerun at the
    # scenario's dt of 5e-2; the run reports it and goes on
    monkeypatch.setenv("KOLMOLAB_THREADS", "1")  # errstate holds per thread
    scn = write_scn(
        tmp_path,
        "scenario stiff\n  catalog cubic_dissipative\n  param cub 1000\n"
        "  sim\n    dt 5e-2\n    paths 256\n  end\n"
        "  experiment measure\n    times [1.0]\n    cloud 256\n  end\n"
        "  experiment audit\n  end\nend\n",
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code = cli.main(["run", str(scn), "--out", str(tmp_path / "o")])
    out, err = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in out + err
    summary = json.loads((tmp_path / "o" / "stiff" / "summary.json").read_text())
    verdicts = {e["name"]: (e["verdict"], e.get("error", "")) for e in summary["experiments"]}
    assert verdicts["measure"][0] == "error"
    assert verdicts["measure"][1].startswith("BlowUpError")
    assert verdicts["audit"] == ("pass", "")


def read_outputs(base):
    csvs = {p.name: p.read_bytes() for p in sorted(base.glob("*.csv"))}
    summary = json.loads((base / "summary.json").read_text())
    summary.pop("metadata")
    return csvs, summary


def test_seeded_runs_are_reproducible(tmp_path, capsys, monkeypatch):
    scn = write_scn(tmp_path, TINY_MC)
    runs = {}
    for tag in ("a", "b"):
        code = cli.main(
            ["run", str(scn), "--seed", "7", "--out", str(tmp_path / tag)]
        )
        assert code == 0
        runs[tag] = read_outputs(tmp_path / tag / "cli_mc")
    assert runs["a"] == runs["b"]

    # worker count must not leak into results
    monkeypatch.setenv("KOLMOLAB_THREADS", "2")
    code = cli.main(["run", str(scn), "--seed", "7", "--out", str(tmp_path / "c")])
    assert code == 0
    assert read_outputs(tmp_path / "c" / "cli_mc") == runs["a"]
    capsys.readouterr()


def test_rejects_positive_r0(tmp_path, capsys):
    scn = write_scn(
        tmp_path,
        "scenario bad\n  catalog ou_const\n"
        "  constants\n    r0 1.0\n  end\nend\n",
    )
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert "hypothesis (iv)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, line, message",
    [
        ("constants", "r0 nan", "constant r0 must be finite"),
        ("constants", "Lambda inf", "constant Lambda must be finite"),
        ("sim", "dt nan", "sim dt must be a positive real"),
    ],
    ids=["r0-nan", "Lambda-inf", "dt-nan"],
)
def test_rejects_non_finite_scenario_values(tmp_path, section, line, message, capsys):
    scn = write_scn(
        tmp_path,
        f"scenario bad\n  catalog ou_const\n  {section}\n    {line}\n  end\n"
        "  experiment measure\n  end\nend\n",
    )
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, message",
    [("--tol", "tol must be a positive real"), ("--dt", "sim dt must be a positive real")],
    ids=["tol", "dt"],
)
def test_rejects_non_finite_flags(flag, message, capsys):
    assert cli.main(["measure", "ou_const", flag, "nan"]) == 2
    assert message in capsys.readouterr().err


def test_rejects_unknown_target(capsys):
    assert cli.main(["run", "no_such_thing"]) == 2
    assert "neither a scenario file nor a catalog entry" in capsys.readouterr().err


def test_rejects_bad_thread_env(tmp_path, capsys, monkeypatch):
    scn = write_scn(tmp_path, TINY_OU)
    monkeypatch.setenv("KOLMOLAB_THREADS", "many")
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    assert "KOLMOLAB_THREADS" in capsys.readouterr().err


def test_overclaimed_rate_fails_audit(tmp_path, capsys):
    # declaring r0 = -2 for a drift that only contracts at rate 1 must
    # surface as a failing audit, not a crash
    scn = write_scn(
        tmp_path,
        "scenario overclaim\n  catalog ou_const\n"
        "  constants\n    r0 -2.0\n  end\n"
        "  experiment audit\n  end\nend\n",
    )
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "o")]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_kind_command_on_catalog_name(capsys):
    code = cli.main(
        ["poincare", "ou_const", "--set", "t=1.0", "--set", "p=[2.0]"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[poincare]" in out and "verdict: pass" in out
    assert "report:" not in out  # no out dir requested, nothing written


def test_kind_command_merges_set_into_declared(tmp_path, capsys):
    scn = write_scn(tmp_path, TINY_OU)
    code = cli.main(["poincare", str(scn), "--set", "p=[4.0]"])
    out = capsys.readouterr().out
    assert code == 0
    assert "p=4" in out and "[audit]" not in out


def test_bad_set_syntax(capsys):
    assert cli.main(["poincare", "ou_const", "--set", "oops"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, assignment",
    [
        ("poincare", "t=nan"),
        ("poincare", "t=inf"),
        ("poincare", "p=[0.5]"),
        ("lsi", "p=[1.0]"),
        ("hyper", "q=[1.0]"),
        ("hyper", "gaps=[nan]"),
        ("decay", "p=[2.0, nan]"),
        ("flow", "h=0"),
        ("invariance", "spans=[-0.5]"),
        ("hyper", "gaps=[-1]"),
        ("hyper", "curve_gaps=[-0.5]"),
        ("decay", "gaps_a=[-1]"),
        ("decay", "gaps_b=[-1]"),
        ("lsi", "n=abc"),
        ("lsi", "n=2.5"),
        ("hyper", "inner=0"),
        ("hyper", "outer=1.5"),
        ("invariance", "cloud=abc"),
        ("simulate", "paths=-1"),
        ("poincare", "pp=3"),
        ("measure", "t_grid=[1.0]"),
        ("measure", "radii=[1, 0]"),
        ("limit", "slack=-1"),
        ("limit", "tol_final=0"),
        ("poincare", 'p="'),
        ("measure", "export=maybe"),
    ],
)
def test_out_of_domain_values_are_configuration_errors(kind, assignment, capsys):
    start = time.monotonic()
    assert cli.main([kind, "ou_const", "--set", assignment]) == 2
    assert time.monotonic() - start < 10.0
    assert "configuration error" in capsys.readouterr().err


# ----------------------------------------------------------------------
# end-to-end fuzzing: generated tiny scenarios, valid or not, must end in a
# verdict or a configuration error, never a traceback or a hang
# ----------------------------------------------------------------------

# In-domain values per key, small enough that a valid run stays tiny.
_FUZZ_VALUES = {
    "t": ("1.0", "1.5"),
    "s": ("0.0", "0.5"),
    "times": ("[1.0]", "[0.5, 1.5]"),
    "spans": ("[0.5]", "[0.25, 1.0]"),
    "gaps": ("[0.25]", "[0.5, 1.0]"),
    "curve_gaps": ("[0.0, 0.25]",),
    "gaps_a": ("[0.5, 1.0]", "[1.0, 2.0]"),
    "gaps_b": ("[0.5, 1.0]", "[1.0, 2.0]"),
    "p": ("[2.0]", "[1.5, 4.0]"),
    "p_b": ("2.0",),
    "q": ("[1.5]", "[2.0]"),
    "r": ("[0.8]",),
    "h": ("0.05",),
    "n": ("1", "3"),
    "radii": ("[1.0, 2.0]",),
    "t_inf": ("20.0",),
    "tol_final": ("1e-3",),
    "slack": ("0.1",),
    "paths": ("16", "100"),
    "cloud": ("256",),
    "inner": ("8",),
    "outer": ("16",),
}
_BAD_VALUES = ("nan", "inf", "-1", "0", "2.5", "abc", "[]", "[-1]", "[nan]")
# The faults one generated scenario may carry; None is a valid scenario.
_FAULTS = (None, None, None, "dt", "paths", "seed", "kind", "key", "value")


@st.composite
def _tiny_scenarios(draw):
    fault = draw(st.sampled_from(_FAULTS))
    catalog = draw(st.sampled_from(["ou_const", "cubic_dissipative"]))
    kind = "general" if catalog == "cubic_dissipative" else draw(st.sampled_from(["ou", "general"]))
    dt = draw(st.sampled_from(["2e-3", "1e-2"]))
    paths = draw(st.sampled_from(["16", "200"]))
    seed = draw(st.integers(0, 2**63))
    if fault == "dt":
        dt = draw(st.sampled_from(["0.5", "0", "-1e-3", "nan", "inf"]))
    elif fault == "paths":
        paths = draw(st.sampled_from(["0", "-3", "1.5", "abc"]))
    elif fault == "seed":
        seed = draw(st.sampled_from([-1, 2**64, "nan"]))
    elif fault == "kind":
        kind = "ou" if catalog == "cubic_dissipative" else "bogus"
    lines = [
        "scenario fuzz", f"  catalog {catalog}", f"  kind {kind}",
        "  sim", f"    dt {dt}", f"    paths {paths}", f"    seed {seed}", "  end",
    ]
    kinds = draw(st.lists(st.sampled_from(EXPERIMENT_KINDS), min_size=1, max_size=3))
    for i, exp in enumerate(kinds):
        lines.append(f"  experiment {exp}")
        for key in _EXPERIMENT_KEYS[exp]:
            # the Monte Carlo sizes are always set, so that runs stay tiny
            if key in _FUZZ_VALUES and (key in ("cloud", "inner", "outer") or draw(st.booleans())):
                lines.append(f"    {key} {draw(st.sampled_from(_FUZZ_VALUES[key]))}")
        if i == 0 and fault == "key":
            lines.append(f"    {draw(st.sampled_from(['bogus', 'export2', 'P']))} 1")
        if i == 0 and fault == "value" and _EXPERIMENT_KEYS[exp]:
            key = draw(st.sampled_from([k for k in _EXPERIMENT_KEYS[exp] if k != "export"]))
            lines.append(f"    {key} {draw(st.sampled_from(_BAD_VALUES))}")
        lines.append("  end")
    lines.append("end")
    return "\n".join(lines) + "\n"


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=_tiny_scenarios())
def test_generated_scenarios_end_cleanly(text, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        scn = Path(tmp) / "fuzz.scn"
        scn.write_text(text)
        start = time.monotonic()
        code = cli.main(["run", str(scn), "--out", str(Path(tmp) / "out")])
        elapsed = time.monotonic() - start
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), text
    assert "Traceback" not in out + err, text
    assert elapsed < 10.0, text
