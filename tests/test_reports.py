"""Report oracle: seeded runs of small scenarios against golden files.

The golden files under ``tests/golden/<scenario>/`` are the reports of
``kolmolab run <scenario file> --seed 0`` at ``KOLMOLAB_THREADS=1``, for the
shipped OU scenarios and for ``tests/scenarios/mc_cubic.scn``, a small Monte
Carlo run of the cubic drift.  Every CSV must match byte for byte (exported
clouds included), ``summary.json`` must match once its run-specific
``metadata`` is dropped, and the exit code must follow the golden verdict.
A change that moves a number on purpose regenerates them with

    PYTHONPATH=src python tests/test_reports.py

and names each changed row.
"""

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from kolmolab import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SCENARIOS = {
    name: HERE.parent / "scenarios" / f"{name}.scn"
    for name in ("ou_standard", "ou_periodic", "ou_convergent")
}
SCENARIOS["mc_cubic"] = HERE / "scenarios" / "mc_cubic.scn"


def run_report(name, out):
    """(exit code, report directory) of the seeded run of ``name``."""
    code = cli.main(["run", str(SCENARIOS[name]), "--seed", "0", "--out", str(out)])
    return code, out / name


def summary_without_metadata(base):
    summary = json.loads((base / "summary.json").read_text())
    summary.pop("metadata")
    return summary


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KOLMOLAB_THREADS", "1")
    golden = GOLDEN / name
    expected = json.loads((golden / "summary.json").read_text())
    code, base = run_report(name, tmp_path)
    # mc_cubic's decay fails its rate check (an estimator defect, ROADMAP
    # item 2), so the exit code is read off the golden verdict
    assert code == (0 if expected["verdict"] == "pass" else 1)
    csvs = sorted(p.name for p in base.glob("*.csv"))
    assert csvs == sorted(p.name for p in golden.glob("*.csv"))
    for csv in csvs:
        got = (base / csv).read_bytes().split(b"\n")
        assert got == (golden / csv).read_bytes().split(b"\n"), csv
    assert summary_without_metadata(base) == expected


if __name__ == "__main__":
    os.environ["KOLMOLAB_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            _, base = run_report(name, Path(tmp))
            golden = GOLDEN / name
            shutil.rmtree(golden, ignore_errors=True)
            golden.mkdir(parents=True)
            for csv in base.glob("*.csv"):
                shutil.copyfile(csv, golden / csv.name)
            (golden / "summary.json").write_text(
                json.dumps(summary_without_metadata(base), indent=2) + "\n"
            )
