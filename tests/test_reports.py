"""Report oracle: seeded runs of the shipped OU scenarios against golden files.

The golden files under ``tests/golden/<scenario>/`` are the reports of
``kolmolab run scenarios/<scenario>.scn --seed 0`` at ``KOLMOLAB_THREADS=1``.
Every CSV must match byte for byte, and ``summary.json`` must match once its
run-specific ``metadata`` is dropped.  A change that moves a number on
purpose regenerates them with

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

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("ou_standard", "ou_periodic", "ou_convergent")


def run_report(name, out):
    scn = ROOT / "scenarios" / f"{name}.scn"
    assert cli.main(["run", str(scn), "--seed", "0", "--out", str(out)]) == 0
    return out / name


def summary_without_metadata(base):
    summary = json.loads((base / "summary.json").read_text())
    summary.pop("metadata")
    return summary


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("KOLMOLAB_THREADS", "1")
    base = run_report(name, tmp_path)
    golden = GOLDEN / name
    csvs = sorted(p.name for p in base.glob("*.csv"))
    assert csvs == sorted(p.name for p in golden.glob("*.csv"))
    for csv in csvs:
        got = (base / csv).read_bytes().split(b"\n")
        assert got == (golden / csv).read_bytes().split(b"\n"), csv
    assert summary_without_metadata(base) == json.loads(
        (golden / "summary.json").read_text()
    )


if __name__ == "__main__":
    os.environ["KOLMOLAB_THREADS"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            base = run_report(name, Path(tmp))
            golden = GOLDEN / name
            shutil.rmtree(golden, ignore_errors=True)
            golden.mkdir(parents=True)
            for csv in base.glob("*.csv"):
                shutil.copyfile(csv, golden / csv.name)
            (golden / "summary.json").write_text(
                json.dumps(summary_without_metadata(base), indent=2) + "\n"
            )
