"""Report oracle: seeded runs of small scenarios against golden files.

The golden files under ``tests/golden/<scenario>/`` are the reports of
``kolmolab run <scenario file> --seed 0``, for the shipped OU scenarios, for
``tests/scenarios/ou_d2.scn``, a small analytic run in dimension 2, and for ``tests/scenarios/mc_cubic.scn``, a small Monte Carlo
run of the cubic drift.  Every CSV must match byte for byte (exported
clouds included), ``summary.json`` must match once its run-specific
``metadata`` is dropped, and the exit code must follow the golden verdict.
A change that moves a number on purpose regenerates them with

    PYTHONPATH=src python tests/test_reports.py

which prints every row it changes (file, op, old -> new value and
tolerance, |delta|/tolerance and verdict), so the change can name them.
"""

import json
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
for name in ("ou_d2", "mc_cubic"):
    SCENARIOS[name] = HERE / "scenarios" / f"{name}.scn"


def run_report(name, out):
    """(exit code, report directory) of the seeded run of ``name``."""
    code = cli.main(["run", str(SCENARIOS[name]), "--seed", "0", "--out", str(out)])
    return code, out / name


def summary_without_metadata(base):
    summary = json.loads((base / "summary.json").read_text())
    summary.pop("metadata")
    return summary


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name, tmp_path, capsys):
    golden = GOLDEN / name
    expected = json.loads((golden / "summary.json").read_text())
    code, base = run_report(name, tmp_path)
    # mc_cubic's decay rate check can fail on clipped norms (an estimator
    # defect, ROADMAP item 2), so the exit code is read off the golden verdict
    assert code == (0 if expected["verdict"] == "pass" else 1)
    csvs = sorted(p.name for p in base.glob("*.csv"))
    assert csvs == sorted(p.name for p in golden.glob("*.csv"))
    for csv in csvs:
        got = (base / csv).read_bytes().split(b"\n")
        assert got == (golden / csv).read_bytes().split(b"\n"), csv
    assert summary_without_metadata(base) == expected


def read_rows(path):
    """The rows of a report CSV as dicts, or [] when there is no such file.

    Ops such as ``poincare_ratio[plateau(1,2)]`` hold commas, so the fields
    are read from both ends: the scenario first, the last seven columns
    last, and the op is what lies between."""
    if not path.is_file():
        return []
    header, *lines = path.read_text().splitlines()
    columns = header.split(",")
    if "op" not in columns:  # an exported cloud: one point per row
        return [{"point": line} for line in lines]
    rows = []
    for line in lines:
        fields = line.split(",")
        tail = fields[len(fields) - len(columns) + 2 :]
        rows.append(
            {
                "op": ",".join(fields[1 : len(fields) - len(tail)]),
                **dict(zip(columns[2:], tail)),
            }
        )
    return rows


def describe_changes(label, old_rows, new_rows):
    """One line per row that differs between two versions of a report CSV
    (one line in all for a new file or an exported cloud)."""
    if not old_rows:
        return [f"{label}: new file, {len(new_rows)} rows"] if new_rows else []
    if "op" not in old_rows[0]:
        moved = sum(a != b for a, b in zip(old_rows, new_rows))
        moved += abs(len(old_rows) - len(new_rows))
        return [f"{label}: {moved} of {len(new_rows)} points changed"] if moved else []
    lines = []
    for k in range(max(len(old_rows), len(new_rows))):
        old = old_rows[k] if k < len(old_rows) else None
        new = new_rows[k] if k < len(new_rows) else None
        if old == new:
            continue
        row = new or old
        where = " ".join(f"{c}={row[c]}" for c in ("p", "q", "t", "s") if row[c])
        head = f"{label} row {k + 1}: {row['op']} {where}".rstrip()
        if old is None or new is None:
            lines.append(f"{head}: {'added' if old is None else 'removed'}")
            continue
        delta = abs(float(new["value"]) - float(old["value"]))
        tol = float(new["tolerance"])
        ratio = f"{delta / tol:.3g}" if tol > 0 else "n/a (tolerance 0)"
        verdict = new["verdict"]
        if old["verdict"] != verdict:
            verdict = f"{old['verdict']} -> {verdict}"
        lines.append(
            f"{head}: value {old['value']} -> {new['value']}, tolerance "
            f"{old['tolerance']} -> {new['tolerance']}, |delta|/tolerance "
            f"{ratio}, {verdict}"
        )
    return lines


if __name__ == "__main__":
    changes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in SCENARIOS:
            _, base = run_report(name, Path(tmp))
            golden = GOLDEN / name
            names = {p.name for p in base.glob("*.csv")}
            names |= {p.name for p in golden.glob("*.csv")}
            for csv_name in sorted(names):
                changes += describe_changes(
                    f"{name}/{csv_name}",
                    read_rows(golden / csv_name),
                    read_rows(base / csv_name),
                )
            shutil.rmtree(golden, ignore_errors=True)
            golden.mkdir(parents=True)
            for csv in base.glob("*.csv"):
                shutil.copyfile(csv, golden / csv.name)
            (golden / "summary.json").write_text(
                json.dumps(summary_without_metadata(base), indent=2) + "\n"
            )
    print("\n".join(changes) or "no report row changed")
