"""The package root and the README's library example."""

import pathlib
import re

import kolmolab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

SUBMODULES = (
    "catalog", "engines", "functions", "ineq", "measures", "model", "ou",
    "runner", "scenario", "sde",
)


def test_root_exposes_the_submodules_and_version():
    for name in SUBMODULES:
        assert getattr(kolmolab, name).__name__ == f"kolmolab.{name}"
    assert isinstance(kolmolab.__version__, str) and kolmolab.__version__
    assert kolmolab.simulate is kolmolab.sde.simulate


def test_readme_library_example_runs_as_written(capsys):
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()
