"""Smoke test of the benchmark's tracer (``perfbench/spans.py``) on tiny runs.

The tracer finds what it times by name -- ``evolution_measure(model, t,
tol)``, ``ou_apply_G(..., order)``, ``ou._solve_matrix_ode`` and
``AnalyticOUEngine._measures`` among others -- so a rename in the package
would silently zero its counters.  One tiny analytic run and one tiny Monte
Carlo run under the tracer must count work in every span the benchmark's
OU metrics are read from.
"""

import importlib.util
from pathlib import Path

import pytest

from kolmolab import runner
from kolmolab.scenario import parse_scenario

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

TINY_OU = """\
scenario tracer_ou
  catalog ou_const
  kind ou
  experiment measure
    times [1.0]
    export false
  end
  experiment invariance
    s 0.0
    spans [0.5]
    n 2
  end
end
"""

TINY_MC = """\
scenario tracer_mc
  catalog cubic_dissipative
  kind general
  sim
    dt 5e-2
    paths 256
    seed 5
  end
  experiment measure
    times [1.0]
    cloud 256
    export false
  end
end
"""


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_the_ou_spans(spans):
    tracer = spans.Tracer().install()
    try:
        for text in (TINY_OU, TINY_MC):
            runner.run_scenario(parse_scenario(text))
    finally:
        tracer.uninstall()
    totals = spans.derive(tracer.totals())
    for key in (
        "ou.evolution_measure.calls",
        "ou.ode_solve.calls",
        "ou.ou_apply_G.nodes",
        "engines.ou.measure.calls",
        "sde.path_steps",
    ):
        assert totals.get(key, 0) > 0, key
