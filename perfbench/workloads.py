"""The benchmark's four workloads, each built from a seed.

A workload is a list of scenarios run back to back.  The seed reaches the
program only as the scenario's ``sim seed``: shipped scenarios get it as an
override, generated ones carry it in their text.  Why each workload was
chosen is in ``perfbench/README.md``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# Data rows over all experiment CSVs of one pass (header lines excluded).
# Row counts do not depend on the seed; a different count means an
# experiment dropped or gained cases.
PINNED_ROWS = {
    "mc_cubic": {"cubic": 23},
    "mc_nested": {"mc_nested": 5},
    "ou_quad_d2": {"ou_quad_d2": 66},
    "ou_shipped": {"ou_standard": 74, "ou_periodic": 60, "ou_convergent": 42},
}

NAMES = tuple(PINNED_ROWS)

# Nested Monte Carlo on the cubic drift.  Only `hyper` runs: `decay` on this
# drift fails its own rate check today and takes about 100 s.
_MC_NESTED = """\
scenario mc_nested
catalog cubic_dissipative
kind general

constants
    eta0    1.0
    Lambda  1.0
    r0      -1.0
end

sim
    dt      2e-3
    paths   20000
    seed    {seed}
end

experiment hyper
    s           0.0
    q           [1.5, 2.0]
    gaps        [0.25, 0.5]
    n           4
    curve_gaps  [0.0, 0.25, 0.5]
end

end
"""

# The experiment list of scenarios/ou_periodic.scn without `simulate`, in
# dimension 2, plus `poincare`: Gauss-Hermite at 64^2 nodes per point.
_OU_QUAD_D2 = """\
scenario ou_quad_d2
catalog ou_periodic
kind ou
param dim 2

constants
    eta0    1.0
    Lambda  1.0
    r0      -1.0
end

sim
    dt      1e-3
    paths   20000
    seed    {seed}
end

experiment audit
end

experiment measure
    times   [0.0, 1.5, 3.0]
end

experiment invariance
    s       0.25
    spans   [0.5, 1.0, 2.0]
    n       6
end

experiment flow
    r       [0.8]
    n       3
end

experiment lsi
    t       1.5
    p       [1.5, 2.0, 4.0]
    n       20
end

experiment hyper
    s       0.5
    q       [1.5, 2.0]
    gaps    [0.25, 0.5, 1.0]
    n       12
end

experiment decay
    s       0.0
    p       [2.0]
end

experiment poincare
    t       1.5
    p       [2.0, 4.0]
end

end
"""

_GENERATED = {"mc_nested": _MC_NESTED, "ou_quad_d2": _OU_QUAD_D2}
_SHIPPED = {
    "mc_cubic": ("cubic.scn",),
    "ou_shipped": ("ou_standard.scn", "ou_periodic.scn", "ou_convergent.scn"),
}

# Experiment kinds left out of a shipped scenario because they fail at some
# seeds today.  cubic.scn's `poincare` ends in ConstantFunctionError when a
# test bump holds no point of the 8192-point cloud (seeds 4, 5, 6, 14, 15,
# 32 and 34 of 0-39).
_LEFT_OUT = {"mc_cubic": ("poincare",)}


def build(name, seed, out_dir):
    """The workload's scenarios, parsed (not yet validated), writing to out_dir."""
    from kolmolab import scenario

    over = scenario.Overrides(seed=seed, out=str(out_dir))
    if name in _GENERATED:
        text = _GENERATED[name].format(seed=seed)
        scns = [scenario.parse_scenario(text, source=f"<{name}>")]
    else:
        scns = [scenario.load_scenario(SCENARIO_DIR / f) for f in _SHIPPED[name]]
        left_out = _LEFT_OUT.get(name, ())
        scns = [
            replace(s, experiments=tuple(e for e in s.experiments if e.kind not in left_out))
            for s in scns
        ]
    return [scenario.apply_overrides(s, over) for s in scns]
