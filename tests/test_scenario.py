"""Scenario file parsing, validation, and override layering."""

import argparse
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolmolab import cli, runner, sde
from kolmolab.errors import DomainError, ScenarioError
from kolmolab.scenario import (
    EXPERIMENT_KINDS,
    ExperimentDecl,
    Overrides,
    Scenario,
    apply_overrides,
    load_scenario,
    parse_scenario,
    validate_scenario,
)

GOOD = """\
scenario demo  # trailing comment
  catalog ou_const
  kind ou
  param load 0.5
  out "out/demo dir"
  tol 1e-7
  constants
    r0 -1.0
  end
  sim
    dt 1e-3
    paths 500
    seed 3
  end
  experiment lsi
    t 1.0
    p [1.5, 2.0, 4.0]
  end
  experiment lsi second
    t 2.0
  end
end
"""


def parse(text):
    return parse_scenario(textwrap.dedent(text))


def test_parse_round_trip():
    scn = parse(GOOD)
    assert scn.name == "demo"
    assert scn.catalog == "ou_const"
    assert scn.kind == "ou"
    assert scn.params == {"load": 0.5}
    assert scn.out_dir == "out/demo dir"
    assert scn.tol == 1e-7
    assert scn.constants == {"r0": -1.0}
    assert scn.sim == {"dt": 1e-3, "paths": 500, "seed": 3}
    assert [e.name for e in scn.experiments] == ["lsi", "second"]
    assert scn.experiments[0].params["p"] == [1.5, 2.0, 4.0]
    assert isinstance(scn.experiments[0].params["p"][0], float)
    assert scn.experiments[0].params["t"] == 1.0


def test_parse_array_commas_optional():
    scn = parse(
        """\
        scenario a
          catalog ou_const
          experiment measure
            times [0.5 1.0 2]
          end
        end
        """
    )
    assert scn.experiments[0].params["times"] == [0.5, 1.0, 2]


def err(text):
    with pytest.raises(ScenarioError) as ei:
        parse(text)
    return ei.value


def test_parse_error_positions():
    e = err('scenario a\n  out "broken\nend\n')
    assert e.line == 2
    assert "unterminated" in str(e)

    e = err("scenario a\n  experiment lsi\n    p [1.0, 2.0\n  end\nend\n")
    assert "unclosed array" in str(e) and e.line == 3

    e = err("scenario a\n  param x 1]\nend\n")
    assert "unmatched" in str(e) and e.column is not None

    e = err("scenario a\nend\nscenario b\nend\n")
    assert "content after the closing" in str(e) and e.line == 3

    e = err("scenario a\n  frobnicate 3\nend\n")
    assert "unknown directive" in str(e)

    e = err("")
    assert "empty scenario" in str(e)

    e = err("scenario a\n  sim\n    dt 1e-3\n")
    assert "unclosed section" in str(e)

    e = err("scenario a\n  end now\nend\n")
    assert "'end' takes no arguments" in str(e)

    e = err("scenario a\n  kind weird\nend\n")
    assert "kind must be" in str(e)


def test_parse_duplicate_experiment_names():
    e = err(
        "scenario a\n  experiment lsi x\n  end\n  experiment poincare x\n  end\nend\n"
    )
    assert "duplicate experiment name" in str(e)

    # unnamed repeats get numeric suffixes instead
    scn = parse(
        "scenario a\n  catalog ou_const\n"
        "  experiment lsi\n  end\n  experiment lsi\n  end\n"
        "  experiment lsi\n  end\nend\n"
    )
    assert [x.name for x in scn.experiments] == ["lsi", "lsi-2", "lsi-3"]


def test_parse_constants_and_sim_key_checks():
    e = err("scenario a\n  constants\n    gamma 2\n  end\nend\n")
    assert "unknown constant" in str(e)
    e = err("scenario a\n  sim\n    warp 9\n  end\nend\n")
    assert "unknown sim key" in str(e)
    e = err("scenario a\n  sim\n    dt [1, 2]\n  end\nend\n")
    assert "takes one value" in str(e)


def verr(text):
    scn = parse(text)
    with pytest.raises(ScenarioError) as ei:
        validate_scenario(scn)
    return ei.value


def test_validate_catalog_references():
    e = verr("scenario a\n  catalog nope\nend\n")
    assert "unknown catalog entry" in str(e)

    e = verr("scenario a\n  catalog ou_const\n  param bogus 3\nend\n")
    assert "unknown parameter(s)" in str(e) and "'rate'" in str(e)

    # validation only: an OU measure at dim 7 would build a 64^7-node rule
    for dim in ("2.5", "7", "0", "nan"):
        e = verr(f"scenario a\n  catalog ou_const\n  param dim {dim}\nend\n")
        assert "needs dim 1, 2 or 3" in str(e)

    # 0.5 * noise**2 overflows the double range
    e = verr("scenario a\n  catalog ou_const\n  param noise 1e200\nend\n")
    assert "bad parameters" in str(e)

    # noise 0 gives eta0 = 0: the builder's own DomainError is reported too
    e = verr("scenario a\n  catalog ou_const\n  param noise 0\nend\n")
    assert "bad parameters for catalog entry 'ou_const'" in str(e)
    assert "ellipticity" in str(e)

    # A(0) = sin(inf * 0) is nan: the measure's ODE solve would not return
    for freq in ("inf", "-inf", "nan"):
        e = verr(f"scenario a\n  catalog ou_periodic\n  param freq {freq}\nend\n")
        assert "needs finite freq" in str(e)


def test_validate_hypotheses():
    e = verr(
        "scenario a\n  catalog ou_const\n  constants\n    r0 1.0\n  end\nend\n"
    )
    assert "hypothesis (iv)" in str(e) and "r0 = +1" in str(e)

    e = verr(
        "scenario a\n  catalog ou_const\n  constants\n    eta0 2.0\n  end\nend\n"
    )
    assert "hypothesis (ii)" in str(e)


def test_validate_sim_block():
    e = verr("scenario a\n  catalog ou_const\n  sim\n    dt 0.9\n  end\nend\n")
    assert "too coarse" in str(e)
    e = verr("scenario a\n  catalog ou_const\n  sim\n    dt -1e-3\n  end\nend\n")
    assert "positive real" in str(e)
    e = verr('scenario a\n  catalog ou_const\n  sim\n    dt "1e-3"\n  end\nend\n')
    assert "sim dt must be a positive real" in str(e)
    e = verr("scenario a\n  catalog ou_const\n  sim\n    paths 0\n  end\nend\n")
    assert "positive integer" in str(e)
    e = verr("scenario a\n  catalog ou_const\n  sim\n    seed -1\n  end\nend\n")
    assert "non-negative" in str(e)
    e = verr("scenario a\n  catalog ou_const\n  sim\n    scheme rk4\n  end\nend\n")
    assert "scheme" in str(e)


def test_validate_experiments():
    e = verr("scenario a\n  catalog ou_const\n  experiment juggle\n  end\nend\n")
    assert "unknown experiment kind" in str(e)

    # ou_convergent starts at time 0: negative times are out of range
    e = verr(
        "scenario a\n  catalog ou_convergent\n"
        "  experiment measure\n    times [-1.0, 2.0]\n  end\nend\n"
    )
    assert "before the interval start" in str(e)

    e = verr(
        "scenario a\n  catalog cubic_dissipative\n  experiment limit\n  end\nend\n"
    )
    assert "linear-drift" in str(e)

    e = verr("scenario a\n  catalog cubic_dissipative\n  kind ou\nend\n")
    assert "no linear-drift closed form" in str(e)

    e = verr("scenario a\n  catalog ou_const\n  experiment lsi\n    pp 3\n  end\nend\n")
    assert "unknown key(s) ['pp']" in str(e)

    # export's spellings parse to a bool, and a declaration built in code
    # must hold one
    text = "scenario a\n  catalog ou_const\n  experiment measure\n    export {}\n  end\nend\n"
    flags = [parse(text.format(v)).experiments[0].params for v in ("OFF", "1", "Yes")]
    assert [p["export"] for p in flags] == [False, True, True]
    assert "export takes one of" in str(err(text.format("maybe")))
    exp = ExperimentDecl(kind="measure", name="measure", params={"export": "off"})
    scn = Scenario(name="a", catalog="ou_const", experiments=(exp,))
    with pytest.raises(ScenarioError, match="export must be a bool"):
        validate_scenario(scn)


def test_validate_returns_bundle():
    scn = parse("scenario a\n  catalog ou_periodic\n  kind ou\nend\n")
    checked, bundle, cfg = validate_scenario(scn)
    assert checked == scn
    assert bundle.name == "ou_periodic"
    assert bundle.model is not None
    assert cfg == sde.SimConfig()
    # the sim block's keys set the config's fields
    _, _, cfg = validate_scenario(parse(GOOD))
    assert cfg == sde.SimConfig(dt=1e-3, n_paths=500, seed=3)


def test_validate_fills_and_types_every_key():
    checked, _, _ = validate_scenario(parse(GOOD))
    sizes = {"cloud": 8192, "inner": 192, "outer": 2048}
    assert [e.params for e in checked.experiments] == [
        {"t": 1.0, "p": [1.5, 2.0, 4.0], "n": 50, **sizes},
        {"t": 2.0, "p": [1.5, 2.0, 4.0], "n": 50, **sizes},
    ]
    # the engine kind is resolved: ou where the entry has a closed form
    assert checked.kind == "ou"
    text = "scenario a\n  catalog {}\n  experiment {}\n{}  end\nend\n"
    checked, _, _ = validate_scenario(parse(text.format("cubic_dissipative", "decay", "")))
    assert checked.kind == "general"
    # run-dependent defaults: the start time, the engine's decay gaps
    decay = checked.experiments[0].params
    assert decay["s"] == 0.0 and decay["gaps_a"] == decay["gaps_b"] == [1.0, 2.0, 3.0]
    assert decay["p"] == [1.5, 2.0, 4.0] and decay["p_b"] == 2.0
    # ou_convergent's interval starts at 0, so its default start time is 1;
    # a lone number of a list key is a one-element list of floats, and
    # simulate's paths default to the sim block's
    checked, _, cfg = validate_scenario(
        parse(text.format("ou_convergent", "simulate", "    spans 2\n"))
    )
    simulate = checked.experiments[0].params
    assert simulate == {"s": 1.0, "spans": [2.0], "paths": cfg.n_paths}
    # measure's t is the one-value spelling of its times
    checked, _, _ = validate_scenario(parse(text.format("ou_const", "measure", "    t 5\n")))
    assert checked.experiments[0].params["times"] == [5.0]
    assert "t" not in checked.experiments[0].params
    e = verr(text.format("ou_const", "measure", "    t 5\n    times [1.0]\n"))
    assert "declare t or times, not both" in str(e)


def test_experiment_kinds_frozen():
    assert len(EXPERIMENT_KINDS) == 10
    assert set(EXPERIMENT_KINDS) >= {"audit", "lsi", "hyper", "decay", "limit"}


def test_each_kind_has_one_runner_and_one_subcommand():
    assert len(set(EXPERIMENT_KINDS)) == len(EXPERIMENT_KINDS)
    assert sorted(runner._RUNNERS) == sorted(EXPERIMENT_KINDS)
    (sub,) = [
        a for a in cli._build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    assert sorted(sub.choices) == sorted((*EXPERIMENT_KINDS, "run", "list-catalog"))


def test_apply_overrides_layering():
    scn = parse(GOOD)
    out = apply_overrides(
        scn, Overrides(seed=42, paths=99, dt=5e-4, out="elsewhere", tol=1e-5)
    )
    assert out.sim == {"dt": 5e-4, "paths": 99, "seed": 42}
    assert out.out_dir == "elsewhere" and out.tol == 1e-5
    # untouched fields survive, and None overrides change nothing
    assert out.catalog == scn.catalog
    same = apply_overrides(scn, Overrides())
    assert same.sim == scn.sim and same.out_dir == scn.out_dir


def test_shipped_scenarios_validate():
    import glob

    files = sorted(glob.glob("scenarios/*.scn"))
    assert len(files) >= 5
    for path in files:
        scn = load_scenario(path)
        validate_scenario(scn)
        assert scn.experiments, path


# ----------------------------------------------------------------------
# fuzzing: malformed input fails only as a configuration error
# ----------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
# the shipped scenarios and the report oracles (ou_d2 declares param dim 2)
SHIPPED_TEXTS = [
    p.read_text()
    for pattern in ("scenarios/*.scn", "tests/scenarios/*.scn")
    for p in sorted(ROOT.glob(pattern))
]

# tokens that probe the grammar and the value checks
ODD_TOKENS = [
    "nan", "inf", "-inf", "-1", "0", "2.5", "7", "1e308", "-1e308", "1e-308",
    "[", "]", "[]", '"', '""', "#", "[nan, 1]", "[1 -2]", '"x y"',
    "end", "experiment", "sim", "constants", "param", "scenario", "kind",
    "dim", "noise", "rate", "dt", "seed", "scheme", "r0", "eta0",
    "cloud", "inner", "n", "p", "q", "h", "spans", "gaps", "radii", "slack",
    "tol_final", "t_inf", "times", "export", "pp", "s", "t", "p_b", "[1, 2]",
]
TOKENS = st.one_of(st.sampled_from(ODD_TOKENS), st.text(max_size=6))


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one to four lines deleted, duplicated,
    inserted or changed in one token."""
    lines = draw(st.sampled_from(SHIPPED_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(("token", "insert", "delete", "duplicate")))
        if op == "insert":
            lines.insert(i, " ".join(draw(st.lists(TOKENS, min_size=1, max_size=3))))
        elif i < len(lines) and op == "delete":
            del lines[i]
        elif i < len(lines) and op == "duplicate":
            lines.insert(i, lines[i])
        elif i < len(lines) and lines[i].split():
            words = lines[i].split()
            words[draw(st.integers(0, len(words) - 1))] = draw(TOKENS)
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
def test_fuzzed_scenarios_fail_only_as_configuration_errors(text):
    try:
        validate_scenario(parse_scenario(text))
    except (ScenarioError, DomainError):
        pass


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(EXPERIMENT_KINDS),
    TOKENS,
    st.lists(TOKENS, max_size=3).map(" ".join),
)
def test_fuzzed_set_assignments_fail_only_as_configuration_errors(kind, key, raw):
    def checked(params):
        exp = ExperimentDecl(kind=kind, name=kind, params=params)
        scn = Scenario(name="fuzz", catalog="ou_const", experiments=(exp,))
        return validate_scenario(scn)[0].experiments[0].params

    try:
        key, value = cli._parse_assignment(f"{key}={raw}")
        params = checked({key: value})
    except (ScenarioError, DomainError):
        return
    # a value that passes has its key's declared shape, the default's: a
    # list of floats, a float, an int count or a bool
    defaults = checked({})
    assert params.keys() == defaults.keys()
    for k, v in params.items():
        assert type(v) is type(defaults[k]), (k, v)
        if isinstance(v, list):
            assert v and all(type(x) is float for x in v), (k, v)
