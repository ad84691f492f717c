"""Line-oriented scenario files: parsing and validation.

A scenario file declares one experiment plan over one coefficient family.
The format is plain text, one directive per line, with nested sections
closed by ``end``; it diffs cleanly and round-trips through editors.  The
complete grammar (also documented in the README):

    scenario <name>
      catalog <entry>             # required: a built-in coefficient family
      kind ou | general           # optional: force the evaluation engine
      param <key> <value>         # repeatable: catalog entry parameters
      out <dir>                   # optional output directory
      tol <real>                  # optional accuracy target (default 1e-8)
      constants                   # optional overrides of declared constants
        eta0 <real>
        Lambda <real>
        r0 <real>
      end
      sim                         # optional simulation configuration
        dt <real>
        paths <int>
        seed <int>
        scheme euler | semi_implicit_drift
      end
      experiment <kind> [<name>]  # repeatable; executed in declared order
        <key> <value>             # parameters: the keys its kind reads
      end
    end

Values are integers (``42``), reals (``1e-3``), bare or double-quoted
strings, or arrays in brackets (``[0.5, 1, 4]``; commas optional).  A ``#``
starts a comment anywhere outside quotes.  Parse and validation failures
raise :class:`ScenarioError` carrying the offending line and column.

Validation rejects every invalid input before any work starts.  Each rule
has one owner: :class:`~kolmolab.sde.SimConfig` checks the sim block and
:class:`~kolmolab.model.ProblemSpec` hypothesis (ii); this module adds what
only a scenario needs (r0 < 0, no Leimkuhler-Matthews scheme) and the
experiment keys: ``_EXPERIMENT_KEYS`` declares each kind's keys and their
defaults, ``_RULES`` each key's rule, and :func:`validate_scenario` hands
the runners every key filled in, checked and typed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from . import catalog, sde
from .engines import AnalyticOUEngine, MonteCarloEngine
from .errors import DomainError, ScenarioError
from .measures import FLOW_STEP

__all__ = [
    "ExperimentDecl",
    "Scenario",
    "Overrides",
    "parse_scenario",
    "load_scenario",
    "validate_scenario",
    "apply_overrides",
    "EXPERIMENT_KINDS",
]

# Each experiment kind's keys and their defaults.  A list default makes a
# list key, which reads a lone number as a one-element list.  A default that
# depends on the run is a function of it: ``run.s0`` is the default start
# time (1 after the interval start, 0 on the whole line), ``run.cfg`` the sim
# config and ``run.engine`` the engine class.  Every kind that evaluates on
# an engine also reads the Monte Carlo engine sizes, smaller for the nested
# hyper and decay.
_MC = {"cloud": 8192, "inner": 192, "outer": 2048}
_MC_NESTED = {"cloud": 4096, "inner": 96, "outer": 1024}
_S0 = attrgetter("s0")
_EXPERIMENT_KEYS = {
    "audit": {},
    "simulate": {"s": _S0, "spans": [0.5, 1.0], "paths": lambda run: run.cfg.n_paths},
    "measure": {
        "times": lambda run: [run.s0 + 2.0], "radii": [1.0, 2.0, 4.0, 8.0],
        "export": True, **_MC,
    },
    "invariance": {"s": _S0, "spans": [0.5, 1.0, 2.0], "n": 10, **_MC, "cloud": 16384},
    "flow": {
        "r": lambda run: [run.s0 + 1.0], "h": FLOW_STEP, "n": 5, **_MC, "cloud": 16384
    },
    "lsi": {"t": lambda run: run.s0 + 2.0, "p": [1.5, 2.0, 4.0], "n": 50, **_MC},
    "poincare": {"t": lambda run: run.s0 + 2.0, "p": [2.0, 4.0, 6.0], **_MC},
    "hyper": {
        "s": _S0, "q": [1.5, 2.0], "gaps": [0.25, 0.5, 1.0, 2.0], "n": 20,
        "curve_gaps": [0.0, 0.25, 0.5, 1.0, 2.0, 3.0], **_MC_NESTED,
    },
    "decay": {
        "s": _S0, "p": [1.5, 2.0, 4.0],
        "gaps_a": lambda run: list(run.engine.decay_gaps_a),
        "gaps_b": lambda run: list(run.engine.decay_gaps_b),
        "p_b": 2.0, **_MC_NESTED,
    },
    "limit": {
        "times": [1.0, 2.0, 4.0, 8.0, 16.0], "t_inf": 50.0, "tol_final": 1e-3,
        "slack": 1e-5, **_MC,
    },
}
EXPERIMENT_KINDS = tuple(_EXPERIMENT_KEYS)


class _Rule(NamedTuple):
    """Each value x of a key passes ``test(x)`` (a time, with no test, lies
    after the interval start), else ``fails`` says why; ``cast`` is its type,
    and a float key's values must be finite numbers."""

    test: Optional[Callable]
    fails: str
    cast: type = float


_TIME = _Rule(
    None, "time {x} lies at or before the interval start {start} of scenario {scn!r}"
)
_POSITIVE = _Rule(lambda x: x > 0, "{key} must be positive, got {x!r}")
_NON_NEGATIVE = _Rule(lambda x: x >= 0, "{key} must be non-negative, got {x!r}")
_FINITE = _Rule(math.isfinite, "")
_COUNT = _Rule(
    lambda x: isinstance(x, int) and x >= 1,
    "{key} must be a positive integer, got {x!r}",
    int,
)
_EXPONENT = _Rule(lambda x: x >= 1, "{kind} needs finite {key} >= 1, got {x!r}")
_EXPONENT_ABOVE_1 = _Rule(lambda x: x > 1, "{kind} needs finite {key} > 1, got {x!r}")
_BOOL = _Rule(lambda x: isinstance(x, bool), "{key} must be a bool", bool)

# Each key's rule; a (kind, key) entry overrides the key's rule for one kind.
# Zero gaps are legal, since the default curve_gaps start at 0; t_inf is any
# finite time.
_RULES = {
    **dict.fromkeys(("s", "t", "r", "times"), _TIME),
    **dict.fromkeys(("spans", "h", "radii", "tol_final"), _POSITIVE),
    **dict.fromkeys(("gaps", "curve_gaps", "gaps_a", "gaps_b", "slack"), _NON_NEGATIVE),
    **dict.fromkeys(("n", "paths", "cloud", "inner", "outer"), _COUNT),
    **dict.fromkeys(("p", "p_b"), _EXPONENT),
    "q": _EXPONENT_ABOVE_1, ("lsi", "p"): _EXPONENT_ABOVE_1,
    "t_inf": _FINITE, "export": _BOOL,
}

# The spellings of export, matched case-insensitively, and their bools.
_FLAGS = dict.fromkeys(("1", "true", "yes", "on"), True)
_FLAGS.update(dict.fromkeys(("0", "false", "no", "off"), False))

_CONSTANT_KEYS = ("eta0", "Lambda", "r0")
# The sim keys and the SimConfig fields they set.
_SIM_FIELDS = {"dt": "dt", "paths": "n_paths", "seed": "seed", "scheme": "scheme"}


@dataclass(frozen=True)
class ExperimentDecl:
    kind: str
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Scenario:
    name: str
    catalog: str
    kind: Optional[str] = None
    params: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    experiments: tuple = ()
    out_dir: Optional[str] = None
    tol: float = 1e-8
    source: str = "<string>"


@dataclass(frozen=True)
class Overrides:
    """Command-line overrides layered on top of a parsed scenario."""

    seed: Optional[int] = None
    paths: Optional[int] = None
    dt: Optional[float] = None
    out: Optional[str] = None
    tol: Optional[float] = None


def _err(msg, line=None, column=None):
    raise ScenarioError(msg, line=line, column=column)


class _Token:
    __slots__ = ("text", "column", "quoted", "array")

    def __init__(self, text, column, quoted=False, array=False):
        self.text = text
        self.column = column
        self.quoted = quoted
        self.array = array


def _strip_comment(line, lineno):
    out = []
    in_quote = False
    for i, ch in enumerate(line):
        if ch == '"':
            in_quote = not in_quote
        elif ch == "#" and not in_quote:
            break
        out.append(ch)
    if in_quote:
        _err("unterminated string", line=lineno, column=len(line))
    return "".join(out)


def _tokenize(line, lineno):
    tokens = []
    i, n = 0, len(line)
    while i < n:
        ch = line[i]
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if ch == '"':
            j = line.find('"', i + 1)
            if j < 0:
                _err("unterminated string", line=lineno, column=col)
            tokens.append(_Token(line[i + 1 : j], col, quoted=True))
            i = j + 1
        elif ch == "[":
            j = line.find("]", i + 1)
            if j < 0:
                _err("unclosed array bracket", line=lineno, column=col)
            tokens.append(_Token(line[i + 1 : j], col, array=True))
            i = j + 1
        elif ch == "]":
            _err("unmatched ']'", line=lineno, column=col)
        else:
            j = i
            while j < n and not line[j].isspace() and line[j] not in '"[]':
                j += 1
            tokens.append(_Token(line[i:j], col))
            i = j
    return tokens


def _scalar(text):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _value(tokens, lineno):
    """Parse the value tokens of a directive (everything after the key)."""
    if len(tokens) == 1:
        tok = tokens[0]
        if tok.array:
            items = tok.text.replace(",", " ").split()
            return [_scalar(s) for s in items]
        if tok.quoted:
            return tok.text
        return _scalar(tok.text)
    if any(t.array or t.quoted for t in tokens):
        _err(
            "mixed value forms on one line; use a single array or string",
            line=lineno,
            column=tokens[0].column,
        )
    return [_scalar(t.text) for t in tokens]


def _param_value(key, tokens, lineno):
    """The value of experiment key ``key``; export's spelling becomes a bool."""
    value = _value(tokens, lineno)
    if key == "export":
        value = _FLAGS.get(str(value).lower())
        if value is None:
            _err(f"export takes one of {list(_FLAGS)}", lineno, tokens[0].column)
    return value


def parse_scenario(text, source="<string>"):
    """Parse scenario text into a :class:`Scenario` (validation separate)."""
    name = None
    cat = None
    kind = None
    params = {}
    constants = {}
    sim = {}
    experiments = []
    out_dir = None
    tol = 1e-8
    seen_names = set()

    stack = []  # section names: "scenario", "constants", "sim", "experiment"
    current_exp = None
    closed = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw, lineno)
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        key = tokens[0]
        rest = tokens[1:]

        if not stack:
            if closed:
                _err(
                    "content after the closing 'end' (one scenario per file)",
                    line=lineno,
                    column=key.column,
                )
            if key.text != "scenario":
                _err(
                    f"expected 'scenario <name>', got {key.text!r}",
                    line=lineno,
                    column=key.column,
                )
            if len(rest) != 1 or rest[0].array:
                _err("scenario takes exactly one name", line=lineno, column=key.column)
            name = rest[0].text
            stack.append("scenario")
            continue

        top = stack[-1]

        if key.text == "end":
            if rest:
                _err("'end' takes no arguments", line=lineno, column=rest[0].column)
            if top == "experiment":
                experiments.append(current_exp)
                current_exp = None
            stack.pop()
            if not stack:
                closed = True
            continue

        if top == "scenario":
            if key.text == "catalog":
                if len(rest) != 1:
                    _err("catalog takes one entry name", line=lineno, column=key.column)
                cat = rest[0].text
            elif key.text == "kind":
                if len(rest) != 1 or rest[0].text not in ("ou", "general"):
                    _err(
                        "kind must be 'ou' or 'general'",
                        line=lineno,
                        column=key.column,
                    )
                kind = rest[0].text
            elif key.text == "param":
                if len(rest) < 2:
                    _err("param takes a key and a value", line=lineno, column=key.column)
                params[rest[0].text] = _value(rest[1:], lineno)
            elif key.text == "out":
                if len(rest) != 1:
                    _err("out takes one directory", line=lineno, column=key.column)
                out_dir = rest[0].text
            elif key.text == "tol":
                v = _value(rest, lineno) if rest else None
                if not isinstance(v, (int, float)):
                    _err("tol takes one real", line=lineno, column=key.column)
                tol = float(v)
            elif key.text == "constants":
                if rest:
                    _err("constants opens a section", line=lineno, column=rest[0].column)
                stack.append("constants")
            elif key.text == "sim":
                if rest:
                    _err("sim opens a section", line=lineno, column=rest[0].column)
                stack.append("sim")
            elif key.text == "experiment":
                if not rest or len(rest) > 2:
                    _err(
                        "experiment takes a kind and an optional name",
                        line=lineno,
                        column=key.column,
                    )
                ekind = rest[0].text
                ename = rest[1].text if len(rest) == 2 else ekind
                if ename in seen_names:
                    k = 2
                    while f"{ename}-{k}" in seen_names:
                        k += 1
                    if len(rest) == 2:
                        _err(
                            f"duplicate experiment name {ename!r}",
                            line=lineno,
                            column=rest[1].column,
                        )
                    ename = f"{ename}-{k}"
                seen_names.add(ename)
                current_exp = ExperimentDecl(kind=ekind, name=ename, params={})
                stack.append("experiment")
            else:
                _err(
                    f"unknown directive {key.text!r} in scenario section",
                    line=lineno,
                    column=key.column,
                )
            continue

        if top == "constants":
            if key.text not in _CONSTANT_KEYS:
                _err(
                    f"unknown constant {key.text!r}; valid: {list(_CONSTANT_KEYS)}",
                    line=lineno,
                    column=key.column,
                )
            v = _value(rest, lineno) if rest else None
            if not isinstance(v, (int, float)):
                _err(f"{key.text} takes one real", line=lineno, column=key.column)
            constants[key.text] = float(v)
            continue

        if top == "sim":
            if key.text not in _SIM_FIELDS:
                _err(
                    f"unknown sim key {key.text!r}; valid: {list(_SIM_FIELDS)}",
                    line=lineno,
                    column=key.column,
                )
            v = _value(rest, lineno) if rest else None
            if v is None or isinstance(v, list):
                _err(f"{key.text} takes one value", line=lineno, column=key.column)
            sim[key.text] = v
            continue

        if top == "experiment":
            if not rest:
                _err(
                    f"experiment key {key.text!r} needs a value",
                    line=lineno,
                    column=key.column,
                )
            current_exp.params[key.text] = _param_value(key.text, rest, lineno)
            continue

    if name is None:
        _err("empty scenario file", line=1, column=1)
    if stack:
        _err(f"unclosed section {stack[-1]!r}", line=lineno, column=1)
    return Scenario(
        name=name,
        catalog=cat,
        kind=kind,
        params=params,
        constants=constants,
        sim=sim,
        experiments=tuple(experiments),
        out_dir=out_dir,
        tol=tol,
        source=source,
    )


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, source=str(path))


def apply_overrides(scn, overrides):
    """Layer CLI overrides on a scenario; returns a new Scenario."""
    sim = dict(scn.sim)
    if overrides.seed is not None:
        sim["seed"] = overrides.seed
    if overrides.paths is not None:
        sim["paths"] = overrides.paths
    if overrides.dt is not None:
        sim["dt"] = overrides.dt
    return replace(
        scn,
        sim=sim,
        out_dir=overrides.out if overrides.out is not None else scn.out_dir,
        tol=overrides.tol if overrides.tol is not None else scn.tol,
    )


def _checked(exp, key, value, default, run):
    """``value`` of ``key`` in its declared shape -- a list if the key's
    default is one, else one value -- with every value passing its rule."""
    rule = _RULES.get((exp.kind, key), _RULES[key])
    many = isinstance(default, list)
    if isinstance(value, list) and not many:
        _err(f"experiment {exp.name!r}: {key} takes one value, got {value!r}")
    values = value if isinstance(value, list) else [value]
    if not values:
        _err(f"experiment {exp.name!r}: {key} must not be empty")
    for x in values:
        if rule.cast is float:
            if not isinstance(x, (int, float)):
                _err(f"experiment {exp.name!r}: {key} must be numeric")
            if not math.isfinite(x):
                _err(f"experiment {exp.name!r}: {key} must be finite, got {x}")
        if not (rule.test(x) if rule.test else x > run.start):
            fails = rule.fails.format(key=key, x=x, kind=exp.kind, **vars(run))
            _err(f"experiment {exp.name!r}: {fails}")
    values = [rule.cast(x) for x in values]
    return values if many else values[0]


def _checked_params(exp, run):
    """Every key of ``exp``'s kind, declared or default, checked and typed."""
    keys = _EXPERIMENT_KEYS[exp.kind]
    # measure's t is the one-value spelling of its times: t 3 is times [3]
    valid = [*keys, "t"] if exp.kind == "measure" else list(keys)
    unknown = sorted(set(exp.params) - set(valid))
    if unknown:
        _err(
            f"experiment {exp.name!r}: unknown key(s) {unknown} for kind "
            f"{exp.kind!r}; valid: {valid}"
        )
    declared = dict(exp.params)
    if exp.kind == "measure" and "t" in declared:
        if "times" in declared:
            _err(f"experiment {exp.name!r}: declare t or times, not both")
        declared["times"] = [_checked(exp, "t", declared.pop("t"), 0.0, run)]
    params = {}
    for key, default in keys.items():
        default = default(run) if callable(default) else default
        params[key] = _checked(exp, key, declared.get(key, default), default, run)

    # the rules that span keys: flow's central difference needs mu at r - h;
    # each decay fit needs two distinct gaps, and the gradient side's start
    # at 1 (the short-time scale is governed by the smoothing estimate, not
    # the decay rate)
    for r in params["r"] if exp.kind == "flow" else []:
        if r - params["h"] <= run.start:
            _err(
                f"experiment {exp.name!r}: r - h {r - params['h']} lies at or "
                f"before the interval start {run.start} of scenario {run.scn!r}"
            )
    for key in ("gaps_a", "gaps_b") if exp.kind == "decay" else ():
        if len(set(params[key])) < 2:
            _err(
                f"experiment {exp.name!r}: {key} needs two distinct gaps to fit a rate"
            )
    low = [x for x in params.get("gaps_b", []) if x < 1]
    if low:
        _err(f"experiment {exp.name!r}: gaps_b must be at least 1, got {low[0]!r}")
    return params


def validate_scenario(scn):
    """Check catalog references, constants, the sim block and experiment
    declarations; returns ``(scn, bundle, cfg)``: the scenario with its engine
    kind resolved and every experiment key filled in, checked and typed, the
    :class:`~kolmolab.catalog.ScenarioBundle` with the declared constants and
    the run's :class:`~kolmolab.sde.SimConfig`."""
    if scn.catalog is None:
        _err(f"scenario {scn.name!r} declares no catalog entry")
    if scn.catalog not in catalog.names():
        _err(
            f"unknown catalog entry {scn.catalog!r}; "
            f"available: {catalog.names()}"
        )
    try:
        bundle = catalog.get(scn.catalog, **scn.params)
    except ScenarioError:
        raise
    except (TypeError, ValueError, ArithmeticError, DomainError) as exc:
        _err(f"bad parameters for catalog entry {scn.catalog!r}: {exc}")

    if scn.kind == "ou" and bundle.model is None:
        _err(
            f"scenario {scn.name!r} requests kind 'ou' but catalog entry "
            f"{scn.catalog!r} has no linear-drift closed form"
        )
    kind = scn.kind or ("general" if bundle.model is None else "ou")

    # ProblemSpec holds 0 < eta0 <= Lambda; it accepts r0 >= 0 by design
    for key, val in scn.constants.items():
        if not math.isfinite(val):
            _err(f"constant {key} must be finite, got {val}")
    r0 = scn.constants.get("r0", bundle.spec.r0)
    if r0 >= 0:
        _err(
            f"r0 = {r0:+g} violates hypothesis (iv): the "
            "dissipativity constant r0 must be strictly negative"
        )
    if scn.constants:
        try:
            bundle = replace(bundle, spec=replace(bundle.spec, **scn.constants))
        except DomainError as exc:
            _err(f"hypothesis (ii): {exc}")

    # the Leimkuhler-Matthews step is for burn-ins, not for a scenario
    scheme = scn.sim.get("scheme", "euler")
    if scheme not in sde._SCHEMES:
        _err(f"sim scheme must be one of {list(sde._SCHEMES)}, got {scheme!r}")
    try:
        cfg = sde.SimConfig(**{_SIM_FIELDS[k]: v for k, v in scn.sim.items()})
        cfg.check_against(bundle.spec)
    except DomainError as exc:
        _err(f"sim {exc}")

    if not 0 < scn.tol < math.inf:
        _err("tol must be a positive real")

    start = bundle.spec.interval_start
    run = SimpleNamespace(
        scn=scn.name,
        start=start,
        s0=0.0 if math.isinf(start) else start + 1.0,
        cfg=cfg,
        engine=AnalyticOUEngine if kind == "ou" else MonteCarloEngine,
    )
    experiments = []
    for exp in scn.experiments:
        if exp.kind not in EXPERIMENT_KINDS:
            _err(
                f"unknown experiment kind {exp.kind!r}; "
                f"valid: {list(EXPERIMENT_KINDS)}"
            )
        experiments.append(replace(exp, params=_checked_params(exp, run)))
        if exp.kind == "limit" and bundle.model is None:
            _err(
                f"experiment {exp.name!r}: the asymptotic-limit check needs "
                "a linear-drift (ou) catalog entry"
            )
    return replace(scn, kind=kind, experiments=tuple(experiments)), bundle, cfg
