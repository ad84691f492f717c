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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from . import catalog, sde
from .errors import ScenarioError

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

# The keys each experiment kind reads; validation rejects any other.  Every
# kind that evaluates on an engine also reads the Monte Carlo engine sizes.
_ENGINE_KEYS = ("cloud", "inner", "outer")
_EXPERIMENT_KEYS = {
    "audit": (),
    "simulate": ("s", "spans", "paths"),
    "measure": ("times", "t", "radii", "export", *_ENGINE_KEYS),
    "invariance": ("s", "spans", "n", *_ENGINE_KEYS),
    "flow": ("r", "h", "n", *_ENGINE_KEYS),
    "lsi": ("t", "p", "n", *_ENGINE_KEYS),
    "poincare": ("t", "p", *_ENGINE_KEYS),
    "hyper": ("s", "q", "gaps", "n", "curve_gaps", *_ENGINE_KEYS),
    "decay": ("s", "p", "gaps_a", "gaps_b", "p_b", *_ENGINE_KEYS),
    "limit": ("times", "t_inf", "tol_final", "slack", *_ENGINE_KEYS),
}
EXPERIMENT_KINDS = tuple(_EXPERIMENT_KEYS)

_CONSTANT_KEYS = ("eta0", "Lambda", "r0")
_SIM_KEYS = ("dt", "paths", "seed", "scheme")


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
            if key.text not in _SIM_KEYS:
                _err(
                    f"unknown sim key {key.text!r}; valid: {list(_SIM_KEYS)}",
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
            current_exp.params[key.text] = _value(rest, lineno)
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


def _finite_values(exp, key):
    """The values of ``key`` (a number or a list of them), each finite."""
    v = exp.params.get(key, [])
    vals = v if isinstance(v, list) else [v]
    for x in vals:
        if not isinstance(x, (int, float)):
            _err(f"experiment {exp.name!r}: {key} must be numeric")
        if not math.isfinite(x):
            _err(f"experiment {exp.name!r}: {key} must be finite, got {x}")
    return vals


def _check_times(scn, exp, keys, start):
    for key in keys:
        for x in _finite_values(exp, key):
            if math.isfinite(start) and x < start:
                _err(
                    f"experiment {exp.name!r}: time {x} lies before the "
                    f"interval start {start} of scenario {scn.name!r}"
                )


# Time offsets, radii and tolerances by the sign they need; zero gaps are
# legal, since the default curve_gaps start at 0.  t_inf is any finite time.
_SIGNS = {"t_inf": None}
_SIGNS.update(dict.fromkeys(("spans", "h", "radii", "tol_final"), "positive"))
_SIGNS.update(
    dict.fromkeys(("gaps", "curve_gaps", "gaps_a", "gaps_b", "slack"), "non-negative")
)


def _check_signs(exp):
    for key, sign in _SIGNS.items():
        for x in _finite_values(exp, key):
            if sign and (x < 0 or x == 0 and sign == "positive"):
                _err(f"experiment {exp.name!r}: {key} must be {sign}, got {x!r}")


def _check_counts(exp):
    """Counts of points, paths or cases must be positive integers."""
    for key in ("n", "cloud", "inner", "outer", "paths"):
        v = exp.params.get(key, 1)
        if not isinstance(v, int) or v < 1:
            _err(
                f"experiment {exp.name!r}: {key} must be a positive integer, "
                f"got {v!r}"
            )


# Exponent keys per experiment kind, each >= 1; True where 1 is excluded.
_EXPONENTS = {
    "lsi": {"p": True},
    "poincare": {"p": False},
    "hyper": {"q": True},
    "decay": {"p": False, "p_b": False},
}


def _check_exponents(exp):
    for key, strict in _EXPONENTS.get(exp.kind, {}).items():
        v = exp.params.get(key, [])
        for x in v if isinstance(v, list) else [v]:
            finite = isinstance(x, (int, float)) and math.isfinite(x)
            if not finite or x < 1 or (strict and x == 1):
                _err(
                    f"experiment {exp.name!r}: {exp.kind} needs finite {key} "
                    f"{'>' if strict else '>='} 1, got {x!r}"
                )


def validate_scenario(scn):
    """Check catalog references, constants, and experiment declarations.

    Returns the instantiated :class:`~kolmolab.catalog.ScenarioBundle` so
    callers do not pay for building it twice.
    """
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
    except (TypeError, ValueError, ArithmeticError) as exc:
        _err(f"bad parameters for catalog entry {scn.catalog!r}: {exc}")

    if scn.kind == "ou" and bundle.model is None:
        _err(
            f"scenario {scn.name!r} requests kind 'ou' but catalog entry "
            f"{scn.catalog!r} has no linear-drift closed form"
        )

    spec = bundle.spec
    merged = {k: getattr(spec, k) for k in _CONSTANT_KEYS}
    merged.update(scn.constants)
    for key, val in merged.items():
        if not math.isfinite(val):
            _err(f"constant {key} must be finite, got {val}")
    if merged["r0"] >= 0:
        _err(
            f"r0 = {merged['r0']:+g} violates hypothesis (iv): the "
            "dissipativity constant r0 must be strictly negative"
        )
    if merged["eta0"] <= 0 or merged["Lambda"] < merged["eta0"]:
        _err(
            "hypothesis (ii) needs 0 < eta0 <= Lambda, got "
            f"eta0 = {merged['eta0']:g}, Lambda = {merged['Lambda']:g}"
        )
    if scn.constants:
        spec = replace(spec, **scn.constants)
        bundle = replace(bundle, spec=spec)

    for key, val in scn.sim.items():
        if key == "dt":
            if not isinstance(val, (int, float)) or not 0 < val < math.inf:
                _err("sim dt must be a positive real")
            if float(val) * abs(spec.r0) >= 0.5:
                _err(
                    f"sim dt = {val:g} is too coarse for r0 = {spec.r0:g}: "
                    "need dt * |r0| < 0.5 for a stable integrator"
                )
        elif key == "paths":
            if not isinstance(val, int) or val < 1:
                _err("sim paths must be a positive integer")
        elif key == "seed":
            if not isinstance(val, int) or not 0 <= val < 2**64:
                _err("sim seed must be a non-negative integer below 2**64")
        elif key == "scheme":
            if val not in sde._SCHEMES:
                _err(f"sim scheme must be one of {list(sde._SCHEMES)}, got {val!r}")

    if not 0 < scn.tol < math.inf:
        _err("tol must be a positive real")

    start = spec.interval_start
    for exp in scn.experiments:
        if exp.kind not in EXPERIMENT_KINDS:
            _err(
                f"unknown experiment kind {exp.kind!r}; "
                f"valid: {list(EXPERIMENT_KINDS)}"
            )
        unknown = sorted(set(exp.params) - set(_EXPERIMENT_KEYS[exp.kind]))
        if unknown:
            _err(
                f"experiment {exp.name!r}: unknown key(s) {unknown} for kind "
                f"{exp.kind!r}; valid: {list(_EXPERIMENT_KEYS[exp.kind])}"
            )
        _check_times(scn, exp, ("s", "t", "r", "times"), start)
        _check_signs(exp)
        _check_exponents(exp)
        _check_counts(exp)
        if exp.kind == "limit" and bundle.model is None:
            _err(
                f"experiment {exp.name!r}: the asymptotic-limit check needs "
                "a linear-drift (ou) catalog entry"
            )
    return bundle
