"""Built-in coefficient families.

Each entry builds a :class:`ProblemSpec` (always) and an :class:`OUModel`
(for the linear-drift entries) from a flat dict of numeric parameters, with
honest declared constants eta0, Lambda, r0 derived from the parameters.

Entries:

* ``ou_const``       -- A = -rate*I, B = noise*I, g = load (autonomous OU);
* ``ou_periodic``    -- A(t) = -(base + amp sin(freq t))*I, B = noise*I;
* ``ou_convergent``  -- A(t) = -(1 + gap e^{-decay t})*I on t > 0, converging
                        to the autonomous drift -I;
* ``cubic_dissipative`` -- b = -lin x - cub x^3 componentwise;
* ``double_well_shifted`` -- b = -lin (x-c) - cub (x-c)^3, a quartic well
                        with its minimum shifted to c (the classical
                        symmetric double well has an expanding direction at
                        the saddle and fails uniform dissipativity, so this
                        entry keeps a strictly dissipative profile).

The two cubic entries are autonomous gradient drifts, b = -grad V with
V = lin |y|^2 / 2 + cub sum_i y_i^4 / 4 and y = x - c, so their invariant law
is proportional to e^{-V/q}, q = noise^2 / 2; they declare
``gradient_drift``, and their Monte Carlo burn-ins take Leimkuhler-Matthews
steps.  The OU entries keep Euler burn-ins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import ScenarioError
from .model import ProblemSpec
from .ou import OUModel

__all__ = ["CatalogEntry", "ScenarioBundle", "get", "names", "describe"]


@dataclass(frozen=True)
class ScenarioBundle:
    """A catalog entry instantiated with concrete parameters."""

    name: str
    spec: ProblemSpec
    model: Optional[OUModel]
    params: dict


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    defaults: dict
    builder: callable = field(repr=False)

    def build(self, **overrides):
        params = dict(self.defaults)
        unknown = set(overrides) - set(params)
        if unknown:
            raise ScenarioError(
                f"unknown parameter(s) {sorted(unknown)} for catalog entry "
                f"{self.name!r}; valid: {sorted(params)}"
            )
        params.update({k: float(v) for k, v in overrides.items()})
        if params["dim"] not in (1, 2, 3):
            raise ScenarioError(
                f"{self.name} needs dim 1, 2 or 3, got {params['dim']!r}"
            )
        return self.builder(self.name, params)


def _diag_ou(name, dim, rate_fn, noise, load_fn, interval_start, r0):
    """Shared constructor for scalar-coefficient diagonal OU entries."""
    dim = int(dim)
    eye = np.eye(dim)
    q = 0.5 * noise**2

    model = OUModel(
        dim=dim,
        A=lambda t: -rate_fn(t) * eye,
        B=lambda t: noise * eye,
        g=(lambda t: load_fn(t) * np.ones(dim)) if load_fn is not None else None,
        interval_start=interval_start,
        name=name,
    )
    return model.as_problem_spec(eta0=q, Lambda=q, r0=r0, name=name), model


def _build_ou_const(name, p):
    if p["rate"] <= 0:
        raise ScenarioError("ou_const needs rate > 0")
    load = p["load"]
    spec, model = _diag_ou(
        name,
        p["dim"],
        lambda t: p["rate"],
        p["noise"],
        (lambda t: load) if load != 0.0 else None,
        -math.inf,
        r0=-p["rate"],
    )
    spec = replace(spec, autonomous=True)
    return ScenarioBundle(name=name, spec=spec, model=model, params=dict(p))


def _build_ou_periodic(name, p):
    if p["base"] <= abs(p["amp"]):
        raise ScenarioError("ou_periodic needs base > |amp| to stay dissipative")
    spec, model = _diag_ou(
        name,
        p["dim"],
        lambda t: p["base"] + p["amp"] * math.sin(p["freq"] * t),
        p["noise"],
        None,
        -math.inf,
        r0=-(p["base"] - abs(p["amp"])),
    )
    return ScenarioBundle(name=name, spec=spec, model=model, params=dict(p))


def _build_ou_convergent(name, p):
    if p["gap"] < 0 or p["decay"] <= 0:
        raise ScenarioError("ou_convergent needs gap >= 0 and decay > 0")
    spec, model = _diag_ou(
        name,
        p["dim"],
        lambda t: 1.0 + p["gap"] * math.exp(-p["decay"] * t),
        p["noise"],
        None,
        0.0,
        r0=-1.0,
    )
    return ScenarioBundle(name=name, spec=spec, model=model, params=dict(p))


def _cubic_family(name, p, center):
    dim = int(p["dim"])
    eye = np.eye(dim)
    lin, cub, noise = p["lin"], p["cub"], p["noise"]
    if lin <= 0 or cub < 0:
        raise ScenarioError(f"{name} needs lin > 0 and cub >= 0")
    q = 0.5 * noise**2

    def b(t, x):
        y = x - center
        # y * y * y, not y**3: numpy's float power is ~80x slower here and
        # the drift is the simulator's innermost call
        return -lin * y - cub * (y * y * y)

    def jac_b(t, x):
        y = x - center
        diag = -lin - 3.0 * cub * y**2  # (n, d)
        out = np.zeros((x.shape[0], dim, dim))
        idx = np.arange(dim)
        out[:, idx, idx] = diag
        return out

    spec = ProblemSpec(
        dim=dim,
        interval_start=-math.inf,
        Q=lambda t: q * eye,
        b=b,
        jac_b=jac_b,
        eta0=q,
        Lambda=q,
        r0=-lin,
        name=name,
        autonomous=True,
        gradient_drift=True,
    )
    return ScenarioBundle(name=name, spec=spec, model=None, params=dict(p))


def _build_cubic(name, p):
    return _cubic_family(name, p, center=0.0)


def _build_double_well_shifted(name, p):
    return _cubic_family(name, p, center=p["center"])


_SQRT2 = math.sqrt(2.0)

_ENTRIES = {
    e.name: e
    for e in [
        CatalogEntry(
            name="ou_const",
            description="autonomous OU: A=-rate*I, B=noise*I, constant load",
            defaults={"rate": 1.0, "noise": _SQRT2, "load": 0.0, "dim": 1},
            builder=_build_ou_const,
        ),
        CatalogEntry(
            name="ou_periodic",
            description="OU with periodic drift rate base + amp*sin(freq t)",
            defaults={"base": 2.0, "amp": 1.0, "freq": 1.0, "noise": _SQRT2, "dim": 1},
            builder=_build_ou_periodic,
        ),
        CatalogEntry(
            name="ou_convergent",
            description="OU with rate 1 + gap*exp(-decay t) converging to 1 (t > 0)",
            defaults={"gap": 1.0, "decay": 1.0, "noise": _SQRT2, "dim": 1},
            builder=_build_ou_convergent,
        ),
        CatalogEntry(
            name="cubic_dissipative",
            description="nonlinear drift b = -lin*x - cub*x^3 (componentwise)",
            defaults={"lin": 1.0, "cub": 1.0, "noise": _SQRT2, "dim": 1},
            builder=_build_cubic,
        ),
        CatalogEntry(
            name="double_well_shifted",
            description="quartic well shifted to center: b = -lin*(x-c) - cub*(x-c)^3",
            defaults={"center": 0.7, "lin": 1.0, "cub": 0.5, "noise": _SQRT2, "dim": 1},
            builder=_build_double_well_shifted,
        ),
    ]
}


def names():
    return sorted(_ENTRIES)


def describe():
    return {
        k: {"description": v.description, "defaults": dict(v.defaults)}
        for k, v in _ENTRIES.items()
    }


def get(name, **overrides):
    if name not in _ENTRIES:
        raise ScenarioError(
            f"unknown catalog entry {name!r}; available: {', '.join(names())}"
        )
    return _ENTRIES[name].build(**overrides)
