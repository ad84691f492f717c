"""kolmolab: a numerical laboratory for nonautonomous dissipative diffusions.

The package evaluates evolution operators G(t, s) of Kolmogorov equations
with time-dependent coefficients, builds their evolution systems of
measures {mu_t}, and certifies -- with explicit tolerances -- the pointwise
gradient estimate, logarithmic Sobolev and Poincare inequalities,
hypercontractivity along the induced exponent curve, exponential decay to
measure averages, and weak-star convergence of mu_t when the coefficients
stabilize.  Linear-drift (Ornstein-Uhlenbeck type) problems are handled in
closed form through Gaussian kernels; general dissipative drifts go through
paths, with every Monte Carlo estimate carrying a standard error.

The root holds the submodules, ``__version__`` and ``simulate``; every
other name is imported from its submodule, e.g.
``from kolmolab.engines import engine_for``.
"""

from ._version import __version__

from . import (
    catalog, engines, functions, ineq, measures, model, ou, runner, scenario, sde,
)
from .sde import simulate
