"""Outside-in tracing of kolmolab: timing spans around its public functions.

Nothing under ``src/`` is edited.  ``Tracer.install`` wraps

* every function listed in the ``__all__`` of the traced modules, plus
  ``ou._solve_matrix_ode`` (span ``ou.ode_solve``);
* the ``ProblemSpec`` methods at class level, so the copies made by
  ``reflect_time`` are covered;
* the engine methods at class level, so the fresh engine built for each
  experiment is covered;
* the experiment functions in ``runner._RUNNERS`` (span ``runner.<kind>``).

Many names are imported by name (``from .sde import simulate``), so a
wrapper is rebound in every ``kolmolab`` module that holds the original,
not only in the module that defines it.

A span is timed when it closes and folded into per-name totals at once:
calls, inclusive busy time, and self time (busy time minus the time of
its direct child spans).  Hot spans such as ``model.drift`` close hundreds
of thousands of times a run, so individual spans are not kept.  The
nesting stack is a plain list: the benchmark runs with
``KOLMOLAB_THREADS=1``, so every span opens and closes on one thread.

Work counters (path-steps, quadrature nodes, bytes written, cache keys)
are read from each call's arguments before the call runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

LAYERS = ("scenario", "model", "sde", "measures", "engines", "ou", "ineq", "runner", "io")

# Span names that differ from "<module>.<function>".
_SPAN_NAMES = {
    ("measures", "export_measure_csv"): "measures.export",
    ("measures", "export_measure_json"): "measures.export",
}


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)


def _bind(fn, args, kwargs):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _steps(s, t, dt):
    from kolmolab import sde

    return len(sde._time_grid(s, t, dt)) - 1


def _n_points(x, dim):
    from kolmolab.model import as_batch

    return as_batch(x, dim)[0].shape[0]


# -- work counters, one hook per span that counts work ------------------------


def _count_simulate(tr, fn, args, kwargs):
    from kolmolab import sde

    a = _bind(fn, args, kwargs)
    cfg = a["cfg"] or sde.SimConfig()
    steps = _steps(a["s"], a["t"], cfg.dt)
    n = cfg.n_paths
    tr.counts["sde.path_steps"] += n * steps
    if a["with_jacobians"]:
        tr.counts["sde.jac_path_steps"] += n * steps
    # simulate always draws whole BLOCKs of noise (see kolmolab.sde)
    tr.counts["sde.drawn_path_steps"] += math.ceil(n / sde.BLOCK) * sde.BLOCK * steps


def _count_sample_mu(tr, fn, args, kwargs):
    from kolmolab import sde

    a = _bind(fn, args, kwargs)
    cfg = a["cfg"] or sde.SimConfig()
    key = (a["spec"].name, float(a["t"]), cfg.seed, cfg.n_paths, cfg.dt)
    tr.repeat("measures.sample_mu", key)


def _count_evolution_measure(tr, fn, args, kwargs):
    a = _bind(fn, args, kwargs)
    model = a["model"]
    tr.repeat("ou.evolution_measure", (model.name, model.dim, float(a["t"]), a["tol"]))


def _quad_nodes(span):
    def count(tr, fn, args, kwargs):
        a = _bind(fn, args, kwargs)
        model = a["model"]
        if a["t"] != a["s"]:
            n = _n_points(a["x"], model.dim)
            tr.counts[f"{span}.nodes"] += n * a["order"] ** model.dim

    return count


def _count_bytes(tr, fn, args, kwargs):
    a = _bind(fn, args, kwargs)
    tr.counts["io.bytes_written"] += len(a["text"].encode("utf-8"))


def _engine_measure(span):
    def count(tr, fn, args, kwargs):
        a = _bind(fn, args, kwargs)
        if round(float(a["t"]), 12) not in a["self"]._measures:
            tr.counts[f"{span}.misses"] += 1

    return count


def _count_mc_apply(tr, fn, args, kwargs):
    import numpy as np

    a = _bind(fn, args, kwargs)
    eng = a["self"]
    n = np.atleast_2d(np.asarray(a["xs"], dtype=float)).shape[0]
    steps = _steps(a["s"], a["t"], eng.cfg.dt)
    tr.counts["engines.mc.apply_G_at.path_steps"] += n * eng.n_inner * steps


_HOOKS = {
    "sde.simulate": _count_simulate,
    "measures.sample_mu": _count_sample_mu,
    "ou.evolution_measure": _count_evolution_measure,
    "ou.ou_apply_G": _quad_nodes("ou.ou_apply_G"),
    "ou.ou_apply_grad_G": _quad_nodes("ou.ou_apply_grad_G"),
    "io.atomic_write_text": _count_bytes,
    "engines.mc.measure": _engine_measure("engines.mc.measure"),
    "engines.ou.measure": _engine_measure("engines.ou.measure"),
    "engines.mc.apply_G_at": _count_mc_apply,
}


class Tracer:
    """Per-name span totals and work counters for one traced process."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._seen = defaultdict(set)
        self._stack = []  # time covered by the children of each open span
        self._undo = []  # (owner, attribute, original) in patch order
        self.originals = []  # every function or method replaced by a wrapper

    # -- recording ------------------------------------------------------------

    def repeat(self, span, key):
        """Count a cache-style key: repeats are keys already seen in the run."""
        seen = self._seen[span]
        self.counts[f"{span}.keys"] += 1
        if key in seen:
            self.counts[f"{span}.repeats"] += 1
        seen.add(key)

    def wrap(self, name, fn):
        """``fn`` inside a span called ``name``."""
        hook = _HOOKS.get(name)
        stack = self._stack
        calls, busy, self_time = self.calls, self.busy, self.self_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, fn, args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                calls[name] += 1
                busy[name] += dt
                self_time[name] += dt - children
                if stack:
                    stack[-1] += dt

        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap the traced functions and methods; undo with :meth:`uninstall`."""
        import kolmolab  # noqa: F401  (imports every submodule)
        from kolmolab.engines import AnalyticOUEngine, MonteCarloEngine
        from kolmolab.model import ProblemSpec

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "kolmolab" or n.startswith("kolmolab.")
        ]
        for layer in LAYERS:
            mod = importlib.import_module(f"kolmolab.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = _SPAN_NAMES.get((layer, attr), f"{layer}.{attr}")
                    self._rebind(modules, fn, self.wrap(name, fn))
        ou = importlib.import_module("kolmolab.ou")
        self._rebind(modules, ou._solve_matrix_ode,
                     self.wrap("ou.ode_solve", ou._solve_matrix_ode))

        for cls, prefix, methods in (
            (ProblemSpec, "model", ("drift", "drift_jacobian", "diffusion")),
            (MonteCarloEngine, "engines.mc", ("measure", "apply_G_at", "grad_G_at")),
            (AnalyticOUEngine, "engines.ou", ("measure", "apply_G_at", "grad_G_at")),
        ):
            for meth in methods:
                self._patch(cls, meth, self.wrap(f"{prefix}.{meth}", cls.__dict__[meth]))

        runner = importlib.import_module("kolmolab.runner")
        for kind, fn in list(runner._RUNNERS.items()):
            wrapper = self.wrap(f"runner.{kind}", fn)
            self._rebind(modules, fn, wrapper)
            self._undo.append((runner._RUNNERS, kind, fn))
            runner._RUNNERS[kind] = wrapper
        return self

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self.originals.append(original)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _rebind(self, modules, original, wrapper):
        self.originals.append(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def totals(self):
        """Additive totals: ``<span>.calls``, ``.busy_s``, ``.self_s`` and counters."""
        out = dict(self.counts)
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.busy_s"] = self.busy[name]
            out[f"{name}.self_s"] = self.self_time[name]
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def derive(t):
    """Per-layer metrics from additive totals, ratios included.

    A span that never ran reads 0, and so does a ratio with a zero base.
    """
    g = lambda k: t.get(k, 0.0)  # noqa: E731
    out = dict(t)
    out["sde.ns_per_path_step"] = 1e9 * _ratio(g("sde.simulate.busy_s"), g("sde.path_steps"))
    out["sde.noise_use_ratio"] = _ratio(g("sde.path_steps"), g("sde.drawn_path_steps"))
    for span in ("measures.sample_mu", "ou.evolution_measure"):
        out[f"{span}.repeat_ratio"] = _ratio(g(f"{span}.repeats"), g(f"{span}.keys"))
    for span in ("ou.ou_apply_G", "ou.ou_apply_grad_G"):
        out[f"{span}.ns_per_node"] = 1e9 * _ratio(g(f"{span}.busy_s"), g(f"{span}.nodes"))
    out["ou.ode_solves"] = g("ou.ode_solve.calls")
    return out
