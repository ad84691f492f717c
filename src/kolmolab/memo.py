"""Run-scoped memo: deterministic results computed once per key.

Every deterministic ingredient of G(t, s) -- burn-in clouds, the measures
mu_t, the decay fit omega, the kernel moments, and G(t, s)f at an engine's
outer points -- depends only on its arguments, so one computation per run
serves every experiment that asks for it and changes no result.

A computation that raises stores nothing, so the next request computes
afresh.  Stored arrays are made read-only, since every requester shares
them.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np

__all__ = ["KINDS", "Memo", "fresh"]

# The cache kinds a run counts hits and misses for.
KINDS = ("clouds", "measures", "omega", "kernels", "G")


def _freeze(value):
    """Mark the arrays in a result read-only: arrays, tuples, dataclasses."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, tuple):
        for item in value:
            _freeze(item)
    elif dataclasses.is_dataclass(value):
        for fld in dataclasses.fields(value):
            _freeze(getattr(value, fld.name))


class Memo:
    """``memo(kind, fn, *args)`` is ``fn(*args)``, computed once per key.

    The key is ``(kind, fn, args)`` itself: it holds the function and argument
    objects rather than their ids, so a later object cannot reuse an id and
    collide with a stored key.  Arguments must be hashable; frozen
    dataclasses such as models, specs and test functions are."""

    def __init__(self):
        self._values = {}
        self._hits = Counter()
        self._misses = Counter()

    def __call__(self, kind, fn, *args):
        key = (kind, fn, args)
        if key in self._values:
            self._hits[kind] += 1
        else:
            value = fn(*args)
            _freeze(value)
            self._values[key] = value
            self._misses[kind] += 1
        return self._values[key]

    def values(self, kind):
        """The results stored under ``kind`` so far."""
        return [v for key, v in self._values.items() if key[0] == kind]

    def counts(self):
        """{kind: {"hits": n, "misses": n}} for every kind in :data:`KINDS`."""
        return {
            kind: {"hits": self._hits[kind], "misses": self._misses[kind]}
            for kind in KINDS
        }


def fresh(kind, fn, *args):
    """The memo interface without memory: ``fn(*args)`` on every call."""
    return fn(*args)
