"""The run-scoped memo: one computation per key, failures not cached,
results read-only, hits and misses counted per kind."""

import numpy as np
import pytest

from kolmolab.memo import KINDS, Memo, fresh


def test_computes_once_per_key_and_counts():
    memo = Memo()
    calls = []

    def square(x):
        calls.append(x)
        return np.array([x * x])

    a = memo("kernels", square, 3.0)
    assert memo("kernels", square, 3.0) is a
    memo("kernels", square, 4.0)
    assert calls == [3.0, 4.0]
    counts = memo.counts()
    assert set(counts) == set(KINDS)
    assert counts["kernels"] == {"hits": 1, "misses": 2}
    assert counts["G"] == {"hits": 0, "misses": 0}


def test_keys_tell_functions_apart():
    memo = Memo()
    assert memo("G", lambda x: x + 1, 1) == 2
    assert memo("G", lambda x: x + 2, 1) == 3


def test_results_are_read_only():
    memo = Memo()
    M, m = memo("kernels", lambda: (np.eye(2), np.zeros(2)))
    for arr in (M, m):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_failure_is_not_cached():
    memo = Memo()
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("first attempt fails")
        return 7

    with pytest.raises(RuntimeError):
        memo("omega", flaky)
    assert memo("omega", flaky) == 7
    assert len(calls) == 2
    assert memo.counts()["omega"] == {"hits": 0, "misses": 1}


def test_fresh_computes_every_time():
    calls = []
    for _ in range(2):
        fresh("G", calls.append, 1)
    assert calls == [1, 1]
