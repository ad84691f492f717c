import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from spans import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def one_thread(monkeypatch):
    # the tracer's span stack assumes one thread, as in every benchmark pass
    monkeypatch.setenv("KOLMOLAB_THREADS", "1")


@pytest.fixture
def tracer():
    tr = Tracer().install()
    try:
        yield tr
    finally:
        tr.uninstall()
