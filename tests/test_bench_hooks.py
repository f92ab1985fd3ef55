"""The benchmark's span tracer must still find every callable it wraps.

``benchmarks/e2e/tracing.py`` wraps classes and functions of ``src/``
by name (``owner.__dict__[attr]``), private ones included.  Renaming
one makes ``run.py --trace 1`` raise ``KeyError``; this test makes the
same rename fail here instead.
"""

import gc
import importlib
import os
import sys

import pytest

from repro.sim import metrics

E2E = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "e2e"
)


@pytest.fixture
def tracing():
    sys.path.insert(0, E2E)
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(E2E)
        sys.modules.pop("tracing", None)


@pytest.mark.parametrize("rt", [False, True], ids=["sim", "rt"])
def test_install_finds_every_wrapped_callable_and_undo_restores_it(tracing, rt):
    originals = (gc.collect, metrics.check_view_serializable, metrics.find_cycle)
    undo = tracing.install(tracing.Tracer(enabled=False), rt=rt)
    try:
        assert metrics.check_view_serializable is not originals[1]
    finally:
        undo()
    assert (gc.collect, metrics.check_view_serializable, metrics.find_cycle) == originals
