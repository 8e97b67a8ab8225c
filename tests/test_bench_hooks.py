"""The benchmark's tracer wraps library functions by name.

``perfbench/tracer.py`` looks each name of its ``SPANNED`` table up with
``getattr`` and each ``COUNTED`` method on ``Polynomial``; a renamed or
deleted function would break the traced run.  This test reads both tables
from the tracer itself, so it cannot drift from them.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize(
    "module, name",
    [(module, name) for module, names in tracer.SPANNED.items() for name in names],
)
def test_spanned_function_exists(module, name):
    mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    assert callable(getattr(mod, name, None))


@pytest.mark.parametrize("method", sorted(tracer.COUNTED))
def test_counted_polynomial_method_exists(method):
    from bilapsym.exactpoly import Polynomial

    assert callable(vars(Polynomial).get(method))
