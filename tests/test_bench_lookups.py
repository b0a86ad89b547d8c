"""Source guard: every grid lookup the bench tracer wraps by name exists.

``bench/tracer.py`` replaces each ``(module, class, method)`` of its
``LOOKUPS`` by a traced function, so a renamed or reshaped lookup would
break ``bench/run.py --trace 1`` without any test noticing.  The table is
read from the tracer's source, without importing the bench.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _lookups() -> list[tuple[str, str, str]]:
    for stmt in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LOOKUPS" for t in stmt.targets
        ):
            return list(ast.literal_eval(stmt.value))
    raise AssertionError(f"{TRACER} assigns no LOOKUPS")


@pytest.mark.parametrize("module, cls, method", _lookups(),
                         ids=lambda part: part)
def test_each_traced_lookup_is_a_plain_method(module, cls, method):
    owner = getattr(importlib.import_module(f"mirpath.{module}"), cls)
    # the tracer sets a plain function in its place, which binds as a method
    # only where a plain function stood
    assert inspect.isfunction(inspect.getattr_static(owner, method))
