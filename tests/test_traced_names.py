"""The traced bench run looks up its span names on ``latnorm`` with
``getattr``; a rename that breaks it fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("modname, attr", [t[:2] for t in _spans().TRACED])
def test_traced_function_exists(modname, attr):
    module = importlib.import_module(f"latnorm.{modname}")
    assert callable(getattr(module, attr, None)), f"latnorm.{modname}.{attr}"


@pytest.mark.parametrize("modname, cls_name, attr", _spans().TRACED_METHODS)
def test_traced_method_exists(modname, cls_name, attr):
    cls = getattr(importlib.import_module(f"latnorm.{modname}"), cls_name)
    assert callable(cls.__dict__.get(attr)), f"latnorm.{modname}.{cls_name}.{attr}"
