"""Every sketchlab module's public names resolve, so a deleted function
cannot leave a stale entry in `__all__` behind."""

import importlib
import pkgutil

import pytest

import sketchlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(sketchlab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"sketchlab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from sketchlab.{name} import *", namespace)
    assert set(exported) <= namespace.keys()
