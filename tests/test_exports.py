"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import opwick


def test_all_exports_resolve():
    modules = [opwick] + [
        importlib.import_module(f"opwick.{info.name}")
        for info in pkgutil.iter_modules(opwick.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert len(modules) > 10
    assert missing == []
