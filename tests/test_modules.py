"""Every name a `lamping` module exports resolves, so a deleted function
cannot linger in an `__all__`."""

import importlib
import pkgutil

import pytest

import lamping

MODULES = ["lamping"] + sorted(f"lamping.{m.name}"
                               for m in pkgutil.iter_modules(lamping.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing
