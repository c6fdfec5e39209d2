"""Every name a module exports in ``__all__`` exists, so deleting a function
without its export fails here rather than at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import wignerlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(wignerlab.__path__, "wignerlab."))


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing
