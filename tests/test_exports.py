"""Every name a module exports resolves.

``from modstab import *`` and ``from modstab.<module> import *`` read
``__all__``; a name left there after its function went breaks only those
imports, which no other test makes.  A module without ``__all__`` exports
nothing by name and passes.
"""

import importlib
import pkgutil

import pytest

import modstab

MODULES = ["modstab"] + sorted(f"modstab.{m.name}" for m in pkgutil.iter_modules(modstab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_an_attribute(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)

