"""Every exported name resolves, so ``from ... import *`` works everywhere."""

import importlib
import pkgutil

import pytest

import dphgnn

MODULES = ["dphgnn"] + [
    f"dphgnn.{info.name}" for info in pkgutil.iter_modules(dphgnn.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_importable(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    namespace: dict = {}
    # Raises AttributeError on a name in __all__ that the module does not define.
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
