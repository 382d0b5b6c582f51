"""The package's public names: every ``__all__`` entry must resolve."""

import importlib
import pkgutil

import pytest

import fracplate

MODULES = ["fracplate"] + [
    f"fracplate.{info.name}" for info in pkgutil.iter_modules(fracplate.__path__)
]


@pytest.mark.parametrize("mod_name", MODULES)
def test_all_names_resolve(mod_name):
    module = importlib.import_module(mod_name)
    names = getattr(module, "__all__", [])
    assert names, f"{mod_name} declares no __all__"
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
