"""The public names of the package: each ``ardom`` module's ``__all__``
lists only names that exist and none that is private, so a deleted or
renamed function cannot linger in the public list."""

import importlib
import pkgutil

import pytest

import ardom

MODULES = ["ardom"] + [f"ardom.{info.name}" for info in pkgutil.iter_modules(ardom.__path__)]


def test_every_module_is_listed():
    assert set(MODULES) >= {
        "ardom",
        "ardom.algebra",
        "ardom.arseq",
        "ardom.cli",
        "ardom.corpus",
        "ardom.homology",
        "ardom.linalg",
        "ardom.modules",
        "ardom.verify",
    }


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_are_public(name):
    module = importlib.import_module(name)
    public = module.__all__
    assert public, name
    assert len(set(public)) == len(public), name
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    private = [attr for attr in public if attr.startswith("_")]
    assert not private, f"{name}.__all__ names private attributes {private}"
