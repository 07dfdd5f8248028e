"""The public names of the package: each ``ardom`` module's ``__all__``
lists only names that exist and none that is private, so a deleted or
renamed function cannot linger in the public list."""

import ast
import importlib
import os
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREES = ["src", "tests", "demos", "perfbench"]


def _python_files(top):
    for folder, _, files in os.walk(os.path.join(ROOT, top)):
        yield from (os.path.join(folder, f) for f in sorted(files) if f.endswith(".py"))


def test_every_top_level_definition_has_a_reference():
    # a reference is a use by name or attribute; an import alone is none
    defined, used = set(), set()
    for top in TREES:
        for path in _python_files(top):
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            if top == "src":
                defined |= {
                    node.name
                    for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                }
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert len(defined) >= 150
    assert sorted(defined - used) == []
