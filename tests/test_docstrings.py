"""Every Sphinx cross-reference in a package docstring names something that
exists, so a rename cannot leave a docstring pointing at nothing.

``:func:``, ``:meth:`` and ``:class:`` targets resolve as follows.  A
``~ardom.m.x`` (or ``ardom.m.x``) target is an attribute of the module
``ardom.m``.  Any other target is a name bound in the docstring's own module,
followed by attributes (``Class.method``), or the name of a method of a
class bound there."""

import ast
import importlib
import inspect
import os
import re

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "ardom")
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))
REFERENCE = re.compile(r":(?:func|meth|class):`([^`]+)`")


def _docstrings(module_name):
    with open(os.path.join(SRC, module_name + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def _resolves(module, target):
    target = target.lstrip("~")
    if target.startswith("ardom."):
        owner, _, name = target.rpartition(".")
        return hasattr(importlib.import_module(owner), name)
    obj = module
    for name in target.split("."):
        if not hasattr(obj, name):
            break
        obj = getattr(obj, name)
    else:
        return True
    classes = [obj for obj in vars(module).values() if inspect.isclass(obj)]
    return "." not in target and any(hasattr(cls, target) for cls in classes)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_docstring_reference_resolves(module_name):
    module = importlib.import_module(f"ardom.{module_name}")
    targets = [t for doc in _docstrings(module_name) for t in REFERENCE.findall(doc)]
    unresolved = sorted({t for t in targets if not _resolves(module, t)})
    assert unresolved == []
