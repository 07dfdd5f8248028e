"""The benchmark harness under ``perfbench/`` imports from ``ardom``; a change
to the package that drops or reshapes one of those names would only show
when the benchmark runs.  These tests read the harness source, without
importing or running it, and check each such name against the package."""

import ast
import importlib
import inspect
import os

WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")

# the names the harness is known to read; the parse below must find them all
EXPECTED = {
    "cli",
    "nakayama_from_kupisch",
    "first_failure",
    "has_n_tf_ar_sequences",
    "load_corpus",
    "DEFAULT_CAP",
    "domdim_algebra",
    "SUITES",
    "_cyclic_series",
    "_entry_verdicts",
}


def _tree():
    with open(WORKLOADS, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=WORKLOADS)


def test_every_name_the_benchmark_imports_from_ardom_resolves():
    found = {}
    for node in ast.walk(_tree()):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ardom":
            for alias in node.names:
                found[alias.name] = node.module
    assert EXPECTED <= set(found)
    for name, module in found.items():
        package = importlib.import_module(module)
        if not hasattr(package, name):  # a submodule, as in ``from ardom import cli``
            importlib.import_module(f"{module}.{name}")
        assert hasattr(package, name), f"{module}.{name}"


def test_entry_verdicts_accepts_the_benchmark_call():
    from ardom.verify import _entry_verdicts

    calls = [
        node
        for node in ast.walk(_tree())
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_entry_verdicts"
    ]
    assert calls
    signature = inspect.signature(_entry_verdicts)
    for call in calls:
        assert len(call.args) == 6
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
