"""The benchmark harness under ``perfbench/`` imports from ``ardom`` and
traces its functions by name; a change to the package that drops or
reshapes one of those names would only show when the benchmark runs.  Most
tests here read the harness source, without importing or running it, and
check each such name against the package; the last one runs the tracer."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
WORKLOADS = os.path.join(PERFBENCH, "workloads.py")
TRACER = os.path.join(PERFBENCH, "tracer.py")

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


# the traced keys that name no function of the package any more; the
# tracer's key lists are to drop or rename them (the benchmark upkeep in
# ROADMAP.md), and a rename in the package that orphans another key fails
# here
ORPHANED_TRACE_KEYS = {
    "arseq:Ext1Data.class_coords",
    "arseq:_cokernel_section",
    "arseq:_first_nonvanishing_degree",
    "arseq:ext1_with_end_action",
    "homology:_ProjResBuilder.__init__",
    "homology:_ProjResBuilder.differential",
    "homology:_ProjResBuilder.extend",
    "homology:_ProjResBuilder.syzygy",
    "homology:_ProjResBuilder.term",
    "homology:_builder",
    "homology:cosyzygy",
    "homology:evaluation_and_torsion",
    "homology:min_inj_coresolution",
    "homology:min_proj_resolution",
    "modules:hom_basis",
}


def _tree(path=WORKLOADS):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


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


def _traced(layer, name):
    """Whether the tracer wraps ``layer:name``: a function defined in
    ``ardom.<layer>``, or a method in the own namespace of a class defined
    there."""
    module = importlib.import_module(f"ardom.{layer}")
    owner, _, attr = name.rpartition(".")
    obj = vars(module).get(owner or name)
    if getattr(obj, "__module__", None) != module.__name__:
        return False
    if owner:
        return inspect.isclass(obj) and inspect.isfunction(vars(obj).get(attr))
    return inspect.isfunction(obj)


def _trace_keys():
    """(layer, name) of every key in the tracer's ``_keys`` lists."""
    return [
        (node.args[0].value, arg.value)
        for node in ast.walk(_tree(TRACER))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "_keys"
        for arg in node.args[1:]
    ]


def test_only_the_known_trace_keys_name_no_function():
    keys = _trace_keys()
    assert len(keys) > len(ORPHANED_TRACE_KEYS)
    assert {f"{layer}:{name}" for layer, name in keys if not _traced(layer, name)} == (
        ORPHANED_TRACE_KEYS
    )


# traced keys whose function is memoised: each must name the @memoized
# function itself, since a private memoised twin behind a public wrapper
# would move the work out from under the key
MEMOISED_TRACE_KEYS = (
    "homology:torsion",
    "homology:ext_module",
    "homology:transpose",
    "modules:sample_modules",
)


def test_memoised_work_runs_under_its_trace_key():
    keys = {f"{layer}:{name}" for layer, name in _trace_keys()}
    for key in MEMOISED_TRACE_KEYS:
        layer, name = key.split(":")
        assert key in keys and _traced(layer, name), key
        function = getattr(importlib.import_module(f"ardom.{layer}"), name)
        assert hasattr(function, "__wrapped__"), key


def _load_tracer():
    """perfbench/tracer.py, loaded by path as a module of its own."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound_functions():
    """Every callable bound by name in an ardom namespace, and every function
    in the own namespace of a class defined there, by (owner, name)."""
    out = {}
    for ns_name, ns in sorted(sys.modules.items()):
        if ns_name.split(".")[0] != "ardom":
            continue
        for name, obj in vars(ns).items():
            if callable(obj):
                out[ns_name, name] = obj
            if inspect.isclass(obj) and obj.__module__ == ns_name:
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        out[f"{ns_name}.{name}", attr] = fn
    return out


def _traced_workload_output():
    """The records of the first 8 corpus entries, as ``ardom verify --n 1..3``
    prints them, and one sweep of small cyclic Nakayama algebras, each on
    fresh tables."""
    from ardom.algebra import nakayama_from_kupisch
    from ardom.arseq import first_failure, has_n_tf_ar_sequences
    from ardom.corpus import load_corpus
    from ardom.homology import DEFAULT_CAP, domdim_algebra
    from ardom.verify import SUITES, _cyclic_series, _entry_verdicts

    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    out = []
    for entry in load_corpus(corpus)[:8]:
        fresh = dataclasses.replace(entry, _table=None)
        out += [v.to_json() for v in _entry_verdicts(fresh, SUITES, (1, 2, 3), DEFAULT_CAP, 0, 64)]
    for series in _cyclic_series(4, 5):
        tbl = nakayama_from_kupisch(series, cyclic=True)
        row = [list(series), str(domdim_algebra(tbl))]
        if "selfinjective" not in tbl.flags:
            tf, report = has_n_tf_ar_sequences(tbl, 8)
            row += [tf, first_failure(report)]
        out.append(json.dumps(row))
    return out


def test_a_traced_run_prints_what_an_untraced_run_prints():
    tracer = _load_tracer()
    plain = _traced_workload_output()
    bound = _bound_functions()
    t = tracer.Tracer()
    with t:
        assert _bound_functions() != bound  # the tracer did rebind functions
        traced = _traced_workload_output()
    assert traced == plain
    assert set(tracer.missing_keys(t)) == ORPHANED_TRACE_KEYS
    assert tracer.layer_metrics(t)["verify.self_s"][0] > 0
    assert _bound_functions() == bound


def test_a_traced_pooled_verify_prints_what_an_untraced_one_prints(capsys):
    # the process-pool path of run_suite, which the benchmark's -j2 workload
    # runs under the tracer: the tracer rebinds verify.ProcessPoolExecutor
    from ardom import cli

    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    argv = ["verify", "--jobs", "2", "--suite", "main", "--n", "1", corpus]
    tracer = _load_tracer()
    code = cli.main(argv)
    plain = capsys.readouterr().out
    bound = _bound_functions()
    t = tracer.Tracer()
    with t:
        assert cli.main(argv) == code
    assert capsys.readouterr().out == plain
    assert tracer.layer_metrics(t)["verify.pool_s"][0] > 0
    assert _bound_functions() == bound
