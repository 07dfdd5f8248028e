"""Outside-in tracer for the ardom layers.

The tracer changes no ardom source.  While installed it replaces every
function defined in a layer module, and the public methods and ``__init__``
of every class defined there, with a wrapper that counts calls and measures
self time: the span of the call minus the spans of the traced calls it made.
A function is replaced in every ardom namespace that bound it by name, so
``from .homology import _builder`` in ``arseq`` is traced as well.
``uninstall`` puts every original back.

A worker process forked while the tracer is installed puts the originals
back at once: only the process that installed the tracer records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "algebra", "modules", "homology", "arseq", "verify", "corpus", "cli")

# Scalar helpers called inside every elimination step.  Wrapping them would
# multiply the tracing overhead; their time stays in the calling function.
SKIP = frozenset({"linalg:PrimeField.element", "linalg:PrimeField.inv"})

POOL_KEY = "pool:ProcessPoolExecutor"


def _rref_size(args):
    m = args[1]
    shape = m.shape if isinstance(m, np.ndarray) else np.shape(m)
    if len(shape) != 2:
        return "linalg.rref.calls_other", 1
    entries = shape[0] * shape[1]
    if entries == 0:
        return "linalg.rref.calls_empty", 1
    if entries <= 4:
        return "linalg.rref.calls_tiny", 1
    if entries <= 64:
        return "linalg.rref.calls_small", 1
    return "linalg.rref.calls_large", 1


def _mul_madds(args):
    a, b = args[1], args[2]
    return "linalg.mul.madds", a.shape[0] * a.shape[1] * b.shape[1]


def _hom_unknowns(args):
    m, n = args[0], args[1]
    return "modules.hom_basis.unknowns", sum(x * y for x, y in zip(m.dims, n.dims))


# Computed counts, read from the arguments of a traced call.
COUNTERS = {
    "linalg:PrimeField.rref": _rref_size,
    "linalg:PrimeField.mul": _mul_madds,
    "modules:hom_basis": _hom_unknowns,
}


class Tracer:
    """Call counts, self times and computed counts per traced function.

    Keys are ``layer:qualname``, for example ``linalg:PrimeField.rref``.
    Use as a context manager around the calls to record.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._stack = [0.0]  # per open span: child time so far
        self._restore: list = []
        self._active = False
        os.register_at_fork(after_in_child=self.uninstall)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -----------------------------------------------------------

    def _open(self):
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, key, start):
        span = perf_counter() - start
        stat = self.stats.setdefault(key, [0, 0.0])
        stat[0] += 1
        stat[1] += span - self._stack.pop()
        self._stack[-1] += span

    def _wrap(self, fn, key):
        # The span logic of _open/_close, inlined: this runs on every call.
        tracer = self
        stack = self._stack
        stat = self.stats.setdefault(key, [0, 0.0])
        counter = COUNTERS.get(key)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            if counter is not None:
                name, amount = counter(args)
                counts[name] += amount
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                stat[0] += 1
                stat[1] += span - stack.pop()
                stack[-1] += span

        return traced

    def _timed_pool(self, base):
        tracer = self

        class TimedPool(base):
            """The executor, with its whole ``with`` block as one span."""

            def __init__(self, *args, **kwargs):
                self._trace_start = tracer._open() if tracer._active else None
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._trace_start is not None:
                        tracer._close(POOL_KEY, self._trace_start)

        return TimedPool

    # -- install / uninstall ---------------------------------------------

    def _set(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"ardom.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, f"{layer}:{name}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        key = f"{layer}:{name}.{meth}"
                        public = meth == "__init__" or not meth.startswith("_")
                        if inspect.isfunction(fn) and public and key not in SKIP:
                            self._set(obj, meth, self._wrap(fn, key))
        namespaces = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "ardom"]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(ns, name, wrappers[obj])
        verify = modules["verify"]
        self._set(verify, "ProcessPoolExecutor", self._timed_pool(verify.ProcessPoolExecutor))
        self._active = True

    def uninstall(self):
        self._active = False
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- results -----------------------------------------------------------

    def calls(self, *keys) -> int:
        return sum(self.stats.get(k, (0, 0.0))[0] for k in keys)

    def self_s(self, *keys) -> float:
        return sum(self.stats.get(k, (0, 0.0))[1] for k in keys)

    def layer_self_s(self, layer: str) -> float:
        return sum(s[1] for k, s in self.stats.items() if k.split(":")[0] == layer)


def _keys(layer, *names):
    return tuple(f"{layer}:{n}" for n in names)


RREF = _keys("linalg", "PrimeField.rref")
SOLVE = _keys("linalg", "PrimeField.solve")
MUL = _keys("linalg", "PrimeField.mul")
TABLE_INIT = _keys("algebra", "AlgebraTable.__init__")
TABLE = TABLE_INIT + _keys(
    "algebra",
    "opposite",
    "build_table",
    "table_from_text",
    "table_from_file",
    "parse_presentation",
    "_parse_relation",
    "nakayama_from_kupisch",
)
QUIVER = _keys(
    "algebra", "Quiver.arrows_from", "Quiver.arrows_into", "Quiver.arrow_source", "Quiver.arrow_target"
)
HOM_BASIS = _keys("modules", "hom_basis")
SAMPLE = _keys("modules", "sample_modules")
PROJ_COVER = _keys("modules", "proj_cover")
INJ_HULL = _keys("modules", "inj_hull")
MORPHISM_INIT = _keys("modules", "ModuleMorphism.__init__")
MODULE_INIT = _keys("modules", "ModuleRep.__init__")
RESOLUTION = _keys(
    "homology",
    "min_proj_resolution",
    "min_inj_coresolution",
    "syzygy",
    "cosyzygy",
    "_builder",
    "_ProjResBuilder.__init__",
    "_ProjResBuilder.extend",
    "_ProjResBuilder.term",
    "_ProjResBuilder.differential",
    "_ProjResBuilder.syzygy",
)
EXT = _keys("homology", "ext_dim", "ext_module")
TORSION = _keys("homology", "evaluation_and_torsion", "torsion", "grade")
TRANSPOSE = _keys("homology", "transpose", "tau", "tau_inverse")
DIMS = _keys(
    "homology",
    "domdim_module",
    "domdim_algebra",
    "pdim",
    "injdim",
    "gldim",
    "gorenstein_dim",
    "domdim_R_via_mueller",
)
EXT1 = _keys("arseq", "ext1_with_end_action", "Ext1Data.class_coords", "_socle_coords", "_rad_end_paths")
CONSTRUCT_ENTRY = _keys("arseq", "almost_split_from_projective")
CONSTRUCT = CONSTRUCT_ENTRY + _keys("arseq", "_cokernel_section")
CHECK = _keys("arseq", "ArSequence.check")
TF = _keys("arseq", "has_n_tf_ar_sequences", "_first_nonvanishing_degree", "first_failure")

NAMED_KEYS = frozenset(
    RREF + SOLVE + MUL + TABLE + QUIVER + HOM_BASIS + SAMPLE + PROJ_COVER + INJ_HULL
    + MORPHISM_INIT + MODULE_INIT + RESOLUTION + EXT + TORSION + TRANSPOSE + DIMS + EXT1
    + CONSTRUCT + CHECK + TF
)


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics, name -> (value, unit), in BENCHMARK.json order."""
    count = "count"
    return {
        "linalg.rref.calls": (t.calls(*RREF), count),
        "linalg.rref.self_s": (t.self_s(*RREF), "s"),
        "linalg.rref.calls_empty": (t.counts["linalg.rref.calls_empty"], count),
        "linalg.rref.calls_tiny": (t.counts["linalg.rref.calls_tiny"], count),
        "linalg.rref.calls_small": (t.counts["linalg.rref.calls_small"], count),
        "linalg.rref.calls_large": (t.counts["linalg.rref.calls_large"], count),
        "linalg.solve.calls": (t.calls(*SOLVE), count),
        "linalg.solve.self_s": (t.self_s(*SOLVE), "s"),
        "linalg.mul.calls": (t.calls(*MUL), count),
        "linalg.mul.self_s": (t.self_s(*MUL), "s"),
        "linalg.mul.madds": (t.counts["linalg.mul.madds"], count),
        "linalg.self_s": (t.layer_self_s("linalg"), "s"),
        "algebra.table.calls": (t.calls(*TABLE_INIT), count),
        "algebra.table.self_s": (t.self_s(*TABLE), "s"),
        "algebra.quiver.calls": (t.calls(*QUIVER), count),
        "algebra.quiver.self_s": (t.self_s(*QUIVER), "s"),
        "algebra.self_s": (t.layer_self_s("algebra"), "s"),
        "modules.hom_basis.calls": (t.calls(*HOM_BASIS), count),
        "modules.hom_basis.self_s": (t.self_s(*HOM_BASIS), "s"),
        "modules.hom_basis.unknowns": (t.counts["modules.hom_basis.unknowns"], count),
        "modules.sample_modules.calls": (t.calls(*SAMPLE), count),
        "modules.sample_modules.self_s": (t.self_s(*SAMPLE), "s"),
        "modules.proj_cover.self_s": (t.self_s(*PROJ_COVER), "s"),
        "modules.inj_hull.self_s": (t.self_s(*INJ_HULL), "s"),
        "modules.morphisms_built": (t.calls(*MORPHISM_INIT), count),
        "modules.modules_built": (t.calls(*MODULE_INIT), count),
        "modules.self_s": (t.layer_self_s("modules"), "s"),
        "homology.resolution.self_s": (t.self_s(*RESOLUTION), "s"),
        "homology.ext.calls": (t.calls(*EXT), count),
        "homology.ext.self_s": (t.self_s(*EXT), "s"),
        "homology.torsion.calls": (t.calls(*TORSION), count),
        "homology.torsion.self_s": (t.self_s(*TORSION), "s"),
        "homology.transpose.self_s": (t.self_s(*TRANSPOSE), "s"),
        "homology.dims.self_s": (t.self_s(*DIMS), "s"),
        "homology.self_s": (t.layer_self_s("homology"), "s"),
        "arseq.ext1.self_s": (t.self_s(*EXT1), "s"),
        "arseq.construct.calls": (t.calls(*CONSTRUCT_ENTRY), count),
        "arseq.construct.self_s": (t.self_s(*CONSTRUCT), "s"),
        "arseq.check.self_s": (t.self_s(*CHECK), "s"),
        "arseq.tf.self_s": (t.self_s(*TF), "s"),
        "arseq.self_s": (t.layer_self_s("arseq"), "s"),
        "verify.self_s": (t.layer_self_s("verify"), "s"),
        "verify.pool_s": (t.self_s(POOL_KEY), "s"),
        "corpus.load.self_s": (t.layer_self_s("corpus"), "s"),
        "cli.self_s": (t.layer_self_s("cli"), "s"),
    }


def missing_keys(t: Tracer) -> list:
    """Named functions the metrics expect that the installed code lacks."""
    return sorted(k for k in NAMED_KEYS if k not in t.stats)
