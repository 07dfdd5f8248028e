"""The memo layer: one dict per table, filled by ``@memoized`` functions."""

import ast
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import numpy as np

import ardom
import ardom.arseq
import ardom.homology
import ardom.linalg
import ardom.modules
from ardom.algebra import Path, nakayama_from_kupisch, opposite, table_from_text
from ardom.arseq import almost_split_from_projective, has_n_tf_ar_sequences
from ardom.corpus import load_corpus
from ardom.homology import (
    DEFAULT_CAP,
    CappedNat,
    domdim_algebra,
    ext_classes,
    ext_dim,
    ext_module,
    _presentation,
    syzygy,
    torsion,
    torsion_free_failure_degree,
    transpose,
)
from ardom.linalg import PrimeField
from ardom.modules import (
    ModuleRep,
    _hom_rows,
    cokernel,
    direct_sum,
    dual,
    inj_hull,
    injective,
    is_injective,
    is_isomorphic,
    is_projective,
    kernel,
    memoized,
    morphism_from_flat,
    omega,
    proj_cover,
    proj_sum,
    projective,
    projective_paths,
    radical,
    regular,
    sample_modules,
    simple,
    top,
    top_vertices,
)
from ardom.verify import SUITES, _cyclic_series, _entry_verdicts
from reference import arrow_left_mult, kronecker_hom_rows, left_mult_morphism

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
KRONECKER_TEXT = "field 101\nvertices v1 v2\narrow a v1 v2\narrow b v1 v2\n"
# the Auslander algebra of k[x]/(x^2)
DIM5_TEXT = "field 101\nvertices v1 v2\narrow a v1 v2\narrow b v2 v1\nrelation a*b\n"


def test_a_call_is_keyed_with_its_defaults_filled_in():
    tbl = table_from_text(KRONECKER_TEXT)
    calls = []

    @memoized
    def probe(tbl, v, extra=1):
        calls.append((v, extra))
        return object()

    first = probe(tbl, 1)
    assert probe(tbl, 1, extra=1) is first
    assert probe(tbl, v=1) is first
    assert probe(tbl, 1, 1) is first
    assert probe(tbl, 1, extra=2) is not first
    assert calls == [(1, 1), (1, 2)]
    assert probe.__name__ == "probe"  # the tracer reads the wrapped name


def test_a_module_argument_counts_by_its_signature_and_keys_its_table():
    tbl = table_from_text(DIM5_TEXT)
    calls = []

    @memoized
    def probe(m):
        calls.append(m)
        return object()

    m = projective(tbl, 0)
    twin = ModuleRep(tbl, m.dims, [a.copy() for a in m.mats], label="twin")
    assert twin is not m and twin.signature() == m.signature()
    assert probe(twin) is probe(m)
    assert calls == [twin]
    assert ("probe", m.signature()) in tbl._memo


def test_a_call_that_raises_stores_nothing():
    tbl = table_from_text(KRONECKER_TEXT)
    attempts = []

    @memoized
    def flaky(tbl, v):
        attempts.append(v)
        if len(attempts) == 1:
            raise RuntimeError("first attempt fails")
        return object()

    with pytest.raises(RuntimeError):
        flaky(tbl, 0)
    assert not any(key[0] == "flaky" for key in tbl._memo)
    out = flaky(tbl, 0)
    assert flaky(tbl, 0) is out
    assert attempts == [0, 0]


def test_unknown_simple_raises_every_time_and_stores_nothing():
    tbl = table_from_text(KRONECKER_TEXT)
    before = dict(tbl._memo)
    for _ in range(2):
        with pytest.raises(ValueError, match="unknown vertex"):
            simple(tbl, 99)
    assert tbl._memo == before


def test_almost_split_at_an_injective_projective_raises_every_time():
    tbl = nakayama_from_kupisch([2, 2], cyclic=True)  # selfinjective
    for _ in range(2):
        with pytest.raises(ValueError, match="is injective"):
            almost_split_from_projective(tbl, 0)
    assert not any(key[0] == "almost_split_from_projective" for key in tbl._memo)


def test_almost_split_default_choice_shares_one_entry():
    tbl = table_from_text(DIM5_TEXT)
    (v,) = [v for v in range(2) if not is_injective(projective(tbl, v))]
    seq = almost_split_from_projective(tbl, v)
    assert almost_split_from_projective(tbl, v, choice=0) is seq
    assert almost_split_from_projective(tbl, vertex=v) is seq
    assert almost_split_from_projective(tbl, v, choice=1) is not seq


def test_sample_is_drawn_once_and_every_call_returns_one_tuple(monkeypatch):
    tbl = table_from_text(KRONECKER_TEXT)
    calls = []
    original = ardom.modules._hom_rows

    def counting(m, n):
        calls.append(1)
        return original(m, n)

    monkeypatch.setattr(ardom.modules, "_hom_rows", counting)
    first = sample_modules(tbl)
    drawn = len(calls)
    assert drawn > 0
    second = sample_modules(tbl, 0, 64)
    third = sample_modules(tbl, seed=0, size=64)
    assert len(calls) == drawn
    assert isinstance(first, tuple) and first is second is third


def test_homology_results_are_shared_by_modules_with_one_signature(fresh_corpus_table):
    tbl = fresh_corpus_table("ka2", 101)
    checked = 0
    for m in sample_modules(tbl, size=12):
        one, two = (ModuleRep(tbl, m.dims, [a.copy() for a in m.mats]) for _ in range(2))
        assert one is not two
        pairs = [(torsion(one), torsion(two)), (transpose(one), transpose(two))]
        pairs += [(ext_module(one, i), ext_module(two, i)) for i in range(3)]
        for a, b in pairs:  # one memoised result
            assert a is b
        checked += 1
    assert checked == 12


def test_the_reference_arrow_left_mult_is_left_multiplication():
    tbl = table_from_text(DIM5_TEXT)
    for a, (name, _, _) in enumerate(tbl.quiver.arrows):
        v, w = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
        lm = arrow_left_mult(tbl, a)
        direct = left_mult_morphism(tbl, {Path(v, (a,), w): 1}, src=w, dst=v)
        assert all((x == y).all() for x, y in zip(lm.mats, direct.mats)), name


def test_ext_modules_and_transposes_share_one_dual_presentation(fresh_corpus_table):
    # Ext^0 and Ext^1 of m and Tr m all read d_1* of m, and Ext^1 reads d_2*,
    # which is d_1* of Ω m; no Yoneda block or arrow multiplication is kept
    tbl = fresh_corpus_table("auslander-x3", 101)

    def dual_presentations():
        return {key[1] for key in tbl._memo if key[0] == "_dual_presentation"}

    mods = sample_modules(tbl, size=16)
    for m in mods:
        for i in range(3):
            ext_module(m, i)
    assert not any(key[0] == "arrow_left_mult" for key in tbl._memo)
    syzygies = [syzygy(m, j) for m in mods for j in range(3)]
    shared = {s.signature() for s in syzygies if not s.is_zero}
    assert dual_presentations() == shared
    for m in mods:
        transpose(m)
    assert dual_presentations() == shared


def test_projective_paths_replace_the_per_module_memo(fresh_corpus_table):
    tbl = fresh_corpus_table("auslander-x2", 3)
    assert "_memo" not in ModuleRep.__slots__
    for v in range(len(tbl.quiver.vertices)):
        paths = projective_paths(tbl, v)
        assert projective_paths(tbl, v) is paths
        assert tuple(len(at) for at in paths) == projective(tbl, v).dims
        assert all(p.source == v and p.target == w for w, at in enumerate(paths) for p in at)


PACKAGE_MODULES = sorted(info.name for info in pkgutil.iter_modules(ardom.__path__))


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_modules_and_arseq_have_no_assert_statements(name):
    # every module of the package: python -O strips an assert
    tree = ast.parse(inspect.getsource(importlib.import_module(f"ardom.{name}")))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_every_imported_name_is_read_or_exported(name):
    # an import left behind by a deletion is dead code the linters here miss
    module = importlib.import_module(f"ardom.{name}")
    tree = ast.parse(inspect.getsource(module))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(imported - read - set(getattr(module, "__all__", ()))) == []


def _package_trees():
    return {
        name: ast.parse(inspect.getsource(importlib.import_module(f"ardom.{name}")))
        for name in PACKAGE_MODULES
    }


def _writes_a_location(text: ast.JoinedStr) -> bool:
    """Whether an f-string interpolates a line or column number."""
    parts = text.values
    for before, part in zip([None, *parts], parts):
        if isinstance(part, ast.FormattedValue):
            read = {n.id for n in ast.walk(part.value) if isinstance(n, ast.Name)}
            lead = before.value if isinstance(before, ast.Constant) else ""
            if read & {"line", "lineno", "col", "colno"} or re.search(r"\b(line|col)\W*$", lead):
                return True
    return False


def test_input_errors_are_located_and_input_files_opened_in_one_place():
    # InputError.__str__ is the one place that writes "(line N, col C)", and
    # read_input the one place that opens an input file and names it
    placed, opened = [], []
    for name, tree in _package_trees().items():
        formatter = [n for n in ast.walk(tree) if getattr(n, "name", None) == "InputError"]
        allowed = {id(n) for cls in formatter for n in ast.walk(cls)}
        placed += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.JoinedStr) and id(node) not in allowed and _writes_a_location(node)
        ]
        for func in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(func):
                if not isinstance(node, ast.Call) or func.name == "read_input":
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and getattr(callee.value, "id", None) == "os":
                    # a file descriptor: the cli points stdout at os.devnull on a broken pipe
                    if callee.attr == "open" and ast.unparse(node.args[0]) == "os.devnull":
                        continue
                if getattr(callee, "id", getattr(callee, "attr", None)) in (
                    "open", "read_text", "read_bytes"
                ):
                    opened.append(f"{name}.{func.name}:{node.lineno}")
    assert placed == []
    assert opened == []


def test_every_private_function_is_read_in_the_package():
    # a helper that a fold or a deletion leaves behind is dead code too
    trees = _package_trees()
    trees["__init__"] = ast.parse(inspect.getsource(ardom))
    read = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    private = [
        f"{name}.{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert private
    assert [p for p in private if p.split(".")[1] not in read] == []


def test_flags_are_read_only_where_they_are_checked_copied_shown_or_gate_gendo():
    # selfinjectivity is read off the table (modules.is_selfinjective), so a
    # flag is read only by the check of its claim, the opposite's copy, info's
    # display, and the gate of the gendo suite, which still trusts its flag
    allowed = {
        "algebra.build_table",
        "algebra.opposite",
        "cli._cmd_info",
        "verify._entry_verdicts",
        "verify.verify_gendo_cor",
    }
    reads = {
        f"{name}.{getattr(top, 'name', top.lineno)}"
        for name, tree in _package_trees().items()
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "flags" and isinstance(node.ctx, ast.Load)
    }
    assert "algebra.build_table" in reads
    assert sorted(reads - allowed) == []


@pytest.mark.parametrize("name", PACKAGE_MODULES)
def test_every_public_name_resolves(name):
    # a stale __all__ entry left by a deletion breaks only the star-import
    module = importlib.import_module(f"ardom.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
    namespace = {}
    exec(f"from ardom.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


# ---------------------------------------------------------------------------
# shared resolution steps and cochain matrices
# ---------------------------------------------------------------------------


def covers(tbl):
    """The signature of every module whose cover sits in the memo of tbl or
    of its opposite: proj_cover builds one per signature, on a miss."""
    return [key[1] for t in (tbl, opposite(tbl)) for key in t._memo if key[0] == "proj_cover"]


@pytest.mark.parametrize("name", ["nak-233", "auslander-x3", "comm-square"])
def test_builders_whose_syzygies_coincide_share_each_cover(name, fresh_corpus_table):
    # degree i of the resolution of Ω m is degree i + 1 of the resolution of m
    tbl = fresh_corpus_table(name, 101)
    shifted_pairs = 0
    for v in range(len(tbl.quiver.vertices)):
        m = simple(tbl, v)
        terms = [proj_cover(syzygy(m, i))[0] for i in range(5)]
        syz = syzygy(m)
        if syz.is_zero:
            continue
        before = len(covers(tbl))
        assert all(syzygy(syz, k) is syzygy(m, k + 1) for k in range(5))
        shifted = [proj_cover(syzygy(syz, i))[0] for i in range(4)]
        assert len(covers(tbl)) == before
        assert syzygy(syz, 4).is_zero == syzygy(m, 5).is_zero
        assert all(x is y for x, y in zip(shifted, terms[1:], strict=True))
        shifted_pairs += 1
    assert shifted_pairs
    assert covers(tbl)


@pytest.mark.parametrize("p", [2, 101])
def test_is_projective_and_is_injective_read_the_tops(p, fresh_corpus_table):
    tbl = fresh_corpus_table("auslander-x2", p)
    for v in range(len(tbl.quiver.vertices)):
        for m in (simple(tbl, v), projective(tbl, v), injective(tbl, v)):
            before = len(covers(tbl))
            projective_m, injective_m = is_projective(m), is_injective(m)
            assert len(covers(tbl)) == before  # no cover built
            # m and its dual, whose cover is D of the hull
            for side in (m, dual(m)):
                assert proj_cover(side)[0].vertices == top_vertices(side)
            assert projective_m == (proj_cover(m)[0].module.total_dim == m.total_dim)
            assert injective_m == (proj_cover(dual(m))[0].module.total_dim == m.total_dim)
    assert covers(tbl)


def test_a_shared_cover_may_target_a_bit_identical_twin(fresh_corpus_table):
    tbl = fresh_corpus_table("nak-233", 3)
    m = simple(tbl, 1)
    twin = ModuleRep(tbl, m.dims, [a.copy() for a in m.mats], label="twin")
    first = proj_cover(m)
    ps, cover = proj_cover(twin)
    assert (ps, cover) == first
    assert cover.target is m and cover.target.signature() == twin.signature()
    assert omega(twin) is omega(m)


@pytest.mark.parametrize("name", ["auslander-x3", "nak-233"])
def test_a_cochain_matrix_is_built_once_per_module_target_and_degree(
    name, monkeypatch, fresh_corpus_table
):
    probe = fresh_corpus_table(name, 101)
    nv = len(probe.quiver.vertices)
    i = 1
    v0 = max(range(nv), key=lambda v: ext_module(simple(probe, v), i).total_dim)
    assert ext_module(simple(probe, v0), i).total_dim > 0
    tbl = fresh_corpus_table(name, 101)
    m = simple(tbl, v0)
    built = []
    original = ardom.modules._cochain_matrix

    def counting(ps_tgt, ps_src, elements, n):
        built.append(n.signature())
        return original(ps_tgt, ps_src, elements, n)

    monkeypatch.setattr(ardom.modules, "_cochain_matrix", counting)
    for v in range(nv):
        pv = projective(tbl, v)
        ext_dim(m, pv, i)
        ext_dim(m, pv, i + 1)
    assert len(built) == 3 * nv  # degrees i-1, i and i+1 for each P(v)
    assert ext_module(m, i).total_dim > 0
    assert len(built) == 3 * nv
    assert len(set(built)) == nv


@pytest.mark.parametrize("name", ["auslander-x3", "comm-square", "nak-233", "kronecker"])
def test_each_cochain_matrix_is_eliminated_once(name, monkeypatch, fresh_corpus_table):
    # the cocycles kept with the matrix give its rank and every kernel read
    tbl = fresh_corpus_table(name, 101)
    built, ids = [], set()
    original = ardom.modules._cochain_matrix

    def keeping(*args):
        built.append(original(*args))
        ids.add(id(built[-1]))
        return built[-1]

    eliminated = []
    eliminate = PrimeField._eliminate

    def counting(self, m):
        key = id(m.base) if id(m.base) in ids else id(m)  # the matrix or its transpose
        if key in ids:
            eliminated.append(key)
        return eliminate(self, m)

    monkeypatch.setattr(ardom.modules, "_cochain_matrix", keeping)
    monkeypatch.setattr(PrimeField, "_eliminate", counting)
    nv = len(tbl.quiver.vertices)
    mods = [regular(tbl), *(simple(tbl, v) for v in range(nv)), *sample_modules(tbl, size=6)]
    for m in mods:
        for n in mods:
            for i in range(3):
                ext_dim(m, n, i)
                ext_classes(m, n, i)
            _hom_rows(m, n)
            assert ext_classes(m, n, 0)[0] is ardom.modules._cochain(m, n)[1]
    assert len(built) > len(mods)
    assert sorted(eliminated) == sorted(ids)


def test_each_minimal_presentation_is_decoded_once(monkeypatch):
    (entry,) = [e for e in load_corpus(CORPUS) if e.entry_id == "auslander-x3"]
    decoded = []
    original = ardom.modules.projsum_map_elements

    def counting(ps_src, ps_tgt, d):
        decoded.append(d)
        return original(ps_src, ps_tgt, d)

    monkeypatch.setattr(ardom.modules, "projsum_map_elements", counting)
    verdicts = _entry_verdicts(entry, SUITES, (1, 2, 3), DEFAULT_CAP, 0, 64)
    assert len(verdicts) == 9  # main and gendo at n = 1..3, gorenstein, grade, cor47
    tbl = entry.load_table()
    entries = [
        key for t in (tbl, opposite(tbl)) for key in t._memo if key[0] == "_presentation"
    ]
    assert entries and len(decoded) == len(entries)


# ---------------------------------------------------------------------------
# the sample: reused Yoneda rows, skipped repeated cokernels, named entries
# ---------------------------------------------------------------------------


def reference_sample(tbl, seed, size):
    """The sample drawn as before: every cover, Hom basis (by the Kronecker
    system) and cokernel built afresh, and labels set on the modules
    themselves."""
    nv = len(tbl.quiver.vertices)
    out, seen = [], set()

    def push(mod, label=None):
        if mod.is_zero or len(out) >= size or mod.signature() in seen:
            return
        seen.add(mod.signature())
        if label:
            mod.label = label
        out.append(mod)

    for make in (simple, projective, injective):
        for v in range(nv):
            push(make(tbl, v))
    for v, name in enumerate(tbl.quiver.vertices):
        push(radical(projective(tbl, v))[0], label=f"rad(P({name}))")
        push(top(projective(tbl, v))[0], label=f"top(P({name}))")
    for v in range(nv):
        mod = simple(tbl, v)
        for depth in range(1, 4):
            mod = kernel(proj_cover(mod)[1])[0]
            push(mod, label=f"syz^{depth}(S_{tbl.quiver.vertices[v]})")
            if mod.is_zero:
                break
    for v in range(nv):
        mod = simple(tbl, v)
        for depth in range(1, 4):
            mod = cokernel(inj_hull(mod)[1])[0]
            push(mod, label=f"cosyz^{depth}(S_{tbl.quiver.vertices[v]})")
            if mod.is_zero:
                break
    rng = np.random.default_rng(seed)
    attempts = 0
    while len(out) < size and attempts < 40 * size:
        attempts += 1
        mult0 = rng.integers(0, 3, size=nv)
        mult1 = rng.integers(0, 3, size=nv)
        verts0 = [v for v in range(nv) for _ in range(mult0[v])]
        verts1 = [v for v in range(nv) for _ in range(mult1[v])]
        if not verts0 or not verts1:
            continue
        ps = proj_sum(tbl, verts0)
        tgt = proj_sum(tbl, verts1).module
        rows = kronecker_hom_rows(ps.module, tgt)
        if rows.shape[0] == 0:
            continue
        coeffs = rng.integers(0, tbl.field.p, size=rows.shape[0])
        fmor = morphism_from_flat(ps.module, tgt, coeffs @ rows % tbl.field.p)
        push(cokernel(fmor)[0], label=f"sample[{len(out)}]")
    return out


@pytest.mark.parametrize(
    "name, p, seed, size",
    [
        ("auslander-x3", 101, 0, 64),
        ("auslander-x2", 2, 1, 40),
        ("nak-233", 3, 0, 64),
        ("comm-square", 101, 5, 30),
        ("kronecker", 3, 0, 64),
    ],
)
def test_sample_equals_a_reference_loop_without_reuse(name, p, seed, size, fresh_corpus_table):
    def content(mods):  # signatures without the table's id, and labels
        return [(m.signature()[1:], m.label) for m in mods]

    got = content(sample_modules(fresh_corpus_table(name, p), seed, size))
    want = content(reference_sample(fresh_corpus_table(name, p), seed, size))
    assert got == want


# ---------------------------------------------------------------------------
# the syzygy is built only when read, once per module signature
# ---------------------------------------------------------------------------


def count_kernels(monkeypatch):
    """The signature of every module that ``kernel`` is asked for a
    kernel of a map into."""
    built = []
    original = ardom.modules.kernel

    def counting(fmor):
        built.append(fmor.target.signature())
        return original(fmor)

    monkeypatch.setattr(ardom.modules, "kernel", counting)
    return built


@pytest.mark.parametrize("name", ["auslander-x2", "nak-233", "comm-square"])
def test_projectivity_and_hulls_build_no_syzygy(name, monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    built = count_kernels(monkeypatch)
    for v in range(len(tbl.quiver.vertices)):
        for m in (simple(tbl, v), projective(tbl, v), injective(tbl, v)):
            is_projective(m)
            is_injective(m)
            inj_hull(m)
    assert not built
    # projectivity reads tops; the hulls' covers live on the opposite side
    assert any(key[0] == "top_vertices" for key in tbl._memo)
    assert not any(key[0] == "proj_cover" for key in tbl._memo)
    assert any(key[0] == "proj_cover" for key in opposite(tbl)._memo)
    assert not any(key[0] == "omega" for t in (tbl, opposite(tbl)) for key in t._memo)


@pytest.mark.parametrize("name", ["auslander-x3", "nak-233", "kronecker"])
def test_reading_a_syzygy_builds_no_cokernel(name, monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    quotients = []
    original = ardom.linalg.PrimeField.quotient_by_rowspace

    def counting(self, sub, n):
        quotients.append(n)
        return original(self, sub, n)

    monkeypatch.setattr(ardom.linalg.PrimeField, "quotient_by_rowspace", counting)
    for v in range(len(tbl.quiver.vertices)):
        for m in (simple(tbl, v), injective(tbl, v)):
            syzygy(m, 4)
            for i in range(4):
                _presentation(syzygy(m, i))
    assert any(key[0] == "omega" for key in tbl._memo)
    assert not quotients


@pytest.mark.parametrize("name", ["nak-233", "auslander-x3", "comm-square"])
def test_omega_builds_each_syzygy_once_per_signature(name, monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    built = count_kernels(monkeypatch)
    for v in range(len(tbl.quiver.vertices)):
        m = simple(tbl, v)
        twin = ModuleRep(tbl, m.dims, [a.copy() for a in m.mats], label="twin")
        for k in range(1, 6):
            assert syzygy(twin, k) is syzygy(m, k)
        for i in range(6):
            _presentation(syzygy(m, i))
            _presentation(syzygy(injective(tbl, v), i))
        syzygy(injective(tbl, v), 5)
    entries = [key for key in tbl._memo if key[0] == "omega"]
    assert built and len(built) == len(set(built)) == len(entries)


# ---------------------------------------------------------------------------
# projectivity and tops read off the shared covers
# ---------------------------------------------------------------------------

CORPUS_IDS = sorted(entry.entry_id for entry in load_corpus(CORPUS))
# the cyclic Kupisch series of the benchmark's Nakayama scan, (m, L) = (4, 6), (5, 5)
SCAN_SERIES = [s for m, top_len in ((4, 6), (5, 5)) for s in _cyclic_series(m, top_len)]


def domdim_through_dual_sums(m, cap, dual_sums):
    """domdim_module as it asked before: is the dual of each whole cover
    sum projective?  Notes the signature of each such sum of two or more
    summands in ``dual_sums``."""
    cos = dual(m)
    earlier = []
    for j in range(cap + 1):
        ps, _ = proj_cover(cos)
        term = dual(ps.module)
        if len(ps.vertices) > 1:
            dual_sums.add(term.signature())
        if not is_projective(term):
            return CappedNat.exact(j)
        cos = omega(cos)[0]
        if cos.is_zero:
            return CappedNat.infinite("finite coresolution with all terms projective")
        if any(is_isomorphic(prev, cos) is True for prev in earlier):
            return CappedNat.infinite("periodic coresolution among projectives")
        earlier.append(cos)
    return CappedNat.at_least(cap + 1)


def domdim_table(name, fresh_corpus_table):
    """A corpus entry by id, or a cyclic Nakayama algebra by its Kupisch
    series written as ``c1-c2-...``."""
    if name in CORPUS_IDS:
        return fresh_corpus_table(name, 101)
    return nakayama_from_kupisch([int(c) for c in name.split("-")], cyclic=True)


@pytest.mark.parametrize("name", CORPUS_IDS + ["-".join(map(str, s)) for s in SCAN_SERIES])
def test_domdim_covers_no_dual_projective_sum(name, fresh_corpus_table):
    # the j-th term ⊕ I(v) is projective iff each I(v) is, so on the
    # algebra's own side domdim covers only its indecomposable injectives
    tbl = domdim_table(name, fresh_corpus_table)
    got = domdim_algebra(tbl)
    new = set(covers(tbl))
    injectives = {injective(tbl, v).signature() for v in range(len(tbl.quiver.vertices))}
    assert {sig for sig in new if sig[0] == id(tbl)} <= injectives
    # domdim A is read off the P(v) one at a time: neither A nor DA is built
    built = [key[0] for t in (tbl, opposite(tbl)) for key in t._memo]
    assert "regular" not in built and "dual_regular" not in built
    dual_sums = set()
    assert domdim_through_dual_sums(regular(tbl), DEFAULT_CAP, dual_sums) == got
    assert dual_sums and not dual_sums & new


@pytest.mark.parametrize("name", ["ka2", "auslander-x3", "nak-233", "comm-square"])
def test_torsion_freeness_of_a_projective_builds_no_transpose(name, fresh_corpus_table):
    # Tr P = 0, so no presentation or transpose of P is needed
    tbl = fresh_corpus_table(name, 101)
    for v in range(len(tbl.quiver.vertices)):
        for n in (1, 2, 5):
            assert torsion_free_failure_degree(projective(tbl, v), n) is None
    assert not any(key[0] in ("transpose", "_presentation") for key in tbl._memo)


def test_isomorphism_across_different_tops_solves_no_hom_system(monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table("ka2", 101)
    calls = []
    original = ardom.modules._hom_rows

    def counting(m, n):
        calls.append((m.label, n.label))
        return original(m, n)

    monkeypatch.setattr(ardom.modules, "_hom_rows", counting)
    p0, semisimple = projective(tbl, 0), direct_sum(tbl, [simple(tbl, 0), simple(tbl, 1)])
    assert p0.dims == semisimple.dims == (1, 1)
    assert is_isomorphic(p0, semisimple) is False
    assert not calls
    assert is_isomorphic(projective(tbl, 1), simple(tbl, 1)) is True
    assert calls  # equal tops: the summands are certified through the solver


@pytest.mark.parametrize("name", ["ka2", "auslander-x3", "nak-233", "comm-square"])
def test_a_sum_of_one_projective_shares_its_blocks(name, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    for v in range(len(tbl.quiver.vertices)):
        p = projective(tbl, v)
        one = proj_sum(tbl, (v,)).module
        assert one is p
        ref = direct_sum(tbl, [p])
        assert one.signature() == ref.signature()
        assert all(a.dtype == b.dtype and a.shape == b.shape for a, b in zip(one.mats, ref.mats))


def test_the_knitted_list_is_built_once_and_shares_the_projective_sequences(
    monkeypatch, fresh_corpus_table
):
    import ardom.arseq
    from ardom.arseq import ar_report, has_n_tf_ar_sequences, knit_indecomposables
    from ardom.verify import verify_cor47, verify_grade_formulas

    built = []
    original = ardom.arseq.almost_split

    def counted(u, rad_end, *args):
        built.append(u.label)
        return original(u, rad_end, *args)

    monkeypatch.setattr(ardom.arseq, "almost_split", counted)
    tbl = fresh_corpus_table("auslander-x3", 101)
    grade = verify_grade_formulas(tbl)
    cor47 = verify_cor47(tbl)
    assert grade.detail["modules"] == cor47.detail["modules"] == {
        "kind": "all indecomposables", "count": 21
    }
    # the mesh gives the successors of every other module: four sequences,
    # none at a projective, each through almost_split with the record's
    # rad End basis
    assert built == ["ind[3]", "ind[4]", "ind[13]", "ind[17]"]
    assert sum(key[0] == "knit_indecomposables" for key in tbl._memo) == 1
    listed = knit_indecomposables(tbl, 64)
    assert [ind.module.label for ind in listed].count("P(v1)") == 1
    assert len(built) == 4
    # ar_report builds the two projective sequences once, through the
    # memoised almost_split_from_projective, and reuses them for n = 2, 3
    for n in (1, 2, 3):
        has_n_tf_ar_sequences(tbl, n)
        ar_report(tbl, n)
        assert len(built) == 6 and sorted(built[4:]) == ["P(v1)", "P(v2)"]


@pytest.mark.parametrize(
    "name, systems, sequences", [("auslander-x3", 36, 4), ("comm-square", 14, 0)]
)
def test_a_fresh_knit_solves_a_pinned_number_of_hom_systems(
    name, systems, sequences, monkeypatch, fresh_corpus_table
):
    import ardom.arseq
    from ardom.arseq import knit_indecomposables

    counts = {"_hom_rows": 0, "almost_split": 0}
    for module, fn in ((ardom.modules, "_hom_rows"), (ardom.arseq, "almost_split")):
        original = getattr(module, fn)

        def counted(*args, _fn=fn, _original=original):
            counts[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(module, fn, counted)
    assert knit_indecomposables(fresh_corpus_table(name, 101), 64) is not None
    assert counts == {"_hom_rows": systems, "almost_split": sequences}


# ---------------------------------------------------------------------------
# thin modules: work that follows the nonzero data
# ---------------------------------------------------------------------------


def wrap_everywhere(monkeypatch, name, make):
    """Replace the modules function ``name`` by ``make(original)`` in every
    package namespace that bound it."""
    original = getattr(ardom.modules, name)
    wrapped = make(original)
    for layer in (ardom.modules, ardom.homology, ardom.arseq):
        if getattr(layer, name, None) is original:
            monkeypatch.setattr(layer, name, wrapped)


def test_a_thin_nakayama_algebra_builds_no_injective_and_eliminates_no_empty_block(monkeypatch):
    # every vertex space of the modules of this walk has dimension at most 1
    tbl = nakayama_from_kupisch([3, 3, 4, 4, 4], cyclic=True)
    injectives, empty, calls, depth = [], [], [], [0]

    def inside(original):
        def run(*args, **kwargs):
            calls.append(original.__name__)
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        return run

    wrap_everywhere(monkeypatch, "kernel", inside)
    wrap_everywhere(monkeypatch, "submodule_from_rows", inside)
    wrap_everywhere(monkeypatch, "injective", lambda f: lambda *a: injectives.append(a) or f(*a))
    field = ardom.linalg.PrimeField
    eliminate, coords = field._eliminate, field.coords_in_rowspace

    def counting(self, m):
        if depth[0] and not m.size:
            empty.append(m.shape)
        return eliminate(self, m)

    def reading(self, basis, vecs):
        # an arrow whose acted rows have no entries is not read
        if depth[0] and not np.size(vecs):
            empty.append(("coords", basis.shape, np.shape(vecs)))
        return coords(self, basis, vecs)

    monkeypatch.setattr(field, "_eliminate", counting)
    monkeypatch.setattr(field, "coords_in_rowspace", reading)
    assert domdim_algebra(tbl).is_exact
    assert has_n_tf_ar_sequences(tbl, 10)[0] is False
    assert "kernel" in calls and "submodule_from_rows" in calls
    assert not injectives
    assert not any(key[0] == "injective" for t in (tbl, opposite(tbl)) for key in t._memo)
    assert not empty
