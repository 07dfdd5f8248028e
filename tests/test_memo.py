"""The memo layer: one dict per table, filled by ``@memoized`` functions."""

import ast
import inspect

import pytest

import ardom.arseq
import ardom.modules
from ardom.algebra import Path, nakayama_from_kupisch, table_from_text
from ardom.arseq import almost_split_from_projective
from ardom.homology import ext_module, torsion, transpose
from ardom.modules import (
    ModuleRep,
    arrow_left_mult,
    is_injective,
    left_mult_morphism,
    memoized,
    projective,
    projective_paths,
    sample_modules,
    simple,
)

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


def test_sample_is_drawn_once_and_each_call_returns_a_new_list(monkeypatch):
    tbl = table_from_text(KRONECKER_TEXT)
    calls = []
    original = ardom.modules.projsum_hom_rows

    def counting(ps, n):
        calls.append(1)
        return original(ps, n)

    monkeypatch.setattr(ardom.modules, "projsum_hom_rows", counting)
    first = sample_modules(tbl)
    drawn = len(calls)
    assert drawn > 0
    second = sample_modules(tbl, 0, 64)
    third = sample_modules(tbl, seed=0, size=64)
    assert len(calls) == drawn
    assert first is not second and second is not third
    for other in (second, third):
        assert len(other) == len(first)
        assert all(a is b for a, b in zip(first, other))
    first.clear()
    assert len(sample_modules(tbl)) == len(second)


def test_homology_results_are_shared_by_modules_with_one_signature(fresh_corpus_table):
    tbl = fresh_corpus_table("ka2", 101)
    checked = 0
    for m in sample_modules(tbl, size=12):
        one, two = (ModuleRep(tbl, m.dims, [a.copy() for a in m.mats]) for _ in range(2))
        assert one is not two
        assert torsion(one) is torsion(two)
        assert transpose(one) is transpose(two)
        for i in range(3):
            assert ext_module(one, i) is ext_module(two, i)
        checked += 1
    assert checked == 12


def test_arrow_left_mult_is_built_once_per_arrow(monkeypatch):
    tbl = table_from_text(DIM5_TEXT)
    for a, (name, _, _) in enumerate(tbl.quiver.arrows):
        v, w = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
        lm = arrow_left_mult(tbl, a)
        direct = left_mult_morphism(tbl, {Path(v, (a,), w): 1}, src=w, dst=v)
        assert all((x == y).all() for x, y in zip(lm.mats, direct.mats)), name
        assert arrow_left_mult(tbl, a) is lm

    fresh = table_from_text(DIM5_TEXT)
    calls = []
    original = ardom.modules.left_mult_morphism

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(ardom.modules, "left_mult_morphism", counting)
    for m in sample_modules(fresh, size=16):
        for i in range(3):
            ext_module(m, i)
    assert 0 < len(calls) <= len(fresh.quiver.arrows)


def test_projective_paths_replace_the_per_module_memo(fresh_corpus_table):
    tbl = fresh_corpus_table("auslander-x2", 3)
    assert "_memo" not in ModuleRep.__slots__
    for v in range(len(tbl.quiver.vertices)):
        paths = projective_paths(tbl, v)
        assert projective_paths(tbl, v) is paths
        assert tuple(len(at) for at in paths) == projective(tbl, v).dims
        assert all(p.source == v and p.target == w for w, at in enumerate(paths) for p in at)


@pytest.mark.parametrize("module", [ardom.modules, ardom.arseq], ids=["modules", "arseq"])
def test_modules_and_arseq_have_no_assert_statements(module):
    tree = ast.parse(inspect.getsource(module))
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
