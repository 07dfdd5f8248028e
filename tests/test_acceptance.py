"""Acceptance checks: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per guarantee.  Everything is exact arithmetic over GF(101) at the default
search cap 30 with sampling seed 0; total runtime is desk scale.
"""

import os

import pytest

from ardom.arseq import almost_split_from_projective, has_n_tf_ar_sequences
from ardom.cli import main
from ardom.corpus import load_corpus
from ardom.homology import (
    DEFAULT_CAP,
    CappedNat,
    domdim_algebra,
    domdim_module,
    domdim_R_via_mueller,
    ext_dim,
    ext_module,
    gldim,
    gorenstein_dim,
    grade,
    is_n_torsion_free,
    pdim,
    torsion,
    transpose,
)
from ardom.modules import (
    dual_regular,
    is_injective,
    is_isomorphic,
    is_projective,
    projective,
    regular,
    sample_modules,
    simple,
)
from ardom.verify import (
    run_suite,
    verify_cor47,
    verify_gendo_cor,
    verify_main_theorem,
)
from reference import is_n_torsion_free_via_dual

CORPUS_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
SEED = 0


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_ROOT)


@pytest.fixture(scope="module")
def by_id(corpus):
    return {e.entry_id: e for e in corpus}


def _simple_torsion_grades(tbl):
    return [
        grade(torsion(simple(tbl, i)), cap=DEFAULT_CAP)
        for i in range(len(tbl.quiver.vertices))
    ]


def test_hereditary_examples_have_domdim_zero_and_min_grade_one(by_id):
    for eid in ("kronecker", "wild3"):
        tbl = by_id[eid].load_table()
        dd = domdim_algebra(tbl)
        assert dd.is_exact and dd.value == 0, eid
        mg = CappedNat.least(_simple_torsion_grades(tbl))
        assert mg.is_exact and mg.value == 1, eid


def test_hereditary_torsion_fixes_nonprojectives_and_kills_projectives(corpus):
    checked = 0
    for entry in corpus:
        if not entry.is_classified("hereditary"):
            continue
        tbl = entry.load_table()
        for name, m in entry.load_known_indecomposables():
            t = torsion(m)
            if is_projective(m):
                assert t.is_zero, (entry.entry_id, name)
            else:
                assert is_isomorphic(t, m), (entry.entry_id, name)
            checked += 1
    assert checked >= 20


def test_torsion_free_ar_sequences_match_both_dominant_dimensions(corpus):
    verdicts, code = run_suite(corpus, suites=("main",), ns=(1, 2, 3))
    assert code == 0
    assert all(v.status == "pass" for v in verdicts)
    assert len(verdicts) == 3 * len(corpus)


def test_torsion_free_ar_sequences_force_dominant_dimension(corpus):
    for entry in corpus:
        tbl = entry.load_table()
        dd = domdim_algebra(tbl)
        for n in (1, 2, 3):
            holds, _ = has_n_tf_ar_sequences(tbl, n)
            if holds:
                assert dd.ge(n) is True, (entry.entry_id, n)


def test_gendo_symmetric_corollary_and_endo_formula(corpus):
    flagged = [e for e in corpus if "gendo_symmetric" in e.load_table().flags]
    assert len(flagged) >= 2
    for entry in flagged:
        tbl = entry.load_table()
        dd = domdim_algebra(tbl)
        mu = domdim_R_via_mueller(tbl)
        assert dd.is_exact and mu.is_exact and dd.value == mu.value, entry.entry_id
        for n in (1, 2, 3):
            holds, _ = has_n_tf_ar_sequences(tbl, n)
            assert (dd.value >= n + 2) == holds, (entry.entry_id, n)
            v = verify_gendo_cor(tbl, n)
            assert v.status == "pass", (entry.entry_id, n)


def test_grade_equalities_and_lower_bounds_at_positive_domdim(corpus):
    entries_hit = 0
    for entry in corpus:
        tbl = entry.load_table()
        dd = domdim_algebra(tbl)
        if not (dd.is_exact and 1 <= dd.value < DEFAULT_CAP):
            continue
        entries_hit += 1
        mg = CappedNat.least(_simple_torsion_grades(tbl))
        assert mg.is_exact and mg.value == dd.value, entry.entry_id
        sample = sample_modules(tbl, seed=SEED, size=50)
        assert len(sample) >= 50
        for idx, m in enumerate(sample):
            gt = grade(torsion(m))
            assert gt.ge(dd.value) is True, (entry.entry_id, idx, "torsion")
            for i in range(1, 5):
                ge = grade(ext_module(m, i))
                assert ge.ge(dd.value) is True, (entry.entry_id, idx, i)
    assert entries_hit >= 5


def test_auslander_entries_give_nonzero_torsion_projective_dimension_two(corpus):
    hit = 0
    for entry in corpus:
        if not entry.is_classified("auslander"):
            continue
        hit += 1
        tbl = entry.load_table()
        gl = gldim(tbl)
        dd = domdim_algebra(tbl)
        assert gl.is_exact and dd.is_exact and gl.value == dd.value == 2
        witnesses = 0
        for m in sample_modules(tbl, seed=SEED, size=64):
            t = torsion(m)
            if t.is_zero:
                continue
            witnesses += 1
            pd = pdim(t)
            assert pd.is_exact and pd.value == 2, entry.entry_id
        assert witnesses >= 1, entry.entry_id
        assert verify_cor47(tbl, seed=SEED).status == "pass"
    assert hit == 2


def test_finite_gorenstein_nakayama_entries_break_at_their_gorenstein_degree(corpus):
    hit = 0
    for entry in corpus:
        if not entry.is_classified("nakayama"):
            continue
        tbl = entry.load_table()
        if "selfinjective" in tbl.flags:
            continue
        g = gorenstein_dim(tbl)
        if not g.is_exact:
            continue  # the open-ended entry stays honest: no exact value at cap
        hit += 1
        assert g.value >= 1, entry.entry_id
        assert ext_dim(dual_regular(tbl), regular(tbl), g.value) != 0, entry.entry_id
        holds, _ = has_n_tf_ar_sequences(tbl, g.value)
        assert holds is False, entry.entry_id
    assert hit >= 3


def test_torsion_dimension_matches_transpose_route_and_dual_route(corpus):
    samples = 0
    for entry in corpus:
        tbl = entry.load_table()
        for m in sample_modules(tbl, seed=SEED, size=24):
            t = torsion(m)
            tr = transpose(m)
            lhs = sum(t.dims)
            rhs = ext_dim(tr, regular(tr.algebra), 1)
            assert lhs == rhs, entry.entry_id
            for n in (1, 2, 3):
                assert is_n_torsion_free(m, n) == is_n_torsion_free_via_dual(m, n), (
                    entry.entry_id,
                    n,
                )
            samples += 1
    assert samples >= 14 * 24


def test_almost_split_construction_is_correct_and_choice_independent(by_id, corpus):
    tbl = by_id["ka2"].load_table()
    seq = almost_split_from_projective(tbl, 1)  # the non-injective projective P(v2)
    assert seq.u.dims == (0, 1)
    assert seq.x.dims == (1, 1)
    assert seq.v.dims == (1, 0)
    assert is_isomorphic(seq.x, entry_module(by_id, "ka2", "interval-12"))
    assert is_isomorphic(seq.v, simple(tbl, 0))

    for entry in corpus:
        tbl = entry.load_table()
        for v in range(len(tbl.quiver.vertices)):
            if is_injective(projective(tbl, v)):
                continue
            first = almost_split_from_projective(tbl, v, choice=0)
            second = almost_split_from_projective(tbl, v, choice=1)
            first.check()
            assert is_isomorphic(first.x, second.x), (entry.entry_id, v)


def entry_module(by_id, eid, name):
    for label, m in by_id[eid].load_known_indecomposables():
        if label == name:
            return m
    raise KeyError(name)


def test_nakayama_scan_finds_no_counterexample(capsys):
    code = main(
        ["scan", "nakayama", "--simples", "2", "--max-len", "6", "--question"]
    )
    out1 = capsys.readouterr().out
    assert code == 0
    assert '"status": "pass"' in out1.splitlines()[-1]
    code = main(["scan", "nakayama", "--simples", "3", "--max-len", "5"])
    out2 = capsys.readouterr().out
    assert code == 0
    assert '"status": "pass"' in out2.splitlines()[-1]


def test_module_dominant_dimension_bounds_match_torsion_freeness(corpus):
    pairs = 0
    for entry in corpus:
        tbl = entry.load_table()
        dd = domdim_algebra(tbl)
        for m_bound in (1, 2):
            if not (dd.is_infinite or (dd.is_exact and dd.value >= m_bound)):
                continue
            for m in sample_modules(tbl, seed=SEED, size=20):
                lhs = domdim_module(m).ge(m_bound)
                rhs = is_n_torsion_free(m, m_bound)
                assert lhs is rhs, (entry.entry_id, m_bound)
                pairs += 1
    assert pairs >= 100
