"""Tests for the verification suites and the Nakayama scan."""

import itertools
import json
import os
import shutil
from collections import Counter

import pytest

import ardom.verify
from ardom.algebra import InputError, table_from_text
from ardom.arseq import has_n_tf_ar_sequences, knit_indecomposables
from ardom.corpus import load_corpus
from ardom.homology import CappedNat, domdim_algebra, ext_module, grade, torsion
from ardom.modules import (
    nakayama_indecomposables,
    projective,
    sample_modules,
    serialize_module,
    zero_module,
)
from ardom.verify import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    SUITES,
    Verdict,
    _cyclic_series,
    _kleene_and,
    run_suite,
    scan_nakayama_question,
    verify_cor47,
    verify_gendo_cor,
    verify_gorenstein,
    verify_grade_formulas,
    verify_main_theorem,
)

CORPUS_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="module")
def corpus():
    return load_corpus(CORPUS_ROOT)


@pytest.fixture(scope="module")
def by_id(corpus):
    return {e.entry_id: e for e in corpus}


# --- three-valued helpers ---------------------------------------------------


def test_kleene_and_truth_table():
    assert _kleene_and(True, True) is True
    assert _kleene_and(True, False) is False
    assert _kleene_and(False, None) is False  # False dominates the unknown
    assert _kleene_and(True, None) is None
    assert _kleene_and() is True


def test_cyclic_series_enumeration():
    series = _cyclic_series(2, 4)
    assert series == [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    # (2, 4) drops a length-2 step and is not admissible; (3, 2) is the
    # rotation of (2, 3) and must not reappear
    assert (2, 4) not in series and (3, 2) not in series
    assert _cyclic_series(1, 3) == [(2,), (3,)]


def _cyclic_series_by_product(m, max_len):
    """The former enumerator: every tuple in range(2, max_len + 1)^m."""
    seen = set()
    for c in itertools.product(range(2, max_len + 1), repeat=m):
        if all(c[(i + 1) % m] >= c[i] - 1 for i in range(m)):
            seen.add(min(c[i:] + c[:i] for i in range(m)))
    return sorted(seen)


def test_cyclic_series_match_the_product_enumeration():
    for m in range(1, 7):
        for max_len in range(1, 8):
            assert _cyclic_series(m, max_len) == _cyclic_series_by_product(m, max_len), (m, max_len)
    assert [len(_cyclic_series(m, m)) for m in (6, 7)] == [210, 796]


# --- individual checks on corpus entries ------------------------------------


def test_main_theorem_negative_instance(by_id):
    v = verify_main_theorem(by_id["ka2"].load_table(), 1)
    assert v.status == "pass"
    assert v.detail["ar_side"] is False
    assert v.detail["gc_side"] is False
    assert v.detail["domdim"] == "1"
    assert v.detail["mueller"] == "2"
    assert v.detail["witness"] == {"vertex": "v2", "term": "V", "degree": 1}


def test_main_theorem_positive_instance(by_id):
    tbl = by_id["nak-344"].load_table()
    v2 = verify_main_theorem(tbl, 2)
    assert v2.status == "pass"
    assert v2.detail["ar_side"] is True and v2.detail["gc_side"] is True
    assert "witness" not in v2.detail
    v3 = verify_main_theorem(tbl, 3)
    assert v3.status == "pass"
    assert v3.detail["ar_side"] is False and v3.detail["gc_side"] is False
    assert v3.detail["witness"]["degree"] == 3


def test_main_theorem_across_corpus(corpus):
    verdicts, code = run_suite(corpus, suites=("main",), ns=(1, 2, 3))
    assert code == EXIT_PASS
    assert len(verdicts) == 3 * len(corpus)
    assert all(v.status == "pass" for v in verdicts)


def test_gendo_corollary(corpus, by_id):
    verdicts, code = run_suite(corpus, suites=("gendo",), ns=(1, 2, 3))
    assert code == EXIT_PASS
    # only the two algebras carrying the flag are checked
    assert sorted({v.algebra for v in verdicts}) == ["auslander-x2", "auslander-x3"]
    assert len(verdicts) == 6
    for v in verdicts:
        assert v.status == "pass"
        assert v.detail["fang_koenig"] is True
    vac = verify_gendo_cor(by_id["ka2"].load_table(), 1)
    assert vac.status == "pass"
    assert vac.detail["note"] == "vacuous: algebra not flagged gendo_symmetric"


def test_gorenstein_check_statuses(by_id):
    v = verify_gorenstein(by_id["ka2"].load_table())
    assert v.status == "pass"
    assert v.detail["gorenstein"] == "1"
    assert v.detail["ext_g_dim"] == 1
    assert v.detail["ar_side"] is False
    assert v.detail["failing_term"] == {"vertex": "v2", "term": "V", "degree": 1}

    vac = verify_gorenstein(by_id["nak-22"].load_table())
    assert vac.status == "pass"
    assert vac.detail["gorenstein"] == "0"
    assert vac.detail["note"] == "vacuous: Gorenstein dimension 0"

    und = verify_gorenstein(by_id["nak-233"].load_table())
    assert und.status == "inconclusive"
    assert und.detail["gorenstein"] == ">=31"


def test_gorenstein_across_corpus(corpus):
    verdicts, code = run_suite(corpus, suites=("gorenstein",))
    assert code == EXIT_INCONCLUSIVE
    off = [v for v in verdicts if v.status != "pass"]
    assert [v.algebra for v in off] == ["nak-233"]
    assert off[0].status == "inconclusive"


def test_grade_formulas_details(by_id):
    kron = verify_grade_formulas(by_id["kronecker"].load_table(), sample_size=8)
    assert kron.status == "pass"
    assert kron.detail["zero_domdim_branch"] == "minimum grade is 1 as required"

    ka2 = verify_grade_formulas(by_id["ka2"].load_table(), sample_size=8)
    assert ka2.status == "pass"
    assert ka2.detail["min_simple_grade"] == "1"
    assert "zero_domdim_branch" not in ka2.detail

    selfinj = verify_grade_formulas(by_id["nak-22"].load_table(), sample_size=8)
    assert selfinj.status == "pass"
    assert selfinj.detail["domdim"].startswith("inf")
    assert selfinj.detail["min_simple_grade"].startswith("inf")


# relation-free tables of domdim 0 that no manifest labels: kQ/I is
# hereditary iff I = 0, so clause (d) reads its hypothesis off the table
UNLABELLED_HEREDITARY = {
    "a3-zigzag": "vertices v1 v2 v3\narrow a v1 v2\narrow b v3 v2\n",
    "d4-into-centre": "vertices c x y z\narrow a x c\narrow b y c\narrow d z c\n",
}


@pytest.mark.parametrize(
    "name, p", [("a3-zigzag", 101), ("a3-zigzag", 2), ("d4-into-centre", 101)]
)
def test_grade_formula_d_runs_on_every_relation_free_table_of_domdim_0(name, p):
    tbl = table_from_text(f"field {p}\n" + UNLABELLED_HEREDITARY[name], label=name)
    v = verify_grade_formulas(tbl)
    assert v.status == "pass"
    assert v.detail["domdim"] == "0" and v.detail["min_simple_grade"] == "1"
    assert v.detail["zero_domdim_branch"] == "minimum grade is 1 as required"


def test_grade_formula_d_skips_a_table_with_relations():
    # a relation makes the algebra non-hereditary: domdim 0 alone is not (d)
    text = (
        "field 101\nvertices v1 v2 v3 v4\n"
        "arrow a v1 v2\narrow b v2 v3\narrow c v4 v2\nrelation a*b\n"
    )
    tbl = table_from_text(text, label="a4-with-a-relation")
    v = verify_grade_formulas(tbl)
    assert v.status == "pass" and v.detail["domdim"] == "0"
    assert "zero_domdim_branch" not in v.detail


# the module set each corpus entry's grade bounds run over: domdim 0 is
# vacuous, a Nakayama quiver lists its Σ dim P(v) uniserials, and the two
# representation-finite non-Nakayama entries knit their AR quivers
GRADE_ROUTES = {
    "kronecker": {"kind": "vacuous"},
    "wild3": {"kind": "vacuous"},
    "auslander-x3": {"kind": "all indecomposables", "count": 21},
    "comm-square": {"kind": "all indecomposables", "count": 11},
}


def test_grade_formulas_across_corpus(corpus):
    verdicts, code = run_suite(corpus, suites=("grade",), sample_size=32)
    assert code == EXIT_PASS
    assert len(verdicts) == len(corpus)
    for entry, v in zip(corpus, verdicts):
        assert v.status == "pass"
        dim = entry.load_table().dimension
        route = GRADE_ROUTES.get(entry.entry_id, {"kind": "all indecomposables", "count": dim})
        assert v.detail["modules"] == route
        assert v.detail["bounds_checked"] == 5 * route.get("count", 0)
        assert "seed" not in v.detail and "sample_size" not in v.detail


SAMPLED_WHY = (
    "checked on a sample of 16 modules (seed 0) only: "
    "the AR quiver did not knit within --sample-size 16"
)


def test_an_algebra_that_does_not_knit_within_the_budget_is_sampled(by_id):
    # auslander-x3 has 21 indecomposables: 16 modules do not hold them, and
    # bounds that hold on a sample prove nothing
    tbl = by_id["auslander-x3"].load_table()
    v = verify_grade_formulas(tbl, sample_size=16)
    assert v.status == "inconclusive"
    assert v.detail["modules"] == {"kind": "sampled", "size": 16, "seed": 0}
    assert v.detail["bounds_checked"] == 5 * 16
    assert v.detail["why"] == SAMPLED_WHY
    v = verify_cor47(tbl, sample_size=16)
    assert v.status == "inconclusive"
    assert v.detail["modules"] == {"kind": "sampled", "size": 16, "seed": 0}
    assert v.detail["why"] == SAMPLED_WHY
    assert run_suite([by_id["auslander-x3"]], suites=("grade",), sample_size=16)[1] == (
        EXIT_INCONCLUSIVE
    )


def test_a_failing_sampled_module_fails_the_record(by_id, monkeypatch):
    # a counterexample is a proof, sample or not
    tbl = by_id["auslander-x3"].load_table()
    sample = sample_modules(tbl, seed=0, size=16)
    # pretend a sampled module of grade 0, not simple, is its own torsion:
    # 0 < domdim 2
    idx, first = next(
        (i, m) for i, m in enumerate(sample) if m.total_dim > 1 and grade(m) == CappedNat.exact(0)
    )
    real = ardom.verify.torsion
    monkeypatch.setattr(ardom.verify, "torsion", lambda m: m if m is first else real(m))
    v = verify_grade_formulas(tbl, sample_size=16)
    assert v.status == "fail" and "why" not in v.detail
    assert (v.detail["witness"]["sample_index"], v.detail["witness"]["which"]) == (idx, "torsion")
    monkeypatch.setattr(ardom.verify, "torsion", real)
    monkeypatch.setattr(ardom.verify, "pdim", lambda m, cap=30: CappedNat.exact(3))
    v = verify_cor47(tbl, sample_size=16)
    assert v.status == "fail" and "why" not in v.detail
    assert "sample_index" in v.detail["witness"]


def test_a_failing_knitted_module_is_named_in_the_witness(by_id, monkeypatch):
    # pretend ind[4] of comm-square is its own torsion: grade 0 < domdim 1
    import ardom.verify

    real = ardom.verify.torsion
    monkeypatch.setattr(ardom.verify, "torsion", lambda m: m if m.label == "ind[4]" else real(m))
    tbl = by_id["comm-square"].load_table()
    v = verify_grade_formulas(tbl)
    assert v.status == "fail"
    w = v.detail["witness"]
    assert (w["indecomposable"], w["which"], w["grade"]) == (4, "torsion", "0")
    listed = knit_indecomposables(tbl, 64)
    assert w["module_dims"] == list(listed[4].module.dims) == [0, 1, 1, 1]
    assert w["module_text"] == serialize_module(listed[4].module)


def test_cor47_on_auslander_entries(by_id):
    for eid, route, expected_witnesses in (
        ("auslander-x2", {"kind": "all indecomposables", "count": 5}, 2),
        ("auslander-x3", {"kind": "all indecomposables", "count": 21}, 14),
    ):
        v = verify_cor47(by_id[eid].load_table(), sample_size=32)
        assert v.status == "pass"
        assert v.detail["modules"] == route
        assert v.detail["nonzero_torsion_witnesses"] == expected_witnesses
        assert v.detail["gldim"] == "2" and v.detail["domdim"] == "2"


NAKAYAMA_IDS = ("ka2", "linear-a3", "linear-a4", "auslander-x2") + tuple(
    f"nak-{s}" for s in ("22", "33", "32", "432", "344", "233")
)


def _bound_grades(m):
    return [grade(torsion(m))] + [grade(ext_module(m, i)) for i in range(1, 5)]


@pytest.mark.parametrize("eid", NAKAYAMA_IDS)
def test_sampled_grades_are_bounded_by_the_uniserial_minimum(eid, by_id):
    # additivity: every module is a sum of uniserials, so each of its five
    # grades is at least the least one over the uniserials
    tbl = by_id[eid].load_table()
    uniserial = [_bound_grades(m) for _, _, m in nakayama_indecomposables(tbl)]
    least = [CappedNat.least(column) for column in zip(*uniserial)]
    for m in sample_modules(tbl, seed=0):
        for g, bound in zip(_bound_grades(m), least):
            assert g.ge(bound) is True, (m.label, str(g), str(bound))


def test_a_failing_uniserial_is_named_in_the_witness(by_id, monkeypatch):
    # pretend P(v1) = P(v1)/rad^3 of nak-32 is its own torsion: grade 0 < domdim 2
    import ardom.verify

    real = ardom.verify.torsion
    monkeypatch.setattr(
        ardom.verify, "torsion", lambda m: m if m.label == "P(v1)/rad^3" else real(m)
    )
    tbl = by_id["nak-32"].load_table()
    v = verify_grade_formulas(tbl)
    assert v.status == "fail"
    w = v.detail["witness"]
    assert (w["vertex"], w["length"], w["which"], w["grade"]) == ("v1", 3, "torsion", "0")
    assert w["module_text"] == serialize_module(projective(tbl, 0))
    assert "sample_index" not in w


def test_inconclusive_verdicts_name_what_stayed_undecided(by_id):
    nak344 = by_id["nak-344"].load_table()
    v = verify_grade_formulas(nak344, cap=1)
    assert v.status == "inconclusive"
    assert v.detail["why"] == (
        "not decided at cap 1: domdim (>=2); grade of torsion of all indecomposables "
        "module 0 (P(v1)/rad^1) >= domdim (>=2 against >=2), and 14 more undecided bounds"
    )
    v = verify_grade_formulas(by_id["auslander-x3"].load_table(), cap=1, sample_size=8)
    assert v.detail["why"] == (
        "not decided at cap 1: domdim (>=2); grade of torsion of sampled module 0 (S(v1)) "
        ">= domdim (>=2 against >=2), and 10 more undecided bounds; checked on a sample of "
        "8 modules (seed 0) only: the AR quiver did not knit within --sample-size 8"
    )
    v = verify_main_theorem(nak344, 2, cap=1)
    assert v.status == "inconclusive"
    assert v.detail["why"] == "not decided at cap 1: mueller >= 4 (mueller >=3)"
    v = verify_gendo_cor(by_id["auslander-x2"].load_table(), 1, cap=1)
    assert v.status == "inconclusive"
    assert v.detail["why"] == (
        "not decided at cap 1: domdim >= 3 (domdim >=2); domdim == mueller (>=2 against 2)"
    )


def test_cor47_precondition_failure(by_id):
    v = verify_cor47(by_id["kronecker"].load_table())
    assert v.status == "fail"
    assert v.detail["witness"] == "precondition 2 <= gldim <= domdim does not hold"


# --- the Nakayama scan ------------------------------------------------------


def test_scan_nakayama_two_simples():
    verdict, rows = scan_nakayama_question(2, 6)
    assert verdict.status == "pass"
    assert verdict.detail["bound"] == 4
    assert verdict.detail["scanned"] == 9 == len(rows)
    assert verdict.detail["note"] == "no counterexample; the bound held on every entry"
    by_series = {tuple(r["series"]): r for r in rows}
    assert by_series[(2, 2)]["selfinjective"] is True
    assert "tf_ar_at_2m" not in by_series[(2, 2)]
    r23 = by_series[(2, 3)]
    assert r23["selfinjective"] is False
    assert r23["domdim"] == "2"
    assert r23["tf_ar_at_2m"] is False
    assert r23["first_failure"]["degree"] >= 1


def test_scan_nakayama_three_simples():
    verdict, rows = scan_nakayama_question(3, 5)
    assert verdict.status == "pass"
    assert verdict.detail["scanned"] == 12
    assert all(r["tf_ar_at_2m"] is False for r in rows if not r["selfinjective"])


def test_scan_nakayama_bound_only_mode():
    verdict, rows = scan_nakayama_question(2, 4, question=False)
    assert verdict.status == "pass"
    assert verdict.detail["scanned"] == 5
    assert all("tf_ar_at_2m" not in r for r in rows)


def test_scan_nakayama_single_simple():
    # one-vertex cyclic Nakayama algebras are truncated polynomial rings,
    # all selfinjective, so the question never even comes up
    verdict, rows = scan_nakayama_question(1, 3)
    assert verdict.status == "pass"
    assert [r["selfinjective"] for r in rows] == [True, True]


def test_scan_nakayama_validation():
    with pytest.raises(ValueError, match="at least one simple"):
        scan_nakayama_question(0, 4)
    with pytest.raises(ValueError, match="at least 2"):
        scan_nakayama_question(2, 1)


# --- suite runner -----------------------------------------------------------


def test_run_suite_validation(corpus):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(corpus, suites=("nope",))
    with pytest.raises(ValueError, match="empty corpus"):
        run_suite([])
    with pytest.raises(InputError, match="seed"):
        run_suite(corpus, suites=("grade",), seed=-1)
    for size in (0, -3):
        with pytest.raises(InputError, match="sample_size"):
            run_suite(corpus, suites=("grade",), sample_size=size)


def test_run_suite_all_suites_deterministic(corpus):
    kwargs = dict(suites=SUITES, ns=(1, 2, 3), sample_size=16)
    verdicts, code = run_suite(corpus, **kwargs)
    assert code == EXIT_INCONCLUSIVE  # nak-233's Gorenstein dimension is open
    assert len(verdicts) == 78
    # and auslander-x3 does not knit within 16 modules: its grade and cor47
    # records rest on a sample
    assert Counter(v.status for v in verdicts) == {"pass": 75, "inconclusive": 3}
    again, code2 = run_suite(corpus, **kwargs)
    assert code2 == code
    assert [v.to_json() for v in verdicts] == [v.to_json() for v in again]


def test_run_suite_parallel_matches_serial(corpus):
    subset = corpus[:6]
    serial, code1 = run_suite(subset, suites=("main", "gorenstein"), ns=(1,))
    parallel, code2 = run_suite(subset, suites=("main", "gorenstein"), ns=(1,), jobs=2)
    assert code1 == code2
    assert [v.to_json() for v in serial] == [v.to_json() for v in parallel]


def test_run_suite_fail_dominates_exit_code(corpus, monkeypatch):
    import ardom.verify as verify_mod

    monkeypatch.setattr(
        verify_mod,
        "verify_gorenstein",
        lambda tbl, cap=30: Verdict("gorenstein", tbl.label, "fail", {"forced": True}),
    )
    _, code = run_suite(corpus[:2], suites=("gorenstein",))
    assert code == EXIT_FAIL


def test_verdict_serialization():
    v = Verdict("main-theorem", "ka2", "pass", {"n": 1, "zeta": "z", "alpha": "a"})
    parsed = json.loads(v.to_json())
    assert parsed == {
        "check": "main-theorem",
        "algebra": "ka2",
        "status": "pass",
        "detail": {"n": 1, "zeta": "z", "alpha": "a"},
    }
    assert v.to_json() == v.to_json()
    line = v.to_text()
    assert line.startswith("PASS") and "ka2" in line and "alpha=a" in line
    assert Verdict("x", "y", "inconclusive").to_text().startswith("????")
    assert Verdict("x", "y", "fail").to_text().startswith("FAIL")


def test_run_suite_starts_at_most_one_worker_per_entry(corpus, monkeypatch):
    import ardom.verify as verify_mod

    started = []

    class RecordingPool:  # runs the workers in this process
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", RecordingPool)
    subset = corpus[:2]
    serial, code1 = run_suite(subset, suites=("main",), ns=(1,))
    pooled, code2 = run_suite(subset, suites=("main",), ns=(1,), jobs=3)
    assert started == [2]
    assert code1 == code2
    assert [v.to_json() for v in serial] == [v.to_json() for v in pooled]
    run_suite(subset[:1], suites=("main",), ns=(1,), jobs=3)
    assert started == [2]  # one entry: no pool at all
    with pytest.raises(ValueError, match="jobs"):
        run_suite(subset, suites=("main",), jobs=0)


# --- the corpus over other primes ----------------------------------------------


@pytest.fixture(scope="module")
def statuses_over_101():
    verdicts, _ = run_suite(load_corpus(CORPUS_ROOT), suites=SUITES, ns=(1, 2, 3))
    return [(v.algebra, v.check, v.status) for v in verdicts]


@pytest.mark.parametrize("p", [2, 3])
def test_corpus_replay_over_small_primes(p, statuses_over_101, tmp_path):
    # every corpus algebra is presented over GF(101); read each over GF(p)
    root = tmp_path / "corpus"
    shutil.copytree(CORPUS_ROOT, root)
    for entry in load_corpus(str(root)):
        path = root / entry.file
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert sum(line.strip() == "field 101" for line in lines) == 1, entry.entry_id
        path.write_text(
            "".join(f"field {p}\n" if line.strip() == "field 101" else line for line in lines),
            encoding="utf-8",
        )
    entries = load_corpus(str(root))
    assert all(e.load_table().field.p == p for e in entries)
    verdicts, _ = run_suite(entries, suites=SUITES, ns=(1, 2, 3))
    assert len(verdicts) == 78
    # over GF(2) and GF(3) neither auslander-x3 nor comm-square knits, and
    # a record that rests on a sample is inconclusive where GF(101) passes
    sampled = [
        (v.algebra, v.check) for v in verdicts if v.detail.get("modules", {}).get("kind") == "sampled"
    ]
    assert sampled == [
        ("auslander-x3", "grade-formulas"),
        ("auslander-x3", "torsion-pdim"),
        ("comm-square", "grade-formulas"),
    ]
    expected = [
        (a, c, "inconclusive" if (a, c) in sampled else status)
        for a, c, status in statuses_over_101
    ]
    assert [(v.algebra, v.check, v.status) for v in verdicts] == expected


# --- failing and undecided branches, each reached by substituting one invariant ---


def _entry_code(by_id, eid, suite, **kwargs):
    """The exit code of ``run_suite`` over the single entry ``eid``."""
    return run_suite([by_id[eid]], suites=(suite,), **kwargs)[1]


def test_gendo_fails_when_domdim_disagrees_with_mueller(by_id, monkeypatch):
    monkeypatch.setattr(
        ardom.verify, "domdim_R_via_mueller", lambda tbl, cap=30: CappedNat.exact(3)
    )
    v = verify_gendo_cor(by_id["auslander-x2"].load_table(), 1)
    assert v.status == "fail"
    assert (v.detail["domdim"], v.detail["mueller"], v.detail["fang_koenig"]) == ("2", "3", False)
    assert v.detail["witness"] == "dominant dimension disagrees with the Mueller formula"
    assert "why" not in v.detail
    assert _entry_code(by_id, "auslander-x2", "gendo", ns=(1,)) == EXIT_FAIL


def test_gendo_fails_when_the_ar_side_disagrees(by_id, monkeypatch):
    tbl = by_id["auslander-x2"].load_table()
    # domdim 2 < n + 2 = 3 while the AR side is claimed to hold: no term to name
    monkeypatch.setattr(ardom.verify, "has_n_tf_ar_sequences", lambda tbl, n: (True, []))
    v = verify_gendo_cor(tbl, 1)
    assert (v.status, v.detail["ar_side"]) == ("fail", True)
    assert v.detail["witness"] == "AR sequences n-torsion-free although domdim < n + 2"
    assert _entry_code(by_id, "auslander-x2", "gendo", ns=(1,)) == EXIT_FAIL
    # both dimensions read 5 >= n + 2 while the AR side fails: the failing term
    monkeypatch.setattr(ardom.verify, "has_n_tf_ar_sequences", has_n_tf_ar_sequences)
    for name in ("domdim_algebra", "domdim_R_via_mueller"):
        monkeypatch.setattr(ardom.verify, name, lambda tbl, cap=30: CappedNat.exact(5))
    v = verify_gendo_cor(tbl, 1)
    assert (v.status, v.detail["ar_side"], v.detail["fang_koenig"]) == ("fail", False, True)
    assert v.detail["witness"] == {"vertex": "v1", "term": "X", "degree": 1}
    assert _entry_code(by_id, "auslander-x2", "gendo", ns=(1,)) == EXIT_FAIL


def test_gorenstein_dimension_zero_is_vacuous(by_id, monkeypatch):
    monkeypatch.setattr(ardom.verify, "gorenstein_dim", lambda tbl, cap=30: CappedNat.exact(0))
    v = verify_gorenstein(by_id["ka2"].load_table())
    assert v.status == "pass"
    assert v.detail == {"cap": 30, "gorenstein": "0", "note": "vacuous: Gorenstein dimension 0"}
    assert _entry_code(by_id, "ka2", "gorenstein") == EXIT_PASS


def test_gorenstein_fails_with_a_witness_of_each_side(by_id, monkeypatch):
    tbl = by_id["ka2"].load_table()  # Gorenstein dimension 1
    real_ext_dim = ardom.verify.ext_dim
    monkeypatch.setattr(ardom.verify, "ext_dim", lambda m, n, i: 0)
    v = verify_gorenstein(tbl)
    assert (v.status, v.detail["ext_g_dim"], v.detail["ar_side"]) == ("fail", 0, False)
    assert v.detail["witness"] == {"g": 1, "ext_nonzero": False, "ar_property_fails": True}
    assert "failing_term" not in v.detail
    assert _entry_code(by_id, "ka2", "gorenstein") == EXIT_FAIL
    monkeypatch.setattr(ardom.verify, "has_n_tf_ar_sequences", lambda tbl, n: (True, []))
    v = verify_gorenstein(tbl)
    assert v.detail["witness"] == {"g": 1, "ext_nonzero": False, "ar_property_fails": False}
    monkeypatch.setattr(ardom.verify, "ext_dim", real_ext_dim)
    v = verify_gorenstein(tbl)
    assert (v.status, v.detail["ext_g_dim"], v.detail["ar_side"]) == ("fail", 1, True)
    assert v.detail["witness"] == {"g": 1, "ext_nonzero": True, "ar_property_fails": False}
    assert _entry_code(by_id, "ka2", "gorenstein") == EXIT_FAIL


def test_grade_formula_a_fails_with_a_witness(by_id, monkeypatch):
    monkeypatch.setattr(ardom.verify, "domdim_algebra", lambda tbl, cap=30: CappedNat.exact(3))
    v = verify_grade_formulas(by_id["ka2"].load_table())
    assert v.status == "fail"
    assert v.detail["witness"] == {
        "formula": "domdim == min grade of simple torsion",
        "domdim": "3",
        "min_simple_grade": "1",
    }
    assert "modules" not in v.detail and "bounds_checked" not in v.detail
    assert _entry_code(by_id, "ka2", "grade") == EXIT_FAIL


def test_grade_formula_d_fails_on_a_hereditary_entry(by_id, monkeypatch):
    # the Kronecker algebra: domdim 0, hereditary and not linear A_n
    monkeypatch.setattr(ardom.verify, "grade", lambda m, cap=30: CappedNat.exact(2))
    v = verify_grade_formulas(by_id["kronecker"].load_table())
    assert v.status == "fail"
    assert v.detail["witness"] == {
        "formula": "hereditary non-linear entries have minimum grade 1",
        "min_simple_grade": "2",
    }
    assert "zero_domdim_branch" not in v.detail
    assert _entry_code(by_id, "kronecker", "grade") == EXIT_FAIL


@pytest.mark.parametrize("name", ["kronecker", "wild3"])
def test_grade_formula_d_is_inconclusive_on_a_capped_grade(name, by_id):
    # at cap 0 the least simple-torsion grade reads >=1: a bound, not a refutation
    v = verify_grade_formulas(by_id[name].load_table(), cap=0)
    assert v.status == "inconclusive"
    assert v.detail["min_simple_grade"] == ">=1"
    assert "witness" not in v.detail and "zero_domdim_branch" not in v.detail
    assert v.detail["why"] == (
        "not decided at cap 0: hereditary non-linear entries have minimum grade 1 (>=1)"
    )
    assert _entry_code(by_id, name, "grade", cap=0) == EXIT_INCONCLUSIVE


def test_verify_at_cap_0_fails_no_record(capsys):
    from ardom.cli import main

    code = main(["verify", "--cap", "0", "--n", "1..3", CORPUS_ROOT])
    statuses = {json.loads(line)["status"] for line in capsys.readouterr().out.splitlines()}
    assert (code, "fail" in statuses) == (EXIT_INCONCLUSIVE, False)


def test_torsion_pdim_is_inconclusive_below_the_dimensions(by_id):
    v = verify_cor47(by_id["auslander-x2"].load_table(), cap=1)
    assert v.status == "inconclusive"
    assert v.detail == {
        "cap": 1,
        "gldim": ">=2",
        "domdim": ">=2",
        "why": "gldim >=2 or domdim >=2 not exact at cap 1",
    }
    assert _entry_code(by_id, "auslander-x2", "cor47", cap=1) == EXIT_INCONCLUSIVE


def test_torsion_pdim_fails_with_the_module_as_witness(by_id, monkeypatch):
    monkeypatch.setattr(ardom.verify, "pdim", lambda m, cap=30: CappedNat.exact(3))
    tbl = by_id["auslander-x2"].load_table()
    v = verify_cor47(tbl)
    assert v.status == "fail"
    w = v.detail["witness"]
    assert sorted(w) == sorted(
        ["vertex", "length", "module_dims", "module_text", "torsion_dims", "pdim", "expected"]
    )
    assert (w["pdim"], w["expected"]) == ("3", 2)
    names = tbl.quiver.vertices
    (module,) = [
        m
        for top, length, m in nakayama_indecomposables(tbl)
        if (names[top], length) == (w["vertex"], w["length"])
    ]
    assert w["module_text"] == serialize_module(module)
    assert w["module_dims"] == list(module.dims)
    assert w["torsion_dims"] == list(torsion(module).dims)
    assert any(w["torsion_dims"])
    assert "nonzero_torsion_witnesses" not in v.detail
    assert _entry_code(by_id, "auslander-x2", "cor47") == EXIT_FAIL


def test_torsion_pdim_notes_when_no_torsion_is_found(by_id, monkeypatch):
    monkeypatch.setattr(ardom.verify, "torsion", lambda m: zero_module(m.algebra))
    v = verify_cor47(by_id["auslander-x2"].load_table())
    assert v.status == "pass"
    assert v.detail["nonzero_torsion_witnesses"] == 0
    assert v.detail["note"] == "no nonzero torsion found"
    assert _entry_code(by_id, "auslander-x2", "cor47") == EXIT_PASS


def _scan_code(capsys, *extra):
    from ardom.cli import main

    code = main(["scan", "nakayama", "--simples", "2", "--max-len", "3", "--question", *extra])
    capsys.readouterr()
    return code


def test_scan_rows_are_inconclusive_below_the_dominant_dimension(capsys):
    verdict, rows = scan_nakayama_question(2, 3, cap=1)
    assert verdict.status == "inconclusive"
    assert "note" not in verdict.detail and "witness" not in verdict.detail
    (row,) = [r for r in rows if not r["selfinjective"]]
    assert (row["series"], row["domdim"]) == ([2, 3], ">=2")
    assert row["note"] == "dominant dimension undecided at this cap"
    assert _scan_code(capsys, "--cap", "1") == EXIT_INCONCLUSIVE


def test_scan_rows_fail_on_either_violation(capsys, monkeypatch):
    # dominant dimension 2m = 4 on the non-selfinjective [2, 3]
    monkeypatch.setattr(ardom.verify, "domdim_algebra", lambda tbl, cap=30: CappedNat.exact(4))
    verdict, rows = scan_nakayama_question(2, 3)
    assert verdict.status == "fail"
    (row,) = [r for r in rows if not r["selfinjective"]]
    assert row["violates"] == "domdim >= 2m on a non-selfinjective algebra"
    assert row["tf_ar_at_2m"] is False and "first_failure" in row
    assert verdict.detail["witness"] == row
    assert "note" not in verdict.detail
    assert _scan_code(capsys) == EXIT_FAIL
    # 2m-torsion-free AR sequences on it, with its real dominant dimension
    monkeypatch.setattr(ardom.verify, "domdim_algebra", domdim_algebra)
    monkeypatch.setattr(ardom.verify, "has_n_tf_ar_sequences", lambda tbl, n: (True, []))
    verdict, rows = scan_nakayama_question(2, 3)
    assert verdict.status == "fail"
    (row,) = [r for r in rows if not r["selfinjective"]]
    assert (row["domdim"], row["tf_ar_at_2m"]) == ("2", True)
    assert row["violates"] == "2m-torsion-free AR sequences without selfinjectivity"
    assert "first_failure" not in row
    assert verdict.detail["witness"] == row
    assert _scan_code(capsys) == EXIT_FAIL


def test_a_scan_that_fails_stays_failed_after_an_undecided_row(capsys, monkeypatch):
    # [2, 3] violates the bound and the later [3, 3] is undecided: fail
    # outranks inconclusive, and the witness is the first violating row
    values = {
        "nakayama-cyclic-2-3": CappedNat.exact(99),
        "nakayama-cyclic-3-3": CappedNat.at_least(1),
    }
    monkeypatch.setattr(
        ardom.verify,
        "domdim_algebra",
        lambda tbl, cap=30: values.get(tbl.label) or domdim_algebra(tbl, cap),
    )
    for question in (True, False):
        verdict, rows = scan_nakayama_question(2, 3, question=question)
        assert [r["domdim"] for r in rows[1:]] == ["99", ">=1"]
        assert verdict.status == "fail"
        assert verdict.detail["witness"] is rows[1]
        assert rows[1]["violates"] == "domdim >= 2m on a non-selfinjective algebra"
        assert "violates" not in rows[2] and "note" in rows[2]
    assert _scan_code(capsys) == EXIT_FAIL
    # a later violating row, [3, 4], leaves the witness at [2, 3]
    monkeypatch.setattr(ardom.verify, "domdim_algebra", lambda tbl, cap=30: CappedNat.exact(99))
    verdict, rows = scan_nakayama_question(2, 4, question=False)
    assert [r["series"] for r in rows if "violates" in r] == [[2, 3], [3, 4]]
    assert verdict.detail["witness"]["series"] == [2, 3]
