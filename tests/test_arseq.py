import dataclasses
import os

import numpy as np
import pytest

import ardom.arseq
import ardom.homology
import ardom.modules
from ardom.algebra import nakayama_from_kupisch, reverse_path, table_from_text
from ardom.arseq import (
    ArSequence,
    ArSequenceError,
    _cocycle,
    _rad_end_paths,
    almost_split,
    almost_split_from_projective,
    ar_report,
    failure_witness,
    first_failure,
    has_n_tf_ar_sequences,
    projective_rad_end,
)
from ardom.cli import main as cli_main
from ardom.corpus import load_corpus
from ardom.homology import (
    _presentation,
    ext_classes,
    ext_dim,
    ext_module,
    post_compose,
    tau_inverse,
    torsion_free_failure_degree,
)
from ardom.modules import (
    InvariantError,
    ModuleMorphism,
    cokernel,
    direct_sum,
    dual,
    identity_morphism,
    is_injective,
    is_isomorphic,
    kernel,
    proj_cover,
    projective,
    radical,
    sample_modules,
    simple,
    validate,
    zero_morphism,
)
from ardom.verify import _cyclic_series
from reference import hom_basis, is_n_torsion_free_via_dual, random_isomorphism_search

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="module")
def nak54():
    return nakayama_from_kupisch([5, 4], cyclic=True)


@pytest.fixture(scope="module")
def nak344():
    return nakayama_from_kupisch([3, 4, 4], cyclic=True)


@pytest.fixture(scope="module")
def nak233():
    return nakayama_from_kupisch([2, 3, 3], cyclic=True)


# ---------------------------------------------------------------------------
# the classical sequence over the A2 path algebra
# ---------------------------------------------------------------------------


def test_a2_classical_sequence(a2):
    seq = almost_split_from_projective(a2, 1)
    assert seq.u.dims == (0, 1)
    assert seq.x.dims == (1, 1)
    assert seq.v.dims == (1, 0)
    assert is_isomorphic(seq.x, projective(a2, 0)) is True
    assert is_isomorphic(seq.v, simple(a2, 0)) is True


def test_a2_sequence_is_short_exact(a2):
    seq = almost_split_from_projective(a2, 1)
    assert seq.x.total_dim == seq.u.total_dim + seq.v.total_dim
    assert seq.inclusion.is_injective_map()
    assert seq.surjection.is_surjective_map()
    assert seq.inclusion.compose(seq.surjection).is_zero
    assert kernel(seq.surjection)[0].total_dim == seq.u.total_dim


def test_a2_class_is_nonzero(a2):
    seq = almost_split_from_projective(a2, 1)
    coords = seq.class_coords(seq.class_map)
    assert np.any(coords)


def test_a2_injective_start_rejected(a2):
    # P(v1) is also the injective at v2; nothing starts there
    with pytest.raises(ValueError, match="injective"):
        almost_split_from_projective(a2, 0)


# ---------------------------------------------------------------------------
# the extension-group realization
# ---------------------------------------------------------------------------


def test_ext1_data_matches_cochain_route(a2, kronecker, dim5):
    for tbl, vertex in [(a2, 1), (kronecker, 0), (kronecker, 1), (dim5, 0)]:
        u = projective(tbl, vertex)
        seq = almost_split(u, projective_rad_end(tbl, vertex))
        v = seq.v
        dim = ext_classes(v, u, 1)[1].dim
        assert dim == ext_dim(v, u, 1)
        assert dim >= 1
        assert all(mat.shape == (dim, dim) for mat in seq.actions)
        for e in tbl.field.eye(dim):
            assert _cocycle(v, u, e).defect() is None
            assert np.array_equal(seq.class_coords(_cocycle(v, u, e)), e)


def test_ext1_route_disagreement_raises_without_asserts(monkeypatch):
    tbl = nakayama_from_kupisch([3, 2], cyclic=True)
    u = projective(tbl, 1)
    v = tau_inverse(u)
    monkeypatch.setattr(ardom.homology, "ext_dim", lambda *args: -1)
    with pytest.raises(InvariantError, match="graded Ext dimension mismatch"):
        ext_classes(v, u, 1)
    with pytest.raises(InvariantError, match="graded Ext dimension mismatch"):
        almost_split(u, projective_rad_end(tbl, 1))


def test_ext1_rejects_vanishing_group(monkeypatch, a2, nak54):
    # Ext^1(τ⁻¹U, U) read as zero leaves no socle class to choose, with an
    # empty rad End(U) (a2 at v2) and with one cycle acting (nak54 at v2)
    def vanishing(m, n, i):
        fld = m.algebra.field
        return fld.zeros(0, 0), fld.quotient_by_rowspace(fld.zeros(0, 0), 0)

    for module in (ardom.arseq, ardom.homology):
        monkeypatch.setattr(module, "ext_classes", vanishing)
    for tbl in (a2, nak54):
        rad_end = projective_rad_end(tbl, 1)
        assert len(rad_end) == (tbl is nak54)
        with pytest.raises(ArSequenceError, match="empty Ext-socle"):
            almost_split(projective(tbl, 1), rad_end)


def test_rad_action_present_and_annihilating(nak54):
    # Kupisch [5,4]: v2 carries a cycle of length 2 inside P(v2), and P(v2)
    # is not injective, so the radical of End acts through a real matrix
    assert not is_injective(projective(nak54, 1))
    seq = almost_split_from_projective(nak54, 1)
    assert len(seq.actions) == 1
    assert seq.actions[0].shape == (1, 1)
    assert not np.any(seq.actions[0])
    assert seq.u.dims == (2, 2)
    assert seq.x.dims == (4, 4)
    assert seq.v.dims == (2, 2)


# ---------------------------------------------------------------------------
# construction invariants across the fixture zoo
# ---------------------------------------------------------------------------


def _noninjective_vertices(tbl):
    return [
        v
        for v in range(len(tbl.quiver.vertices))
        if not is_injective(projective(tbl, v))
    ]


def test_invariants_on_every_starting_vertex(
    a2, kronecker, dim5, comm_square, nak32, nak54, nak344
):
    for tbl in (a2, kronecker, dim5, comm_square, nak32, nak54, nak344):
        for v in _noninjective_vertices(tbl):
            seq = almost_split_from_projective(tbl, v)
            seq.check()
            assert validate(seq.x) is None
            assert seq.surjection.source is seq.x
            assert is_isomorphic(seq.v, tau_inverse(seq.u)) is True


def test_choice_independence(kronecker, dim5, nak344):
    for tbl in (kronecker, dim5, nak344):
        for v in _noninjective_vertices(tbl):
            first = almost_split_from_projective(tbl, v, choice=0)
            second = almost_split_from_projective(tbl, v, choice=1)
            assert is_isomorphic(first.x, second.x) is True


def test_gf2_choices_are_nonzero_classes():
    # over GF(2) the doubled socle class is zero; it must not be a candidate
    tbl = nakayama_from_kupisch([2, 1], cyclic=False, p=2)
    for choice in (0, 1, 2):
        seq = almost_split_from_projective(tbl, 1, choice=choice)
        assert np.any(seq.class_coords(seq.class_map))
        # dim 2 = p: certify_local cannot certify X, so ask the reference search
        assert random_isomorphism_search(seq.x, projective(tbl, 0)) is True


def test_check_raises_on_a_split_class(kronecker):
    seq = almost_split_from_projective(kronecker, 0)
    zero = zero_morphism(seq.class_map.source, seq.class_map.target)
    with pytest.raises(ArSequenceError, match="split"):
        dataclasses.replace(seq, class_map=zero).check()


def test_kronecker_middle_terms(kronecker):
    p1 = projective(kronecker, 0)
    seq2 = almost_split_from_projective(kronecker, 1)
    assert is_isomorphic(seq2.x, direct_sum(kronecker, [p1, p1])) is True
    assert seq2.v.dims == (2, 3)
    seq1 = almost_split_from_projective(kronecker, 0)
    assert seq1.x.dims == (4, 6)
    assert seq1.v.dims == (3, 4)


def test_construction_is_deterministic():
    xs = []
    for _ in range(2):
        tbl = nakayama_from_kupisch([3, 4, 4], cyclic=True)
        seq = almost_split_from_projective(tbl, 0)
        xs.append((seq.x.dims, tuple(m.tobytes() for m in seq.x.mats)))
    assert xs[0] == xs[1]


# ---------------------------------------------------------------------------
# the torsion-freeness sweep
# ---------------------------------------------------------------------------


def test_sweep_rejects_bad_n(a2):
    with pytest.raises(ValueError):
        has_n_tf_ar_sequences(a2, 0)


def test_sweep_vacuous_when_selfinjective(nak22):
    verdict, report = has_n_tf_ar_sequences(nak22, 3)
    assert verdict is True
    assert report[-1]["note"].startswith("vacuous")
    assert all("terms" not in entry for entry in report[:-1])


def test_sweep_frozen_failures(a2, kronecker, dim5):
    verdict, report = has_n_tf_ar_sequences(a2, 1)
    assert verdict is False
    assert failure_witness(report) == {"vertex": "v2", "term": "V", "degree": 1}
    assert first_failure(report) == ("v2", "V", 1)  # perfbench prints the tuple

    verdict, report = has_n_tf_ar_sequences(kronecker, 1)
    assert verdict is False
    assert failure_witness(report) == {"vertex": "v1", "term": "X", "degree": 1}

    verdict, report = has_n_tf_ar_sequences(dim5, 1)
    assert verdict is False
    assert failure_witness(report) == {"vertex": "v1", "term": "X", "degree": 1}


def test_sweep_nontrivial_positives(nak344, nak233):
    # Kupisch [3,4,4] passes through degree 2 and first fails at degree 3;
    # [2,3,3] passes at 1 and fails at 2
    assert has_n_tf_ar_sequences(nak344, 1)[0] is True
    assert has_n_tf_ar_sequences(nak344, 2)[0] is True
    verdict, report = has_n_tf_ar_sequences(nak344, 3)
    assert verdict is False
    assert failure_witness(report) == {"vertex": "v1", "term": "X", "degree": 3}

    assert has_n_tf_ar_sequences(nak233, 1)[0] is True
    verdict, report = has_n_tf_ar_sequences(nak233, 2)
    assert verdict is False
    assert failure_witness(report) == {"vertex": "v1", "term": "X", "degree": 2}


def test_sweep_never_blames_starting_term(a2, kronecker, dim5, nak32, nak344):
    for tbl in (a2, kronecker, dim5, nak32, nak344):
        for n in (1, 2):
            _, report = has_n_tf_ar_sequences(tbl, n)
            for entry in report:
                if "terms" in entry:
                    assert entry["terms"]["U"] is None


def sweep_cases():
    """(fresh table, degrees n): every corpus entry with n = 1..4 and every
    cyclic Nakayama series with m <= 4 simples and entries <= 5, at n = 2m."""
    cases = [(e.load_table(), (1, 2, 3, 4)) for e in load_corpus(CORPUS)]
    cases += [
        (nakayama_from_kupisch(list(series), cyclic=True), (2 * m,))
        for m in (1, 2, 3, 4)
        for series in _cyclic_series(m, 5)
    ]
    return cases


def test_early_sweep_agrees_with_the_full_report():
    held = failed = 0
    for tbl, ns in sweep_cases():
        for n in ns:
            verdict, report = has_n_tf_ar_sequences(tbl, n)
            full_verdict, full = ar_report(tbl, n)
            assert verdict is full_verdict
            assert failure_witness(report) == failure_witness(full)
            if verdict:
                assert report == full
                held += 1
                continue
            # the full report cut after its first failing term
            *head, last = report
            assert head == full[: len(head)]
            want = list(full[len(head)]["terms"].items())
            got = list(last["terms"].items())
            assert last["vertex"] == full[len(head)]["vertex"]
            assert got == want[: len(got)] and got[-1][1] is not None
            failed += 1
    assert held >= 20 and failed >= 40


def count_constructions(monkeypatch):
    """The vertices at which the sweep asks for an almost split sequence."""
    calls = []
    original = ardom.arseq.almost_split_from_projective

    def counted(tbl, vertex, *args):
        calls.append(tbl.quiver.vertices[vertex])
        return original(tbl, vertex, *args)

    monkeypatch.setattr(ardom.arseq, "almost_split_from_projective", counted)
    return calls


def count_asked(monkeypatch):
    """The modules over the opposite algebra whose Ext the sweep reads."""
    asked = []
    original = ardom.arseq.first_nonzero_ext

    def counted(m, n):
        asked.append(m)
        return original(m, n)

    monkeypatch.setattr(ardom.arseq, "first_nonzero_ext", counted)
    return asked


def test_sweep_builds_no_sequence_when_the_first_vertex_fails(monkeypatch, fresh_corpus_table):
    calls = count_constructions(monkeypatch)
    asked = count_asked(monkeypatch)
    wild3 = fresh_corpus_table("wild3", 101)
    verdict, report = has_n_tf_ar_sequences(wild3, 1)
    assert verdict is False
    assert calls == []  # the degrees are read off D rad P(v) and D P(v)
    assert len(asked) == 1  # X fails, so V is never read
    assert report == [{"vertex": "v1", "terms": {"U": None, "X": 1}}]
    calls.clear()
    verdict, report = ar_report(wild3, 1)
    assert verdict is False
    assert calls == ["v1", "v2", "v3"]  # the full report builds every sequence
    assert failure_witness(report) == {"vertex": "v1", "term": "X", "degree": 1}


def test_sweep_tests_x_before_failing_at_v(monkeypatch, fresh_corpus_table):
    calls = count_constructions(monkeypatch)
    asked = count_asked(monkeypatch)
    square = fresh_corpus_table("comm-square", 101)
    verdict, report = has_n_tf_ar_sequences(square, 1)
    assert verdict is False
    assert calls == []
    q = projective(square, 1)  # P(p) is injective, so nothing is asked there
    assert [m.signature() for m in asked] == [
        dual(radical(q)[0]).signature(),
        dual(q).signature(),
    ]
    assert report[-1] == {"vertex": "q", "terms": {"U": None, "X": None, "V": 1}}
    assert report[:-1] == [{"vertex": "p", "skipped": "projective is injective"}]


def test_verdict_sweep_builds_no_sequence_and_no_transpose(monkeypatch):
    built = count_constructions(monkeypatch)
    original = ardom.arseq.almost_split
    monkeypatch.setattr(
        ardom.arseq, "almost_split", lambda *args: built.append("almost_split") or original(*args)
    )
    transposed = []
    original_transpose = ardom.homology.transpose
    monkeypatch.setattr(
        ardom.homology, "transpose", lambda m: transposed.append(m.label) or original_transpose(m)
    )
    verdicts = [has_n_tf_ar_sequences(tbl, n)[0] for tbl, ns in sweep_cases() for n in ns]
    assert True in verdicts and False in verdicts
    assert built == [] and transposed == []
    ar_report(nakayama_from_kupisch([3, 4, 4], cyclic=True), 2)
    assert built and transposed  # the counters see the explicit route


def test_full_report_cross_checks_the_sweep(monkeypatch, capsys, fresh_corpus_table):
    original = ardom.arseq.first_nonzero_ext

    def wrong(m, n):
        return 1 if original(m, n) is None else None

    square = fresh_corpus_table("comm-square", 101)
    assert ar_report(square, 1)[0] is False
    monkeypatch.setattr(ardom.arseq, "first_nonzero_ext", wrong)
    with pytest.raises(InvariantError, match="the sweep reads degree 1"):
        ar_report(square, 1)
    assert cli_main(["ar-check", os.path.join(CORPUS, "comm-square.alg"), "--n", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: term X at vertex q")


def test_full_report_builds_and_checks_every_sequence(monkeypatch):
    checked = []
    original = ArSequence.check

    def counted(seq):
        checked.append((seq.u.algebra, seq.u.label))
        return original(seq)

    monkeypatch.setattr(ArSequence, "check", counted)
    total = 0
    for tbl, ns in sweep_cases():
        want = _noninjective_vertices(tbl)
        _, report = ar_report(tbl, ns[0])
        assert [e["vertex"] for e in report if "terms" in e] == [
            tbl.quiver.vertices[v] for v in want
        ]
        assert all(list(e["terms"]) == ["U", "X", "V"] for e in report if "terms" in e)
        assert [u for t, u in checked if t is tbl] == [
            f"P({tbl.quiver.vertices[v]})" for v in want
        ]
        total += len(want)
    assert len(checked) == total == 69


def test_sweep_degrees_equal_those_of_the_built_terms(fresh_corpus_table):
    """The identities of ``_sweep`` against the explicit route at n = 6: each
    term of the built sequence, transposed, and on the corpus entries also
    Ext^i(DA, τM) = 0 of ``tests/reference.py``."""
    names = sorted(f[: -len(".alg")] for f in os.listdir(CORPUS) if f.endswith(".alg"))
    cases = [(fresh_corpus_table(name, p), True) for name in names for p in (101, 2, 3, 5)]
    cases += [(nakayama_from_kupisch(range(k, 0, -1), cyclic=False), False) for k in range(2, 9)]
    cases += [
        (nakayama_from_kupisch(list(series), cyclic=True), False)
        for m, max_len in ((2, 7), (3, 7), (4, 7), (5, 6))
        for series in _cyclic_series(m, max_len)
    ]
    n = 6
    tested = 0
    for tbl, via_dual in cases:
        for vertex, term_name, degree in ardom.arseq._sweep(tbl, n):
            if term_name is None:
                continue
            seq = almost_split_from_projective(tbl, vertex)
            term = {"U": seq.u, "X": seq.x, "V": seq.v}[term_name]
            where = (tbl.label, tbl.quiver.vertices[vertex], term_name)
            assert torsion_free_failure_degree(term, n) == degree, where
            if via_dual:
                assert is_n_torsion_free_via_dual(term, n) is (degree is None), where
                if degree is not None:
                    assert is_n_torsion_free_via_dual(term, degree) is False, where
                    assert degree == 1 or is_n_torsion_free_via_dual(term, degree - 1), where
            tested += term_name == "U"
    assert (len(cases), tested) == (217, 355)


# ---------------------------------------------------------------------------
# Ext^1 read off the shared cochains
# ---------------------------------------------------------------------------


def count_hom_systems(monkeypatch):
    """Count the calls of the one Kronecker Hom solver, ``modules._hom_rows``."""
    calls = []
    original = ardom.modules._hom_rows

    def counted(m, n):
        calls.append((m.dims, n.dims))
        return original(m, n)

    monkeypatch.setattr(ardom.modules, "_hom_rows", counted)
    return calls


def test_the_construction_solves_no_hom_system(monkeypatch):
    calls = count_hom_systems(monkeypatch)
    tables = [
        table_from_text(
            "field 101\nvertices v1 v2\narrow a v1 v2\narrow b v1 v2\n", label="kronecker-fresh"
        ),
        table_from_text(
            "field 101\nvertices v1 v2\narrow a v1 v2\narrow b v2 v1\nrelation a*b\n",
            label="dim5-fresh",
        ),
        nakayama_from_kupisch([3, 4, 4], cyclic=True),
        nakayama_from_kupisch([5, 4], cyclic=True),
    ]
    built = 0
    for tbl in tables:
        for v in _noninjective_vertices(tbl):
            almost_split_from_projective(tbl, v).check()
            built += 1
    assert built >= 5
    assert calls == []


def test_torsion_solves_no_hom_system(monkeypatch):
    calls = count_hom_systems(monkeypatch)
    checked = nonzero = 0
    for entry in load_corpus(CORPUS):
        tbl = entry.load_table()  # a fresh table: nothing is memoised yet
        for m in sample_modules(tbl, seed=9, size=16):
            nonzero += not ardom.homology.torsion(m).is_zero
            checked += 1
    assert checked > 100 and nonzero > 10
    assert calls == []


def _assert_actions_match_the_ext_module(v_module, vertex, actions):
    """``actions``, post-composition on Ext^1(V, P(vertex)) with the cycles
    at vertex, against their action on the Ext module Ext^1(V, A)."""
    tbl = v_module.algebra
    e = ext_module(v_module, 1)
    assert ext_classes(v_module, projective(tbl, vertex), 1)[1].dim == e.dims[vertex]
    paths = _rad_end_paths(tbl, vertex)
    assert len(actions) == len(paths)
    for mat, z in zip(actions, paths):
        expected = e.element_matrix({reverse_path(z): 1}, vertex, vertex)
        assert mat.shape == expected.shape
        assert np.array_equal(mat, expected)


def test_end_action_is_the_ext_module_action_on_ar_sequences(kronecker, dim5, nak54, nak344):
    checked = 0
    for tbl in (kronecker, dim5, nak54, nak344):
        for v in _noninjective_vertices(tbl):
            seq = almost_split_from_projective(tbl, v)
            _assert_actions_match_the_ext_module(seq.v, v, seq.actions)
            checked += bool(_rad_end_paths(tbl, v))
    assert checked >= 1  # nak54 at v2 carries a nonzero rad End


def test_end_action_is_the_ext_module_action_where_it_is_nonzero():
    # a local algebra, not selfinjective, where rad End(A) moves Ext^1 classes
    tbl = table_from_text(
        "field 101\nvertices v\narrow x v v\narrow y v v\n"
        "relation x*x\nrelation y*x\nrelation y*y*y\n",
        label="local-xy",
    )
    seq = almost_split_from_projective(tbl, 0)
    _assert_actions_match_the_ext_module(seq.v, 0, seq.actions)
    assert any(np.any(a) for a in seq.actions)
    nonzero = 0
    for m in sample_modules(tbl, seed=1, size=24):
        if ext_dim(m, projective(tbl, 0), 1) == 0:
            continue
        # the action almost_split reads, on Ext^1 of a sampled module
        actions = [post_compose(m, 1, r) for r in projective_rad_end(tbl, 0)]
        _assert_actions_match_the_ext_module(m, 0, actions)
        nonzero += any(np.any(a) for a in actions)
    assert nonzero >= 1


# middle-term dimensions of the sequence at each non-injective vertex,
# frozen from the construction by pushout along the syzygy inclusion
X_DIMS = {
    ("ka2", 1): (1, 1),
    ("linear-a3", 1): (1, 2, 1),
    ("linear-a3", 2): (0, 1, 1),
    ("linear-a4", 1): (1, 2, 2, 1),
    ("linear-a4", 2): (0, 1, 2, 1),
    ("linear-a4", 3): (0, 0, 1, 1),
    ("kronecker", 0): (4, 6),
    ("kronecker", 1): (2, 4),
    ("wild3", 0): (4, 8, 6),
    ("wild3", 1): (2, 5, 4),
    ("wild3", 2): (0, 1, 1),
    ("auslander-x2", 0): (2, 2),
    ("auslander-x3", 0): (2, 2, 2),
    ("auslander-x3", 1): (2, 4, 4),
    ("comm-square", 1): (0, 1, 1, 1),
    ("comm-square", 2): (0, 1, 1, 1),
    ("comm-square", 3): (0, 1, 1, 2),
    ("nak-32", 1): (2, 2),
    ("nak-432", 1): (2, 2, 2),
    ("nak-432", 2): (1, 1, 2),
    ("nak-344", 0): (2, 2, 2),
    ("nak-233", 0): (2, 1, 1),
    ("nak54", 1): (4, 4),
    ("nak344", 0): (2, 2, 2),
    ("gf2-21", 1): (1, 1),
}


def test_sequences_do_not_split_by_a_hom_route():
    # a section of X -> V would make id_V a combination of the g∘surjection,
    # g in Hom(V, X); that span is solved for directly, sharing no cochain
    tables = [(e.entry_id, e.load_table()) for e in load_corpus(CORPUS)]
    tables += [
        ("nak54", nakayama_from_kupisch([5, 4], cyclic=True)),
        ("nak344", nakayama_from_kupisch([3, 4, 4], cyclic=True)),
        ("gf2-21", nakayama_from_kupisch([2, 1], cyclic=False, p=2)),
    ]
    seen = {}
    for name, tbl in tables:
        f = tbl.field
        for v in _noninjective_vertices(tbl):
            seq = almost_split_from_projective(tbl, v)
            seen[(name, v)] = seq.x.dims
            hom = hom_basis(seq.v, seq.x)
            ident = identity_morphism(seq.v).flatten().reshape(1, -1)
            if hom.dim:
                rows = np.stack([g.compose(seq.surjection).flatten() for g in hom.morphisms])
                assert f.coords_in_rowspace(rows, ident) is None, (name, v)
    assert seen == X_DIMS


def test_class_coords_reads_only_cocycles(nak54):
    seq = almost_split_from_projective(nak54, 1)
    dim = ext_classes(seq.v, seq.u, 1)[1].dim
    for j, e in enumerate(np.eye(dim, dtype=np.int64)):
        rep = _cocycle(seq.v, seq.u, e)
        assert np.array_equal(seq.class_coords(rep), e)
    with pytest.raises(ArSequenceError, match="not a morphism"):
        seq.class_coords(zero_morphism(seq.u, seq.u))
    # Hom(P_1, U) has a map that does not vanish on the image of d_2
    p1 = seq.class_map.source
    outcomes = []
    for g in hom_basis(p1, seq.u).morphisms:
        try:
            seq.class_coords(g)
            outcomes.append("cocycle")
        except ArSequenceError as exc:
            assert "not a cocycle" in str(exc)
            outcomes.append("not")
    assert outcomes.count("not") >= 1 and outcomes.count("cocycle") >= 1


# ---------------------------------------------------------------------------
# the surjection X → V descends along the quotient's own section
# ---------------------------------------------------------------------------


def _sum_inclusions(mods, total):
    """The inclusion and projection morphisms of each summand of
    ``direct_sum(tbl, mods)``, built from identity blocks."""
    fld = total.algebra.field
    incls, projs = [], []
    offsets = [0] * len(total.dims)
    for m in mods:
        inc = []
        for v, d in enumerate(m.dims):
            block = fld.zeros(d, total.dims[v])
            block[:, offsets[v] : offsets[v] + d] = fld.eye(d)
            inc.append(block)
            offsets[v] += d
        incls.append(ModuleMorphism(m, total, inc))
        projs.append(ModuleMorphism(total, m, [b.T for b in inc]))
    return incls, projs


def solve_left_surjection(seq):
    """(blocks, sections differ): the blocks of X → V descended along right
    inverses of the cokernel projection that ``solve_left`` finds, with d_1
    read off the minimal presentation, and whether any of those right inverses differs
    from the quotient's own section.

    The pushout is assembled from checked inclusions and projections of
    U ⊕ P_0, (c, −d_1) = c·ι_U − d_1·ι_P0, and its X, U → X and (along the
    quotient's own section) X → V must equal the construction's blocks."""
    tbl = seq.u.algebra
    fld = tbl.field
    cover = proj_cover(seq.v)[1]
    total = direct_sum(tbl, [seq.u, cover.source])
    incls, projs = _sum_inclusions([seq.u, cover.source], total)
    for i, inc in enumerate(incls):
        for j, prj in enumerate(projs):
            comp = inc.compose(prj)
            assert comp.is_isomorphism() if i == j else comp.is_zero
    d1 = _presentation(seq.v)[3]
    g = seq.class_map.compose(incls[0]).add(d1.compose(incls[1]).scale(-1))
    x, projection, sections = cokernel(g)
    assert x.signature() == seq.x.signature()
    for got, want in zip(seq.inclusion.mats, incls[0].compose(projection).mats, strict=True):
        assert np.array_equal(got, want)
    phi = projs[1].compose(cover)
    for got, own, target in zip(seq.surjection.mats, sections, phi.mats, strict=True):
        assert np.array_equal(got, fld.mul(own, target))
    mats, differ = [], False
    for block, own, target in zip(projection.mats, sections, phi.mats, strict=True):
        section = fld.solve_left(block, fld.eye(block.shape[1]))
        assert section is not None
        differ = differ or not np.array_equal(section, own)
        mats.append(fld.mul(section, target))
    return mats, differ


def test_surjection_equals_the_solve_left_descent():
    # the map X → V through which the cover factors is unique, so any right
    # inverse of the projection gives the same blocks
    tables = [e.load_table() for e in load_corpus(CORPUS)]
    tables += [
        nakayama_from_kupisch(list(series), cyclic=True)
        for m in (3, 4) for series in _cyclic_series(m, 5)
    ]
    checked = differ = 0
    for tbl in tables:
        for v in _noninjective_vertices(tbl):
            seq = almost_split_from_projective(tbl, v)
            want, sections_differ = solve_left_surjection(seq)
            for got, block in zip(seq.surjection.mats, want, strict=True):
                assert got.dtype == block.dtype == np.int64
                assert np.array_equal(got, block)
            checked += 1
            differ += sections_differ
    assert checked == 66
    assert differ  # the two right inverses are not the same matrices
