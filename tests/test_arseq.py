import dataclasses

import numpy as np
import pytest

from ardom.algebra import nakayama_from_kupisch
from ardom.arseq import (
    ArSequenceError,
    almost_split_from_projective,
    ext1_with_end_action,
    first_failure,
    has_n_tf_ar_sequences,
)
from ardom.homology import ext_dim, tau_inverse
from ardom.modules import (
    direct_sum,
    factorize,
    is_injective,
    is_isomorphic,
    projective,
    simple,
    validate,
    zero_morphism,
)


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
    kernel = factorize(seq.surjection).kernel
    assert kernel.total_dim == seq.u.total_dim


def test_a2_class_is_nonzero(a2):
    seq = almost_split_from_projective(a2, 1)
    coords = seq.ext_data.class_coords(seq.class_map)
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
        v = tau_inverse(u)
        data = ext1_with_end_action(v, vertex)
        assert data.dim == ext_dim(v, u, 1)
        assert data.dim >= 1
        assert len(data.representatives) == data.dim
        for rep in data.representatives:
            assert rep.defect() is None


def test_ext1_rejects_projective_argument(a2):
    with pytest.raises(ValueError, match="projective dimension 0"):
        ext1_with_end_action(projective(a2, 0), 1)


def test_ext1_rejects_vanishing_group(a2):
    # Hom(Omega S_1, P(v1)) is 1-dimensional, but every class lifts to the
    # cover because P(v1) is injective
    with pytest.raises(ValueError, match="lifts"):
        ext1_with_end_action(simple(a2, 0), 0)


def test_rad_action_present_and_annihilating(nak54):
    # Kupisch [5,4]: v2 carries a cycle of length 2 inside P(v2), and P(v2)
    # is not injective, so the radical of End acts through a real matrix
    assert not is_injective(projective(nak54, 1))
    seq = almost_split_from_projective(nak54, 1)
    data = seq.ext_data
    assert len(data.actions) == 1
    assert data.actions[0].shape == (1, 1)
    assert not np.any(data.actions[0])
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
        assert np.any(seq.ext_data.class_coords(seq.class_map))
        assert is_isomorphic(seq.x, projective(tbl, 0)) is True


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
    assert first_failure(report) == ("v2", "V", 1)

    verdict, report = has_n_tf_ar_sequences(kronecker, 1)
    assert verdict is False
    assert first_failure(report) == ("v1", "X", 1)

    verdict, report = has_n_tf_ar_sequences(dim5, 1)
    assert verdict is False
    assert first_failure(report) == ("v1", "X", 1)


def test_sweep_nontrivial_positives(nak344, nak233):
    # Kupisch [3,4,4] passes through degree 2 and first fails at degree 3;
    # [2,3,3] passes at 1 and fails at 2
    assert has_n_tf_ar_sequences(nak344, 1)[0] is True
    assert has_n_tf_ar_sequences(nak344, 2)[0] is True
    verdict, report = has_n_tf_ar_sequences(nak344, 3)
    assert verdict is False
    assert first_failure(report) == ("v1", "X", 3)

    assert has_n_tf_ar_sequences(nak233, 1)[0] is True
    verdict, report = has_n_tf_ar_sequences(nak233, 2)
    assert verdict is False
    assert first_failure(report) == ("v1", "X", 2)


def test_sweep_never_blames_starting_term(a2, kronecker, dim5, nak32, nak344):
    for tbl in (a2, kronecker, dim5, nak32, nak344):
        for n in (1, 2):
            _, report = has_n_tf_ar_sequences(tbl, n)
            for entry in report:
                if "terms" in entry:
                    assert entry["terms"]["U"] is None
