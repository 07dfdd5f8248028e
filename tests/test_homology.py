import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ardom.homology
import ardom.modules
from ardom.algebra import nakayama_from_kupisch, opposite, table_from_text
from ardom.homology import (
    CappedNat,
    InvariantError,
    _presentation,
    domdim_algebra,
    domdim_module,
    domdim_R_via_mueller,
    ext_dim,
    ext_classes,
    ext_module,
    first_nonzero_ext,
    gldim,
    gorenstein_dim,
    grade,
    injdim,
    is_n_torsion_free,
    pdim,
    post_compose,
    syzygy,
    tau,
    tau_inverse,
    torsion,
    torsion_free_failure_degree,
    transpose,
)
from ardom.arseq import knit_indecomposables
from ardom.corpus import load_corpus
from ardom.modules import (
    ModuleMorphism,
    dual,
    dual_regular,
    image,
    injective,
    is_injective,
    is_isomorphic,
    is_projective,
    kernel,
    proj_cover,
    projective,
    radical,
    regular,
    sample_modules,
    simple,
    validate,
    zero_module,
)
from ardom.verify import _cyclic_series, verify_gorenstein
import reference
from reference import (
    arrow_left_mult,
    evaluation_and_torsion,
    hom_basis,
    is_n_torsion_free_via_dual,
)

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


@pytest.fixture(scope="session")
def nak22_unflagged():
    # same algebra as the [2,2] Kupisch table, but without the flag, so the
    # certificate machinery has to prove infiniteness on its own
    return table_from_text(
        """
        field 101
        vertices v1 v2
        arrow a1 v1 v2
        arrow a2 v2 v1
        relation a1*a2
        relation a2*a1
        """,
        label="nak22-bare",
    )


@pytest.fixture(scope="session")
def nak33_unflagged():
    return table_from_text(
        """
        field 101
        vertices v1 v2
        arrow a1 v1 v2
        arrow a2 v2 v1
        relation a1*a2*a1
        relation a2*a1*a2
        """,
        label="nak33-bare",
    )


# ---------------------------------------------------------------------------
# CappedNat semantics
# ---------------------------------------------------------------------------


def test_cappednat_ge_trichotomy():
    assert CappedNat.exact(3).ge(2) is True
    assert CappedNat.exact(3).ge(4) is False
    assert CappedNat.at_least(31).ge(5) is True
    assert CappedNat.at_least(31).ge(40) is None
    assert CappedNat.infinite("flag").ge(10 ** 9) is True


def test_cappednat_eq_lt():
    assert CappedNat.exact(2).eq(2) is True
    assert CappedNat.at_least(5).eq(3) is False
    assert CappedNat.at_least(5).eq(7) is None
    assert CappedNat.infinite("flag").eq(7) is False
    # x < n reads as not x >= n
    assert CappedNat.exact(2).ge(3) is False
    assert CappedNat.infinite("flag").ge(3) is True


def test_cappednat_ge_capped_bound():
    exact = CappedNat.exact
    at_least = CappedNat.at_least
    inf = CappedNat.infinite("test")
    assert exact(3).ge(exact(2)) is True
    assert exact(1).ge(exact(2)) is False
    assert inf.ge(exact(5)) is True
    assert exact(4).ge(inf) is False
    assert at_least(9).ge(inf) is None
    assert inf.ge(inf) is True
    assert inf.ge(at_least(7)) is True
    assert exact(2).ge(at_least(7)) is False
    assert exact(8).ge(at_least(7)) is None  # bound may exceed 8
    assert at_least(3).ge(at_least(7)) is None


def test_cappednat_eq_branches():
    exact = CappedNat.exact
    at_least = CappedNat.at_least
    inf = CappedNat.infinite("test")
    assert exact(2).eq(exact(2)) is True
    assert exact(2).eq(exact(3)) is False
    assert inf.eq(inf) is True
    assert inf.eq(exact(4)) is False
    assert inf.eq(at_least(4)) is None
    assert exact(2).eq(at_least(5)) is False  # bound already above
    assert exact(7).eq(at_least(5)) is None
    assert at_least(1).eq(at_least(9)) is None


def test_cappednat_least():
    exact = CappedNat.exact
    at_least = CappedNat.at_least
    inf = CappedNat.infinite("test")
    got = CappedNat.least([exact(3), exact(1), inf])
    assert got.is_exact and got.value == 1
    # an exact value wins when no lower bound lies below it
    got = CappedNat.least([exact(3), at_least(5)])
    assert got.is_exact and got.value == 3
    got = CappedNat.least([exact(3), at_least(3)])
    assert got.is_exact and got.value == 3
    got = CappedNat.least([exact(3), at_least(2)])
    assert got.kind == "at_least" and got.value == 2
    got = CappedNat.least([inf, inf])
    assert got.is_infinite
    assert got.certificate == "all components certified infinite"
    assert CappedNat.least(iter([exact(4), exact(2)])) == exact(2)


def test_cappednat_greatest():
    exact = CappedNat.exact
    at_least = CappedNat.at_least
    inf = CappedNat.infinite("test")
    assert CappedNat.greatest([exact(3), exact(1), exact(4)]) == exact(4)
    assert CappedNat.greatest([]) == exact(0)
    # the first inexact value, whatever follows it
    assert CappedNat.greatest([exact(3), at_least(31), exact(5)]) == at_least(31)
    assert CappedNat.greatest([exact(3), inf, at_least(31)]) == inf
    assert CappedNat.greatest([at_least(2), inf]) == at_least(2)

    def values():  # a generator: nothing past the first inexact value is read
        yield exact(2)
        yield at_least(11)
        raise AssertionError("read past the first inexact value")

    assert CappedNat.greatest(values()) == at_least(11)


def _possible(x):
    """The values a CappedNat allows, those past 8 left out: any finite
    value there behaves alike against values up to 6."""
    if x.is_infinite:
        return {math.inf}
    if x.is_exact:
        return {x.value}
    return set(range(x.value, 9)) | {math.inf}


def _three_valued(answers):
    answers = list(answers)
    return True if all(answers) else False if not any(answers) else None


capped_values = st.one_of(
    st.builds(CappedNat.exact, st.integers(0, 6)),
    st.builds(CappedNat.at_least, st.integers(0, 6)),
    st.just(CappedNat.infinite("test")),
)


@settings(max_examples=400, deadline=None)
@given(x=capped_values, y=capped_values, z=capped_values, n=st.integers(0, 6))
def test_cappednat_comparisons_agree_with_the_values_they_allow(x, y, z, n):
    exact = CappedNat.exact
    assert x.ge(n) is x.ge(exact(n))
    assert x.eq(n) is x.eq(exact(n))
    assert x.eq(y) is y.eq(x)
    pairs = list(itertools.product(_possible(x), _possible(y)))
    assert x.ge(y) is _three_valued(a >= b for a, b in pairs)
    assert x.eq(y) is _three_valued(a == b for a, b in pairs)
    # least agrees with pairwise ge: >= n exactly when every value is, never
    # decided against the values, and it allows every least of them
    values = [x, y, z]
    low = CappedNat.least(values)
    pairwise = [v.ge(n) for v in values]
    everywhere = False if False in pairwise else None if None in pairwise else True
    assert (low.ge(n) is True) == (everywhere is True)
    assert low.ge(n) in (None, everywhere)
    assert all(v.ge(low) is not False for v in values)
    lows = {min(c) for c in itertools.product(*map(_possible, values))}
    assert lows <= _possible(low)
    # and it is exact when every choice of values has one finite least
    if len(lows) == 1 and math.inf not in lows:
        assert low == CappedNat.exact(*lows)
    # greatest is exact when every value is, and allows every greatest of them
    high = CappedNat.greatest(values)
    if all(v.is_exact for v in values):
        assert high == CappedNat.exact(max(v.value for v in values))
    highs = {max(c) for c in itertools.product(*map(_possible, values))}
    assert highs <= _possible(high)


def test_cappednat_str_and_certificate():
    assert str(CappedNat.exact(4)) == "4"
    assert str(CappedNat.at_least(31)) == ">=31"
    assert "flag" in str(CappedNat.infinite("flag"))
    with pytest.raises(AssertionError):
        CappedNat.infinite("")


# ---------------------------------------------------------------------------
# resolutions
# ---------------------------------------------------------------------------


# degree i of the resolution of m is degree 0 of Ω^i m: P_i is
# proj_cover(syzygy(m, i))[0] and d_i is _presentation(syzygy(m, i - 1))[3]


def test_resolution_of_simple_a2(a2):
    m = simple(a2, 0)
    assert [proj_cover(syzygy(m, i))[0].module.dims for i in range(2)] == [(1, 1), (0, 1)]
    assert syzygy(m, 2).is_zero
    assert pdim(simple(a2, 0)).eq(1)


def test_resolution_of_projective_is_length_zero(dim5):
    m = projective(dim5, 0)
    assert proj_cover(m)[0].module.dims == m.dims
    assert syzygy(m, 1).is_zero and not _presentation(m)[1].vertices
    assert pdim(projective(dim5, 0)).eq(0)


def test_resolution_exactness_and_minimality(dim5, nak32):
    for tbl in (dim5, nak32):
        f = tbl.field
        for m in sample_modules(tbl, seed=21, size=5):
            # augmentation P_0 ->> m, then d_1, ..., d_4
            maps = [proj_cover(m)[1]]
            maps += [_presentation(syzygy(m, i - 1))[3] for i in range(1, 5)]
            assert maps[0].is_surjective_map()
            for i in range(1, len(maps)):
                assert maps[i].source is proj_cover(syzygy(m, i))[0].module
                assert maps[i].target is proj_cover(syzygy(m, i - 1))[0].module
                assert maps[i].defect() is None
                # composites vanish, ranks match up
                comp = maps[i].compose(maps[i - 1])
                assert comp.is_zero
                ker = kernel(maps[i - 1])[0]
                im = image(maps[i])[0]
                assert ker.total_dim == im.total_dim
                # minimality: the image lands inside the radical of P_{i-1}
                rad = radical(maps[i].target)[1]
                for v in range(len(m.dims)):
                    assert f.coords_in_rowspace(rad.mats[v], maps[i].mats[v]) is not None


def test_inj_coresolution_mirror(dim5, nak32):
    # the injective coresolution of m is the dual of the opposite side's
    # resolution of D m: I_i = D(P_i) and the maps are transposed
    for tbl in (dim5, nak32):
        for m in sample_modules(tbl, seed=22, size=4):
            dm = dual(m)
            aug = proj_cover(dm)[1]
            maps = [ModuleMorphism(m, dual(aug.source), [b.T for b in aug.mats])]
            for i in range(1, 4):
                d = _presentation(syzygy(dm, i - 1))[3]
                maps.append(ModuleMorphism(dual(d.target), dual(d.source), [b.T for b in d.mats]))
            assert maps[0].is_injective_map()
            for i, fmor in enumerate(maps):
                assert fmor.defect() is None
                assert fmor.target.algebra is tbl and is_injective(fmor.target)
                assert fmor.target.dims == proj_cover(syzygy(dm, i))[0].module.dims
                if i:
                    assert maps[i - 1].compose(fmor).is_zero
                    # exact at I_{i-1}: kernel of the next map = image of the last
                    assert kernel(fmor)[0].total_dim == image(maps[i - 1])[0].total_dim


def test_cosyzygy_of_regular_selfinjective(nak22):
    m = regular(nak22)
    assert is_injective(m)
    assert syzygy(dual(m), 1).is_zero


@pytest.mark.parametrize("name", ["nak-22", "nak-233", "nak-32", "nak-432", "wild3"])
def test_syzygy_skipping_periods_is_the_plain_walk(name, fresh_corpus_table):
    for m in sample_modules(fresh_corpus_table(name, 101), seed=4, size=20):
        walk = m
        for k in range(13):
            assert syzygy(m, k) is walk
            if not walk.is_zero:
                walk = ardom.homology.omega(walk)[0]


def test_some_syzygy_walk_skips_a_period(fresh_corpus_table):
    # Ω^1 and Ω^3 of S(v2) over nak-233 coincide, so syzygy(·, 12) skips
    m = simple(fresh_corpus_table("nak-233", 101), 1)
    assert syzygy(m, 1).signature() == syzygy(m, 3).signature()
    assert syzygy(m, 12) is syzygy(m, 2) is not syzygy(m, 1)


def test_negative_degrees_raise(nak32):
    s = simple(nak32, 0)
    assert syzygy(s, 0) is s
    lm = arrow_left_mult(nak32, 0)
    for call in (
        lambda: syzygy(s, -1),
        lambda: ext_classes(s, projective(nak32, 0), -1),
        lambda: post_compose(s, -1, lm),
    ):
        with pytest.raises(ValueError, match="negative"):
            call()


# ---------------------------------------------------------------------------
# Ext
# ---------------------------------------------------------------------------


def test_ext_vanishes_on_projectives(dim5):
    for v in range(2):
        for i in range(1, 4):
            assert ext_dim(projective(dim5, v), regular(dim5), i) == 0


def test_ext1_classic_a2(a2):
    assert ext_dim(simple(a2, 0), simple(a2, 1), 1) == 1
    assert ext_dim(simple(a2, 1), simple(a2, 0), 1) == 0


def test_ext1_kronecker(kronecker):
    assert ext_dim(simple(kronecker, 0), simple(kronecker, 1), 1) == 2


def test_ext0_equals_hom_dim(dim5, nak32):
    # dual route: resolution cochain vs the direct commuting-squares solver
    for tbl in (dim5, nak32):
        mods = sample_modules(tbl, seed=23, size=5)
        for m in mods:
            for n in mods:
                assert ext_dim(m, n, 0) == hom_basis(m, n).dim


def test_ext_dimension_shift(dim5, nak32):
    for tbl in (dim5, nak32):
        mods = sample_modules(tbl, seed=24, size=4)
        for m in mods[:3]:
            om = syzygy(m)
            if om.is_zero:
                continue
            for n in mods[:3]:
                for i in range(1, 3):
                    assert ext_dim(m, n, i + 1) == ext_dim(om, n, i)


def test_ext_duality(dim5, nak32):
    for tbl in (dim5, nak32):
        mods = sample_modules(tbl, seed=25, size=4)
        for m in mods[:3]:
            for n in mods[:3]:
                for i in range(0, 3):
                    assert ext_dim(m, n, i) == ext_dim(dual(n), dual(m), i)


def test_ext_input_errors(a2, dim5):
    with pytest.raises(ValueError):
        ext_dim(simple(a2, 0), simple(a2, 0), -1)
    with pytest.raises(ValueError):
        ext_dim(simple(a2, 0), simple(dim5, 0), 1)


# ---------------------------------------------------------------------------
# transpose and translates
# ---------------------------------------------------------------------------


def test_transpose_of_projective_is_zero(a2, dim5):
    for tbl in (a2, dim5):
        for v in range(2):
            assert transpose(projective(tbl, v)).is_zero


def test_transpose_s1_a2(a2):
    tr = transpose(simple(a2, 0))
    assert tr.algebra is opposite(a2)
    assert tr.total_dim == 1
    back = transpose(tr)
    assert back.total_dim == 1
    assert is_isomorphic(back, simple(a2, 0)) is True


def test_double_transpose_on_nonprojective_simples(dim5, kronecker):
    for tbl in (dim5, kronecker):
        s = simple(tbl, 0)
        assert not is_projective(s)
        assert is_isomorphic(transpose(transpose(s)), s) is True


def test_transpose_deterministic():
    text = """
    field 101
    vertices v1 v2
    arrow a v1 v2
    arrow b v2 v1
    relation a*b
    """
    one = transpose(simple(table_from_text(text, label="t1"), 0))
    two = transpose(simple(table_from_text(text, label="t2"), 0))
    assert one.dims == two.dims
    assert all(np.array_equal(x, y) for x, y in zip(one.mats, two.mats))


def test_tau_and_tau_inverse(a2, dim5, nak32):
    for tbl in (a2, dim5, nak32):
        for v in range(len(tbl.quiver.vertices)):
            assert tau(projective(tbl, v)).is_zero
            assert tau_inverse(injective(tbl, v)).is_zero
    assert is_isomorphic(tau_inverse(projective(a2, 1)), simple(a2, 0)) is True


def test_tau_roundtrip_on_simples(dim5):
    s = simple(dim5, 0)
    assert is_isomorphic(tau_inverse(tau(s)), s) is True


# ---------------------------------------------------------------------------
# evaluation and torsion
# ---------------------------------------------------------------------------


def test_projectives_are_reflexive(a2, dim5, nak32):
    for tbl in (a2, dim5, nak32):
        for v in range(len(tbl.quiver.vertices)):
            data = evaluation_and_torsion(projective(tbl, v))
            assert data.torsionless and data.reflexive
            assert data.torsion.is_zero


def test_torsion_of_s1_a2(a2):
    data = evaluation_and_torsion(simple(a2, 0))
    assert data.torsion.dims == (1, 0)
    assert not data.torsionless


def test_torsion_of_simples_all_or_nothing(a2, dim5, nak32, kronecker):
    for tbl in (a2, dim5, nak32, kronecker):
        for v in range(len(tbl.quiver.vertices)):
            s = simple(tbl, v)
            t = torsion(s)
            assert t.total_dim in (0, s.total_dim)


def test_hereditary_torsion_identity(kronecker):
    # indecomposable non-projective modules coincide with their torsion part
    from ardom.modules import ModuleRep

    def reg(lam):
        return ModuleRep(kronecker, (1, 1), [np.array([[1]]), np.array([[lam]])])

    for m in (simple(kronecker, 0), reg(0), reg(5)):
        assert is_isomorphic(torsion(m), m) is True


def test_torsion_dim_matches_ext_route(dim5, nak32):
    for tbl in (dim5, nak32):
        opp = opposite(tbl)
        for m in sample_modules(tbl, seed=26, size=6):
            lhs = torsion(m).total_dim
            tr = transpose(m)
            rhs = 0 if tr.is_zero else ext_dim(tr, regular(opp), 1)
            assert lhs == rhs


def test_evaluation_is_module_map(dim5, nak32):
    for tbl in (dim5, nak32):
        for m in sample_modules(tbl, seed=27, size=5):
            data = evaluation_and_torsion(m)
            assert data.evaluation.defect() is None
            assert validate(data.double_dual) is None
            assert data.torsionless == data.torsion.is_zero


# ---------------------------------------------------------------------------
# grade
# ---------------------------------------------------------------------------


def test_grade_basics(a2, dim5):
    assert grade(projective(a2, 0)).eq(0)
    assert grade(zero_module(dim5)).is_infinite
    assert grade(torsion(simple(dim5, 0))).eq(2)


def test_grade_of_simple_torsions_kronecker(kronecker):
    values = [grade(torsion(simple(kronecker, v))) for v in range(2)]
    finite = [v.value for v in values if v.is_exact and not v.is_infinite]
    assert min(finite) == 1


# ---------------------------------------------------------------------------
# dominant dimension
# ---------------------------------------------------------------------------


def test_domdim_frozen_values(a2, dim5, kronecker, nak32):
    assert domdim_algebra(a2).eq(1)
    assert domdim_algebra(dim5).eq(2)
    assert domdim_algebra(kronecker).eq(0)
    assert domdim_algebra(nak32).eq(2)


def test_domdim_selfinjective_flag(nak22, nak22_unflagged):
    # the flag is a checked claim: flagged and unflagged read the same value
    assert "selfinjective" in nak22.flags and not nak22_unflagged.flags
    assert domdim_algebra(nak22) == domdim_algebra(nak22_unflagged)


def test_domdim_terminating_certificate(nak22_unflagged):
    out = domdim_algebra(nak22_unflagged)
    assert out.is_infinite and "coresolution" in out.certificate


def test_domdim_periodic_certificate(nak33_unflagged):
    out = domdim_module(simple(nak33_unflagged, 0))
    assert out.is_infinite and "periodic" in out.certificate


@pytest.mark.parametrize(
    "name, vertex", [("nak-22", 0), ("nak-22", 1), ("nak-33", 0), ("nak-33", 1), ("nak-233", 1)]
)
def test_simples_with_periodic_coresolutions(name, vertex, fresh_corpus_table):
    # the cosyzygies of these simples cycle among projective terms; the cycle
    # is seen when a cosyzygy's signature repeats
    tbl = fresh_corpus_table(name, 101)
    out = domdim_module(simple(tbl, vertex))
    assert str(out) == "inf (periodic coresolution among projectives)"


def test_domdim_zero_module(a2):
    assert domdim_module(zero_module(a2)).is_infinite


def test_domdim_capped(dim5):
    # true value is 2; a cap of 1 exhausts before seeing the non-projective term
    out = domdim_algebra(dim5, cap=1)
    assert not out.is_exact and not out.is_infinite
    assert out.value == 2
    assert out.ge(2) is True and out.ge(3) is None


def linear_series(m):
    """Every admissible linear Kupisch series with m entries: the last is 1,
    the others at least 2, none descends by more than 1, and entry i (from
    0) is at most m - i, the vertices left on the line."""
    ranges = [range(2, m - i + 1) for i in range(m - 1)] + [range(1, 2)]
    return [
        c for c in itertools.product(*ranges) if all(c[i + 1] >= c[i] - 1 for i in range(m - 1))
    ]


def test_domdim_by_summands_equals_the_whole_module(fresh_corpus_table, nak33_unflagged):
    # the summand route against D(A) resolved whole (tests/reference.py), in
    # kind, value and certificate, at small caps where the kinds differ
    names = sorted(f[: -len(".alg")] for f in os.listdir(CORPUS) if f.endswith(".alg"))
    tables = [lambda name=name, p=p: fresh_corpus_table(name, p)
              for name in names for p in (101, 2, 3, 5)]
    tables += [lambda c=c: nakayama_from_kupisch(c, cyclic=True)
               for m in range(1, 6) for c in _cyclic_series(m, 6)]
    tables += [lambda c=c: nakayama_from_kupisch(c, cyclic=False)
               for m in range(1, 7) for c in linear_series(m)]
    kinds = set()
    for build in tables:
        for cap in (0, 1, 2, 3):
            tbl = build()  # fresh, so the summand route starts from an empty memo
            got = domdim_algebra(tbl, cap)
            assert got == reference.domdim_whole(tbl, cap), (tbl.label, cap)
            kinds.add((got.kind, got.certificate))
    assert kinds == {
        ("exact", ""),
        ("at_least", ""),
        # the selfinjective tables, flagged or not, and the field, A_1
        ("infinite", "finite coresolution with all terms projective"),
    }
    # every P(v) projective-injective, with no flag
    for cap in (0, 1, 2, 3):
        got = domdim_algebra(nak33_unflagged, cap)
        assert got == reference.domdim_whole(nak33_unflagged, cap)
        assert str(got) == "inf (finite coresolution with all terms projective)"


def test_mueller_and_gorenstein_by_summands_equal_the_whole_module(fresh_corpus_table):
    # the routes through the D P(v) against D(A) resolved whole
    # (tests/reference.py), in kind, value and certificate, and the ext_g_dim
    # of the gorenstein record against Ext^g(DA, A) read whole
    names = sorted(f[: -len(".alg")] for f in os.listdir(CORPUS) if f.endswith(".alg"))
    tables = [lambda name=name, p=p: fresh_corpus_table(name, p)
              for name in names for p in (101, 2, 3, 5)]
    tables += [lambda c=c: nakayama_from_kupisch(c, cyclic=True)
               for m in range(1, 5) for c in _cyclic_series(m, 6)]
    tables += [lambda c=c: nakayama_from_kupisch(c, cyclic=False)
               for m in range(1, 6) for c in linear_series(m)]
    kinds, ext_g_read = set(), 0
    for build in tables:
        for cap in (0, 1, 2, 3, 30):
            tbl = build()  # fresh, so the summand routes start from an empty memo
            mu = domdim_R_via_mueller(tbl, cap)
            g = gorenstein_dim(tbl, cap)
            assert mu == reference.mueller_whole(tbl, cap), (tbl.label, cap)
            assert g == reference.gorenstein_whole(tbl, cap), (tbl.label, cap)
            kinds |= {("mueller", mu.kind, mu.certificate), ("gorenstein", g.kind)}
            record = verify_gorenstein(tbl, cap).detail
            if "ext_g_dim" in record:
                assert record["ext_g_dim"] == reference.ext_g_whole(tbl, g.value), tbl.label
                ext_g_read += 1
    assert len(tables) * 5 == 720
    assert kinds == {
        ("mueller", "exact", ""),
        ("mueller", "at_least", ""),
        ("mueller", "infinite", "dual regular module is projective"),
        ("gorenstein", "exact"),
        ("gorenstein", "at_least"),
    }
    assert ext_g_read


# ---------------------------------------------------------------------------
# pdim / gldim / Gorenstein
# ---------------------------------------------------------------------------


def test_pdim_gldim_values(a2, dim5):
    assert pdim(simple(a2, 0)).eq(1)
    assert gldim(a2).eq(1)
    assert gldim(dim5).eq(2)


def test_pdim_zero_module_rejected(a2):
    with pytest.raises(ValueError):
        pdim(zero_module(a2))


def test_gldim_capped_selfinjective(nak22):
    out = gldim(nak22, cap=5)
    assert not out.is_exact and out.value >= 6


def test_pdim_stops_at_the_first_repeated_syzygy(monkeypatch):
    """Over the selfinjective nak-22, Ω swaps the two simples: each pdim
    takes three Ω steps, the third a repeat, whatever the cap, and gldim
    stops at its first capped simple."""
    tbl = nakayama_from_kupisch([2, 2], cyclic=True)
    calls = []
    original = ardom.homology.omega
    monkeypatch.setattr(ardom.homology, "omega", lambda m: calls.append(m) or original(m))
    cap = 10**4
    for v in range(2):
        calls.clear()
        assert pdim(simple(tbl, v), cap=cap) == CappedNat.at_least(cap + 1)
        assert len(calls) == 3
    calls.clear()
    assert gldim(tbl, cap=cap) == CappedNat.at_least(cap + 1)
    assert len(calls) == 3


@pytest.mark.parametrize("name", ["nak-22", "nak-33", "nak-233"])
def test_every_consumer_of_the_walk_stops_at_its_repeat(name, monkeypatch, fresh_corpus_table):
    # on a simple whose syzygies cycle, cap 10**4 takes no more Ω steps than
    # cap 10: each search ends where the one syzygy walk repeats
    calls = []
    original = ardom.homology.omega
    monkeypatch.setattr(ardom.homology, "omega", lambda m: calls.append(m) or original(m))
    periodic = 0
    for v in range(len(fresh_corpus_table(name, 101).quiver.vertices)):
        if pdim(simple(fresh_corpus_table(name, 101), v), 10).is_exact:
            continue
        periodic += 1
        for search in (domdim_module, grade, first_nonzero_ext):
            steps = []
            for cap in (10, 10**4):
                m = simple(fresh_corpus_table(name, 101), v)  # fresh, so no memo hides a step
                calls.clear()
                search(m, cap)
                steps.append(len(calls))
            assert steps[0] == steps[1], (search.__name__, v, steps)
    assert periodic


def test_injdim_dual_route(dim5):
    # injective dimension via duals: injectives have injdim 0
    for v in range(2):
        assert injdim(injective(dim5, v)).eq(0)


def test_gorenstein_values(nak22, nak32, a2):
    assert gorenstein_dim(nak22).eq(0)
    assert gorenstein_dim(nak32).eq(2)
    assert gorenstein_dim(a2).eq(1)


def test_gorenstein_proof_fact_nak32(nak32):
    # non-selfinjective Nakayama with Gorenstein dimension g: Ext^g(DA, A) != 0
    g = gorenstein_dim(nak32)
    assert g.eq(2)
    assert ext_dim(dual_regular(nak32), regular(nak32), g.value) != 0


# ---------------------------------------------------------------------------
# torsion-freeness, both routes
# ---------------------------------------------------------------------------


def test_projectives_always_torsion_free(dim5):
    for v in range(2):
        for n in range(1, 4):
            assert is_n_torsion_free(projective(dim5, v), n)
            assert is_n_torsion_free_via_dual(projective(dim5, v), n)


def test_torsion_free_routes_agree(dim5, nak32, kronecker):
    for tbl in (dim5, nak32, kronecker):
        for m in sample_modules(tbl, seed=28, size=6):
            for n in range(1, 4):
                assert is_n_torsion_free(m, n) == is_n_torsion_free_via_dual(m, n)


def test_torsion_free_low_degrees_match_eval(dim5, nak32):
    for tbl in (dim5, nak32):
        for m in sample_modules(tbl, seed=29, size=6):
            data = evaluation_and_torsion(m)
            assert is_n_torsion_free(m, 1) == data.torsionless
            assert is_n_torsion_free(m, 2) == data.reflexive


def test_selfinjective_all_torsion_free(nak22):
    for m in sample_modules(nak22, seed=30, size=6):
        for n in range(1, 4):
            assert is_n_torsion_free(m, n)


def test_torsion_free_bad_n(a2):
    with pytest.raises(ValueError):
        is_n_torsion_free(simple(a2, 0), 0)


# ---------------------------------------------------------------------------
# the endomorphism-ring dominant dimension formula
# ---------------------------------------------------------------------------


def test_mueller_values(a2, dim5, kronecker):
    assert domdim_R_via_mueller(a2).eq(2)
    assert domdim_R_via_mueller(dim5).eq(2)
    assert domdim_R_via_mueller(kronecker).eq(2)


def test_mueller_selfinjective(nak22):
    out = domdim_R_via_mueller(nak22)
    assert out.is_infinite and "projective" in out.certificate


def test_mueller_matches_domdim_on_gendo_symmetric(dim5):
    assert "gendo_symmetric" in dim5.flags
    lhs = domdim_algebra(dim5)
    rhs = domdim_R_via_mueller(dim5)
    assert lhs.is_exact and rhs.is_exact and lhs.value == rhs.value


# ---------------------------------------------------------------------------
# Ext groups carried as modules over the opposite algebra
# ---------------------------------------------------------------------------


def test_ext_module_frozen_a2(a2):
    e = ext_module(simple(a2, 0), 1)
    assert e.algebra is opposite(a2)
    assert e.dims == (0, 1)
    assert validate(e) is None


def test_ext_module_degree_zero_is_the_hom_dual(kronecker):
    m = simple(kronecker, 0)
    e0 = ext_module(m, 0)
    expected = tuple(hom_basis(m, projective(kronecker, v)).dim for v in range(2))
    assert e0.dims == expected


def test_ext_module_total_dim_is_additive(dim5, nak32):
    # the vertexwise grading must reassemble to Ext against the full regular
    # module, which ext_dim computes by an unrelated code path
    for tbl in (dim5, nak32):
        areg = regular(tbl)
        for m in sample_modules(tbl, seed=3, size=10):
            for i in (1, 2):
                e = ext_module(m, i)
                assert validate(e) is None
                assert e.total_dim == ext_dim(m, areg, i)


def test_ext_module_vanishes_on_projectives(a2, dim5):
    for tbl in (a2, dim5):
        for v in range(2):
            assert ext_module(projective(tbl, v), 1).is_zero
            assert ext_module(projective(tbl, v), 2).is_zero


def test_ext_module_degree_zero_matches_the_hom_basis_dual():
    # the cochain route in degree 0 against the Kronecker hom_basis route
    checked = 0
    for entry in load_corpus(CORPUS):
        for m in sample_modules(entry.load_table(), seed=5, size=12):
            e0 = ext_module(m, 0)
            assert validate(e0) is None
            assert is_isomorphic(e0, reference._star_with_bases(m)[0]) is True
            checked += 1
    assert checked == 168


def test_ext_module_rejects_negative_degree(a2):
    with pytest.raises(ValueError):
        ext_module(simple(a2, 0), -1)


def assert_bit_identical_modules(got, want):
    assert got.algebra is want.algebra and got.dims == want.dims
    for x, y in zip(got.mats, want.mats, strict=True):
        assert x.shape == y.shape and x.dtype == y.dtype == np.int64
        assert np.array_equal(x, y)


def test_ext_module_is_the_post_composition_module_bit_for_bit():
    # the dualised resolution against Ext^i(m, P(v)) assembled by
    # post-composition with left multiplication by each arrow, on degrees
    # 0..4 of 24 sampled and every knitted module, over each corpus entry and
    # its opposite and the cyclic Nakayama algebras with m = 2..4, L <= 5
    tables = []
    for entry in load_corpus(CORPUS):
        tables += [entry.load_table(), opposite(entry.load_table())]
    tables += [nakayama_from_kupisch(c, cyclic=True) for m in range(2, 5) for c in _cyclic_series(m, 5)]
    checked = nonzero = 0
    for tbl in tables:
        mods = [*sample_modules(tbl, seed=4, size=24)]
        mods += [record.module for record in knit_indecomposables(tbl, 64) or ()]
        for m in mods:
            for i in range(5):
                got = ext_module(m, i)
                assert_bit_identical_modules(got, reference.ext_module_by_post_composition(m, i))
                checked += 1
                nonzero += not got.is_zero
    assert (len(tables), checked, nonzero) == (72, 12255, 3622)


CROSSED_PATHS = """
field {p}
vertices v1 v2 v3
arrow a v1 v2
arrow b v1 v2
arrow d v2 v3
arrow c v2 v3
"""


@pytest.mark.parametrize("p", [2, 101])
def test_ext_module_is_the_post_composition_module_up_to_isomorphism(p):
    # a·c, a·d, b·c and b·d sort one way and their reversed words another, so
    # the opposite projectives list Hom(P(v), A) in another basis order
    tbl = table_from_text(CROSSED_PATHS.format(p=p), label="crossed")
    reordered = 0
    for side in (tbl, opposite(tbl)):
        for m in sample_modules(side, seed=0, size=24):
            for i in range(3):
                got, want = ext_module(m, i), reference.ext_module_by_post_composition(m, i)
                assert validate(got) is None and got.dims == want.dims
                reordered += got.signature() != want.signature()
                verdict = is_isomorphic(got, want)
                if verdict is None:  # no Krull-Schmidt split: search for an isomorphism
                    verdict = reference.random_isomorphism_search(got, want)
                assert verdict is True, (side.label, m.label, i)
    assert reordered


# ---------------------------------------------------------------------------
# torsion without the double dual
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["ka2", "auslander-x2", "nak-233"])
def test_torsion_matches_the_evaluation_kernel(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    nv = len(tbl.quiver.vertices)
    mods = [simple(tbl, v) for v in range(nv)] + [*sample_modules(tbl)]
    for m in mods:
        t = torsion(m)
        data = evaluation_and_torsion(m)
        ref = kernel(data.evaluation)[0]
        assert t.signature() == ref.signature() == data.torsion.signature()
        assert t.dims == ref.dims
        for a, b in zip(t.mats, ref.mats, strict=True):
            assert a.shape == b.shape and a.dtype == b.dtype == np.int64
            assert np.array_equal(a, b)
        assert torsion(m) is t  # kept in the table's cache


DIFFERENTIAL_IDS = ["ka2", "auslander-x2", "auslander-x3", "comm-square", "nak-233", "kronecker"]


@pytest.mark.parametrize("p", [101, 2, 3, 5])
@pytest.mark.parametrize("name", DIFFERENTIAL_IDS)
def test_torsion_from_one_hom_system_is_the_per_vertex_torsion(
    name, p, fresh_corpus_table, differential_modules
):
    # Hom(m, A) read whole spans what the Hom(m, P(v)) span together, so the
    # canonical left kernels agree bit for bit, with the double dual's too
    tbl = fresh_corpus_table(name, p)
    nonzero = 0
    for m in differential_modules(tbl):
        got = torsion(m)
        for want in (reference.torsion_per_vertex(m), evaluation_and_torsion(m).torsion):
            assert got.signature() == want.signature(), m.label
            for a, b in zip(got.mats, want.mats, strict=True):
                assert a.dtype == b.dtype == np.int64 and np.array_equal(a, b), m.label
        nonzero += not got.is_zero
    assert nonzero


def test_torsion_solves_one_hom_system_and_keeps_no_yoneda_block(fresh_corpus_table):
    # Hom(m, A) is read against A alone, never against one P(v) at a time
    tbl = fresh_corpus_table("auslander-x3", 101)
    for m in sample_modules(tbl, size=16):
        torsion(m)
    targets = {key[2] for key in tbl._memo if key[0] in ("ext_classes", "_cochain")}
    assert targets == {regular(tbl).signature()}
    assert not any("yoneda" in key[0] for key in tbl._memo)


def test_modules_of_one_signature_share_one_unlabelled_result(fresh_corpus_table):
    # the result depends on the module alone: two labels, one memo entry
    tbl = fresh_corpus_table("auslander-x2", 101)
    s = simple(tbl, 1)
    first, second = s.relabeled("first"), s.relabeled("second")
    assert first is not second and first.signature() == second.signature()
    for route in (transpose, lambda m: ext_module(m, 1), torsion):
        a = route(first)
        assert route(second) is a and a.label == ""


def test_torsion_builds_no_dual(monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table("auslander-x2", 3)
    mods = sample_modules(tbl)
    calls = []
    original = ardom.modules._hom_rows

    def counted(m, n):
        calls.append(m)
        return original(m, n)

    monkeypatch.setattr(ardom.modules, "_hom_rows", counted)
    for m in mods:
        torsion(m)
    assert not calls
    evaluation_and_torsion(mods[0])
    assert calls  # the counter does see the double-dual route


CORPUS_IDS = sorted(entry.entry_id for entry in load_corpus(CORPUS))


def torsion_signatures(tbl):
    """(route, reference) torsion signatures over the sample of tbl."""
    mods = sample_modules(tbl)
    return (
        [torsion(m).signature() for m in mods],
        [evaluation_and_torsion(m).torsion.signature() for m in mods],
    )


@pytest.mark.parametrize("side", ["algebra", "opposite"])
@pytest.mark.parametrize("name", CORPUS_IDS)
def test_torsion_is_the_evaluation_kernel_on_every_corpus_side(name, side, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    got, want = torsion_signatures(tbl if side == "algebra" else opposite(tbl))
    assert got and got == want


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "series, cyclic", [([2, 2], True), ([3, 2], True), ([3, 3, 2], True), ([2, 2, 1], False)]
)
def test_torsion_is_the_evaluation_kernel_over_small_fields(series, cyclic, p):
    got, want = torsion_signatures(nakayama_from_kupisch(series, cyclic, p=p))
    assert got and got == want


@pytest.mark.parametrize("name", ["auslander-x3", "comm-square", "nak-233", "nak-344", "nak-432"])
def test_higher_ext_is_degree_one_of_the_syzygy(name, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    q = tbl.quiver
    nonzero = 0
    for m in sample_modules(tbl, seed=3, size=24):
        for i in range(2, 5):
            syz = syzygy(m, i - 1)
            e = ext_module(m, i)
            assert e is ext_module(syz, 1)
            for v in range(len(q.vertices)):
                pv = projective(tbl, v)
                got = ext_classes(m, pv, i)
                ref = reference.ext_classes_of_the_resolution(m, i, v)
                assert got is ext_classes(syz, pv, 1)
                assert np.array_equal(got[0], ref[0])
                assert np.array_equal(got[1].proj, ref[1].proj)
                assert got[1].dim == e.dims[v] == ext_dim(m, projective(tbl, v), i)
            # the degree-i assembly of the Ext module, by post-composition
            mats = [post_compose(m, i, arrow_left_mult(tbl, a)) for a in range(len(q.arrows))]
            assert all(np.array_equal(x, y) for x, y in zip(e.mats, mats, strict=True))
            nonzero += not e.is_zero
    assert nonzero


# the searches that end with None at a repeated syzygy, not a zero one: the
# non-projective modules of the selfinjective entries have no zero syzygy
EXT_SEARCHES_ENDING_AT_A_REPEAT = {"nak-22": 8, "nak-33": 10}


@pytest.mark.parametrize(
    "name", ["ka2", "auslander-x3", "comm-square", "nak-233", "nak-344", "nak-22", "nak-33"]
)
def test_the_ext_search_stops_once_the_syzygies_repeat(name, monkeypatch, fresh_corpus_table):
    # Ext^i(m, A) is Ext^1 of Ω^{i-1} m, so past a zero or repeated syzygy
    # every degree repeats one read as zero: a huge n reads no more degrees
    # than the syzygies take to close their cycle
    tbl = fresh_corpus_table(name, 101)
    areg = regular(tbl)
    simples = [simple(tbl, v) for v in range(len(tbl.quiver.vertices))]
    mods = [*sample_modules(tbl, seed=0, size=16), *simples]
    reads = []
    original = ardom.homology.ext_dim
    monkeypatch.setattr(
        ardom.homology, "ext_dim", lambda m, n, i: reads.append(i) or original(m, n, i)
    )
    stopped = repeats = 0
    for m in mods:
        for start in (0, 1):
            want = next((i for i in range(start, 41) if original(m, areg, i)), None)
            reads.clear()
            assert first_nonzero_ext(m, 10**5, start) == want, (m.label, start)
            assert len(reads) <= 40, (m.label, start)
            stopped += want is None
            repeats += want is None and not pdim(m, cap=40).is_exact
    assert stopped
    assert repeats == EXT_SEARCHES_ENDING_AT_A_REPEAT.get(name, 0)


# ---------------------------------------------------------------------------
# explicit invariant checks
# ---------------------------------------------------------------------------


def test_ext_module_check_raises_without_asserts(monkeypatch):
    tbl = table_from_text("field 101\nvertices v1 v2\narrow a v1 v2\n", label="a2-fresh")
    s1 = simple(tbl, 0)
    assert ext_dim(s1, regular(tbl), 1) == 1

    def no_cocycles(fmor):  # a kernel that lost its rows
        return ardom.modules.submodule_from_rows(fmor.source, [[] for _ in fmor.source.dims])

    monkeypatch.setattr(ardom.homology, "kernel", no_cocycles)
    with pytest.raises(InvariantError, match="a coboundary leaves the cocycles"):
        ext_module(s1, 1)


def test_gorenstein_disagreement_raises(monkeypatch, a2):
    sides = iter([CappedNat.exact(1), CappedNat.exact(2)])
    monkeypatch.setattr(ardom.homology, "_regular_injdim", lambda tbl, cap: next(sides))
    with pytest.raises(InvariantError, match="disagree"):
        gorenstein_dim(a2)


# ---------------------------------------------------------------------------
# one torsion-free degree function
# ---------------------------------------------------------------------------


def test_torsion_free_failure_degree_drives_is_n_torsion_free(dim5, nak32, kronecker):
    for tbl in (dim5, nak32, kronecker):
        for m in sample_modules(tbl, seed=28, size=6):
            degree = torsion_free_failure_degree(m, 3)
            assert degree is None or 1 <= degree <= 3
            for n in range(1, 4):
                expected = degree is None or degree > n
                assert is_n_torsion_free(m, n) == expected
                assert (torsion_free_failure_degree(m, n) is None) == expected
    with pytest.raises(ValueError):
        torsion_free_failure_degree(simple(dim5, 0), 0)
