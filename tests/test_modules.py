import ast
import dataclasses
import hashlib
import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ardom.modules
from ardom.algebra import (
    InvariantError,
    Path,
    nakayama_from_kupisch,
    opposite,
    table_from_file,
    table_from_text,
)
from ardom.arseq import _rad_end_paths, knit_indecomposables, projective_rad_end
from ardom.corpus import load_corpus
from ardom.linalg import PrimeField
from ardom.modules import (
    ModuleFileError,
    ModuleMorphism,
    ModuleRep,
    _projective_injective_socles,
    _radical_rows,
    cokernel,
    direct_sum,
    dual,
    identity_morphism,
    image,
    inj_hull,
    injective,
    is_injective,
    is_isomorphic,
    is_projective,
    kernel,
    nakayama_indecomposables,
    parse_module,
    proj_cover,
    proj_sum,
    projective,
    projective_paths,
    projsum_hom_rows,
    projsum_map_elements,
    projsum_map_from_elements,
    projsum_morphism,
    quotient_by_rows,
    radical,
    regular,
    sample_modules,
    serialize_module,
    simple,
    socle,
    socle_vertices,
    submodule_from_rows,
    top,
    top_vertices,
    validate,
    zero_module,
    zero_morphism,
)
from ardom.verify import _cyclic_series
import reference
from reference import arrow_left_mult, hom_basis, left_mult_morphism

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
CORPUS_IDS = sorted(entry.entry_id for entry in load_corpus(CORPUS))


@pytest.fixture(scope="module", params=["ka2", "auslander-x2"])
def corpus_table(request):
    return table_from_file(os.path.join(CORPUS, request.param + ".alg"))


# ---------------------------------------------------------------------------
# independent oracle: hom dimension by entrywise assembly (no kron shortcuts)
# ---------------------------------------------------------------------------


def hom_dim_entrywise(m, n):
    f = m.algebra.field
    q = m.algebra.quiver
    pos = {}
    for v in range(len(q.vertices)):
        for i in range(m.dims[v]):
            for j in range(n.dims[v]):
                pos[(v, i, j)] = len(pos)
    if not pos:
        return 0
    eqs = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        for i in range(m.dims[v]):
            for l in range(n.dims[w]):
                row = [0] * len(pos)
                for k in range(m.dims[w]):
                    row[pos[(w, k, l)]] += int(m.mats[a][i, k])
                for j in range(n.dims[v]):
                    row[pos[(v, i, j)]] -= int(n.mats[a][j, l])
                eqs.append(row)
    if not eqs:
        return len(pos)
    mat = np.array(eqs, dtype=np.int64) % f.p
    return len(pos) - f.rank(mat)


def kronecker_reg(tbl, lam):
    """The (1,1)-dimensional Kronecker module with a acting by 1, b by lam."""
    return ModuleRep(tbl, (1, 1), [np.array([[1]]), np.array([[lam]])], label=f"R_{lam}")


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------


def test_simple_shapes(a2):
    s1 = simple(a2, 0)
    assert s1.dims == (1, 0)
    assert validate(s1) is None
    s2 = simple(a2, 1)
    assert s2.dims == (0, 1)
    with pytest.raises(ValueError):
        simple(a2, 5)


def test_projective_a2(a2):
    p1, p2 = projective(a2, 0), projective(a2, 1)
    assert p1.dims == (1, 1) and p2.dims == (0, 1)
    assert np.array_equal(p1.mats[0], [[1]])
    assert validate(p1) is None and validate(p2) is None


def test_projective_dim5(dim5):
    p1, p2 = projective(dim5, 0), projective(dim5, 1)
    assert p1.dims == (1, 1)
    assert p2.dims == (1, 2)
    assert p1.total_dim + p2.total_dim == dim5.dimension
    assert validate(p1) is None and validate(p2) is None
    # basis at v2 of P(v2) is {e2, b*a} in length order; b acts e2 -> b
    assert np.array_equal(p2.mats[1], [[1], [0]])


def projective_by_products(tbl, v):
    """The blocks of P(v) with every product p·a of a basis path and an
    arrow multiplied out by ``multiply_paths``."""
    q = tbl.quiver
    index = projective_paths(tbl, v)
    mats = []
    for a in range(len(q.arrows)):
        src, tgt = q.arrow_source(a), q.arrow_target(a)
        mat = np.zeros((len(index[src]), len(index[tgt])), dtype=np.int64)
        for i, path in enumerate(index[src]):
            for term, c in tbl.multiply_paths(path, Path(src, (a,), tgt)).items():
                mat[i, index[tgt][term]] = c
        mats.append(mat)
    return mats


def assert_projectives_are_the_products(tbl):
    for side in (tbl, opposite(tbl)):
        p = side.field.p
        for v in range(len(side.quiver.vertices)):
            got, want = projective(side, v), projective_by_products(side, v)
            assert got.dims == tuple(len(at) for at in projective_paths(side, v))
            assert len(got.mats) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got.mats, want))
            # P(v) is built trusted: the checked constructor must change no bit
            checked = ModuleRep(side, got.dims, got.mats, label=got.label)
            assert all(type(d) is int for d in got.dims)
            assert all(b.dtype == np.int64 and ((0 <= b) & (b < p)).all() for b in got.mats)
            assert checked.signature() == got.signature()
            assert validate(got) is None


def rewritten_products(tbl):
    """(p, a) of the basis paths p and arrows a, on either side, whose
    product a rule rewrites to other paths: those not in ``arrow_products``."""
    return [
        (path, a)
        for side in (tbl, opposite(tbl))
        for path in side.basis
        for a in side.quiver.arrows_from(path.target)
        if (path, a) not in side.arrow_products
    ]


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", CORPUS_IDS)
def test_projectives_read_the_product_record(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    assert_projectives_are_the_products(tbl)
    # only the non-monomial entries multiply a product out
    assert bool(rewritten_products(tbl)) == (name in ("auslander-x3", "comm-square"))


def test_cyclic_nakayama_projectives_read_the_product_record():
    for m in range(1, 5):
        for series in _cyclic_series(m, 6):
            tbl = nakayama_from_kupisch(list(series), cyclic=True)
            assert_projectives_are_the_products(tbl)
            assert not rewritten_products(tbl)


def test_injective_a2(a2):
    i1, i2 = injective(a2, 0), injective(a2, 1)
    assert i1.dims == (1, 0)  # = S(v1) as a representation
    assert i2.dims == (1, 1)  # = P(v1) as a representation
    assert validate(i1) is None and validate(i2) is None


def test_validate_reports_broken_relation(dim5):
    bad = ModuleRep(dim5, (1, 1), [np.array([[1]]), np.array([[1]])])
    report = validate(bad)
    assert report is not None and "relation #1" in report and "a*b" in report


def test_regular_dimension(dim5, nak32):
    assert regular(dim5).total_dim == dim5.dimension
    assert regular(nak32).total_dim == nak32.dimension
    assert validate(regular(nak32)) is None


def test_zero_module(a2):
    z = zero_module(a2)
    assert z.is_zero and validate(z) is None
    assert is_projective(z) and is_injective(z)
    assert hom_basis(z, projective(a2, 0)).dim == 0
    assert hom_basis(projective(a2, 0), z).dim == 0


# ---------------------------------------------------------------------------
# morphisms and hom spaces
# ---------------------------------------------------------------------------


def test_morphism_defect_detects_bad_square(a2):
    p1 = projective(a2, 0)
    bad = ModuleMorphism(p1, p1, [np.array([[1]]), np.array([[0]])])
    assert bad.defect() is not None and "a" in bad.defect()
    assert identity_morphism(p1).defect() is None


def test_hom_basis_elements_are_morphisms(dim5, nak32):
    for tbl in (dim5, nak32):
        mods = sample_modules(tbl, seed=3, size=8)
        for m in mods[:4]:
            for n in mods[:4]:
                hb = hom_basis(m, n)
                for f in hb.morphisms:
                    assert f.defect() is None


def test_hom_dims_a2(a2):
    p1, p2 = projective(a2, 0), projective(a2, 1)
    assert hom_basis(p1, p2).dim == 0
    assert hom_basis(p2, p1).dim == 1
    assert hom_basis(simple(a2, 0), simple(a2, 1)).dim == 0
    assert hom_basis(regular(a2), regular(a2)).dim == 3


def test_hom_dim_matches_entrywise_oracle(kronecker, dim5):
    p1 = projective(kronecker, 0)
    r0 = kronecker_reg(kronecker, 0)
    assert hom_basis(p1, r0).dim == hom_dim_entrywise(p1, r0) == 1
    for tbl, seed in ((kronecker, 5), (dim5, 7)):
        mods = sample_modules(tbl, seed=seed, size=6)
        for m in mods:
            for n in mods:
                assert hom_basis(m, n).dim == hom_dim_entrywise(m, n)


def test_yoneda_dims(dim5, nak32):
    for tbl in (dim5, nak32):
        for m in sample_modules(tbl, seed=11, size=8):
            for v in range(len(tbl.quiver.vertices)):
                assert hom_basis(projective(tbl, v), m).dim == m.dims[v]


@settings(max_examples=25, deadline=None)
@given(coeffs=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4))
def test_hom_combos_are_morphisms(coeffs):
    tbl = table_from_text(
        """
        field 101
        vertices v1 v2
        arrow a v1 v2
        arrow b v2 v1
        relation a*b
        """,
        label="dim5-h",
    )
    hb = hom_basis(regular(tbl), regular(tbl))
    assert hb.dim >= 4
    f = hb.combo(coeffs + [0] * (hb.dim - 4))
    assert f.defect() is None


# ---------------------------------------------------------------------------
# kernels, images, cokernels
# ---------------------------------------------------------------------------


def test_factorize_a2_inclusion(a2):
    p1, p2 = projective(a2, 0), projective(a2, 1)
    hb = hom_basis(p2, p1)
    f = hb.morphisms[0]
    assert kernel(f)[0].total_dim == 0
    assert image(f)[0].dims == (0, 1)
    coker = cokernel(f)[0]
    assert coker.dims == (1, 0)  # = S(v1)
    assert validate(coker) is None


def test_factorize_exactness(dim5, nak32):
    for tbl in (dim5, nak32):
        mods = sample_modules(tbl, seed=2, size=6)
        rng = np.random.default_rng(0)
        for m in mods[:3]:
            for n in mods[:3]:
                hb = hom_basis(m, n)
                if hb.dim == 0:
                    continue
                f = hb.combo(rng.integers(0, tbl.field.p, size=hb.dim))
                ker, ker_incl = kernel(f)
                im, im_incl, im_proj = image(f)
                coker, coker_proj, sections = cokernel(f)
                assert ker.total_dim + im.total_dim == m.total_dim
                assert im.total_dim + coker.total_dim == n.total_dim
                # the image recomposes to f, and boundary composites die
                refactored = im_proj.compose(im_incl)
                assert all(
                    np.array_equal(x, y) for x, y in zip(refactored.mats, f.mats)
                )
                assert ker_incl.compose(f).is_zero
                assert f.compose(coker_proj).is_zero
                # each section is a right inverse of the projection
                for s, b, d in zip(sections, coker_proj.mats, coker.dims):
                    assert np.array_equal(tbl.field.mul(s, b), tbl.field.eye(d))
                for piece in (ker, im, coker):
                    assert validate(piece) is None


def sampled_morphisms(tbl, seed=0, count=12):
    """Morphisms as sample_modules draws them: covers and hull embeddings of
    the simples, then random combinations of a hom basis between projective
    sums with multiplicities in 0..2; plus an identity and a zero map."""
    nv = len(tbl.quiver.vertices)
    out = []
    for v in range(nv):
        out.append(proj_cover(simple(tbl, v))[1])
        out.append(inj_hull(simple(tbl, v))[1])
    reg = regular(tbl)
    out += [identity_morphism(reg), zero_morphism(reg, injective(tbl, 0))]
    rng = np.random.default_rng(seed)
    for _ in range(40 * count):
        if len(out) >= count + 2 * nv + 2:
            break
        mult0 = rng.integers(0, 3, size=nv)
        mult1 = rng.integers(0, 3, size=nv)
        verts0 = [v for v in range(nv) for _ in range(mult0[v])]
        verts1 = [v for v in range(nv) for _ in range(mult1[v])]
        if not verts0 or not verts1:
            continue
        hom = hom_basis(proj_sum(tbl, verts0).module, proj_sum(tbl, verts1).module)
        if hom.dim:
            out.append(hom.combo(rng.integers(0, tbl.field.p, size=hom.dim)))
    return out


def reference_parts(fmor):
    """Kernel, image and cokernel of fmor with their maps, each built
    directly from the row bases: [(function, expected tuple)]."""
    f = fmor.field
    m, n = fmor.source, fmor.target
    ker_rows = [f.left_kernel_basis(b) for b in fmor.mats]
    im_rows = [f.row_space_basis(b) for b in fmor.mats]
    im, im_incl = submodule_from_rows(n, im_rows)
    coords = [f.coords_in_rowspace(r, b) for r, b in zip(im_rows, fmor.mats)]
    return [
        (kernel, submodule_from_rows(m, ker_rows)),
        (image, (im, im_incl, ModuleMorphism(m, im, coords))),
        (cokernel, quotient_by_rows(n, im_rows)),
    ]


def assert_bit_identical(x, y):
    """Two modules, two morphisms or two tuples of blocks (sections)."""
    if isinstance(x, ModuleRep):
        assert x.signature() == y.signature()
    elif isinstance(x, ModuleMorphism):
        assert x.source.signature() == y.source.signature()
        assert x.target.signature() == y.target.signature()
    for a, b in zip(*((x, y) if isinstance(x, tuple) else (x.mats, y.mats)), strict=True):
        assert a.shape == b.shape and a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


def test_factorize_parts_match_eager_reference(corpus_table):
    for fmor in sampled_morphisms(corpus_table):
        for function, want in reference_parts(fmor):
            for x, y in zip(function(fmor), want, strict=True):
                assert_bit_identical(x, y)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_factorize_builds_only_the_parts_read(corpus_table, monkeypatch):
    morphisms = sampled_morphisms(corpus_table)
    kernel_calls = count_calls(monkeypatch, PrimeField, "left_kernel_basis")
    quotient_calls = count_calls(monkeypatch, PrimeField, "quotient_by_rowspace")
    for fmor in morphisms:
        cokernel(fmor)
    assert quotient_calls and not kernel_calls
    quotient_calls.clear()
    for fmor in morphisms:
        kernel(fmor)
    assert kernel_calls and not quotient_calls


def test_rows_not_closed_under_arrows_raise(a2):
    p1 = projective(a2, 0)  # e_v1 at v1, the arrow a at v2
    with pytest.raises(ValueError, match="do not span a submodule"):
        submodule_from_rows(p1, [[[1]], np.zeros((0, 1), dtype=np.int64)])


# ---------------------------------------------------------------------------
# radical, socle, top
# ---------------------------------------------------------------------------


def test_rst_projective_a2(a2):
    p1 = projective(a2, 0)
    assert top(p1)[0].dims == (1, 0)
    assert radical(p1)[0].dims == (0, 1)
    assert socle(p1)[0].dims == (0, 1)
    assert radical(p1)[0].signature() == socle(p1)[0].signature()  # they agree here
    assert top(p1)[0].signature() == simple(a2, 0).signature()


def test_rst_regular_nak22(nak22):
    assert top(regular(nak22))[0].dims == (1, 1)


def test_rst_structure(dim5, nak32):
    for tbl in (dim5, nak32):
        for m in sample_modules(tbl, seed=4, size=6):
            rad, rad_incl = radical(m)
            tp, tp_proj, _ = top(m)
            soc = socle(m)[0]
            assert tp_proj.is_surjective_map()
            assert rad_incl.is_injective_map()
            assert rad_incl.compose(tp_proj).is_zero
            assert rad.total_dim + tp.total_dim == m.total_dim
            # socle is killed by every arrow
            assert all(not np.any(mat) for mat in soc.mats)
            for piece in (rad, soc, tp):
                assert validate(piece) is None


def test_rst_builds_only_the_parts_read(corpus_table, monkeypatch):
    mods = sample_modules(corpus_table, seed=0, size=24)
    socle_calls = count_calls(monkeypatch, PrimeField, "left_kernel_basis")
    top_calls = count_calls(monkeypatch, PrimeField, "quotient_by_rowspace")
    for m in mods:
        radical(m)
    assert not socle_calls and not top_calls


# ---------------------------------------------------------------------------
# covers and hulls
# ---------------------------------------------------------------------------


def test_proj_cover_simple_a2(a2):
    ps, cover = proj_cover(simple(a2, 0))
    assert ps.vertices == (0,)
    assert cover.is_surjective_map()
    assert kernel(cover)[0].dims == (0, 1)


def test_proj_cover_minimality(dim5, nak32):
    for tbl in (dim5, nak32):
        f = tbl.field
        for m in sample_modules(tbl, seed=6, size=6):
            ps, cover = proj_cover(m)
            assert cover.is_surjective_map()
            # kernel sits inside rad P: its rows lie in the radical row space
            inclusion = kernel(cover)[1]
            rad_p = radical(ps.module)[1]
            for v in range(len(m.dims)):
                rows = inclusion.mats[v]
                assert f.coords_in_rowspace(rad_p.mats[v], rows) is not None


def test_proj_cover_generators_are_radical_quotient_sections(corpus_table):
    f = corpus_table.field
    for m in sample_modules(corpus_table, seed=0, size=24):
        ps, cover = proj_cover(m)
        assert cover.is_surjective_map()
        rad = radical(m)[1]
        expected = [
            (v, row)
            for v in range(len(m.dims))
            for row in f.quotient_by_rowspace(rad.mats[v], m.dims[v]).section
        ]
        generators = [(v, cover.mats[v][ps.first[j][v]]) for j, v in enumerate(ps.vertices)]
        assert [v for v, _ in generators] == [v for v, _ in expected]
        for (_, got), (_, want) in zip(generators, expected):
            assert np.array_equal(got, want)


def cover_read_off_the_radical_rows(m):
    """(vertices, generator rows by vertex) of the cover of m, read off the
    rref rows of its radical: the first nonzero of each row is a pivot, and
    each non-pivot column is the generator of one copy of P(v)."""
    f = m.algebra.field
    vertices, starts = [], {}
    for v, rows in enumerate(_radical_rows(m)):
        free = np.ones(m.dims[v], dtype=bool)
        if len(rows):
            free[np.argmax(rows != 0, axis=1)] = False
        starts[v] = f.eye(m.dims[v])[free]
        vertices += [v] * len(starts[v])
    return tuple(vertices), starts


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_proj_cover_reads_the_top_off_the_radical_rows(name, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    for m in sample_modules(tbl):
        ps, cover = proj_cover(m)
        vertices, starts = cover_read_off_the_radical_rows(m)
        assert ps.vertices == vertices
        for v, start in starts.items():
            generators = [ps.first[j][v] for j, u in enumerate(ps.vertices) if u == v]
            assert np.array_equal(cover.mats[v][generators], start)


def test_proj_cover_builds_no_radical_submodule(corpus_table, monkeypatch):
    mods = sample_modules(corpus_table, seed=0, size=24)
    calls = count_calls(monkeypatch, ardom.modules, "submodule_from_rows")
    for m in mods:
        proj_cover(m)
    assert not calls


@pytest.mark.parametrize("name", ["ka2", "nak-344"])
def test_syzygy_of_a_cover_solves_no_system(name, monkeypatch, fresh_corpus_table):
    # canonical kernel rows have unit columns: the arrow actions are read off them
    tbl = fresh_corpus_table(name, 101)
    nv = len(tbl.quiver.vertices)
    mods = [simple(tbl, v) for v in range(nv)] + [injective(tbl, v) for v in range(nv)]
    covers = [proj_cover(m)[1] for m in [*mods, *sample_modules(tbl, seed=0, size=24)]]
    calls = count_calls(monkeypatch, PrimeField, "solve")
    syzygies = [kernel(cover)[0] for cover in covers]
    assert not calls
    assert any(not s.is_zero for s in syzygies)


def test_inj_hull_socle_iso(dim5, nak32, a2):
    for tbl in (a2, dim5, nak32):
        for m in sample_modules(tbl, seed=8, size=6):
            hull, emb = inj_hull(m)
            assert emb.is_injective_map()
            assert is_injective(hull)
            soc_m, incl_m = socle(m)
            soc_i, incl_i = socle(hull)
            assert soc_m.dims == soc_i.dims
            composed = incl_m.compose(emb)
            f = tbl.field
            for v in range(len(m.dims)):
                coords = f.coords_in_rowspace(incl_i.mats[v], composed.mats[v])
                assert coords is not None and f.rank(coords) == soc_m.dims[v]


def test_projectivity_and_injectivity_a2(a2):
    assert is_projective(projective(a2, 0)) and is_projective(projective(a2, 1))
    assert not is_projective(simple(a2, 0))
    assert is_injective(injective(a2, 0)) and is_injective(injective(a2, 1))
    assert is_injective(projective(a2, 0))  # P(v1) = I(v2) here
    assert not is_injective(simple(a2, 1))


def test_selfinjective_nak22_regular_is_injective(nak22):
    assert is_injective(regular(nak22))
    assert is_isomorphic(projective(nak22, 0), injective(nak22, 1)) is True


def test_nak32_regular_not_injective(nak32):
    # soc P(v2) = S(v1), so an injective P(v2) would be a copy of I(v1);
    # the dimensions 2 vs 3 rule that out.
    p2 = projective(nak32, 1)
    assert socle(p2)[0].dims == (1, 0)
    assert injective(nak32, 0).total_dim == 3
    assert p2.total_dim == 2
    assert not is_injective(p2)
    assert not is_injective(regular(nak32))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------


def test_dual_involution(dim5, nak32):
    for tbl in (dim5, nak32):
        for m in sample_modules(tbl, seed=9, size=6):
            dd = dual(dual(m))
            assert dd.algebra is m.algebra
            assert dd.dims == m.dims
            assert all(np.array_equal(x, y) for x, y in zip(dd.mats, m.mats))
            assert validate(dual(m)) is None


def test_dual_swaps_proj_inj(dim5):
    for v in range(2):
        assert is_injective(dual(projective(dim5, v)))
        assert is_projective(dual(injective(dim5, v)))


# ---------------------------------------------------------------------------
# direct sums
# ---------------------------------------------------------------------------


def test_direct_sum_dims_and_projections(dim5):
    p1, p2 = projective(dim5, 0), projective(dim5, 1)
    total = direct_sum(dim5, [p1, p2, p1])
    assert total.dims == tuple(2 * a + b for a, b in zip(p1.dims, p2.dims))
    q = dim5.quiver
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        mat, row, col = total.mats[a], 0, 0
        for m in (p1, p2, p1):
            # the summand's own block on the diagonal, zeros beside it
            assert np.array_equal(mat[row : row + m.dims[v], col : col + m.dims[w]], m.mats[a])
            assert not np.any(mat[row : row + m.dims[v], :col])
            assert not np.any(mat[row : row + m.dims[v], col + m.dims[w] :])
            row, col = row + m.dims[v], col + m.dims[w]
        assert (row, col) == mat.shape
    assert validate(total) is None


def test_checked_constructors_raise_value_errors(a2, kronecker):
    # explicit raises, so the checks hold under python -O as well
    with pytest.raises(ValueError, match="arrow a: matrix shape"):
        ModuleRep(a2, (1, 1), [np.zeros((2, 1), dtype=np.int64)])
    s0, s1 = simple(a2, 0), simple(a2, 1)
    with pytest.raises(ValueError, match="vertex 0: morphism block"):
        ModuleMorphism(s0, s1, [np.zeros((1, 1), dtype=np.int64), np.zeros((0, 1))])
    with pytest.raises(ValueError, match="algebra mismatch"):
        ModuleMorphism(s0, simple(kronecker, 0), [np.zeros((1, 1)), np.zeros((0, 0))])
    with pytest.raises(ValueError, match="dimensions differ"):
        identity_morphism(s0).compose(identity_morphism(s1))
    arrow = Path(0, (0,), 1)
    with pytest.raises(ValueError, match="does not run"):
        projective(a2, 0).element_matrix({arrow: 1}, 1, 1)
    with pytest.raises(ValueError, match="does not run"):
        left_mult_morphism(a2, {arrow: 1}, src=0, dst=1)


def test_unchecked_constructions_match_the_checked_constructor(a2, dim5):
    for tbl in (a2, dim5):
        f = tbl.field
        mods = sample_modules(tbl, seed=3, size=8)
        built = [dual(m) for m in mods]
        built += [direct_sum(tbl, mods[:3]), direct_sum(tbl, [])]
        for m in mods:
            built += [radical(m)[0], top(m)[0], socle(m)[0]]
            built.append(quotient_by_rows(m, [f.eye(d) for d in m.dims])[0])
        for m in built:
            q = m.algebra.quiver
            assert isinstance(m.dims, tuple) and all(type(d) is int for d in m.dims)
            for a, mat in enumerate(m.mats):
                assert mat.dtype == np.int64
                assert mat.shape == (m.dims[q.arrow_source(a)], m.dims[q.arrow_target(a)])
            assert ModuleRep(m.algebra, m.dims, m.mats).signature() == m.signature()


def test_hom_additivity(kronecker):
    r0, r1 = kronecker_reg(kronecker, 0), kronecker_reg(kronecker, 1)
    both = direct_sum(kronecker, [r0, r1])
    p1 = projective(kronecker, 0)
    assert (
        hom_basis(both, p1).dim
        == hom_basis(r0, p1).dim + hom_basis(r1, p1).dim
    )
    assert (
        hom_basis(p1, both).dim
        == hom_basis(p1, r0).dim + hom_basis(p1, r1).dim
    )


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------


def test_is_isomorphic_reordered_sum(a2):
    p1, p2 = projective(a2, 0), projective(a2, 1)
    left = direct_sum(a2, [p1, p2])
    right = direct_sum(a2, [p2, p1])
    assert is_isomorphic(left, right) is True


def test_is_isomorphic_dim_mismatch(a2):
    assert is_isomorphic(simple(a2, 0), simple(a2, 1)) is False


def test_is_isomorphic_no_homs(kronecker):
    r0, r1 = kronecker_reg(kronecker, 0), kronecker_reg(kronecker, 1)
    assert is_isomorphic(r0, r1) is False


def test_is_isomorphic_end_dim_shortcut(kronecker):
    r0, r1 = kronecker_reg(kronecker, 0), kronecker_reg(kronecker, 1)
    left = direct_sum(kronecker, [r0, r0, r0])
    right = direct_sum(kronecker, [r0, r0, r1])
    # dim End 9 vs 5: definitive False without exhausting 101^6 combos
    assert is_isomorphic(left, right) is False


def test_is_isomorphic_undetermined(kronecker):
    r0, r1 = kronecker_reg(kronecker, 0), kronecker_reg(kronecker, 1)
    left = direct_sum(kronecker, [r0, r0, r1])
    right = direct_sum(kronecker, [r0, r1, r1])
    # equal dims, equal dim End (= 5), hom space of dimension 4 with no
    # isomorphisms in it, which a bounded random search leaves undecided;
    # the summand counts (R_0 twice against once) decide it
    assert is_isomorphic(left, right) is False


def test_the_reference_routes_import_none_of_the_routes_they_check():
    # what reference.py takes from ardom: the names it imports, and the
    # attributes it reads off ardom.<module>
    with open(reference.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    names |= {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "ardom"
    }
    assert {"ext_dim", "_hom_rows"} <= names  # the walk sees both kinds
    checked = {
        "isomorphic_to",
        "indecomposable_summands",
        "torsion",
        "torsion_free_failure_degree",
        "ext_classes",
    }
    assert not names & checked


# ---------------------------------------------------------------------------
# projective sums with labelled generators
# ---------------------------------------------------------------------------


def test_proj_sum_generator_positions(a2):
    ps = proj_sum(a2, [1, 0, 1])
    assert ps.module.dims == (1, 3)
    assert ps.first == ((0, 0), (0, 1), (1, 2))
    assert reference.projsum_gen_pos(ps) == (0, 0, 2)
    assert [lbl[0] for lbl in reference.projsum_labels(ps)[1]] == [0, 1, 2]


def test_proj_sum_keeps_one_layout(fresh_corpus_table):
    """The layout is (module, vertices, first) alone: the trivial path is
    the first basis path v -> v, so copy j's generator sits at
    first[j][vertices[j]], where the labelled layout puts it."""
    assert [fl.name for fl in dataclasses.fields(ardom.modules.ProjSum)] == ["module", "vertices", "first"]
    for name in CORPUS_IDS:
        tbl = fresh_corpus_table(name, 101)
        nv = len(tbl.quiver.vertices)
        for v in range(nv):
            assert next(iter(projective_paths(tbl, v)[v])) == Path(v, (), v)
        ps = proj_sum(tbl, list(range(nv)) + [nv - 1, 0])
        assert reference.projsum_gen_pos(ps) == tuple(ps.first[j][v] for j, v in enumerate(ps.vertices))


def _some_sums(tbl, rng):
    """The empty sum, each P(v) alone and three sums with repeated vertices."""
    nv = len(tbl.quiver.vertices)
    sums = [(), *[(v,) for v in range(nv)]]
    for size in (2, 3, 4):
        vertices = rng.integers(0, nv, size=size)
        vertices[-1] = vertices[0]
        sums.append(tuple(vertices))
    return [proj_sum(tbl, vertices) for vertices in sums]


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("name", CORPUS_IDS)
def test_yoneda_maps_are_the_single_maps_side_by_side(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    rng = np.random.default_rng(p)
    targets = [regular(tbl), *sample_modules(tbl, seed=1, size=3)]
    for ps in _some_sums(tbl, rng):
        for target, k in itertools.product(targets, [0, 1, 3]):
            d = target.dims
            bounds = np.cumsum([0] + [d[u] for u in ps.vertices])
            coords = rng.integers(0, p, size=(k, bounds[-1]))
            maps = ardom.modules._yoneda_maps(
                ps, target, ardom.modules._split_by_copy(ps, coords, d), k)
            assert [g.shape for g in maps] == [(a, k * b) for a, b in zip(ps.module.dims, d)]
            for r in range(k):
                gens = [coords[r, a:b] for a, b in zip(bounds, bounds[1:])]
                single = projsum_morphism(ps, target, gens)
                starts = {
                    u: np.array([g for g, v in zip(gens, ps.vertices) if v == u]).reshape(
                        ps.vertices.count(u), d[u])
                    for u in set(ps.vertices)
                }
                want = reference.one_yoneda_map(ps, target, starts)
                assert single.defect() is None
                for w, g in enumerate(maps):
                    block = g[:, r * d[w] : (r + 1) * d[w]]
                    assert np.array_equal(block, single.mats[w])
                    assert np.array_equal(block, want.mats[w])
            assert np.array_equal(ardom.modules.yoneda_block(ps, target),
                                  reference.yoneda_block_by_labels(ps, target))


@pytest.mark.parametrize("p", [2, 3, 5, 101])
@pytest.mark.parametrize("name", CORPUS_IDS)
def test_map_elements_read_off_the_first_layout(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    rng = np.random.default_rng(p + 1)
    sums = _some_sums(tbl, rng)
    for ps_src, ps_tgt in itertools.product(sums[::2], sums[1::2]):
        rows = [rng.integers(0, p, size=ps_tgt.module.dims[u]) for u in ps_src.vertices]
        d = projsum_morphism(ps_src, ps_tgt.module, rows)
        got = projsum_map_elements(ps_src, ps_tgt, d)
        assert got == reference.projsum_map_elements_by_labels(ps_src, ps_tgt, d)
        back = projsum_map_from_elements(ps_src, ps_tgt, got)
        assert all(np.array_equal(x, y) for x, y in zip(back.mats, d.mats))


def test_projsum_morphism_hits_generators(dim5):
    ps = proj_sum(dim5, [0, 1])
    target = regular(dim5)
    rows = []
    for j, v in enumerate(ps.vertices):
        row = np.zeros(target.dims[v], dtype=np.int64)
        row[j % target.dims[v]] = 1
        rows.append(row)
    f = projsum_morphism(ps, target, rows)
    assert f.defect() is None
    for j, v in enumerate(ps.vertices):
        assert np.array_equal(f.mats[v][ps.first[j][v]], rows[j])


def test_left_mult_morphism_dim5(dim5):
    a_path = dim5.basis_paths_from(0)[1]  # the arrow a as a path v1 -> v2
    b_path = dim5.basis_paths_from(1)[1]  # the arrow b as a path v2 -> v1
    f = left_mult_morphism(dim5, {a_path: 1}, src=1, dst=0)
    assert f.defect() is None
    assert np.array_equal(f.mats[0], [[0]])
    assert np.array_equal(f.mats[1], [[1], [0]])
    g = left_mult_morphism(dim5, {b_path: 1}, src=0, dst=1)
    prod = dim5.multiply({b_path: 1}, {a_path: 1})
    assert f.compose(g).mats[1].tolist() == left_mult_morphism(
        dim5, prod, src=1, dst=1
    ).mats[1].tolist()


def _same_bits(got, want):
    return (
        got.source.signature() == want.source.signature()
        and got.target.signature() == want.target.signature()
        and all(
            x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
            for x, y in zip(got.mats, want.mats, strict=True)
        )
    )


@pytest.mark.parametrize("side", ["algebra", "opposite"])
def test_left_multiplications_read_off_yoneda_rows_match_the_reference(side):
    """The reference arrow_left_mult and projective_rad_end, read off Yoneda
    rows, against left multiplication multiplied out path by path, on every
    corpus entry and its opposite."""
    arrows = cycles = 0
    for entry in load_corpus(CORPUS):
        tbl = entry.load_table()
        if side == "opposite":
            tbl = opposite(tbl)
        q = tbl.quiver
        for a in range(len(q.arrows)):
            v, w = q.arrow_source(a), q.arrow_target(a)
            want = left_mult_morphism(tbl, {Path(v, (a,), w): 1}, src=w, dst=v)
            assert _same_bits(arrow_left_mult(tbl, a), want), (entry.entry_id, a)
            arrows += 1
        for v in range(len(q.vertices)):
            got = projective_rad_end(tbl, v)
            paths = _rad_end_paths(tbl, v)
            assert len(got) == len(paths)
            for lm, p in zip(got, paths):
                assert lm.defect() is None
                assert _same_bits(lm, left_mult_morphism(tbl, {p: 1}, v, v)), (entry.entry_id, v)
                cycles += 1
    assert (arrows, cycles) == (36, 10)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_modules_a2_contract(a2):
    mods = sample_modules(a2, seed=0, size=20)
    assert len(mods) == 20
    sigs = {m.signature() for m in mods}
    for expected in (simple(a2, 0), simple(a2, 1), projective(a2, 0), injective(a2, 0)):
        assert expected.signature() in sigs
    assert all(not m.is_zero for m in mods)
    assert all(validate(m) is None for m in mods)
    assert len(sigs) == len(mods)


def test_sample_modules_deterministic(nak32):
    one = [m.signature() for m in sample_modules(nak32, seed=7, size=12)]
    two = [m.signature() for m in sample_modules(nak32, seed=7, size=12)]
    assert one == two


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


def test_module_file_roundtrip(dim5):
    for m in sample_modules(dim5, seed=1, size=8):
        back = parse_module(serialize_module(m), dim5)
        assert back.dims == m.dims
        assert all(np.array_equal(x, y) for x, y in zip(back.mats, m.mats))


def test_module_file_zero_arrows_omitted(a2):
    text = serialize_module(simple(a2, 0))
    assert "arrow" not in text
    back = parse_module(text, a2)
    assert back.dims == (1, 0)


def test_module_file_errors(dim5, a2):
    with pytest.raises(ModuleFileError, match="missing dims"):
        parse_module("# nothing here\n", a2)
    with pytest.raises(ModuleFileError, match="unknown arrow"):
        parse_module("dims 1 1\narrow z 1\n", a2)
    with pytest.raises(ModuleFileError, match="entries"):
        parse_module("dims 1 1\narrow a 1 2 3\n", a2)
    with pytest.raises(ModuleFileError, match="duplicate dims"):
        parse_module("dims 1 1\ndims 1 1\n", a2)
    with pytest.raises(ModuleFileError, match="relation"):
        parse_module("dims 1 1\narrow a 1\narrow b 1\n", dim5)


# ---------------------------------------------------------------------------
# Yoneda rows for maps out of projective sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["ka2", "auslander-x2", "nak-233"])
def test_projsum_hom_rows_equal_the_hom_basis_rows(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    nv = len(tbl.quiver.vertices)
    sums = [(), (0,), (nv - 1, 0), (0, 0, 1)] + [(v, v) for v in range(nv)]
    targets = [zero_module(tbl)]
    targets += [simple(tbl, v) for v in range(nv)]
    targets += [injective(tbl, v) for v in range(nv)]
    targets += [proj_sum(tbl, verts).module for verts in sums]
    targets += sample_modules(tbl, seed=0, size=40)[-6:]
    for verts in sums:
        ps = proj_sum(tbl, verts)
        for n in targets:
            rows = projsum_hom_rows(ps, n)
            ref = hom_basis(ps.module, n).rows
            assert rows.shape == ref.shape and rows.dtype == ref.dtype == np.int64
            assert np.array_equal(rows, ref)


def test_sample_modules_solves_no_hom_system(monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table("auslander-x2", 3)
    calls = count_calls(monkeypatch, ardom.modules, "_hom_rows")
    mods = sample_modules(tbl)
    assert len(mods) == 64 and not calls


def reference_rows(ps, n):
    return hom_basis(ps.module, n).rows


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["ka2", "auslander-x2", "nak-233"])
def test_sample_matches_a_sample_drawn_from_hom_basis(name, p, monkeypatch, fresh_corpus_table):
    def content(mods):  # signatures without the table's id, and labels
        return [(m.signature()[1:], m.label) for m in mods]

    got = content(sample_modules(fresh_corpus_table(name, p)))
    monkeypatch.setattr(ardom.modules, "projsum_hom_rows", reference_rows)
    want = content(sample_modules(fresh_corpus_table(name, p)))
    assert got == want


# ---------------------------------------------------------------------------
# one morphism per combination, covers from the rref of the radical
# ---------------------------------------------------------------------------


def old_combo(hom, coeffs):
    """The former HomBasis.combo: one scaled and one summed morphism per term."""
    p = hom.source.algebra.field.p
    out = zero_morphism(hom.source, hom.target)
    for c, g in zip(coeffs, hom.morphisms):
        if c % p:
            out = out.add(g.scale(c))
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
def test_combo_equals_the_old_fold(p, fresh_corpus_table):
    tbl = fresh_corpus_table("auslander-x2", p)
    mods = sample_modules(tbl, seed=1, size=16)
    rng = np.random.default_rng(p)
    for m in mods[::3]:
        for n in mods[::4]:
            hom = hom_basis(m, n)
            for coeffs in (
                rng.integers(-3 * p, 3 * p, size=hom.dim),
                [int(c) for c in rng.integers(0, p, size=hom.dim)],
                [0] * hom.dim,
            ):
                got, want = hom.combo(coeffs), old_combo(hom, coeffs)
                assert got.source is m and got.target is n
                for a, b in zip(got.mats, want.mats, strict=True):
                    assert a.shape == b.shape and a.dtype == b.dtype == np.int64
                    assert np.array_equal(a, b)


# sha256 of the labels, dimension vectors and blocks of sample_modules(seed,
# size 64) over each corpus entry, seeds 0..2 in turn, in manifest order
SAMPLE_SHA256 = "0753edf75fdaf6f968d63b425f6af1d1fc65a7004fcfe16da287384761a3d9de"


def test_the_corpus_samples_keep_their_bytes():
    digest = hashlib.sha256()
    for entry in load_corpus(CORPUS):
        tbl = entry.load_table()
        for seed in range(3):
            for m in sample_modules(tbl, seed=seed, size=64):
                digest.update(f"{m.label} {m.dims}".encode())
                for block in m.mats:
                    digest.update(block.tobytes())
    assert digest.hexdigest() == SAMPLE_SHA256


def test_proj_cover_reduces_nothing_twice(corpus_table, monkeypatch):
    mods = sample_modules(corpus_table, seed=0, size=24)
    calls = count_calls(monkeypatch, PrimeField, "quotient_by_rowspace")
    for m in mods:
        proj_cover(m)
    assert not calls


# ---------------------------------------------------------------------------
# path actions by prefix
# ---------------------------------------------------------------------------


def arrow_by_arrow(m, path):
    """The action of path on m, one arrow matrix at a time from an identity."""
    p = m.algebra.field.p
    out = np.eye(m.dims[path.source], dtype=np.int64)
    for a in path.arrows:
        out = out @ m.mats[a] % p
    return out


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["auslander-x3", "nak-233", "comm-square"])
def test_prefix_products_equal_arrow_by_arrow_products(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    relation_paths = [path for rel in tbl.relations for path in rel]
    assert any(path not in tbl.basis_index for path in relation_paths)
    rng = np.random.default_rng(p)
    for m in sample_modules(tbl, seed=2, size=24):
        for u in range(nv):
            paths = tbl.basis_paths_from(u)
            got = ardom.modules._path_actions(m, f.eye(m.dims[u]), paths)
            assert all(np.array_equal(got[q], arrow_by_arrow(m, q)) for q in paths)
            # longest first: every prefix is computed on the way
            start = rng.integers(0, p, size=(2, m.dims[u]))
            rows = ardom.modules._path_actions(m, start, paths[::-1])
            assert all(np.array_equal(rows[q], start @ arrow_by_arrow(m, q) % p) for q in paths)
        # validate's relation paths are not basis paths
        for rel in tbl.relations:
            some = next(iter(rel))
            got = ardom.modules._path_actions(m, f.eye(m.dims[some.source]), rel)
            assert all(np.array_equal(got[q], arrow_by_arrow(m, q)) for q in rel)
            want = sum(c * arrow_by_arrow(m, q) for q, c in rel.items()) % p
            assert np.array_equal(m.element_matrix(rel, some.source, some.target), want)
        assert validate(m) is None
        # the cover's row at label (j, path) is copy j's generator times the path
        if not m.is_zero:
            ps, cover = proj_cover(m)
            for w in range(nv):
                for i, (j, path) in enumerate(reference.projsum_labels(ps)[w]):
                    gen = cover.mats[ps.vertices[j]][ps.first[j][ps.vertices[j]]]
                    assert np.array_equal(cover.mats[w][i], gen @ arrow_by_arrow(m, path) % p)
            assert cover.defect() is None


def old_map_from_elements(ps_src, ps_tgt, elements):
    """projsum_map_from_elements as before: each generator row read off the
    full action matrix of the element on the target sum."""
    p = ps_tgt.module.algebra.field.p
    rows = []
    for s, u in enumerate(ps_src.vertices):
        row = np.zeros(ps_tgt.module.dims[u], dtype=np.int64)
        for t, v in enumerate(ps_tgt.vertices):
            if elements[t][s]:
                row = (row + ps_tgt.module.element_matrix(elements[t][s], v, u)[ps_tgt.first[t][v]]) % p
        rows.append(row)
    return projsum_morphism(ps_src, ps_tgt.module, rows)


@pytest.mark.parametrize("p", [2, 3, 101])
@pytest.mark.parametrize("name", ["auslander-x3", "nak-233", "comm-square"])
def test_map_from_elements_reads_the_normal_forms(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    nv = len(tbl.quiver.vertices)
    rng = np.random.default_rng(p + 7)
    # every path of length at most 3, basis or not
    paths = [Path(v, (), v) for v in range(nv)]
    frontier = list(paths)
    for _ in range(3):
        frontier = [
            Path(q.source, q.arrows + (a,), tbl.quiver.arrow_target(a))
            for q in frontier for a in tbl.quiver.arrows_from(q.target)
        ]
        paths += frontier
    assert any(q not in tbl.basis_index for q in paths)
    for _ in range(12):
        ps_src = proj_sum(tbl, rng.integers(0, nv, size=rng.integers(1, 4)))
        ps_tgt = proj_sum(tbl, rng.integers(0, nv, size=rng.integers(1, 4)))
        elements = [
            [
                {q: int(rng.integers(1, p)) for q in paths
                 if q.source == v and q.target == u and rng.random() < 0.5}
                for u in ps_src.vertices
            ]
            for v in ps_tgt.vertices
        ]
        got = projsum_map_from_elements(ps_src, ps_tgt, elements)
        want = old_map_from_elements(ps_src, ps_tgt, elements)
        assert all(np.array_equal(a, b) for a, b in zip(got.mats, want.mats))
        assert got.defect() is None
        # and back: the decoded elements are the normal forms
        decoded = projsum_map_elements(ps_src, ps_tgt, got)
        assert decoded == [[tbl.normal_form(el) for el in row] for row in elements]
    wrong = [[{Path(0, (), 0): 1}]]
    with pytest.raises(ValueError, match="does not run"):
        projsum_map_from_elements(proj_sum(tbl, [1]), proj_sum(tbl, [1]), wrong)


# --- the indecomposables of a Nakayama algebra -------------------------------

NOT_NAKAYAMA = ("kronecker", "wild3", "auslander-x3", "comm-square")


def _dims_and_top(m):
    return m.dims, proj_cover(m)[0].vertices


@pytest.mark.parametrize("name", ["ka2", "linear-a3", "linear-a4"])
def test_uniserials_are_the_known_indecomposables(name):
    entry = {e.entry_id: e for e in load_corpus(CORPUS)}[name]
    known = sorted(_dims_and_top(m) for _, m in entry.load_known_indecomposables())
    listed = nakayama_indecomposables(entry.load_table())
    assert sorted(_dims_and_top(m) for _, _, m in listed) == known
    for v, length, m in listed:
        assert _dims_and_top(m)[1] == (v,) and m.total_dim == length


def test_uniserials_number_the_dimension_of_the_algebra():
    for entry in load_corpus(CORPUS):
        tbl = entry.load_table()
        listed = nakayama_indecomposables(tbl)
        if entry.entry_id in NOT_NAKAYAMA:
            assert listed is None
            continue
        # Σ c_v = Σ dim P(v) = dim A, with one module per (vertex, length)
        assert len(listed) == tbl.dimension
        assert len({(v, length) for v, length, _ in listed}) == len(listed)
    from ardom.verify import _cyclic_series

    for m in range(1, 5):
        for series in _cyclic_series(m, 5):
            listed = nakayama_indecomposables(nakayama_from_kupisch(list(series), cyclic=True))
            assert len(listed) == sum(series)
            assert [(v, length) for v, length, _ in listed] == [
                (v, length) for v, c in enumerate(series) for length in range(1, c + 1)
            ]


def test_uniserial_certificate_violation_raises(monkeypatch):
    # a cokernel that keeps all of P(v) breaks the length certificate
    real = ardom.modules.cokernel
    monkeypatch.setattr(
        ardom.modules, "cokernel", lambda f: real(zero_morphism(f.source, f.target))
    )
    with pytest.raises(InvariantError, match="not uniserial of length 1"):
        nakayama_indecomposables(nakayama_from_kupisch([3, 2], cyclic=True))


# ---------------------------------------------------------------------------
# injectivity from the socle, against the route through D m
# ---------------------------------------------------------------------------


def listed_modules(tbl):
    """Every simple, projective and injective, and the uniserials of a
    Nakayama algebra or else the knitted modules, where the knit closes."""
    nv = len(tbl.quiver.vertices)
    mods = [make(tbl, v) for make in (simple, projective, injective) for v in range(nv)]
    uniserials = nakayama_indecomposables(tbl)
    if uniserials is not None:
        return mods + [m for _, _, m in uniserials]
    return mods + [ind.module for ind in knit_indecomposables(tbl, 64) or ()]


@pytest.mark.parametrize("p", [101, 2, 3])
@pytest.mark.parametrize("side", ["algebra", "opposite"])
@pytest.mark.parametrize("name", CORPUS_IDS)
def test_socles_and_injectivity_match_the_route_through_the_dual(name, side, p, fresh_corpus_table):
    # 101 is the prime every corpus file names
    tbl = fresh_corpus_table(name, p)
    if side == "opposite":
        tbl = opposite(tbl)
    for m in listed_modules(tbl):
        assert socle_vertices(m) == top_vertices(dual(m))
        assert is_injective(m) == is_projective(dual(m))
    nv = len(tbl.quiver.vertices)
    assert _projective_injective_socles(tbl) == {
        v for v in range(nv) if is_projective(injective(tbl, v))
    }


@pytest.mark.parametrize("name", CORPUS_IDS)
def test_injectivity_of_the_projectives_builds_no_opposite(name, monkeypatch, fresh_corpus_table):
    tbl = fresh_corpus_table(name, 101)
    assert tbl._opposite is None
    monkeypatch.setattr(ardom.modules, "dual", lambda *args: pytest.fail("dual called"))
    for v in range(len(tbl.quiver.vertices)):
        is_injective(projective(tbl, v))
    _projective_injective_socles(tbl)
    assert tbl._opposite is None


@pytest.mark.parametrize("name", ["nak-22", "nak-33"])
def test_checking_the_selfinjective_flag_builds_no_opposite(name):
    tbl = table_from_file(os.path.join(CORPUS, name + ".alg"))
    assert "selfinjective" in tbl.flags
    assert tbl._opposite is None


# ---------------------------------------------------------------------------
# empty vertex spaces read off their shape
# ---------------------------------------------------------------------------


def kernel_by_blocks(fmor):
    """(K, inclusion) as ``kernel`` built it before: a left kernel basis per
    block, and a product and a coordinate read per arrow."""
    f, m = fmor.field, fmor.source
    q = m.algebra.quiver
    rows = [f.left_kernel_basis(b) for b in fmor.mats]
    mats = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        coords = f.coords_in_rowspace(rows[w], f.mul(rows[v], m.mats[a]))
        assert coords is not None
        mats.append(coords)
    dims = tuple(len(r) for r in rows)
    return ModuleRep(m.algebra, dims, mats), rows


def morphisms_with_empty_blocks(tbl):
    """Covers, identities and zero maps to and from simples of every listed
    module: each has blocks with no rows or no columns."""
    nv = len(tbl.quiver.vertices)
    for m in listed_modules(tbl):
        yield proj_cover(m)[1]
        yield identity_morphism(m)
        for v in range(nv):
            yield zero_morphism(m, simple(tbl, v))
            yield zero_morphism(simple(tbl, v), m)


@pytest.mark.parametrize("p", [2, 101])
@pytest.mark.parametrize("name", ["ka2", "auslander-x3", "nak-233", "comm-square"])
def test_kernels_with_empty_blocks_match_the_per_block_route(name, p, fresh_corpus_table):
    tbl = fresh_corpus_table(name, p)
    empty_blocks = 0
    for fmor in morphisms_with_empty_blocks(tbl):
        empty_blocks += sum(b.size == 0 for b in fmor.mats)
        got, incl = kernel(fmor)
        want, rows = kernel_by_blocks(fmor)
        assert got.dims == want.dims and got.signature() == want.signature()
        for x, y in zip(got.mats + incl.mats, want.mats + tuple(rows), strict=True):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        # no result block is a view on an input block, which it would pin
        inputs = fmor.mats + fmor.source.mats + fmor.target.mats
        assert not any(np.shares_memory(x, y) for x in got.mats + incl.mats for y in inputs)
    assert empty_blocks


def test_an_arrow_into_an_empty_submodule_at_a_nonzero_vertex_is_still_checked(dim5):
    # P(v1) has a nonzero action of a: v1 -> v2, so the generator alone
    # spans no submodule, while the rows at v1 and none at v2 skip nothing
    pv = projective(dim5, 0)
    a = dim5.quiver.arrow_index["a"]
    assert pv.dims[1] and np.any(pv.mats[a])
    gen = np.zeros((1, pv.dims[0]), dtype=np.int64)
    gen[0, 0] = 1
    with pytest.raises(ValueError, match="not closed under arrow a"):
        submodule_from_rows(pv, [gen, np.zeros((0, pv.dims[1]), dtype=np.int64)])
