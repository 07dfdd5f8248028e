"""Certified indecomposables and the knitted Auslander–Reiten quiver."""

import itertools
import os
from collections import Counter

import numpy as np
import pytest

import ardom.arseq
import ardom.modules
from ardom.algebra import nakayama_from_kupisch, table_from_text
from ardom.arseq import (
    ArSequenceError,
    almost_split,
    almost_split_from_projective,
    knit_indecomposables,
    projective_rad_end,
)
from ardom.corpus import load_corpus
from ardom.homology import ext_classes, tau_inverse
from ardom.linalg import PrimeField
from ardom.modules import (
    ModuleRep,
    certify_local,
    cokernel,
    direct_sum,
    dual,
    indecomposable_summands,
    injective,
    is_injective,
    is_isomorphic,
    isomorphic_to,
    nakayama_indecomposables,
    projective,
    sample_modules,
    simple,
    socle,
    top_vertices,
)
from ardom.verify import _cyclic_series
import reference
from reference import hom_basis, random_isomorphism_search

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
NAKAYAMA_IDS = ("ka2", "linear-a3", "linear-a4", "auslander-x2") + tuple(
    f"nak-{s}" for s in ("22", "33", "32", "432", "344", "233")
)


@pytest.fixture(scope="module")
def by_id():
    return {e.entry_id: e for e in load_corpus(CORPUS)}


# --- the certificates -------------------------------------------------------


def test_local_certificate_on_projectives_and_sums(by_id):
    tbl = by_id["auslander-x3"].load_table()
    for v in range(3):
        p = projective(tbl, v)
        cert = certify_local(p)
        assert cert is not None and cert.module is p
        # rad End(P(v)) = e_v·rad(A)·e_v: one dimension less than End(P(v))
        assert len(cert.rad_end) == len(projective_rad_end(tbl, v))
        assert all(f.source is p and f.target is p for f in cert.rad_end)
    assert certify_local(direct_sum(tbl, [simple(tbl, 0), simple(tbl, 0)])) is None
    assert certify_local(direct_sum(tbl, [simple(tbl, 0), simple(tbl, 1)])) is None
    assert certify_local(direct_sum(tbl, [projective(tbl, 0), projective(tbl, 0)])) is None


def test_no_certificate_when_p_divides_the_dimension(fresh_corpus_table):
    tbl = fresh_corpus_table("comm-square", 2)
    assert certify_local(simple(tbl, 0)) is not None
    assert certify_local(projective(tbl, 1)) is None  # dim 2, although indecomposable
    assert indecomposable_summands(projective(tbl, 1)) is None
    assert is_isomorphic(projective(tbl, 1), projective(tbl, 1)) is None


def count_row_spaces(monkeypatch):
    """A list that gets one entry per ``PrimeField.row_space_basis`` call."""
    calls = []
    original = PrimeField.row_space_basis
    monkeypatch.setattr(
        PrimeField, "row_space_basis", lambda self, m: calls.append(1) or original(self, m)
    )
    return calls


@pytest.mark.parametrize("p", [101, 2, 3, 5])
@pytest.mark.parametrize(
    "name", ["ka2", "auslander-x2", "auslander-x3", "comm-square", "nak-233", "kronecker"]
)
def test_the_trace_refusal_answers_as_the_chain_of_powers(
    name, p, monkeypatch, fresh_corpus_table, differential_modules
):
    # a product of nonzero trace is not nilpotent, so refusing there refuses
    # only what the chain refuses.  On m = Y ⊕ Z with p ∤ dim Y·dim Z·dim m,
    # r = e_Y − (dim Y / dim m)·1 lies in R and tr r² = dim Y·dim Z / dim m
    # is not 0, so the first products refuse; where p | dim Y, e_Y itself
    # has trace 0 and the chain must decide
    tbl = fresh_corpus_table(name, p)
    mods = differential_modules(tbl)
    spans = count_row_spaces(monkeypatch)
    answers = Counter()
    for m in mods:
        before = len(spans)
        cert = certify_local(m)
        calls = len(spans) - before
        want = reference.rad_end_by_the_chain(m)
        if want is None:
            assert cert is None, m.label
            answers[("p | dim m", "trace", "chain")[min(calls, 2)]] += 1
        else:
            assert cert is not None and cert.module is m, m.label
            got = np.array([r.flatten() for r in cert.rad_end], dtype=np.int64)
            assert np.array_equal(got.reshape(want.shape), want), m.label
            answers["certified"] += 1
    assert answers["certified"]
    if p == 101:  # every dimension here is below 101
        assert answers["trace"] and not answers["chain"]
    if p == 2:
        assert answers["chain"]


def test_refused_middle_terms_stop_at_the_first_products(monkeypatch, fresh_corpus_table):
    # the knit of auslander-x3 refuses 4 decomposable modules (two radicals
    # of projectives and two built middle terms), each on a product of
    # nonzero trace before a second power is spanned
    tbl = fresh_corpus_table("auslander-x3", 101)
    spans = count_row_spaces(monkeypatch)
    refused = []
    original = ardom.modules.certify_local

    def counted(m):
        before = len(spans)
        cert = original(m)
        if cert is None:
            refused.append(len(spans) - before)
        return cert

    monkeypatch.setattr(ardom.modules, "certify_local", counted)
    monkeypatch.setattr(ardom.arseq, "certify_local", counted)
    assert len(knit_indecomposables(tbl, 64)) == 21
    assert refused == [1] * 4


def test_trace_form_matches_the_reference_isomorphism_search(by_id):
    tbl = by_id["comm-square"].load_table()
    listed = knit_indecomposables(tbl, 64)
    for a in listed:
        for b in listed:
            assert isomorphic_to(a.module, b) is (a is b)
            assert random_isomorphism_search(a.module, b.module) is (a is b)
    # a relabelled, rebased copy is found
    seq = almost_split_from_projective(tbl, 1)
    (v,) = [ind for ind in listed if isomorphic_to(seq.v, ind)]
    assert isomorphic_to(tau_inverse(projective(tbl, 1)), v)


@pytest.mark.parametrize("name", ["comm-square", "auslander-x3"])
def test_krull_schmidt_matches_the_reference_search_on_sums(name, by_id):
    tbl = by_id[name].load_table()
    listed = [ind.module for ind in knit_indecomposables(tbl, 64)]
    for x, y in itertools.product(listed, repeat=2):
        assert is_isomorphic(x, y) is random_isomorphism_search(x, y) is (x is y)
    # X ⊕ Y ≅ Z ⊕ W iff {X, Y} = {Z, W}; sums of other dims or tops need no search
    sums = {}
    for i, j in itertools.combinations_with_replacement(range(len(listed)), 2):
        s = direct_sum(tbl, [listed[i], listed[j]])
        sums.setdefault((s.dims, top_vertices(s)), []).append(((i, j), s))
        if i != j:
            reordered = direct_sum(tbl, [listed[j], listed[i]])
            assert is_isomorphic(s, reordered) is random_isomorphism_search(s, reordered) is True
    decided = 0
    for group in sums.values():
        for ((p, s), (q, u)) in itertools.product(group, repeat=2):
            got, want = is_isomorphic(s, u), random_isomorphism_search(s, u)
            assert got is (p == q), (p, q)
            if want is not None:
                assert got is want, (p, q)
                decided += p != q
    assert decided


def test_maps_between_modules_with_equal_tops_and_socles_need_not_be_isomorphisms():
    # Z, the regular Kronecker module of length 2 at 3, and m = R_3 ⊕ R_3
    # share dimensions, top and socle, and Hom(m, Z) is 2-dimensional, but
    # every map m → Z has rank 1 at both vertices
    tbl = table_from_text("field 101\nvertices v1 v2\narrow a v1 v2\narrow b v1 v2\n")
    z = ModuleRep(tbl, (2, 2), [np.eye(2), [[3, 1], [0, 3]]], label="R_3[2]")
    m = ModuleRep(tbl, (2, 2), [np.eye(2), 3 * np.eye(2)], label="R_3+R_3")
    cert = certify_local(z)
    assert cert is not None
    assert top_vertices(m) == top_vertices(z) == (0, 0)
    assert top_vertices(dual(m)) == top_vertices(dual(z))
    assert hom_basis(m, z).dim == 2
    assert not isomorphic_to(m, cert) and random_isomorphism_search(m, z) is False
    assert is_isomorphic(m, z) is False
    # Z written in other bases at v1 and v2 is found
    f = tbl.field
    g1, g2 = f.mat([[1, 1], [0, 1]]), f.mat([[2, 0], [1, 1]])
    rebased = ModuleRep(tbl, (2, 2), [f.mul(f.mul(g1, a), f.inverse(g2)) for a in z.mats])
    assert isomorphic_to(rebased, cert)


def test_modules_with_equal_tops_but_other_socles_are_not_isomorphic():
    # over a -> b <- c, P(a) + S(c) and I(b) have dims (1, 1, 1) and tops
    # {a, c}, but socles {b, c} and {b}
    tbl = table_from_text("field 101\nvertices a b c\narrow x a b\narrow y c b\n")
    m = direct_sum(tbl, [projective(tbl, 0), simple(tbl, 2)])
    cert = certify_local(injective(tbl, 1))
    assert m.dims == cert.module.dims == (1, 1, 1)
    assert top_vertices(m) == top_vertices(cert.module) == (0, 2)
    assert top_vertices(dual(m)) != top_vertices(dual(cert.module))
    assert not isomorphic_to(m, cert)
    assert is_isomorphic(m, cert.module) is False


@pytest.mark.parametrize("eid, limit", [("auslander-x2", 2), ("auslander-x3", 13)])
def test_the_knit_gives_up_when_a_summand_passes_the_limit(eid, limit, by_id):
    # auslander-x2 passes it while it splits the radicals of the
    # projectives, auslander-x3 while it splits the middle term of a sequence
    tbl = by_id[eid].load_table()
    assert ardom.arseq._knit(tbl, limit) is None
    assert ardom.arseq._knit(tbl, 64) is not None


def test_fitting_splits_a_sum_into_certified_summands(by_id):
    tbl = by_id["auslander-x3"].load_table()
    parts = [projective(tbl, 0), simple(tbl, 1), projective(tbl, 0), projective(tbl, 2)]
    total = direct_sum(tbl, parts)
    found = indecomposable_summands(total)
    assert found is not None and len(found) == 4
    assert sorted(ind.module.dims for ind in found) == sorted(m.dims for m in parts)
    for ind in found:
        assert certify_local(ind.module) is not None
        assert sum(isomorphic_to(ind.module, certify_local(m)) for m in parts) >= 1
    # a listed summand comes back as that very record
    known = [certify_local(simple(tbl, 1))]
    again = indecomposable_summands(total, known)
    assert sum(ind is known[0] for ind in again) == 1


@pytest.mark.parametrize("eid", ["auslander-x3", "comm-square", "nak-344"])
def test_isomorphic_summands_come_back_as_one_record(eid, by_id):
    tbl = by_id[eid].load_table()
    listed = [ind.module for ind in knit_indecomposables(tbl, 64)]
    for y in listed:
        parts = indecomposable_summands(direct_sum(tbl, [y, y]))
        assert len(parts) == 2 and parts[0] is parts[1], y.label
        assert parts[0].module.dims == y.dims
    decided = 0
    for y, z in itertools.combinations(listed, 2):
        yz, zy, yy = (direct_sum(tbl, pair) for pair in ([y, z], [z, y], [y, y]))
        for other, want in ((zy, True), (yy, False)):
            assert is_isomorphic(yz, other) is want, (y.label, z.label)
            reference = random_isomorphism_search(yz, other)
            assert reference in (None, want), (y.label, z.label)
            decided += reference is not None
    assert decided


# --- the knitted lists ------------------------------------------------------

# sorted dimension vectors of every indecomposable
KNITTED_DIMS = {
    "auslander-x3": [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 1), (0, 1, 2), (1, 0, 0), (1, 1, 0),
        (1, 1, 0), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 1), (1, 1, 2), (1, 1, 2),
        (1, 2, 1), (1, 2, 2), (1, 2, 2), (1, 2, 2), (1, 2, 2), (1, 2, 3), (2, 2, 2),
    ],
    "comm-square": [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 1),
        (1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 1, 1),
    ],
}


@pytest.mark.parametrize("eid, count, total", [("auslander-x3", 21, 70), ("comm-square", 11, 22)])
def test_knitted_lists_are_pinned(eid, count, total, by_id):
    tbl = by_id[eid].load_table()
    listed = knit_indecomposables(tbl, 64)
    assert len(listed) == count
    assert sum(ind.module.total_dim for ind in listed) == total
    assert sorted(ind.module.dims for ind in listed) == KNITTED_DIMS[eid]
    nv = len(tbl.quiver.vertices)
    assert [ind.module for ind in listed[:nv]] == [projective(tbl, v) for v in range(nv)]
    assert [ind.module.label for ind in listed[nv:]] == [f"ind[{i}]" for i in range(nv, count)]
    for i, a in enumerate(listed):
        cert = certify_local(a.module)
        assert cert is not None and len(cert.rad_end) == len(a.rad_end)
        assert [j for j, b in enumerate(listed) if isomorphic_to(a.module, b)] == [i]
    assert knit_indecomposables(tbl, 64) is listed
    assert knit_indecomposables(tbl, count) is not None
    assert knit_indecomposables(tbl, count - 1) is None


@pytest.mark.parametrize("eid", ["auslander-x3", "comm-square"])
def test_every_summand_of_the_sample_is_listed(eid, by_id):
    tbl = by_id[eid].load_table()
    listed = knit_indecomposables(tbl, 64)
    summands = 0
    for m in sample_modules(tbl, seed=0):
        parts = indecomposable_summands(m)
        assert parts is not None, m.label
        for part in parts:
            assert sum(isomorphic_to(part.module, ind) for ind in listed) == 1, m.label
        assert sum(part.module.total_dim for part in parts) == m.total_dim
        summands += len(parts)
    assert summands >= 100


def _assert_knit_matches_the_uniserials(tbl):
    listed = knit_indecomposables(tbl, tbl.dimension)
    assert listed is not None and len(listed) == tbl.dimension
    uniserials = [certify_local(m) for _, _, m in nakayama_indecomposables(tbl)]
    assert all(u is not None for u in uniserials)
    for ind in listed:
        assert sum(isomorphic_to(ind.module, u) for u in uniserials) == 1, ind.module.label
    return listed


@pytest.mark.parametrize("eid", NAKAYAMA_IDS)
def test_knitting_a_nakayama_entry_finds_its_uniserials(eid, by_id):
    entry = by_id[eid]
    listed = _assert_knit_matches_the_uniserials(entry.load_table())
    known = entry.load_known_indecomposables()
    if entry.entry_id in ("ka2", "linear-a3", "linear-a4"):
        assert len(known) == len(listed)
        for _, m in known:
            assert sum(isomorphic_to(m, ind) for ind in listed) == 1


def test_knitting_every_small_cyclic_nakayama_algebra_finds_its_uniserials():
    tables = 0
    for m in range(1, 5):
        for series in _cyclic_series(m, 5):
            _assert_knit_matches_the_uniserials(nakayama_from_kupisch(list(series), cyclic=True))
            tables += 1
    assert tables == 48


def _linear_series(m):
    """The admissible linear Kupisch series with m simples."""
    series = [(1,)]
    for _ in range(m - 1):
        series = [(c,) + s for s in series for c in range(2, s[0] + 2)]
    return series


def test_knitting_every_small_linear_nakayama_algebra_finds_its_uniserials():
    tables = 0
    for m in range(2, 6):
        for series in _linear_series(m):
            _assert_knit_matches_the_uniserials(nakayama_from_kupisch(list(series), cyclic=False))
            tables += 1
    assert tables == 22


# Dynkin quivers: (vertices, arrows, number of positive roots)
DYNKIN = {
    "A3-zigzag": ("v1 v2 v3", ["v1 v2", "v3 v2"], 6),
    "A4-alternating": ("v1 v2 v3 v4", ["v1 v2", "v3 v2", "v3 v4"], 10),
    "D4-into-centre": ("c v1 v2 v3", ["v1 c", "v2 c", "v3 c"], 12),
    "D4-one-out": ("c v1 v2 v3", ["v1 c", "v2 c", "c v3"], 12),
    "D5": ("v1 v2 v3 v4 v5", ["v1 v2", "v2 v3", "v3 v4", "v3 v5"], 20),
    "E6": ("v1 v2 v3 v4 v5 v6", ["v1 v2", "v2 v3", "v4 v3", "v5 v4", "v6 v3"], 36),
    "E7": ("c a1 a2 b1 b2 b3 d", ["a2 a1", "a1 c", "b3 b2", "b2 b1", "b1 c", "d c"], 63),
    "E8": (
        "c a1 a2 b1 b2 b3 b4 d",
        ["a2 a1", "a1 c", "b4 b3", "b3 b2", "b2 b1", "b1 c", "d c"],
        120,
    ),
}


def _dynkin_table(name, p=101):
    vertices, arrows, _ = DYNKIN[name]
    text = f"field {p}\nvertices {vertices}\n" + "".join(
        f"arrow a{i} {a}\n" for i, a in enumerate(arrows)
    )
    return table_from_text(text, label=f"{name}@{p}")


@pytest.mark.parametrize("name", DYNKIN)
def test_knitting_a_dynkin_path_algebra_finds_one_module_per_positive_root(name):
    # Gabriel's theorem: the indecomposables of a Dynkin path algebra are
    # counted by the positive roots, whatever the orientation
    listed = knit_indecomposables(_dynkin_table(name), 128)
    assert listed is not None and len(listed) == DYNKIN[name][2]
    for i, a in enumerate(listed):
        assert [j for j, b in enumerate(listed) if isomorphic_to(a.module, b)] == [i]


CORPUS_IDS = sorted(name[: -len(".alg")] for name in os.listdir(CORPUS) if name.endswith(".alg"))
# every corpus entry over four fields, six Dynkin quivers over two, and
# every cyclic Nakayama algebra with at most 4 simples and Loewy length 5
DIFFERENTIAL_CASES = (
    [("corpus", name, p) for name in CORPUS_IDS for p in (2, 3, 5, 101)]
    + [
        ("dynkin", name, p)
        for name in ("A4-alternating", "D4-into-centre", "D5", "E6", "E7", "E8")
        for p in (2, 101)
    ]
    + [("nakayama", series, 101) for m in range(1, 5) for series in _cyclic_series(m, 5)]
)


def test_the_differential_cases_are_the_pinned_set():
    assert len(CORPUS_IDS) == 14
    assert len(DIFFERENTIAL_CASES) == len(set(DIFFERENTIAL_CASES)) == 116


@pytest.mark.parametrize(
    "kind, key, p",
    DIFFERENTIAL_CASES,
    ids=[f"{kind}-{'-'.join(map(str, key)) if kind == 'nakayama' else key}@{p}"
         for kind, key, p in DIFFERENTIAL_CASES],
)
def test_the_mesh_knit_matches_the_knit_by_sequences(kind, key, p, fresh_corpus_table):
    # the same modules, each with the successors its built sequence shows
    if kind == "corpus":
        tbl = fresh_corpus_table(key, p)
    elif kind == "dynkin":
        tbl = _dynkin_table(key, p)
    else:
        tbl = nakayama_from_kupisch(list(key), cyclic=True)
    got = ardom.arseq._knit(tbl, 128)
    want = reference.knit_by_sequences(tbl, 128, indecomposable_summands)
    if want is None:
        assert got is None
        return
    assert got is not None and len(got[0]) == len(want[0])
    assert [ind.module.signature() for ind in knit_indecomposables(tbl, 128)] == [
        ind.module.signature() for ind in got[0]
    ]
    to_want = []
    for ind in got[0]:
        (j,) = [j for j, b in enumerate(want[0]) if isomorphic_to(ind.module, b)]
        to_want.append(j)
    assert sorted(to_want) == list(range(len(want[0])))
    for i, successors in got[1].items():
        assert Counter(to_want[j] for j in successors) == Counter(want[1][to_want[i]])


@pytest.mark.parametrize("eid", CORPUS_IDS)
def test_the_mesh_is_the_middle_term_of_each_built_sequence(eid, by_id):
    # succ(U) read off the mesh is the middle term of U's almost split
    # sequence, summand by summand, and τ⁻¹U is the listed module indexed
    tbl = by_id[eid].load_table()
    knit = ardom.arseq._knit(tbl, 64)
    if eid in ("kronecker", "wild3"):  # representation-infinite
        assert knit is None
        return
    listed, successors, inverse_translates = knit
    assert set(successors) == set(range(len(listed)))
    injective = {i for i, ind in enumerate(listed) if is_injective(ind.module)}
    assert set(inverse_translates) == set(range(len(listed))) - injective
    index = {id(b): j for j, b in enumerate(listed)}
    for i, ind in enumerate(listed):
        if i in injective:
            x = cokernel(socle(ind.module)[1])[0]
        else:
            x = almost_split(ind.module, ind.rad_end).x
            v = tau_inverse(ind.module)
            assert [j for j, b in enumerate(listed) if isomorphic_to(v, b)] == [
                inverse_translates[i]
            ], ind.module.label
        parts = indecomposable_summands(x, listed)
        assert parts is not None and all(id(part) in index for part in parts), ind.module.label
        assert Counter(index[id(part)] for part in parts) == Counter(successors[i]), (
            ind.module.label
        )


@pytest.mark.parametrize("eid", ("auslander-x3", "comm-square") + NAKAYAMA_IDS)
def test_the_inverse_translate_of_a_listed_module_is_one_listed_module(eid, by_id):
    # τ⁻¹ is a bijection from the non-injective listed modules onto the
    # non-projective ones, each τ⁻¹U indecomposable and listed once
    tbl = by_id[eid].load_table()
    listed = knit_indecomposables(tbl, 64)
    nv = len(tbl.quiver.vertices)
    hit = []
    for ind in listed:
        if is_injective(ind.module):
            continue
        v = tau_inverse(ind.module)
        parts = indecomposable_summands(v)
        assert parts is not None and len(parts) == 1, ind.module.label
        (j,) = [j for j, b in enumerate(listed) if isomorphic_to(parts[0].module, b)]
        hit.append(j)
    assert sorted(hit) == list(range(nv, len(listed)))


def tau_orbit_cycles(inverse_translates):
    """The cycles of the partial map i -> index of τ⁻¹U_i, each as a set."""
    cycles, seen = [], set()
    for start in inverse_translates:
        path, i = [], start
        while i in inverse_translates and i not in seen:
            seen.add(i)
            path.append(i)
            i = inverse_translates[i]
        if i in path:
            cycles.append(set(path[path.index(i):]))
    return cycles


KNIT_BUILD_CASES = [("corpus", name, p) for name in CORPUS_IDS for p in (2, 3, 5, 101)] + [
    ("nakayama", series, 101) for m in range(1, 5) for series in _cyclic_series(m, 6)
]
# the sequences the knit builds on each corpus entry that knits over GF(101)
FALLBACK_COUNTS = {
    "ka2": 0, "linear-a3": 0, "linear-a4": 0, "auslander-x2": 1, "auslander-x3": 4,
    "comm-square": 0, "nak-22": 1, "nak-33": 2, "nak-32": 1, "nak-432": 1, "nak-344": 2,
    "nak-233": 1,
}


def test_the_knit_builds_one_sequence_per_tau_periodic_orbit(monkeypatch, fresh_corpus_table):
    # a sequence is built only where no mesh is known: once on each τ-orbit
    # that is a cycle, where no walk back along τ reaches a projective, and
    # nowhere else, so never for an injective module, which no cycle holds
    calls = count_sequences(monkeypatch)
    knitted, built = 0, {}
    for kind, key, p in KNIT_BUILD_CASES:
        if kind == "corpus":
            tbl = fresh_corpus_table(key, p)
        else:
            tbl = nakayama_from_kupisch(list(key), cyclic=True)
        del calls[:]
        knit = ardom.arseq._knit(tbl, 64)
        if knit is None:
            continue
        knitted += 1
        listed, _, inverse_translates = knit
        cycles = tau_orbit_cycles(inverse_translates)
        assert len(calls) == len(cycles), tbl.label
        index = {id(ind.module): i for i, ind in enumerate(listed)}
        on = [index[id(u)] for u in calls]
        assert all(sum(i in cycle for i in on) == 1 for cycle in cycles), tbl.label
        if tbl.label == "auslander-x3@101":
            assert sorted(map(sorted, cycles)) == [
                [3, 7, 9, 11], [4, 8, 10, 12], [13, 14, 15, 16], [17, 18, 19, 20]
            ]
        if p == 101:
            built[key] = len(calls)
    assert knitted == 90
    assert {key: built.pop(key) for key in FALLBACK_COUNTS} == FALLBACK_COUNTS
    assert len(built) == 65 and sum(built.values()) == 163


# --- where knitting gives up ------------------------------------------------


def count_sequences(monkeypatch):
    calls = []
    original = ardom.arseq.almost_split

    def counted(u, rad_end, *args):
        calls.append(u)
        return original(u, rad_end, *args)

    monkeypatch.setattr(ardom.arseq, "almost_split", counted)
    return calls


@pytest.mark.parametrize("name", ["kronecker", "wild3"])
def test_representation_infinite_entries_do_not_knit(name, monkeypatch, fresh_corpus_table):
    calls = count_sequences(monkeypatch)
    tbl = fresh_corpus_table(name, 101)
    assert knit_indecomposables(tbl, 64) is None
    # the mesh walks the preprojective component past 2·dim A unbuilt
    assert calls == []
    assert knit_indecomposables(tbl, 64) is None
    assert knit_indecomposables(tbl, 1) is None  # fewer than the projectives


def test_a_gf2_copy_of_the_square_falls_back_to_the_sample(fresh_corpus_table):
    from ardom.verify import verify_grade_formulas

    tbl = fresh_corpus_table("comm-square", 2)
    assert knit_indecomposables(tbl, 64) is None
    v = verify_grade_formulas(tbl, sample_size=16)
    assert v.status == "inconclusive"  # a sample is no proof
    assert v.detail["modules"] == {"kind": "sampled", "size": 16, "seed": 0}
    assert v.detail["why"].endswith("the AR quiver did not knit within --sample-size 16")


def test_a_class_outside_the_socle_is_rejected(monkeypatch):
    # a local algebra where rad End(A) moves Ext^1 classes: Ext^1 has
    # dimension 4 and a one-dimensional socle
    tbl = table_from_text(
        "field 101\nvertices v\narrow x v v\narrow y v v\n"
        "relation x*x\nrelation y*x\nrelation y*y*y\n",
        label="local-xy",
    )
    u, rad_end = projective(tbl, 0), projective_rad_end(tbl, 0)
    seq = almost_split(u, rad_end)
    assert ext_classes(seq.v, u, 1)[1].dim == 4
    assert np.array_equal(ardom.arseq._socle_coords(seq.actions, 4, tbl.field), [[0, 0, 0, 1]])
    monkeypatch.setattr(
        ardom.arseq, "_socle_coords", lambda actions, dim, fld: fld.eye(dim)[2:3]
    )
    with pytest.raises(ArSequenceError, match="not annihilated by rad End"):
        almost_split(u, rad_end)
