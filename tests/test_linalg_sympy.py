"""Exact linear algebra over GF(p) against sympy's ``DomainMatrix``.

Every elimination routine of ``PrimeField`` is compared with an independent
implementation, over GF(2), GF(3) and GF(101), on random matrices of both
sides of the list-elimination cut-off and on empty and all-zero shapes, and
each routine's list path is checked against its numpy path byte for byte.
sympy is a development dependency; without it this module is skipped.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

pytest.importorskip("sympy")
from sympy import GF  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

import ardom.linalg  # noqa: E402
from ardom.linalg import _LIST_ELIMINATION_NONZEROS, PrimeField  # noqa: E402

PRIMES = (2, 3, 101)
FIELDS = {p: PrimeField(p) for p in PRIMES}


def to_sympy(p, m):
    K = GF(p)
    return DomainMatrix([[K(int(x)) for x in row] for row in m.tolist()], m.shape, K)


def from_sympy(p, dm):
    """Residues in range(p): sympy prints symmetric representatives."""
    rows = [[int(x) % p for x in row] for row in dm.to_list()]
    return np.array(rows, dtype=np.int64).reshape(dm.shape)


def sympy_span(p, m):
    """The nonzero rows of sympy's rref of m: a canonical basis of its row space."""
    r, pivots = to_sympy(p, m).rref()
    return from_sympy(p, r)[: len(pivots)]


def dense_random(p, rows, cols, seed, density=1.0):
    """Entries beyond range(p), some negative, so that reduction is exercised."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-2 * p, 3 * p, size=(rows, cols))
    return (m * (rng.random((rows, cols)) < density)).astype(np.int64)


def with_nonzeros(p, rows, cols, count, seed):
    """A matrix with exactly ``count`` nonzero residues, at random places."""
    rng = np.random.default_rng(seed)
    m = np.zeros(rows * cols, dtype=np.int64)
    places = rng.choice(rows * cols, size=count, replace=False)
    m[places] = rng.integers(1, p, size=count) + p * rng.integers(-2, 3, size=count)
    return m.reshape(rows, cols)


@st.composite
def gf_matrices(draw, max_dim=24):
    """(p, m) with up to 24 x 24 entries: both sides of the list-elimination cut-off."""
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    density = draw(st.sampled_from((0.0, 0.1, 0.4, 1.0)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return p, dense_random(p, rows, cols, seed, density)


EDGE_CASES = [
    (p, m)
    for p in PRIMES
    for m in (
        np.zeros((0, 4), dtype=np.int64),
        np.zeros((4, 0), dtype=np.int64),
        np.zeros((0, 0), dtype=np.int64),
        np.zeros((3, 5), dtype=np.int64),
        np.full((2, 3), p, dtype=np.int64),
        # the last matrix reduced on lists and the first reduced with numpy
        with_nonzeros(p, 16, 17, _LIST_ELIMINATION_NONZEROS, seed=p),
        with_nonzeros(p, 16, 17, _LIST_ELIMINATION_NONZEROS + 1, seed=p),
    )
]


def with_edge_cases(*rest):
    def decorate(test):
        for case in EDGE_CASES:
            test = example(case, *rest)(test)
        return test

    return decorate


@given(gf_matrices())
@with_edge_cases()
@settings(max_examples=150, deadline=None)
def test_rref_and_rank_match_sympy(case):
    p, m = case
    r, pivots = FIELDS[p].rref(m)
    expected, expected_pivots = to_sympy(p, m).rref()
    assert r.dtype == np.int64
    assert np.array_equal(r, from_sympy(p, expected))
    assert pivots == tuple(expected_pivots)
    assert FIELDS[p].rank(m) == to_sympy(p, m).rank()


@given(gf_matrices())
@with_edge_cases()
@settings(max_examples=100, deadline=None)
def test_kernel_basis_matches_sympy_nullspace(case):
    p, m = case
    f = FIELDS[p]
    cols = m.shape[1]
    k = f.kernel_basis(m)
    assert k.shape == (cols - to_sympy(p, m).rank(), cols)
    assert not np.any(f.mul(np.mod(m, p), k.T))
    null = from_sympy(p, to_sympy(p, m).nullspace())
    assert np.array_equal(sympy_span(p, k), sympy_span(p, null))


@given(gf_matrices(), st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@with_edge_cases(0, True)
@settings(max_examples=100, deadline=None)
def test_solve_matches_sympy(case, seed, perturb):
    p, m = case
    f = FIELDS[p]
    rows, cols = m.shape
    rng = np.random.default_rng(seed)
    rhs = f.mul(np.mod(m, p), rng.integers(0, p, size=(cols, 2)))
    if perturb:
        rhs = (rhs + rng.integers(0, p, size=(rows, 2))) % p
    x = f.solve(m, rhs)
    a = to_sympy(p, m)
    aug = a.hstack(to_sympy(p, rhs))
    if a.rank() != aug.rank():
        assert x is None
        return
    # sympy's rref of [m | rhs] gives the solution with every free variable 0
    r, pivots = aug.rref()
    r = from_sympy(p, r)
    expected = np.zeros((cols, 2), dtype=np.int64)
    for i, pc in enumerate(pivots):
        expected[pc] = r[i, cols:]
    assert np.array_equal(x, expected)


@given(gf_matrices())
@with_edge_cases()
@settings(max_examples=100, deadline=None)
def test_quotient_by_rowspace_matches_sympy(case):
    p, sub = case
    f = FIELDS[p]
    n = sub.shape[1]
    q = f.quotient_by_rowspace(sub, n)
    rank = to_sympy(p, sub).rank()
    assert q.dim == n - rank
    assert q.proj.shape == (n, q.dim) and q.section.shape == (q.dim, n)
    assert np.array_equal(f.mul(q.section, q.proj), f.eye(q.dim))
    assert not np.any(f.mul(np.mod(sub, p), q.proj))
    # v - section(proj(v)) lies in the row space of sub for every v
    residue = (f.eye(n) - f.mul(q.proj, q.section)) % p
    assert np.array_equal(
        sympy_span(p, np.vstack([np.mod(sub, p), residue])), sympy_span(p, sub)
    )


def sympy_particular_solution(p, m, rhs):
    """The solution of m·x = rhs with every free variable 0, or None."""
    a = to_sympy(p, m)
    aug = a.hstack(to_sympy(p, rhs))
    if a.rank() != aug.rank():
        return None
    r, pivots = aug.rref()
    r = from_sympy(p, r)
    cols = m.shape[1]
    x = np.zeros((cols, rhs.shape[1]), dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols:]
    return x


def sympy_canonical_kernel(p, m):
    """One row per free column f of sympy's rref: 1 at f, −rref[i, f] at pivot i."""
    r, pivots = to_sympy(p, m).rref()
    r = from_sympy(p, r)
    cols = m.shape[1]
    free = [j for j in range(cols) if j not in pivots]
    k = np.zeros((len(free), cols), dtype=np.int64)
    for t, j in enumerate(free):
        k[t, j] = 1
        for i, pc in enumerate(pivots):
            k[t, pc] = -r[i, j] % p
    return k


@given(gf_matrices())
@with_edge_cases()
@settings(max_examples=100, deadline=None)
def test_left_kernel_basis_matches_sympy(case):
    p, m = case
    f = FIELDS[p]
    k = f.left_kernel_basis(m)
    assert k.dtype == np.int64
    assert np.array_equal(k, sympy_canonical_kernel(p, m.T))
    assert k.shape == (m.shape[0] - to_sympy(p, m).rank(), m.shape[0])
    assert not np.any(f.mul(k, np.mod(m, p)))


def coords_cases(p, m, seed):
    """(basis, vecs) pairs: rref rows, canonical kernel rows and the raw rows
    of m, each with vectors inside the span, outside it, and none at all."""
    f = FIELDS[p]
    rng = np.random.default_rng(seed)
    for basis in (sympy_span(p, m), sympy_canonical_kernel(p, m), m):
        k, n = basis.shape
        inside = f.mul(rng.integers(0, p, size=(3, k)), np.mod(basis, p))
        # entries outside range(p) must be reduced before they are compared
        yield basis, inside + p * rng.integers(-1, 2, size=inside.shape)
        yield basis, rng.integers(0, p, size=(2, n))
        yield basis, np.zeros((0, n), dtype=np.int64)


@given(gf_matrices(), st.integers(min_value=0, max_value=2**32 - 1))
@with_edge_cases(0)
@settings(max_examples=100, deadline=None)
def test_coords_in_rowspace_matches_sympy(case, seed):
    p, m = case
    f = FIELDS[p]
    for basis, vecs in coords_cases(p, m, seed):
        x = f.coords_in_rowspace(basis, vecs)
        expected = sympy_particular_solution(p, basis.T, np.mod(vecs, p).T)
        if expected is None:
            assert x is None
            continue
        assert x.dtype == np.int64
        assert np.array_equal(x, expected.T)


def all_outputs(f, m, seed):
    """Every derived routine on m, as comparable byte strings."""
    rng = np.random.default_rng(seed)
    rows, cols = m.shape
    rhs = rng.integers(0, f.p, size=(rows, 2))
    consistent = f.mul(np.mod(m, f.p), rng.integers(0, f.p, size=(cols, 2)))
    q = f.quotient_by_rowspace(m, cols)
    outputs = [
        f.kernel_basis(m),
        f.left_kernel_basis(m),
        f.rank(m),
        f.solve(m, rhs),
        f.solve(m, consistent),
        f.solve(m, f.zeros(rows, 0)),
        q.dim,
        q.proj,
        q.section,
    ]
    if rows == cols:
        outputs.append(f.inverse(m))
    for basis, vecs in coords_cases(f.p, m, seed):
        outputs.append(f.coords_in_rowspace(basis, vecs))
    return [
        out if out is None or isinstance(out, int) else (out.dtype, out.shape, out.tobytes())
        for out in outputs
    ]


@given(gf_matrices(), st.integers(min_value=0, max_value=2**32 - 1))
@with_edge_cases(0)
@settings(max_examples=100, deadline=None)
def test_list_and_numpy_paths_give_identical_bytes(case, seed):
    p, m = case
    f = FIELDS[p]
    small = all_outputs(f, m, seed)
    with pytest.MonkeyPatch.context() as mp:
        # every elimination on numpy, every coordinate by elimination
        mp.setattr(ardom.linalg, "_LIST_ELIMINATION_NONZEROS", 0)
        mp.setattr(ardom.linalg, "_UNIT_COLUMN_ENTRIES", -1)
        large = all_outputs(f, m, seed)
    assert small == large


def test_derived_routines_do_not_reenter_rref(monkeypatch):
    # each routine reduces its input once, on either side of the cut-off
    f = FIELDS[101]
    m = np.random.default_rng(0).integers(1, 101, size=(12, 12))
    assert np.count_nonzero(m) > _LIST_ELIMINATION_NONZEROS
    want = all_outputs(f, m, 0) + [f.pivot_columns(m)]
    monkeypatch.setattr(PrimeField, "rref", lambda *args: pytest.fail("rref called"))
    assert all_outputs(f, m, 0) + [f.pivot_columns(m)] == want


UNIT_COLUMN_BASES = {  # (basis, coordinates of two vectors) over GF(5)
    "rref rows": ([[1, 0, 2, 0], [0, 1, 3, 0], [0, 0, 0, 1]], [[1, 2, 3], [0, 4, 1]]),
    "canonical kernel rows": ([[4, 3, 1, 0], [2, 0, 0, 1]], [[1, 2], [0, 4]]),
}


@pytest.mark.parametrize("kind", sorted(UNIT_COLUMN_BASES))
def test_coords_read_off_unit_columns_without_elimination(kind, monkeypatch):
    f = PrimeField(5)
    basis, x = (f.mat(rows) for rows in UNIT_COLUMN_BASES[kind])
    monkeypatch.setattr(PrimeField, "solve", lambda *args: pytest.fail("solve called"))
    assert np.array_equal(f.coords_in_rowspace(basis, f.mul(x, basis)), x)
    # a vector outside the span has no coordinates
    outside = f.mul(x, basis)
    outside[1, 0] = (outside[1, 0] + 1) % 5
    assert f.coords_in_rowspace(basis, outside) is None


def test_coords_without_unit_columns_fall_back_to_elimination(monkeypatch):
    f = PrimeField(5)
    # no row has an entry 1 that every other row has 0 at
    basis = f.mat([[2, 1, 1], [1, 2, 1]])
    calls = []
    solve = PrimeField.solve
    monkeypatch.setattr(
        PrimeField, "solve", lambda self, *args: calls.append(1) or solve(self, *args)
    )
    vecs = f.mul(f.mat([[1, 3]]), basis)
    assert np.array_equal(f.coords_in_rowspace(basis, vecs), f.mat([[1, 3]]))
    assert calls == [1]
    assert f.coords_in_rowspace(basis, f.mat([[1, 0, 0]])) is None
    expected = sympy_particular_solution(5, basis.T, f.mat([[1, 0, 0]]).T)
    assert expected is None
