"""Exact linear algebra over GF(p): frozen oracle values and properties.

The expected values for the non-trivial cases were produced by brute-force
enumeration oracles (kept in this file) and frozen; the oracles still run
so a regression in either direction is caught.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ardom.linalg import PrimeField, is_probable_prime

F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)


# -- oracles --------------------------------------------------------------


def kernel_by_enumeration(field, m):
    """All vectors v with m·v = 0, found by exhaustive enumeration."""
    cols = m.shape[1]
    hits = []
    for v in itertools.product(range(field.p), repeat=cols):
        col = np.array(v, dtype=np.int64).reshape(-1, 1)
        if not np.any(field.mul(m, col)):
            hits.append(v)
    return hits


def solutions_by_enumeration(field, m, rhs):
    cols = m.shape[1]
    hits = []
    for v in itertools.product(range(field.p), repeat=cols):
        col = np.array(v, dtype=np.int64).reshape(-1, 1)
        if np.array_equal(field.mul(m, col), np.mod(rhs, field.p)):
            hits.append(v)
    return hits


# -- field scalars ----------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            assert f.element(a + b) == (a + b) % p
            assert f.element(a * b) == (a * b) % p
    for a in range(1, p):
        assert f.inv(a) * a % p == 1


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(1 << 21)


def test_is_probable_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_probable_prime(n) == (n in primes)


# -- rref -------------------------------------------------------------------


def test_rref_identity():
    m = F5.eye(2)
    r, piv = F5.rref(m)
    assert np.array_equal(r, m)
    assert piv == (0, 1)


def test_rref_proportional_rows():
    m = F5.mat([[1, 2], [2, 4]])
    r, piv = F5.rref(m)
    assert np.array_equal(r, F5.mat([[1, 2], [0, 0]]))
    assert piv == (0,)


def test_rref_empty():
    m = F5.zeros(0, 3)
    r, piv = F5.rref(m)
    assert r.shape == (0, 3)
    assert piv == ()


def test_eye_is_a_fresh_writable_identity():
    for n in range(6):
        a, b = F5.eye(n), F5.eye(n)
        assert a.dtype == np.int64 and a.shape == (n, n) and a.flags.writeable
        assert np.array_equal(a, np.eye(n, dtype=np.int64))
        assert a is not b and not np.shares_memory(a, b)
        if n:
            a[0, 0] = 3
            assert b[0, 0] == 1 and np.array_equal(F5.eye(n), np.eye(n, dtype=np.int64))


# -- kernel -----------------------------------------------------------------


def test_kernel_zero_map():
    k = F5.kernel_basis(F5.zeros(2, 3))
    assert k.shape == (3, 3)
    assert F5.rank(k) == 3


def test_kernel_identity():
    assert F7.kernel_basis(F7.eye(4)).shape == (0, 4)


def test_kernel_proportional_rows_matches_enumeration():
    m = F5.mat([[1, 2], [2, 4]])
    k = F5.kernel_basis(m)
    assert k.shape == (1, 2)
    # frozen from the GF(5)^2 enumeration oracle: kernel = span{(3, 1)}
    assert np.array_equal(k, F5.mat([[3, 1]]))
    hits = kernel_by_enumeration(F5, m)
    assert len(hits) == 5  # a line through the origin
    assert set(hits) == {tuple((c * k[0]) % 5) for c in range(5)}


# -- solve --------------------------------------------------------------------


def test_solve_identity():
    v = F7.mat([[2], [5], [0]])
    x = F7.solve(F7.eye(3), v)
    assert np.array_equal(x, v)
    assert F7.kernel_basis(F7.eye(3)).shape == (0, 3)


def test_solve_inconsistent():
    assert F7.solve(F7.zeros(2, 2), F7.mat([[1], [0]])) is None


def test_solve_underdetermined_matches_enumeration():
    m = F7.mat([[1, 1]])
    rhs = F7.mat([[3]])
    x = F7.solve(m, rhs)
    assert x is not None
    assert np.array_equal(F7.mul(m, x), rhs)
    k = F7.kernel_basis(m)
    assert k.shape == (1, 2)
    # frozen from the GF(7)^2 enumeration oracle: 7 solutions on a line
    hits = solutions_by_enumeration(F7, m, rhs)
    assert len(hits) == 7
    assert tuple(x[:, 0]) in hits
    assert set(hits) == {tuple((x[:, 0] + c * k[0]) % 7) for c in range(7)}


# -- rank ----------------------------------------------------------------------


def test_rank_cases():
    assert F5.rank(F5.eye(4)) == 4
    assert F5.rank(F5.zeros(3, 2)) == 0
    assert F5.rank(F5.mat([[1, 2], [2, 4]])) == 1


# -- properties -----------------------------------------------------------------


def random_matrix(draw, p, max_dim=5):
    rows = draw(st.integers(min_value=0, max_value=max_dim))
    cols = draw(st.integers(min_value=0, max_value=max_dim))
    entries = draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@st.composite
def matrices(draw, p=5):
    return random_matrix(draw, p)


@given(matrices())
@settings(max_examples=200)
def test_rank_transpose_and_nullity(m):
    assert F5.rank(m) == F5.rank(m.T)
    assert F5.rank(m) + F5.kernel_basis(m).shape[0] == m.shape[1]


@given(matrices())
@settings(max_examples=200)
def test_rref_idempotent(m):
    r, piv = F5.rref(m)
    r2, piv2 = F5.rref(r)
    assert np.array_equal(r, r2)
    assert piv == piv2


@given(matrices())
@settings(max_examples=200)
def test_kernel_annihilates(m):
    k = F5.kernel_basis(m)
    assert not np.any(F5.mul(m, k.T))


@given(matrices(), st.integers(min_value=0, max_value=4))
@settings(max_examples=200)
def test_solve_verified_by_multiplication(m, seed):
    rng = np.random.default_rng(seed)
    target = rng.integers(0, 5, size=(m.shape[1], 1))
    rhs = F5.mul(m, target)  # guaranteed consistent
    x = F5.solve(m, rhs)
    assert x is not None
    assert np.array_equal(F5.mul(m, x), rhs)


@given(matrices(p=101))
@settings(max_examples=100)
def test_quotient_projection_section(m):
    n = m.shape[1]
    q = F101.quotient_by_rowspace(m, n)
    assert q.dim == n - F101.rank(m)
    assert np.array_equal(F101.mul(q.section, q.proj), F101.eye(q.dim))
    # the row space maps to zero in the quotient
    assert not np.any(F101.mul(m, q.proj))
    # the projection is the canonical kernel basis, transposed
    assert np.array_equal(q.proj, F101.kernel_basis(m).T)
    assert np.array_equal(q.section, F101.eye(n)[q.free])


def assert_same_quotient(got, want):
    assert got.dim == want.dim and got.free == want.free
    for a, b in ((got.proj, want.proj), (got.section, want.section)):
        assert a.shape == b.shape and a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


# A cokernel quotients by the blocks of its morphism as they are; the same
# quotient by their rref rows is what keeps its bytes a function of the image.


@given(matrices(p=101))
@settings(max_examples=100)
def test_quotient_by_rref_rows_matches_the_quotient_by_their_span(m):
    n = m.shape[1]
    want = F101.quotient_by_rowspace(m, n)
    assert_same_quotient(F101.quotient_by_rowspace(F101.row_space_basis(m), n), want)
    # the section is the row selection at the free columns
    assert np.array_equal(want.section, F101.eye(n)[want.free])


@pytest.mark.parametrize("shape", [(12, 20), (20, 12), (16, 16)])
def test_quotient_by_rref_rows_of_a_large_matrix(shape):
    # above the list-elimination cut-off quotient_by_rowspace reduces with numpy
    rng = np.random.default_rng(sum(shape))
    rank = min(shape) - 3
    m = F5.mul(rng.integers(0, 5, size=(shape[0], rank)), rng.integers(0, 5, size=(rank, shape[1])))
    assert np.count_nonzero(m) > 128
    n = shape[1]
    basis = F5.row_space_basis(m)
    want = F5.quotient_by_rowspace(m, n)
    assert want.dim == n - basis.shape[0]
    assert_same_quotient(F5.quotient_by_rowspace(basis, n), want)


def test_row_space_basis_spans():
    m = F5.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    b = F5.row_space_basis(m)
    assert b.shape[0] == F5.rank(m) == 2
    assert F5.coords_in_rowspace(b, m) is not None


# -- shape checks that survive python -O ----------------------------------------


SHAPE_ERRORS = [
    ("mul", lambda f: f.mul(f.zeros(0, 3), f.zeros(4, 2))),
    ("mul", lambda f: f.mul(f.eye(2), f.zeros(3, 3))),
    ("solve", lambda f: f.solve(f.eye(2), f.zeros(3, 1))),
    ("inverse", lambda f: f.inverse(f.mat([[1, 2, 3]]))),
    ("quotient_by_rowspace", lambda f: f.quotient_by_rowspace(f.eye(2), 3)),
]


@pytest.mark.parametrize("name, call", SHAPE_ERRORS, ids=[n for n, _ in SHAPE_ERRORS])
def test_shape_mismatches_raise_value_errors(name, call):
    with pytest.raises(ValueError, match=name):
        call(F7)


def test_shape_mismatches_raise_under_python_O():
    import os
    import subprocess
    import sys

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    script = (
        "from ardom.linalg import PrimeField\n"
        "f = PrimeField(7)\n"
        "calls = [lambda: f.mul(f.zeros(0, 3), f.zeros(4, 2)),\n"
        "         lambda: f.solve(f.eye(2), f.zeros(3, 1)),\n"
        "         lambda: f.inverse(f.mat([[1, 2, 3]])),\n"
        "         lambda: f.quotient_by_rowspace(f.eye(2), 3)]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('no ValueError')\n"
        "assert False, 'asserts are stripped'\n"
        "print('ok')\n"
    )
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
