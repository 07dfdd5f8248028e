"""Exact dense linear algebra over a prime field GF(p).

Matrices are plain numpy ``int64`` arrays with entries reduced into
``range(p)``.  This module owns the conventions used by the whole package:

* vectors are ROWS and linear maps act by right multiplication ``x @ m``,
* elimination is fully deterministic (scan columns left to right, pivot on
  the first row with a nonzero entry), so every output is bit-reproducible,
* each input gets one elimination, in ``_eliminate``: it is reduced mod p
  once, and matrices with at most ``_LIST_ELIMINATION_NONZEROS`` entries,
  or that many nonzero entries, are reduced on Python ``int`` lists
  (numpy's per-call overhead dominates there), the others with numpy row
  operations.  A matrix that small starts from ``tolist()`` and is reduced
  on the lists, with no numpy call at all.  Both paths return the same
  bytes, because the reduced row echelon form of a matrix is unique.
  Every routine reads that one elimination either as pivots and rref
  rows (rref, rank, row spaces) or as the canonical kernel basis
  (kernels; a quotient's projection is the kernel of the subspace,
  transposed; a solve is read off the kernel of ``[m | rhs]``),
* coordinates in a small basis whose rows each have a unit column (an
  entry 1 where every other row has 0), as rref rows and canonical kernel
  rows do, are read off those columns and checked by one product on int
  lists,
* zero-row and zero-column matrices are legal everywhere — empty vector
  spaces occur constantly as vertex spaces of representations.

No floating point is involved at any step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["PrimeField", "Quotient", "is_probable_prime"]

# Keep (p-1)^2 * dim comfortably inside int64 for dense products at desk
# scale (dimensions up to a few thousand).
_MAX_MODULUS = 1 << 20

# Largest count of entries, and of nonzero entries, reduced on Python lists
# rather than numpy arrays.  A matrix with at most this many entries goes to
# the lists from ``tolist()``, with no numpy reduction or count first; a
# larger one is reduced with numpy, and goes to the lists when at most this
# many entries are nonzero.  The list path's cost is not the nonzero count:
# at each column its pivot search reads the remaining rows, zero rows
# included, until one is nonzero there, so a tall sparse matrix costs about
# rows x columns reads.  On the benchmark workloads' inputs (sparse, up to
# 254 x 202) and on random matrices of any density numpy overtakes it
# between about 100 and 200 nonzero entries.
_LIST_ELIMINATION_NONZEROS = 128

# Largest basis, in entries, that ``coords_in_rowspace`` scans for unit
# columns, and then reads coordinates off and checks on int lists, before it
# falls back to elimination.
_UNIT_COLUMN_ENTRIES = 64


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for word-sized n (exact below 3.3e24)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Quotient:
    """The quotient of a row space k^n by a subspace, with a chosen section.

    ``proj`` is an n×q matrix: coset coordinates of a row vector v are
    ``v @ proj``.  ``section`` is a q×n matrix whose rows are the canonical
    coset representatives (the non-pivot standard basis vectors), so
    ``section @ proj`` is the q×q identity.  ``free`` lists those non-pivot
    columns: ``section @ a`` is the row selection ``a[free]``.
    """

    dim: int
    proj: np.ndarray
    section: np.ndarray
    free: list


@dataclass(frozen=True)
class PrimeField:
    """GF(p) together with every exact matrix routine the package needs."""

    p: int

    def __post_init__(self):
        if not is_probable_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if self.p >= _MAX_MODULUS:
            raise ValueError(f"modulus {self.p} too large (must be < 2^20)")

    # -- scalars ---------------------------------------------------------

    def element(self, x: int) -> int:
        return int(x) % self.p

    def inv(self, x: int) -> int:
        x = int(x) % self.p
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(x, self.p - 2, self.p)

    # -- matrix construction ---------------------------------------------

    def mat(self, data) -> np.ndarray:
        """Build a matrix from nested sequences, reducing entries mod p."""
        m = np.array(data, dtype=np.int64)
        if m.ndim == 1:
            m = m.reshape(1, -1)
        if m.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        return np.mod(m, self.p)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols), dtype=np.int64)

    def eye(self, n: int) -> np.ndarray:
        out = np.zeros((n, n), dtype=np.int64)
        out.ravel()[:: n + 1] = 1  # the diagonal, in one strided write
        return out

    def block_diag(self, blocks) -> np.ndarray:
        """The blocks in order down the diagonal of one matrix, zero elsewhere."""
        out = self.zeros(sum([b.shape[0] for b in blocks]), sum([b.shape[1] for b in blocks]))
        r = c = 0
        for b in blocks:
            out[r : r + b.shape[0], c : c + b.shape[1]] = b
            r, c = r + b.shape[0], c + b.shape[1]
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product (a @ b) mod p."""
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"mul: shapes {a.shape} and {b.shape} do not compose")
        if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return np.mod(a @ b, self.p)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(a + b, self.p)

    def scale(self, c: int, a: np.ndarray) -> np.ndarray:
        return np.mod(int(c) % self.p * a, self.p)

    # -- elimination -------------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Deterministic: columns are scanned left to right and the pivot is
        the first not-yet-used row with a nonzero entry.  The row space is
        preserved exactly.
        """
        r, pivots = self._eliminate(m)
        return np.asarray(r, dtype=np.int64), pivots

    def _eliminate(self, m) -> tuple:
        """(rows, pivots) of the rref of m, from one reduction mod p.

        A zero or empty matrix gives its reduced array and no pivots.  A
        matrix with at most ``_LIST_ELIMINATION_NONZEROS`` entries, or that
        many nonzero entries, is reduced on int lists and gives all its rows
        as lists, the others are reduced with numpy and give an array;
        either way the first ``len(pivots)`` rows are the pivot rows.
        """
        rows, cols = m.shape
        if rows * cols <= _LIST_ELIMINATION_NONZEROS:
            p = self.p
            a = [[x % p for x in row] for row in m.tolist()]
            if not any(map(any, a)):
                return np.zeros((rows, cols), dtype=np.int64), ()
            return self._rref_lists(a, rows, cols)
        r = np.remainder(m, self.p, dtype=np.int64)
        nonzeros = np.count_nonzero(r)
        if not nonzeros:
            return r, ()
        if nonzeros > _LIST_ELIMINATION_NONZEROS:
            return self._rref_array(r, rows, cols)
        return self._rref_lists(r.tolist(), rows, cols)

    def _rref_lists(self, a: list, rows: int, cols: int) -> tuple[list, tuple[int, ...]]:
        """rref of a nonzero matrix given as rows of ints in range(p), in place."""
        p = self.p
        pivots = []
        pr = 0  # next pivot row
        for pc in range(cols):
            src = pr
            while src < rows and not a[src][pc]:
                src += 1
            if src == rows:
                continue
            a[pr], a[src] = a[src], a[pr]
            # left of pc the pivot row is zero, so row operations start at pc
            tail = a[pr][pc:]
            if tail[0] != 1:
                c = self.inv(tail[0])
                tail = a[pr][pc:] = [x * c % p for x in tail]
            for i in range(rows):
                c = a[i][pc]
                if c and i != pr:
                    row = a[i]
                    row[pc:] = [(x - c * y) % p for x, y in zip(row[pc:], tail)]
            pivots.append(pc)
            pr += 1
            if pr == rows:
                break
        return a, tuple(pivots)

    def _rref_array(self, r: np.ndarray, rows: int, cols: int):
        """rref of a matrix reduced mod p, in place on the numpy array."""
        p = self.p
        pivots = []
        pr = 0  # next pivot row
        for pc in range(cols):
            nz = np.flatnonzero(r[pr:, pc])
            if nz.size == 0:
                continue
            src = pr + int(nz[0])
            if src != pr:
                r[[pr, src]] = r[[src, pr]]
            # left of pc the pivot row is zero, so row operations start at pc
            c = int(r[pr, pc])
            if c != 1:
                r[pr, pc:] = r[pr, pc:] * self.inv(c) % p
            # only rows with a nonzero in the pivot column change
            col = r[:, pc].copy()
            col[pr] = 0
            hit = np.flatnonzero(col)
            if hit.size:
                r[hit, pc:] = (r[hit, pc:] - np.outer(col[hit], r[pr, pc:])) % p
            pivots.append(pc)
            pr += 1
            if pr == rows:
                break
        return r, tuple(pivots)

    def _kernel(self, m) -> tuple[np.ndarray, list]:
        """The canonical kernel basis of m and its free columns, in order.

        One row per free column f, with entry 1 at f and −rref[i, f] at
        pivot column i, so each row vanishes on the row space of m and the
        rows are the identity on the free columns.
        """
        cols = m.shape[1]
        r, pivots = self._eliminate(m)
        if not pivots:
            return self.eye(cols), list(range(cols))
        pivot_set = set(pivots)
        free = [j for j in range(cols) if j not in pivot_set]
        if isinstance(r, np.ndarray):  # a large matrix, reduced with numpy
            k = self.zeros(len(free), cols)
            k[np.arange(len(free)), free] = 1
            if free:
                k[:, list(pivots)] = -r[: len(pivots), free].T % self.p
            return k, free
        p = self.p
        k = []
        for f in free:
            row = [0] * cols
            row[f] = 1
            for pc, pivot_row in zip(pivots, r):
                row[pc] = -pivot_row[f] % p
            k.append(row)
        return np.array(k, dtype=np.int64).reshape(len(free), cols), free

    def pivot_columns(self, m: np.ndarray) -> tuple[int, ...]:
        """The pivot columns of the rref of m, without building its rows as
        an array."""
        return self._eliminate(m)[1]

    def rank(self, m: np.ndarray) -> int:
        return len(self._eliminate(m)[1])

    def row_space_basis(self, m: np.ndarray) -> np.ndarray:
        """Nonzero rows of the rref: a deterministic basis of the row space."""
        r, pivots = self._eliminate(m)
        return np.asarray(r[: len(pivots)], dtype=np.int64)

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Basis of the right null space {v : m·v = 0}, one row per vector.

        Row count is cols(m) − rank(m).  The basis is canonical: one row per
        free column f, with entry 1 at f and −rref[i, f] at pivot column i.
        """
        return self._kernel(m)[0]

    def left_kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Basis (rows) of {x : x·m = 0}."""
        return self._kernel(m.T)[0]

    def solve(self, m: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
        """One exact solution x of m·x = rhs, or None if inconsistent.

        rhs may be a matrix (one system per column).  The particular
        solution sets every free variable to 0, so it is deterministic;
        the full solution set is x + span of kernel_basis(m) columns.

        It is read off the canonical kernel of [m | rhs]: the system is
        consistent exactly when every rhs column is free, and then minus
        the kernel row of rhs column c, on m's columns, solves column c.
        """
        rhs = np.asarray(rhs, dtype=np.int64)
        if rhs.ndim == 1:
            rhs = rhs.reshape(-1, 1)
        if m.shape[0] != rhs.shape[0]:
            raise ValueError(f"solve: {m.shape} matrix with {rhs.shape} right-hand side")
        ncols, width = m.shape[1], rhs.shape[1]
        k, free = self._kernel(np.concatenate([m, rhs], axis=1))
        first = len(free) - width  # the kernel rows of the rhs columns
        if first < 0 or (width and free[first] < ncols):
            return None
        return -k[first:, :ncols].T % self.p

    def solve_left(self, m: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
        """One exact solution x of x·m = rhs (row-vector systems), or None."""
        sol = self.solve(m.T, rhs.T)
        return None if sol is None else sol.T

    def coords_in_rowspace(self, basis: np.ndarray, vecs: np.ndarray) -> Optional[np.ndarray]:
        """Coordinates X with X @ basis = vecs, or None if not in the span.

        A small basis in which every row has a unit column (an entry 1 where
        every other row has 0), as rref rows and canonical kernel rows do,
        needs no elimination: its rows are independent, and X must be vecs
        read on those columns, so one product, on int lists, decides
        membership.
        """
        vecs = np.asarray(vecs, dtype=np.int64)
        if vecs.ndim == 1:
            vecs = vecs.reshape(1, -1)
        k, n = basis.shape
        if vecs.shape[1] != n:
            raise ValueError(f"coords_in_rowspace: {vecs.shape} vectors in a {basis.shape} span")
        if vecs.shape[0] == 0:
            return self.zeros(0, k)
        if k == 0:
            return None if np.any(vecs % self.p) else self.zeros(vecs.shape[0], 0)
        if basis.size <= _UNIT_COLUMN_ENTRIES:
            rows = basis.tolist()
            cols = self._unit_columns(rows)
            if cols is not None:
                p = self.p
                out = []
                for vec in vecs.tolist():
                    x = [vec[c] % p for c in cols]
                    # x·basis ≡ vec, one column at a time
                    for j, y in enumerate(vec):
                        if sum([c * row[j] for c, row in zip(x, rows)]) % p != y % p:
                            return None
                    out.append(x)
                return np.array(out, dtype=np.int64)
        return self.solve_left(basis, vecs)

    def _unit_columns(self, rows: list) -> Optional[list]:
        """One unit column per row (1 there, 0 in every other row), or None."""
        p = self.p
        cols = []
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if x % p == 1 and not any(
                    other[j] % p for t, other in enumerate(rows) if t != i
                ):
                    cols.append(j)
                    break
            else:
                return None
        return cols

    def inverse(self, m: np.ndarray) -> Optional[np.ndarray]:
        """Exact inverse of a square matrix, or None if singular."""
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"inverse: {m.shape} matrix is not square")
        return self.solve(m, self.eye(m.shape[0]))

    # -- quotients ---------------------------------------------------------

    def quotient_by_rowspace(self, sub: np.ndarray, n: int) -> Quotient:
        """k^n modulo the row space of ``sub`` (a matrix with n columns).

        Deterministic: coset coordinates live on the non-pivot columns of
        the rref of ``sub``.  The projection is the canonical kernel basis
        of ``sub``, transposed: its rows vanish on the row space and are the
        identity on those free columns.
        """
        if sub.shape[1] != n:
            raise ValueError(f"quotient_by_rowspace: {sub.shape} rows are not in k^{n}")
        k, free = self._kernel(sub)
        # a C-ordered copy, like every other matrix here, and not a view on k
        return Quotient(dim=len(free), proj=k.T.copy(), section=self.eye(n)[free], free=free)
