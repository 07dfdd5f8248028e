"""Exact dense linear algebra over a prime field GF(p).

Matrices are plain numpy ``int64`` arrays with entries reduced into
``range(p)``.  This module owns the conventions used by the whole package:

* vectors are ROWS and linear maps act by right multiplication ``x @ m``,
* elimination is fully deterministic (scan columns left to right, pivot on
  the first row with a nonzero entry), so every output is bit-reproducible,
* elimination is size-selected: matrices with at most
  ``_LIST_ELIMINATION_NONZEROS`` nonzero entries are reduced on Python
  ``int`` lists (numpy's per-call overhead dominates there), the others
  with numpy row operations.  Both paths return the same bytes, because
  the reduced row echelon form of a matrix is unique,
* zero-row and zero-column matrices are legal everywhere — empty vector
  spaces occur constantly as vertex spaces of representations.

No floating point is involved at any step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["PrimeField", "Quotient", "is_probable_prime"]

# Keep (p-1)^2 * dim comfortably inside int64 for dense products at desk
# scale (dimensions up to a few thousand).
_MAX_MODULUS = 1 << 20

# Largest count of nonzero entries reduced on Python lists rather than numpy
# arrays.  Zero rows are never touched, so the list path's cost follows the
# nonzero count, not the shape: on the benchmark workloads' inputs (sparse,
# up to 254 x 202) and on random matrices of any density numpy overtakes it
# between about 100 and 200 nonzero entries.
_LIST_ELIMINATION_NONZEROS = 128


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
    ``section @ proj`` is the q×q identity.
    """

    dim: int
    proj: np.ndarray
    section: np.ndarray


@dataclass(frozen=True)
class PrimeField:
    """GF(p) together with every exact matrix routine the package needs."""

    p: int
    _inverses: dict = field(default_factory=dict, repr=False, compare=False)

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
        cached = self._inverses.get(x)
        if cached is None:
            cached = pow(x, self.p - 2, self.p)
            self._inverses[x] = cached
        return cached

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
        return np.eye(n, dtype=np.int64)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact matrix product (a @ b) mod p."""
        assert a.shape[1] == b.shape[0], (a.shape, b.shape)
        if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
            return self.zeros(a.shape[0], b.shape[1])
        return np.mod(a @ b, self.p)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.mod(a + b, self.p)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return np.mod(-a, self.p)

    def scale(self, c: int, a: np.ndarray) -> np.ndarray:
        return np.mod(int(c) % self.p * a, self.p)

    # -- elimination -------------------------------------------------------

    def rref(self, m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
        """Reduced row echelon form and pivot columns.

        Deterministic: columns are scanned left to right and the pivot is
        the first not-yet-used row with a nonzero entry.  The row space is
        preserved exactly.
        """
        r = np.array(m, dtype=np.int64)
        rows, cols = r.shape
        if r.size == 0:
            return r, ()
        r %= self.p
        nonzeros = np.count_nonzero(r)
        if not nonzeros:
            return r, ()
        if nonzeros <= _LIST_ELIMINATION_NONZEROS:
            return self._rref_lists(r.tolist(), rows, cols)
        return self._rref_array(r, rows, cols)

    def _rref_lists(self, a: list, rows: int, cols: int):
        """rref of a nonzero matrix given as rows of ints in range(p)."""
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
        return np.array(a, dtype=np.int64), tuple(pivots)

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

    def rank(self, m: np.ndarray) -> int:
        return len(self.rref(m)[1])

    def row_space_basis(self, m: np.ndarray) -> np.ndarray:
        """Nonzero rows of the rref: a deterministic basis of the row space."""
        r, pivots = self.rref(m)
        return r[: len(pivots)]

    def kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Basis of the right null space {v : m·v = 0}, one row per vector.

        Row count is cols(m) − rank(m).  The basis is canonical: one row per
        free column f, with entry 1 at f and −rref[i, f] at pivot column i.
        """
        r, pivots = self.rref(m)
        cols = m.shape[1]
        pivot_set = set(pivots)
        free = [j for j in range(cols) if j not in pivot_set]
        k = self.zeros(len(free), cols)
        k[np.arange(len(free)), free] = 1
        if pivots and free:
            k[:, list(pivots)] = -r[: len(pivots), free].T % self.p
        return k

    def left_kernel_basis(self, m: np.ndarray) -> np.ndarray:
        """Basis (rows) of {x : x·m = 0}."""
        return self.kernel_basis(m.T)

    def solve(self, m: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
        """One exact solution x of m·x = rhs, or None if inconsistent.

        rhs may be a matrix (one system per column).  The particular
        solution sets every free variable to 0, so it is deterministic;
        the full solution set is x + span of kernel_basis(m) columns.
        """
        rhs = np.mod(np.array(rhs, dtype=np.int64), self.p)
        if rhs.ndim == 1:
            rhs = rhs.reshape(-1, 1)
        assert m.shape[0] == rhs.shape[0], (m.shape, rhs.shape)
        aug = np.concatenate([np.mod(m, self.p), rhs], axis=1)
        r, pivots = self.rref(aug)
        ncols = m.shape[1]
        if any(pc >= ncols for pc in pivots):
            return None
        x = self.zeros(ncols, rhs.shape[1])
        if pivots:
            x[list(pivots)] = r[: len(pivots), ncols:]
        return x

    def solve_left(self, m: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
        """One exact solution x of x·m = rhs (row-vector systems), or None."""
        sol = self.solve(m.T, rhs.T)
        return None if sol is None else sol.T

    def coords_in_rowspace(self, basis: np.ndarray, vecs: np.ndarray) -> Optional[np.ndarray]:
        """Coordinates X with X @ basis = vecs, or None if not in the span."""
        return self.solve_left(basis, vecs)

    def inverse(self, m: np.ndarray) -> Optional[np.ndarray]:
        """Exact inverse of a square matrix, or None if singular."""
        assert m.shape[0] == m.shape[1]
        return self.solve(m, self.eye(m.shape[0]))

    def is_invertible(self, m: np.ndarray) -> bool:
        return m.shape[0] == m.shape[1] and self.rank(m) == m.shape[0]

    # -- quotients ---------------------------------------------------------

    def quotient_by_rowspace(self, sub: np.ndarray, n: int) -> Quotient:
        """k^n modulo the row space of ``sub`` (a matrix with n columns).

        Deterministic: coset coordinates live on the non-pivot columns of
        the rref of ``sub``.
        """
        assert sub.shape[1] == n, (sub.shape, n)
        r, pivots = self.rref(sub)
        pivot_set = set(pivots)
        free = [j for j in range(n) if j not in pivot_set]
        reducer = self.eye(n)
        if pivots:
            rows = list(pivots)
            reducer[rows] = (reducer[rows] - r[: len(pivots)]) % self.p
        proj = reducer[:, free]
        section = self.zeros(len(free), n)
        section[np.arange(len(free)), free] = 1
        return Quotient(dim=len(free), proj=proj, section=section)
