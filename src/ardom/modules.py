"""Right modules over a bound quiver algebra, as quiver representations.

A module M assigns to each vertex v a row-vector space of dimension
``M.dims[v]`` and to each arrow a: v -> w a dims[v] x dims[w] matrix
``M.mats[a]`` acting on the right: the action of a path is the product of
its arrow matrices taken left to right, matching the algebra's composition
convention p*q = "first p, then q".

A morphism f: M -> N is a family of per-vertex matrices f_v (rows of M_v to
rows of N_v) with the commuting squares  M_a @ f_w = f_v @ N_a  for every
arrow a: v -> w.  That single orientation is used everywhere.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import AlgebraTable, InputError, InvariantError, Path, opposite, ascii_int, input_lines

__all__ = [
    "ModuleRep",
    "ModuleMorphism",
    "ProjSum",
    "validate",
    "simple",
    "projective",
    "injective",
    "regular",
    "dual_regular",
    "kernel",
    "image",
    "cokernel",
    "radical",
    "top",
    "socle",
    "top_vertices",
    "socle_vertices",
    "proj_cover",
    "omega",
    "inj_hull",
    "is_projective",
    "is_injective",
    "is_selfinjective",
    "dual",
    "direct_sum",
    "is_isomorphic",
    "Indecomposable",
    "certify_local",
    "isomorphic_to",
    "indecomposable_summands",
    "sample_modules",
    "nakayama_indecomposables",
    "zero_module",
    "identity_morphism",
    "zero_morphism",
    "submodule_from_rows",
    "quotient_by_rows",
    "proj_sum",
    "projsum_morphism",
    "projsum_hom_rows",
    "yoneda_block",
    "projsum_map_elements",
    "projsum_map_from_elements",
    "parse_module",
    "serialize_module",
    "ModuleFileError",
    "InvariantError",
    "memoized",
    "projective_paths",
]


def _block(m, shape: tuple, p: int, what: str) -> np.ndarray:
    """``m`` as an int64 block reduced mod p; ValueError unless it has ``shape``."""
    m = np.asarray(m, dtype=np.int64)
    if m.size == 0:
        m = m.reshape(shape)
    if m.shape != shape:
        raise ValueError(f"{what} {m.shape} != {shape}")
    return np.mod(m, p)


class ModuleRep:
    """A right module presented vertexwise.  Treat as immutable."""

    __slots__ = ("algebra", "dims", "mats", "label", "_signature")

    def __init__(self, algebra: AlgebraTable, dims, mats, label: str = ""):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        q = algebra.quiver
        self.mats = tuple(
            _block(m, (self.dims[q.arrow_source(a)], self.dims[q.arrow_target(a)]),
                   algebra.field.p, f"arrow {q.arrows[a][0]}: matrix shape")
            for a, m in enumerate(mats)
        )
        self.label = label
        self._signature = None

    @classmethod
    def _trusted(cls, algebra: AlgebraTable, dims: tuple, mats, label: str = "") -> "ModuleRep":
        """Build from a tuple of ints ``dims`` and int64 blocks already shaped
        (dims[source], dims[target]) and reduced mod p, skipping the
        constructor's conversions and checks."""
        out = object.__new__(cls)
        out.algebra = algebra
        out.dims = dims
        out.mats = tuple(mats)
        out.label = label
        out._signature = None
        return out

    def relabeled(self, label: str) -> "ModuleRep":
        """The same module (same blocks and signature) under another label;
        the module itself when it already carries that label."""
        if label == self.label:
            return self
        out = ModuleRep._trusted(self.algebra, self.dims, self.mats, label)
        out._signature = self._signature
        return out

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def element_matrix(self, element: dict, source: int, target: int) -> np.ndarray:
        """Action of an algebra element whose paths all run source -> target."""
        f = self.algebra.field
        for path in element:
            if path.source != source or path.target != target:
                raise ValueError(f"element path {path} does not run {source} -> {target}")
        actions = _path_actions(self, f.eye(self.dims[source]), element)
        out = f.zeros(self.dims[source], self.dims[target])
        for path, coeff in element.items():
            out = f.add(out, f.scale(coeff, actions[path]))
        return out

    def signature(self) -> tuple:
        """Hashable structural identity (used for dedup, caching).  Built on
        the first call and kept: the blocks never change."""
        if self._signature is None:
            self._signature = (id(self.algebra), self.dims, tuple([m.tobytes() for m in self.mats]))
        return self._signature

    def __repr__(self):
        name = self.label or "module"
        return f"<{name} dims={self.dims} over {self.algebra.label}>"


def _path_actions(m: ModuleRep, start: np.ndarray, paths) -> dict:
    """``start`` times the action on m of each path, keyed by path.

    The paths share one source vertex u, and ``start`` has m.dims[u]
    columns.  Each product is its longest proper prefix's product times one
    arrow matrix, and each prefix is multiplied out once: paths in basis
    order (shortest first; basis paths are closed under prefixes) cost one
    product each, and other paths, such as relation paths, compute their
    missing prefixes on the way.
    """
    mul, mats = m.algebra.field.mul, m.mats
    done = {(): start}  # arrow word -> product
    out = {}
    for path in paths:
        word = path.arrows
        k = len(word)
        while word[:k] not in done:
            k -= 1
        acted = done[word[:k]]
        for i in range(k, len(word)):
            acted = mul(acted, mats[word[i]])
            done[word[: i + 1]] = acted
        out[path] = acted
    return out


_MISSING = object()


def memoized(fn):
    """Keep each result of ``fn`` in the memo of the table it works over.

    A call is keyed by the function's name and its arguments, with defaults
    filled in, so ``f(tbl, 1)`` and ``f(tbl, 1, choice=0)`` share one entry;
    a :class:`ModuleRep` argument counts by its ``signature()``.  The entry
    lives in ``_memo`` of the first argument's table (the argument itself or
    a module's algebra).  A call that raises stores nothing.

    Every caller with equal arguments gets the same object back, so a
    result is shared and never changed: treat it, and every module or
    morphism inside it, as immutable.  A derived module carries no label;
    only the named modules (S(v), P(v), I(v), module files, listed and
    sampled modules) do, each built under its name or named by
    :meth:`ModuleRep.relabeled`, a copy.
    """
    sig = inspect.signature(fn)
    arity = len(sig.parameters)
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs or len(args) != arity:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            args = bound.args
        first = args[0]
        if arity == 1:
            if isinstance(first, ModuleRep):
                memo, key = first.algebra._memo, (name, first.signature())
            else:
                memo, key = first._memo, (name, first)
        else:
            memo = (first if isinstance(first, AlgebraTable) else first.algebra)._memo
            key = (name, *[a.signature() if isinstance(a, ModuleRep) else a for a in args])
        out = memo.get(key, _MISSING)
        if out is _MISSING:
            out = memo[key] = fn(*args)
        return out

    return wrapper


def zero_module(tbl: AlgebraTable) -> ModuleRep:
    nv = len(tbl.quiver.vertices)
    dims = (0,) * nv
    mats = [tbl.field.zeros(0, 0) for _ in tbl.quiver.arrows]
    return ModuleRep(tbl, dims, mats)


def validate(m: ModuleRep) -> Optional[str]:
    """None if every algebra relation annihilates m, else a report string."""
    for i, rel in enumerate(m.algebra.relations):
        some = next(iter(rel))
        acted = m.element_matrix(rel, some.source, some.target)
        if np.any(acted):
            return (
                f"relation #{i + 1} ({m.algebra.element_label(rel)}) "
                f"does not annihilate the module"
            )
    return None


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class ModuleMorphism:
    """Per-vertex matrices f_v: rows of source_v to rows of target_v."""

    __slots__ = ("source", "target", "mats")

    def __init__(self, source: ModuleRep, target: ModuleRep, mats):
        if source.algebra is not target.algebra:
            raise ValueError("morphism: algebra mismatch")
        self.source = source
        self.target = target
        self.mats = tuple(
            _block(m, (source.dims[v], target.dims[v]), source.algebra.field.p,
                   f"vertex {v}: morphism block")
            for v, m in enumerate(mats)
        )

    @classmethod
    def _trusted(cls, source: ModuleRep, target: ModuleRep, mats) -> "ModuleMorphism":
        """Build from blocks already shaped (source.dims[v], target.dims[v])
        and reduced mod p, skipping the constructor's conversions and checks."""
        out = object.__new__(cls)
        out.source = source
        out.target = target
        out.mats = tuple(mats)
        return out

    @property
    def field(self):
        return self.source.algebra.field

    def defect(self) -> Optional[str]:
        """None if the commuting squares hold, else a report."""
        q = self.source.algebra.quiver
        f = self.field
        for a in range(len(q.arrows)):
            v, w = q.arrow_source(a), q.arrow_target(a)
            left = f.mul(self.source.mats[a], self.mats[w])
            right = f.mul(self.mats[v], self.target.mats[a])
            if not np.array_equal(left, right):
                return f"square fails at arrow {q.arrows[a][0]}"
        return None

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self followed by other (source -> self.target = other.source -> ...)."""
        if self.target is not other.source and self.target.dims != other.source.dims:
            raise ValueError("compose: target and source dimensions differ")
        f = self.field
        return ModuleMorphism._trusted(
            self.source,
            other.target,
            [f.mul(a, b) for a, b in zip(self.mats, other.mats)],
        )

    def add(self, other: "ModuleMorphism") -> "ModuleMorphism":
        f = self.field
        return ModuleMorphism._trusted(
            self.source, self.target, [f.add(a, b) for a, b in zip(self.mats, other.mats)]
        )

    def scale(self, c: int) -> "ModuleMorphism":
        f = self.field
        return ModuleMorphism._trusted(
            self.source, self.target, [f.scale(c, a) for a in self.mats]
        )

    def flatten(self) -> np.ndarray:
        """All blocks as one long row vector (row-major, vertex order)."""
        bits = [m.reshape(-1) for m in self.mats]
        return np.concatenate(bits) if bits else np.zeros(0, dtype=np.int64)

    @property
    def is_zero(self) -> bool:
        return not any(np.any(m) for m in self.mats)

    def is_injective_map(self) -> bool:
        f = self.field
        return all(f.rank(m) == m.shape[0] for m in self.mats)

    def is_surjective_map(self) -> bool:
        f = self.field
        return all(f.rank(m) == m.shape[1] for m in self.mats)

    def is_isomorphism(self) -> bool:
        return (
            self.source.dims == self.target.dims
            and all(f_rank_full(self.field, m) for m in self.mats)
        )

    def __repr__(self):
        return f"<morphism {self.source.dims} -> {self.target.dims}>"


def f_rank_full(field, m) -> bool:
    return m.shape[0] == m.shape[1] and field.rank(m) == m.shape[0]


def identity_morphism(m: ModuleRep) -> ModuleMorphism:
    f = m.algebra.field
    return ModuleMorphism(m, m, [f.eye(d) for d in m.dims])


def zero_morphism(m: ModuleRep, n: ModuleRep) -> ModuleMorphism:
    f = m.algebra.field
    return ModuleMorphism(m, n, [f.zeros(a, b) for a, b in zip(m.dims, n.dims)])


def morphism_from_flat(m: ModuleRep, n: ModuleRep, flat: np.ndarray) -> ModuleMorphism:
    """Inverse of ``flatten`` for a row ``flat`` already reduced mod p."""
    mats = []
    at = 0
    for v in range(len(m.dims)):
        size = m.dims[v] * n.dims[v]
        mats.append(flat[at : at + size].reshape(m.dims[v], n.dims[v]))
        at += size
    return ModuleMorphism._trusted(m, n, mats)


def _hom_rows(m: ModuleRep, n: ModuleRep) -> np.ndarray:
    """A basis of Hom_A(m, n) as flattened morphisms (one row each, the
    ``flatten`` layout): the canonical kernel basis of one assembled
    linear system.

    Unknowns are the stacked row-major entries of all f_v; each arrow
    a: v -> w contributes the block equation M_a @ f_w - f_v @ N_a = 0,
    encoded with Kronecker products for the row-major vec convention
    vec(A @ X @ B) = (A kron B^T) vec(X).
    """
    if m.algebra is not n.algebra:
        raise ValueError("_hom_rows: modules live over different algebras")
    f = m.algebra.field
    q = m.algebra.quiver
    sizes = [dm * dn for dm, dn in zip(m.dims, n.dims)]
    offsets = np.cumsum([0] + sizes)
    rows = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        r = m.dims[v] * n.dims[w]
        if r == 0:
            continue
        # equation row (i, j) of block a, i < m.dims[v] and j < n.dims[w];
        # each unknown block is viewed as (equation i, j, unknown row, column)
        block = f.zeros(r, int(offsets[-1]))
        if sizes[w]:
            # M_a kron I: unknown (s, j) of f_w with coefficient M_a[i, s]
            at = block[:, offsets[w] : offsets[w + 1]].reshape(m.dims[v], n.dims[w], m.dims[w], n.dims[w])
            j = np.arange(n.dims[w])
            at[:, j, :, j] = m.mats[a]
        if sizes[v]:
            # I kron N_a^T: unknown (i, l) of f_v with coefficient -N_a[l, j]
            at = block[:, offsets[v] : offsets[v + 1]].reshape(m.dims[v], n.dims[w], m.dims[v], n.dims[v])
            i = np.arange(m.dims[v])
            at[i, :, i, :] -= n.mats[a].T
        rows.append(block % f.p)
    system = np.concatenate(rows, axis=0) if rows else f.zeros(0, int(offsets[-1]))
    return f.kernel_basis(system)


# ---------------------------------------------------------------------------
# kernels, images, cokernels
# ---------------------------------------------------------------------------


def _as_row_block(arr, width: int, p: int) -> np.ndarray:
    """Normalize row data to a 2-D (k, width) array mod p."""
    arr = np.asarray(arr, dtype=np.int64)
    if width == 0:
        return np.zeros((0, 0), dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    return np.mod(arr.reshape(-1, width), p)


def submodule_from_rows(m: ModuleRep, rows_per_vertex) -> tuple:
    """(S, inclusion) for the submodule spanned by the given rows.

    The rows at each vertex must be linearly independent.  Raises
    ValueError when their span is not closed under every arrow action.  An
    arrow with no rows at its source, or into a vertex where m is zero, acts
    by a block with no entries, and no product or closure check is made.
    """
    f = m.algebra.field
    q = m.algebra.quiver
    basis = [_as_row_block(b, m.dims[v], f.p) for v, b in enumerate(rows_per_vertex)]
    dims = tuple(b.shape[0] for b in basis)
    mats = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        if not dims[v] or not m.dims[w]:
            mats.append(f.zeros(dims[v], dims[w]))
            continue
        acted = f.mul(basis[v], m.mats[a])
        coords = f.coords_in_rowspace(basis[w], acted)
        if coords is None:
            arrow = q.arrows[a][0]
            raise ValueError(f"rows do not span a submodule: not closed under arrow {arrow}")
        mats.append(coords)
    sub = ModuleRep._trusted(m.algebra, dims, mats)
    incl = ModuleMorphism._trusted(sub, m, basis)
    return sub, incl


def quotient_by_rows(m: ModuleRep, rows_per_vertex) -> tuple:
    """(Q, projection, sections) for the quotient of m by the span of the
    given rows; ``sections[v]`` is the right inverse of the projection at v
    whose rows are the canonical coset representatives."""
    f = m.algebra.field
    q = m.algebra.quiver
    quots = [
        f.quotient_by_rowspace(_as_row_block(rows_per_vertex[v], d, f.p), d)
        for v, d in enumerate(m.dims)
    ]
    dims = tuple(qt.dim for qt in quots)
    mats = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        # the section picks the free rows of the arrow's matrix
        mats.append(f.mul(m.mats[a][quots[v].free], quots[w].proj))
    quo = ModuleRep._trusted(m.algebra, dims, mats)
    proj = ModuleMorphism._trusted(m, quo, [qt.proj for qt in quots])
    return quo, proj, tuple(qt.section for qt in quots)


def kernel(fmor: ModuleMorphism) -> tuple:
    """(K, inclusion): the vertexwise kernel of fmor with the induced arrow
    actions.  A block with no columns has the whole source space as its
    kernel, and one with no rows an empty kernel: both are read off the
    shape, with no elimination."""
    f = fmor.field
    rows = [f.left_kernel_basis(b) if b.size else f.eye(len(b)) for b in fmor.mats]
    return submodule_from_rows(fmor.source, rows)


def image(fmor: ModuleMorphism) -> tuple:
    """(I, inclusion, projection): the image of fmor as a submodule of its
    target, with fmor = projection followed by inclusion."""
    f = fmor.field
    rows = [f.row_space_basis(b) for b in fmor.mats]
    im, incl = submodule_from_rows(fmor.target, rows)
    mats = []
    for v, (basis, block) in enumerate(zip(rows, fmor.mats)):
        coords = f.coords_in_rowspace(basis, block)
        if coords is None:
            raise ValueError(f"vertex {v}: morphism block leaves its own row space")
        mats.append(coords)
    return im, incl, ModuleMorphism._trusted(fmor.source, im, mats)


def cokernel(fmor: ModuleMorphism) -> tuple:
    """(C, projection, sections): the quotient of fmor's target by its image
    (see :func:`quotient_by_rows`).

    The image at v is the row space of the block f_v, and the quotient
    depends only on that row space, so the blocks go in as they are and
    each is reduced once."""
    return quotient_by_rows(fmor.target, fmor.mats)


def _arrow_actions_into(m: ModuleRep, w: int) -> np.ndarray:
    """The actions on m of the arrows into w, stacked: a matrix whose row
    space is the radical m·rad A at w."""
    into = m.algebra.quiver.arrows_into(w)
    if len(into) == 1:
        return m.mats[into[0]]
    if into:
        return np.concatenate([m.mats[a] for a in into], axis=0)
    return m.algebra.field.zeros(0, m.dims[w])


def _radical_rows(m: ModuleRep) -> list:
    """Per vertex w, the rref basis of the radical m·rad A at w."""
    f = m.algebra.field
    return [f.row_space_basis(_arrow_actions_into(m, w)) for w in range(len(m.dims))]


def radical(m: ModuleRep) -> tuple:
    """(rad m, inclusion): the submodule m·rad A."""
    return submodule_from_rows(m, _radical_rows(m))


def top(m: ModuleRep) -> tuple:
    """(top m, projection, sections): m modulo its radical."""
    return quotient_by_rows(m, _radical_rows(m))


def _arrow_actions_from(m: ModuleRep, v: int) -> np.ndarray:
    """The actions on m of the arrows out of v, side by side: a matrix whose
    left kernel is the socle of m at v."""
    outs = m.algebra.quiver.arrows_from(v)
    if len(outs) == 1:
        return m.mats[outs[0]]
    if outs:
        return np.concatenate([m.mats[a] for a in outs], axis=1)
    return m.algebra.field.zeros(m.dims[v], 0)


def socle(m: ModuleRep) -> tuple:
    """(soc m, inclusion): the elements that every arrow annihilates."""
    f = m.algebra.field
    rows = [f.left_kernel_basis(_arrow_actions_from(m, v)) for v in range(len(m.dims))]
    return submodule_from_rows(m, rows)


# ---------------------------------------------------------------------------
# canonical modules
# ---------------------------------------------------------------------------


@memoized
def simple(tbl: AlgebraTable, v: int) -> ModuleRep:
    nv = len(tbl.quiver.vertices)
    if not 0 <= v < nv:
        raise ValueError(f"unknown vertex index {v}")
    dims = tuple(1 if u == v else 0 for u in range(nv))
    mats = [
        tbl.field.zeros(dims[tbl.quiver.arrow_source(a)], dims[tbl.quiver.arrow_target(a)])
        for a in range(len(tbl.quiver.arrows))
    ]
    name = tbl.quiver.vertices[v]
    return ModuleRep(tbl, dims, mats, label=f"S({name})")


@memoized
def projective_paths(tbl: AlgebraTable, v: int) -> tuple:
    """The basis of P(v) = e_v·A by vertex: entry w maps each basis path
    v -> w, in basis order, to its position.  Treat as read-only."""
    nv = len(tbl.quiver.vertices)
    if not 0 <= v < nv:
        raise ValueError(f"unknown vertex index {v}")
    by_target = tuple({} for _ in range(nv))
    for p in tbl.basis_paths_from(v):
        index = by_target[p.target]
        index[p] = len(index)
    return by_target


@memoized
def projective(tbl: AlgebraTable, v: int) -> ModuleRep:
    """e_v·A: vertex spaces spanned by basis paths from v, arrows concatenate.

    Each product p·a of a basis path and an arrow is read off the table's
    ``arrow_products`` record, made while the basis was listed; only a
    product that a rule rewrites to other paths is multiplied out.  The
    blocks are shaped by :func:`projective_paths` and hold 0/1 entries and
    normal-form coefficients, already reduced mod p, so the module is built
    trusted."""
    by_vertex = projective_paths(tbl, v)
    dims = tuple([len(paths) for paths in by_vertex])
    f = tbl.field
    products = tbl.arrow_products
    mats = []
    for a in range(len(tbl.quiver.arrows)):
        src, tgt = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
        mat = f.zeros(dims[src], dims[tgt])
        index = by_vertex[tgt]
        for i, p in enumerate(by_vertex[src]):
            product = products.get((p, a), _MISSING)
            if product is _MISSING:  # a rule rewrites p·a to other paths
                for term, coeff in tbl.multiply_paths(p, Path(src, (a,), tgt)).items():
                    mat[i, index[term]] = coeff
            elif product is not None:
                mat[i, index[product]] = 1
        mats.append(mat)
    name = tbl.quiver.vertices[v]
    return ModuleRep._trusted(tbl, dims, mats, label=f"P({name})")


def dual(m: ModuleRep) -> ModuleRep:
    """The k-dual as a right module over the opposite algebra.

    Same vertex dimensions; the reversed arrow acts by the transpose.
    """
    opp = opposite(m.algebra)
    mats = [m.mats[a].T for a in range(len(m.algebra.quiver.arrows))]
    return ModuleRep._trusted(opp, m.dims, mats)


@memoized
def injective(tbl: AlgebraTable, v: int) -> ModuleRep:
    """D of the opposite algebra's projective at v."""
    name = tbl.quiver.vertices[v]
    mod = dual(projective(opposite(tbl), v)).relabeled(f"I({name})")
    if mod.algebra is not tbl:
        raise InvariantError("the dual of an opposite projective lives over another algebra")
    return mod


def direct_sum(tbl: AlgebraTable, mods: Sequence[ModuleRep]) -> ModuleRep:
    for m in mods:
        if m.algebra is not tbl:
            raise ValueError("direct_sum: algebra mismatch")
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    dims = tuple([sum([m.dims[v] for m in mods]) for v in range(nv)])
    mats = [f.block_diag([m.mats[a] for m in mods]) for a in range(len(tbl.quiver.arrows))]
    return ModuleRep._trusted(tbl, dims, mats)


@memoized
def regular(tbl: AlgebraTable) -> ModuleRep:
    mods = [projective(tbl, v) for v in range(len(tbl.quiver.vertices))]
    return direct_sum(tbl, mods)


@memoized
def dual_regular(tbl: AlgebraTable) -> ModuleRep:
    """D(A) as a right module: the dual of the opposite algebra's regular."""
    return dual(regular(opposite(tbl)))


# ---------------------------------------------------------------------------
# projective sums and maps out of them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjSum:
    """A direct sum of indecomposable projectives with its basis layout.

    ``vertices[j]`` is the source vertex of copy j.  At each vertex w the
    module's basis is the concatenation over copies j of the basis paths
    vertices[j] -> w in basis order, so copy j's path q sits at
    ``first[j][w]`` plus the position of q in
    ``projective_paths(tbl, vertices[j])[w]``.  The trivial path is the
    first basis path v -> v, so copy j's generator sits at
    ``first[j][vertices[j]]``.
    """

    module: ModuleRep
    vertices: tuple
    first: tuple


def proj_sum(tbl: AlgebraTable, vertices: Sequence[int]) -> ProjSum:
    """⊕_j P(vertices[j]) with its basis layout; any sequence of ints."""
    return _proj_sum(tbl, tuple(int(v) for v in vertices))


@memoized
def _proj_sum(tbl: AlgebraTable, vertices: tuple) -> ProjSum:
    projs = [projective(tbl, v) for v in vertices]
    # the sum of one block is that block
    module = projs[0] if len(projs) == 1 else direct_sum(tbl, projs)
    first = []
    at = (0,) * len(tbl.quiver.vertices)
    for pv in projs:
        first.append(at)
        at = tuple([a + d for a, d in zip(at, pv.dims)])
    return ProjSum(module, vertices, tuple(first))


def _yoneda_maps(ps: ProjSum, target: ModuleRep, starts: dict, k: int) -> list:
    """k maps ps.module -> target side by side, by Yoneda: a map out of a
    sum of projectives is fixed by the images of its generators.

    ``starts[u]`` stacks the k generator images of each copy of P(u), in
    copy order: rows of target at u, reduced mod p.  At each vertex w the
    result is a (ps.module.dims[w], k·target.dims[w]) matrix; the row of
    copy j's basis path q holds q's images under the k maps, copy j's
    generator images times the action of q.  The copies of one vertex go
    through its basis paths together, each path one product from its
    prefix (see :func:`_path_actions`).
    """
    tbl = target.algebra
    mats = [tbl.field.zeros(d, k * target.dims[w]) for w, d in enumerate(ps.module.dims)]
    for u, start in starts.items():
        first = [ps.first[j] for j, v in enumerate(ps.vertices) if v == u]
        index = projective_paths(tbl, u)
        for path, acted in _path_actions(target, start, tbl.basis_paths_from(u)).items():
            w = path.target
            i = index[w][path]
            rows = acted.reshape(len(first), k * target.dims[w])
            for r, at in enumerate(first):
                mats[w][at[w] + i] = rows[r]
    return mats


def _split_by_copy(ps: ProjSum, coords: np.ndarray, dims) -> dict:
    """The ``starts`` of :func:`_yoneda_maps` for k = len(coords) maps given
    in generator coordinates: copy j owns the next dims[vertices[j]]
    columns of ``coords``, and the blocks of the copies of each vertex u
    are stacked in copy order."""
    bounds = np.cumsum([0] + [dims[u] for u in ps.vertices])
    blocks = {}
    for j, u in enumerate(ps.vertices):
        blocks.setdefault(u, []).append(coords[:, bounds[j] : bounds[j + 1]])
    return {u: np.concatenate(b) for u, b in blocks.items()}


def projsum_morphism(ps: ProjSum, target: ModuleRep, gen_rows) -> ModuleMorphism:
    """The unique morphism ps.module -> target sending copy j's generator to
    the row vector gen_rows[j] (an element of target at vertices[j])."""
    p = target.algebra.field.p
    starts = {}
    for u in dict.fromkeys(ps.vertices):
        rows = [np.asarray(gen_rows[j], dtype=np.int64).reshape(-1)
                for j, v in enumerate(ps.vertices) if v == u]
        starts[u] = np.array(rows, dtype=np.int64).reshape(len(rows), target.dims[u]) % p
    return ModuleMorphism._trusted(ps.module, target, _yoneda_maps(ps, target, starts, 1))


def yoneda_block(ps: ProjSum, n: ModuleRep) -> np.ndarray:
    """Hom(ps.module, n) from generator coordinates to flattened morphisms,
    by Yoneda.

    Hom(⊕_j P(u_j), N) = ⊕_j N_{u_j}: row r of the block is the morphism
    sending generator coordinate r to 1 and the others to 0, that is the
    :func:`_yoneda_maps` of the identity coordinates, each flattened.  So
    a vector c of generator coordinates is the morphism ``c @ block``.
    """
    k = sum([n.dims[u] for u in ps.vertices])
    maps = _yoneda_maps(ps, n, _split_by_copy(ps, n.algebra.field.eye(k), n.dims), k)
    return np.concatenate([
        g.reshape(len(g), k, d).transpose(1, 0, 2).reshape(k, len(g) * d)
        for g, d in zip(maps, n.dims)
    ], axis=1)


def projsum_hom_rows(ps: ProjSum, n: ModuleRep) -> np.ndarray:
    """The flattened rows of ``_hom_rows(ps.module, n)``, by Yoneda.

    The rows of :func:`yoneda_block` span the Hom space, and the canonical
    kernel basis that :func:`_hom_rows` returns is the unique basis of that
    space which is the identity on its free columns, the columns that are
    last nonzero entries of some vector.  Those are the pivots of the rref
    with the columns reversed, so reversing that rref's rows and columns
    gives the same rows.
    """
    r, pivots = n.algebra.field.rref(yoneda_block(ps, n)[:, ::-1])
    return np.ascontiguousarray(r[: len(pivots)][::-1, ::-1])


def projsum_map_elements(ps_src: ProjSum, ps_tgt: ProjSum, d: ModuleMorphism):
    """Decode a morphism between projective sums into algebra elements.

    Returns elements[t][s] in e_{V(t)}·A·e_{U(s)} (V = ps_tgt.vertices,
    U = ps_src.vertices) with d(gen_s) = sum_t gen_t · elements[t][s].
    """
    tbl = ps_tgt.module.algebra
    out = [[{} for _ in ps_src.vertices] for _ in ps_tgt.vertices]
    for s, u in enumerate(ps_src.vertices):
        row = d.mats[u][ps_src.first[s][u]]
        for t, v in enumerate(ps_tgt.vertices):
            at = ps_tgt.first[t][u]
            for path, i in projective_paths(tbl, v)[u].items():
                c = int(row[at + i])
                if c:
                    out[t][s][path] = c
    return out


def projsum_map_from_elements(ps_src: ProjSum, ps_tgt: ProjSum, elements) -> ModuleMorphism:
    """Inverse of projsum_map_elements: rebuild the morphism from elements.

    For a basis path p, gen_t · p is the basis vector at label (t, p), so
    the image of gen_s is read off the normal forms of the elements[t][s].
    """
    tbl = ps_tgt.module.algebra
    gen_rows = []
    for s, u in enumerate(ps_src.vertices):
        row = tbl.field.zeros(1, ps_tgt.module.dims[u])[0]
        for t, v in enumerate(ps_tgt.vertices):
            el = elements[t][s]
            for path in el:
                if path.source != v or path.target != u:
                    raise ValueError(f"element path {path} does not run {v} -> {u}")
            index = projective_paths(tbl, v)[u]
            for path, c in tbl.normal_form(el).items():
                row[ps_tgt.first[t][u] + index[path]] = c
        gen_rows.append(row)
    return projsum_morphism(ps_src, ps_tgt.module, gen_rows)


# ---------------------------------------------------------------------------
# covers and hulls
# ---------------------------------------------------------------------------


@memoized
def top_vertices(m: ModuleRep) -> tuple:
    """The top of m as vertices: each v, in vertex order, dim m_v − rank of
    the stacked actions of the arrows into v times, since their row space
    is the radical at v.  The projective cover is the sum of the P(v) over
    this list, so projectivity and tops are read here, with no cover built.
    Kept per module signature."""
    f = m.algebra.field
    out = []
    for v, d in enumerate(m.dims):
        if d:
            out += [v] * (d - f.rank(_arrow_actions_into(m, v)))
    return tuple(out)


@memoized
def socle_vertices(m: ModuleRep) -> tuple:
    """The socle of m as vertices: each v, in vertex order, dim m_v − rank of
    the actions of the arrows out of v side by side times, since their left
    kernel is the socle at v.  The twin of :func:`top_vertices`, and equal
    to ``top_vertices(dual(m))`` with no dual or opposite algebra built: the
    injective envelope of m is the sum of the I(v) over this list.  Kept per
    module signature."""
    f = m.algebra.field
    out = []
    for v, d in enumerate(m.dims):
        if d:
            out += [v] * (d - f.rank(_arrow_actions_from(m, v)))
    return tuple(out)


@memoized
def _injective_dims(tbl: AlgebraTable) -> tuple:
    """dim I(v) for each vertex v, the number of basis paths ending at v;
    kept per table."""
    dims = [0] * len(tbl.quiver.vertices)
    for path in tbl.basis:
        dims[path.target] += 1
    return tuple(dims)


@memoized
def _projective_injective_tops(tbl: AlgebraTable) -> tuple:
    """The vertices u with P(u) injective, in vertex order, kept per table."""
    return tuple(u for u in range(len(tbl.quiver.vertices)) if is_injective(projective(tbl, u)))


def is_selfinjective(tbl: AlgebraTable) -> bool:
    """Whether A_A is injective: whether every P(u) is, read off the table."""
    return len(_projective_injective_tops(tbl)) == len(tbl.quiver.vertices)


@memoized
def _projective_injective_socles(tbl: AlgebraTable) -> frozenset:
    """The vertices v with I(v) projective, kept per table.

    An injective P(u) is indecomposable, so it is I(v) for its one socle
    vertex v; and a projective I(v) is some P(u), then injective.  So these
    are the socle vertices of the injective P(u), and no I(v) is built."""
    return frozenset([socle_vertices(projective(tbl, u))[0] for u in _projective_injective_tops(tbl)])


@memoized
def proj_cover(m: ModuleRep) -> tuple:
    """(P, cover) with P = ⊕ P(v) over :func:`top_vertices`; ker(cover) ⊆ rad P:
    one step of the minimal projective resolution of m.

    The copies of P(v) are the non-pivot columns of the stacked actions of
    the arrows into v, and each sends its generator to that standard basis
    vector of m_v, the canonical section of the top projection.  Kept once
    per module signature, so the cover may target a bit-identical module
    other than m; like every memoised result it is shared, so nothing in it
    may be changed.  The kernel of the cover is :func:`omega`, built only
    when read.
    """
    tbl = m.algebra
    f = tbl.field
    vertices = top_vertices(m)
    starts = {}
    for v in dict.fromkeys(vertices):
        free = np.ones(m.dims[v], dtype=bool)
        free[list(f.pivot_columns(_arrow_actions_into(m, v)))] = False
        starts[v] = f.eye(m.dims[v])[free]
    ps = proj_sum(tbl, vertices)
    return ps, ModuleMorphism._trusted(ps.module, m, _yoneda_maps(ps, m, starts, 1))


@memoized
def omega(m: ModuleRep) -> tuple:
    """(Ω m, inclusion): the kernel of the shared cover of m, kept once per
    module signature."""
    return kernel(proj_cover(m)[1])


def inj_hull(m: ModuleRep) -> tuple:
    """(I, embedding): the dual of the opposite-side projective cover."""
    ps, cover = proj_cover(dual(m))
    hull = dual(ps.module)
    embedding = ModuleMorphism(m, hull, [b.T for b in cover.mats])
    return hull, embedding


def is_projective(m: ModuleRep) -> bool:
    """Whether m is projective: its cover ⊕ P(v) over :func:`top_vertices`
    maps onto m, so it is an isomorphism exactly when the dimensions agree.
    No cover is built."""
    paths_from = m.algebra.basis_paths_from
    return sum([len(paths_from(v)) for v in top_vertices(m)]) == m.total_dim


def is_injective(m: ModuleRep) -> bool:
    """Whether m is injective: m embeds in its injective envelope ⊕ I(v)
    over :func:`socle_vertices`, so it is injective exactly when the
    dimensions agree.  No dual module or opposite algebra is built."""
    dims = _injective_dims(m.algebra)
    return sum([dims[v] for v in socle_vertices(m)]) == m.total_dim


# ---------------------------------------------------------------------------
# certified indecomposables and isomorphism testing
# ---------------------------------------------------------------------------

# Seeded random endomorphisms tried on a module before its split is given up.
# Their coefficients come from the standard library's ``random.Random``: the
# Krull–Schmidt splitter then never imports ``numpy.random``, a few ms in each
# fresh process, which only the seeded module sample needs.
_SPLIT_TRIALS = 16


@dataclass(frozen=True)
class Indecomposable:
    """A module with a certificate that End(module) is local with residue
    field k: ``rad_end`` is a basis of rad End(module), the endomorphisms of
    trace 0.  Made by :func:`certify_local`."""

    module: ModuleRep
    rad_end: tuple


def _vertex_blocks(rows: np.ndarray, m: ModuleRep, n: ModuleRep) -> list:
    """Flattened morphisms m -> n (rows) as one (count, m_v, n_v) array per
    vertex."""
    out, at = [], 0
    for dm, dn in zip(m.dims, n.dims):
        out.append(rows[:, at : at + dm * dn].reshape(len(rows), dm, dn))
        at += dm * dn
    return out


@memoized
def _end_rows(m: ModuleRep) -> np.ndarray:
    """``_hom_rows(m, m)``, a basis of End(m), kept per module signature:
    :func:`certify_local` and :func:`_fitting_split` both read them."""
    return _hom_rows(m, m)


def certify_local(m: ModuleRep) -> Optional[Indecomposable]:
    """m with a basis of rad End(m), or None when the certificate fails.

    With p ∤ dim m the trace is a nonzero functional on End(m) (tr 1 =
    dim m), so R = {f : tr f = 0} has codimension 1 and End(m) = k·1 ⊕ R.
    When every product of dim m elements of R is 0, R is nilpotent, so each
    endomorphism λ·1 + r is invertible or (λ = 0) nilpotent: End(m) is local
    with residue field k, m is indecomposable and R = rad End(m).  The
    products are spanned degree by degree, R^{j+1} = R^j·R, from the vertex
    blocks; a degree equal to the one before never shrinks again.  None for
    the zero module, for p | dim m, and when R is not nilpotent (m is then
    decomposable).  A product of nonzero trace refuses at once: when R is
    nilpotent every product in it is nilpotent, of trace 0, so only a
    module the chain would refuse is refused earlier.
    """
    f = m.algebra.field
    n = m.total_dim
    if n == 0 or n % f.p == 0:
        return None
    rows = _end_rows(m)
    traces = sum(np.trace(b, axis1=1, axis2=2) for b in _vertex_blocks(rows, m, m)) % f.p
    rad = f.mul(f.left_kernel_basis(traces.reshape(-1, 1)), rows)
    rad_blocks = _vertex_blocks(rad, m, m)
    power = f.row_space_basis(rad)
    for _ in range(n - 1):
        if not len(power):
            break
        products = [
            np.matmul(a[:, None], b[None]).reshape(len(a) * len(b), -1) % f.p
            for a, b in zip(_vertex_blocks(power, m, m), rad_blocks)
        ]
        traces = sum(prod[:, :: d + 1].sum(axis=1) for prod, d in zip(products, m.dims))
        if np.any(traces % f.p):  # a product that is not nilpotent
            return None
        nxt = f.row_space_basis(np.concatenate(products, axis=1))
        if np.array_equal(nxt, power):
            return None
        power = nxt
    if len(power):
        return None
    return Indecomposable(m, tuple(morphism_from_flat(m, m, r) for r in rad))


def isomorphic_to(m: ModuleRep, ind: Indecomposable) -> bool:
    """Whether m is isomorphic to the certified indecomposable Z = ind.module;
    never undecided.

    m ≅ Z iff some basis vector of Hom(m, Z) is invertible at every vertex.
    Given an isomorphism φ: m → Z, Hom(m, Z) = φ·End(Z) = k·φ ⊕ φ·rad End(Z)
    by the certificate (End(Z) local with residue field k), and φ·(λ + r)
    is invertible iff λ ≠ 0.  So the maps that are not isomorphisms form a
    hyperplane, which no basis lies in.  One Hom system is solved, after
    tops and socles (:func:`top_vertices`, :func:`socle_vertices`), which
    isomorphic modules share, are compared.
    """
    z = ind.module
    if m.dims != z.dims or top_vertices(m) != top_vertices(z):
        return False
    if socle_vertices(m) != socle_vertices(z):
        return False
    f = m.algebra.field
    rows = _hom_rows(m, z)
    return any(
        all(f_rank_full(f, block) for block in blocks)
        for blocks in zip(*_vertex_blocks(rows, m, z))
    )


def _charpoly(a: np.ndarray, p: int) -> list:
    """Coefficients (constant term first) of det(x·1 − a) over GF(p): a is
    brought to upper Hessenberg form by similarities, then expanded along
    its last column, one leading block at a time."""
    n = len(a)
    h = a.tolist()
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:  # conjugate by the transposition of rows/columns piv, j+1
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            t = h[i][j] * inv % p
            if t:  # row i -= t·row j+1, then column j+1 += t·column i
                h[i] = [(x - t * y) % p for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] = (row[j + 1] + t * row[i]) % p
    polys = [[1]]  # polys[k]: characteristic polynomial of the leading k x k block
    for k in range(1, n + 1):
        prev = polys[k - 1]
        nxt = [0] + prev  # x·polys[k-1]
        for d, c in enumerate(prev):
            nxt[d] = (nxt[d] - h[k - 1][k - 1] * c) % p
        sub = 1  # product of the subdiagonal entries h[i][i-1] for i = k-1 down to t+1
        for t in range(k - 2, -1, -1):
            sub = sub * h[t + 1][t] % p
            coeff = h[t][k - 1] * sub % p
            if coeff:
                for d, c in enumerate(polys[t]):
                    nxt[d] = (nxt[d] - coeff * c) % p
        polys.append(nxt)
    return polys[n]


def _eigenvalue(blocks, p: int) -> Optional[int]:
    """The least λ in GF(p) that is an eigenvalue of some block, or None."""
    xs = np.arange(p, dtype=np.int64)
    for b in blocks:
        if not len(b):
            continue
        values = np.zeros(p, dtype=np.int64)
        for c in reversed(_charpoly(b, p)):  # Horner at every x at once
            values = (values * xs + c) % p
        roots = np.flatnonzero(values == 0)
        if roots.size:
            return int(roots[0])
    return None


def _fitting_split(m: ModuleRep, rng) -> Optional[tuple]:
    """(K, I) with m = K ⊕ I both nonzero, or None when no trial splits m.

    Fitting's lemma: for an endomorphism φ and ψ = φ − λ·1, m = ker ψ^N ⊕
    im ψ^N with N = dim m, vertexwise, and ψ_v^{d_v} already has the final
    kernel and image at v.  With λ an eigenvalue of φ the kernel is nonzero;
    it is all of m exactly when ψ is nilpotent, and then the next seeded
    random φ is tried.
    """
    f = m.algebra.field
    rows = _end_rows(m)
    for _ in range(_SPLIT_TRIALS):
        coeffs = np.array([rng.randrange(f.p) for _ in range(len(rows))], dtype=np.int64)
        phi = morphism_from_flat(m, m, coeffs @ rows % f.p)
        lam = _eigenvalue(phi.mats, f.p)
        if lam is None:
            continue
        powers = []
        for block, d in zip(phi.mats, m.dims):
            psi = f.add(block, f.scale(-lam, f.eye(d)))
            power = f.eye(d)
            for _ in range(d):
                power = f.mul(power, psi)
            powers.append(power)
        kernels = [f.left_kernel_basis(b) for b in powers]
        if sum(len(k) for k in kernels) < m.total_dim:
            images = [f.row_space_basis(b) for b in powers]
            return submodule_from_rows(m, kernels)[0], submodule_from_rows(m, images)[0]
    return None


def indecomposable_summands(m: ModuleRep, listed=()) -> Optional[list]:
    """A Krull–Schmidt decomposition of m into certified indecomposables,
    one record per isomorphism class, or None when a summand stays
    uncertified.

    A summand isomorphic to one of ``listed`` (certified indecomposables,
    :func:`isomorphic_to`) or to a summand already certified in this call
    is returned as that record; any other is certified by
    :func:`certify_local`, or else split by :func:`_fitting_split` and its
    parts decomposed in turn, kernel part first.  ``listed`` itself is not
    changed.  The random endomorphisms, drawn from ``random.Random(0)``
    afresh in each call, only look for splits: every summand returned
    carries a certificate, and a decomposable or (p | dim) uncertifiable
    summand that no trial splits gives None, never an uncertified answer.
    """
    rng = random.Random(0)
    known = list(listed)
    out, todo = [], [m] if m.total_dim else []
    while todo:
        part = todo.pop()
        cert = next((ind for ind in known if isomorphic_to(part, ind)), None)
        if cert is None:
            cert = certify_local(part)
            if cert is None:
                halves = _fitting_split(part, rng)
                if halves is None:
                    return None
                todo.extend(reversed(halves))
                continue
            known.append(cert)
        out.append(cert)
    return out


def is_isomorphic(m: ModuleRep, n: ModuleRep) -> Optional[bool]:
    """True / False / None (undetermined), by Krull–Schmidt: m ≅ n iff
    their indecomposable summands match one to one up to isomorphism
    (Assem–Simson–Skowroński, *Elements* vol. 1, Ch. I.4).

    Dims and tops (:func:`top_vertices`) are compared first.  Then m is
    decomposed by :func:`indecomposable_summands`, one record per
    isomorphism class, and n is decomposed with those records listed, so a
    summand of n isomorphic to one comes back as that very record: m ≅ n
    iff both decompositions hold each record equally often.  None only when
    a summand of m or n cannot be certified, never a guess.
    """
    if m.algebra is not n.algebra:
        raise ValueError("is_isomorphic: algebra mismatch")
    if m.dims != n.dims or top_vertices(m) != top_vertices(n):
        return False
    summands = indecomposable_summands(m)
    if summands is None:
        return None
    found = indecomposable_summands(n, {id(s): s for s in summands}.values())
    if found is None:
        return None
    return Counter(map(id, summands)) == Counter(map(id, found))


# ---------------------------------------------------------------------------
# indecomposables and sampling
# ---------------------------------------------------------------------------


@memoized
def nakayama_indecomposables(tbl: AlgebraTable):
    """Every indecomposable of a Nakayama algebra, or None for other quivers.

    The quiver is Nakayama when at most one arrow enters and at most one
    leaves each vertex.  Then every indecomposable is uniserial, isomorphic
    to exactly one P(v)/rad^l P(v) with 1 <= l <= c_v = dim P(v)
    (Assem–Simson–Skowroński, *Elements* vol. 1, Ch. V).  Returns
    ``(v, l, module)`` triples by vertex, then length; each module is the
    cokernel of rad^l P(v) -> P(v), for l up to the Loewy length of P(v).
    The certificate is checked: each module has dimension l and top S(v),
    and there are Σ c_v = dim A of them.
    """
    q = tbl.quiver
    nv = len(q.vertices)
    if any(len(q.arrows_into(v)) > 1 or len(q.arrows_from(v)) > 1 for v in range(nv)):
        return None
    out = []
    for v in range(nv):
        name = q.vertices[v]
        sub, incl = radical(projective(tbl, v))
        for length in itertools.count(1):
            mod = cokernel(incl)[0].relabeled(f"P({name})/rad^{length}")
            if mod.total_dim != length or top_vertices(mod) != (v,):
                raise InvariantError(
                    f"P({name})/rad^{length} is not uniserial of length {length} "
                    f"with top S({name}): dims {mod.dims}"
                )
            out.append((v, length, mod))
            if sub.is_zero:
                break
            sub, inner = radical(sub)
            incl = inner.compose(incl)
    if len(out) != tbl.dimension:
        raise InvariantError(f"{len(out)} uniserials on an algebra of dimension {tbl.dimension}")
    return tuple(out)


@memoized
def sample_modules(tbl: AlgebraTable, seed: int = 0, size: int = 64) -> tuple:
    """Deterministic-in-seed module sample; see the contract in the README.

    ``ardom grade --sample-index`` reads it, and ``verify`` checks it only
    where it cannot list every indecomposable: on an algebra that is not
    Nakayama (:func:`nakayama_indecomposables`) and whose AR quiver does not
    knit within the sample size (``ardom.arseq.knit_indecomposables``).

    Always includes (in order): simples, projectives, injectives, radicals
    and tops of projectives, syzygies and cosyzygies of simples to depth 3;
    then random cokernels of random morphisms between projective sums, until
    ``size`` entries.  Each random morphism is a random combination of the
    Yoneda rows of :func:`projsum_hom_rows`, which equal the
    :func:`_hom_rows` rows, so no Hom system is solved.  Zero modules are
    dropped, duplicates (bit-identical representations) appear once.  The
    sample is computed once per table and arguments.  The entries that are
    not S(v), P(v) or I(v) are named copies: ``rad(P(v))``, ``top(P(v))``,
    ``syz^d(S_v)``, ``cosyz^d(S_v)`` and ``sample[i]``.
    """
    nv = len(tbl.quiver.vertices)
    f = tbl.field
    out = []
    seen = set()

    def push(mod, label=None):
        if mod.is_zero or len(out) >= size:
            return
        sig = mod.signature()
        if sig in seen:
            return
        seen.add(sig)
        out.append(mod.relabeled(label) if label else mod)

    for v in range(nv):
        push(simple(tbl, v))
    for v in range(nv):
        push(projective(tbl, v))
    for v in range(nv):
        push(injective(tbl, v))
    for v, name in enumerate(tbl.quiver.vertices):
        push(radical(projective(tbl, v))[0], label=f"rad(P({name}))")
        push(top(projective(tbl, v))[0], label=f"top(P({name}))")
    for v in range(nv):
        mod = simple(tbl, v)
        for depth in range(1, 4):
            mod = omega(mod)[0]
            push(mod, label=f"syz^{depth}(S_{tbl.quiver.vertices[v]})")
            if mod.is_zero:
                break
    for v in range(nv):
        mod = simple(tbl, v)
        for depth in range(1, 4):
            _, emb = inj_hull(mod)
            mod = cokernel(emb)[0]
            push(mod, label=f"cosyz^{depth}(S_{tbl.quiver.vertices[v]})")
            if mod.is_zero:
                break

    rng = np.random.default_rng(seed)
    attempts = 0
    hom_rows = {}  # (verts0, verts1) -> (source sum, target module, Yoneda rows)
    while len(out) < size and attempts < 40 * size:
        attempts += 1
        mult0 = rng.integers(0, 3, size=nv)
        mult1 = rng.integers(0, 3, size=nv)
        verts0 = tuple(v for v in range(nv) for _ in range(mult0[v]))
        verts1 = tuple(v for v in range(nv) for _ in range(mult1[v]))
        if not verts0 or not verts1:
            continue
        if (verts0, verts1) not in hom_rows:
            ps = proj_sum(tbl, verts0)
            tgt = proj_sum(tbl, verts1).module
            hom_rows[verts0, verts1] = ps, tgt, projsum_hom_rows(ps, tgt)
        ps, tgt, rows = hom_rows[verts0, verts1]
        if rows.shape[0] == 0:
            continue
        coeffs = rng.integers(0, f.p, size=rows.shape[0])
        fmor = morphism_from_flat(ps.module, tgt, coeffs @ rows % f.p)
        push(cokernel(fmor)[0], label=f"sample[{len(out)}]")
    return tuple(out)


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


class ModuleFileError(InputError):
    """A malformed module file, or one whose module breaks the relations."""


# The most matrix entries, Σ over arrows of dims[src]·dims[tgt] plus Σ over
# vertices of dims[v]², that a module file's dims line may imply: omitted
# arrows become zero blocks, and the cover builds an identity at each vertex.
MAX_MODULE_ENTRIES = 10**6


def parse_module(text: str, tbl: AlgebraTable, label: str = "module") -> ModuleRep:
    """Parse the module file format (see docs/formats.md).

      dims <d_1> ... <d_n>        # one entry per vertex, in table order
      arrow <name> <entries...>   # row-major dims[src] x dims[tgt] block
    Lines and tokens are split by :func:`~ardom.algebra.input_lines`.
    Arrows with zero-sized or all-zero matrices may be omitted.  A dims
    line that implies more than ``MAX_MODULE_ENTRIES`` entries is refused.
    """
    dims = None
    mats = {}
    q = tbl.quiver

    for lineno, toks in input_lines(text, ModuleFileError):
        if toks[0] == "dims":
            if dims is not None:
                raise ModuleFileError("duplicate dims line", lineno)
            if len(toks) != len(q.vertices) + 1:
                raise ModuleFileError(f"expected {len(q.vertices)} dimensions", lineno)
            try:
                dims = tuple(map(ascii_int, toks[1:]))
            except ValueError:
                raise ModuleFileError("dimensions must be integers", lineno) from None
            if any(d < 0 for d in dims):
                raise ModuleFileError("negative dimension", lineno)
            implied = sum([dims[q.arrow_source(a)] * dims[q.arrow_target(a)] for a in range(len(q.arrows))])
            implied += sum([d * d for d in dims])
            if implied > MAX_MODULE_ENTRIES:
                raise ModuleFileError(
                    f"dims imply {implied} matrix entries, more than {MAX_MODULE_ENTRIES}", lineno
                )
        elif toks[0] == "arrow":
            if dims is None:
                raise ModuleFileError("dims line must come first", lineno)
            if len(toks) < 2:
                raise ModuleFileError("arrow line needs a name", lineno)
            name = toks[1]
            if name not in q.arrow_index:
                raise ModuleFileError(f"unknown arrow {name!r}", lineno)
            a = q.arrow_index[name]
            if a in mats:
                raise ModuleFileError(f"duplicate arrow {name!r}", lineno)
            r, c = dims[q.arrow_source(a)], dims[q.arrow_target(a)]
            entries = toks[2:]
            if len(entries) != r * c:
                raise ModuleFileError(
                    f"arrow {name!r} needs {r * c} entries, got {len(entries)}", lineno
                )
            try:
                # reduce as Python ints: entries may exceed the int64 range
                vals = [ascii_int(t) % tbl.field.p for t in entries]
            except ValueError:
                raise ModuleFileError("entries must be integers", lineno) from None
            mats[a] = np.array(vals, dtype=np.int64).reshape(r, c)
        else:
            raise ModuleFileError(f"unknown directive {toks[0]!r}", lineno)
    if dims is None:
        raise ModuleFileError("missing dims line")
    full = []
    f = tbl.field
    for a in range(len(q.arrows)):
        r, c = dims[q.arrow_source(a)], dims[q.arrow_target(a)]
        full.append(mats[a] if a in mats else f.zeros(r, c))
    mod = ModuleRep(tbl, dims, full, label=label)
    problem = validate(mod)
    if problem is not None:
        raise ModuleFileError(f"module does not satisfy the algebra relations: {problem}")
    return mod


def serialize_module(m: ModuleRep) -> str:
    q = m.algebra.quiver
    lines = ["dims " + " ".join(str(d) for d in m.dims)]
    for a in range(len(q.arrows)):
        mat = m.mats[a]
        if mat.size and np.any(mat):
            lines.append(
                "arrow " + q.arrows[a][0] + " " + " ".join(str(int(x)) for x in mat.reshape(-1))
            )
    return "\n".join(lines) + "\n"
