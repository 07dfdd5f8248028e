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

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .algebra import AlgebraTable, Path, opposite

__all__ = [
    "ModuleRep",
    "ModuleMorphism",
    "HomBasis",
    "Factorization",
    "RST",
    "ProjSum",
    "validate",
    "simple",
    "projective",
    "injective",
    "regular",
    "dual_regular",
    "hom_basis",
    "factorize",
    "rst",
    "proj_cover",
    "inj_hull",
    "is_projective",
    "is_injective",
    "dual",
    "dual_morphism",
    "direct_sum",
    "is_isomorphic",
    "sample_modules",
    "zero_module",
    "identity_morphism",
    "zero_morphism",
    "sum_inclusions",
    "submodule_from_rows",
    "quotient_by_rows",
    "proj_sum",
    "projsum_morphism",
    "projsum_map_elements",
    "projsum_map_from_elements",
    "left_mult_morphism",
    "parse_module",
    "serialize_module",
    "ModuleFileError",
]


class ModuleRep:
    """A right module presented vertexwise.  Treat as immutable."""

    __slots__ = ("algebra", "dims", "mats", "label", "_memo")

    def __init__(self, algebra: AlgebraTable, dims, mats, label: str = ""):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        fixed = []
        for a, m in enumerate(mats):
            src = algebra.quiver.arrow_source(a)
            tgt = algebra.quiver.arrow_target(a)
            m = np.asarray(m, dtype=np.int64)
            if m.size == 0:
                m = m.reshape(self.dims[src], self.dims[tgt])
            assert m.shape == (self.dims[src], self.dims[tgt]), (
                f"arrow {algebra.quiver.arrows[a][0]}: matrix shape {m.shape} != "
                f"({self.dims[src]}, {self.dims[tgt]})"
            )
            fixed.append(np.mod(m, algebra.field.p))
        self.mats = tuple(fixed)
        self.label = label
        self._memo = {}

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    @property
    def is_zero(self) -> bool:
        return self.total_dim == 0

    def path_matrix(self, path: Path) -> np.ndarray:
        """Action of a path as a dims[source] x dims[target] matrix."""
        f = self.algebra.field
        out = f.eye(self.dims[path.source])
        for a in path.arrows:
            out = f.mul(out, self.mats[a])
        return out

    def element_matrix(self, element: dict, source: int, target: int) -> np.ndarray:
        """Action of an algebra element whose paths all run source -> target."""
        f = self.algebra.field
        out = f.zeros(self.dims[source], self.dims[target])
        for path, coeff in element.items():
            assert path.source == source and path.target == target
            out = f.add(out, f.scale(coeff, self.path_matrix(path)))
        return out

    def signature(self) -> tuple:
        """Hashable structural identity (used for dedup, caching)."""
        return (id(self.algebra), self.dims, tuple(m.tobytes() for m in self.mats))

    def __repr__(self):
        name = self.label or "module"
        return f"<{name} dims={self.dims} over {self.algebra.label}>"


def zero_module(tbl: AlgebraTable, label: str = "0") -> ModuleRep:
    nv = len(tbl.quiver.vertices)
    dims = (0,) * nv
    mats = [tbl.field.zeros(0, 0) for _ in tbl.quiver.arrows]
    return ModuleRep(tbl, dims, mats, label=label)


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
        assert source.algebra is target.algebra, "algebra mismatch"
        self.source = source
        self.target = target
        fixed = []
        for v, m in enumerate(mats):
            m = np.asarray(m, dtype=np.int64)
            if m.size == 0:
                m = m.reshape(source.dims[v], target.dims[v])
            assert m.shape == (source.dims[v], target.dims[v]), (
                f"vertex {v}: morphism block {m.shape} != "
                f"({source.dims[v]}, {target.dims[v]})"
            )
            fixed.append(np.mod(m, source.algebra.field.p))
        self.mats = tuple(fixed)

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
        assert self.target is other.source or self.target.dims == other.source.dims
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


@dataclass(frozen=True)
class HomBasis:
    source: ModuleRep
    target: ModuleRep
    morphisms: tuple

    @property
    def dim(self) -> int:
        return len(self.morphisms)

    def combo(self, coeffs: Sequence[int]) -> ModuleMorphism:
        f = self.source.algebra.field
        out = zero_morphism(self.source, self.target)
        for c, g in zip(coeffs, self.morphisms):
            if c % f.p:
                out = out.add(g.scale(c))
        return out


def hom_basis(m: ModuleRep, n: ModuleRep) -> HomBasis:
    """Basis of Hom_A(m, n) as the kernel of one assembled linear system.

    Unknowns are the stacked row-major entries of all f_v; each arrow
    a: v -> w contributes the block equation M_a @ f_w - f_v @ N_a = 0,
    encoded with Kronecker products for the row-major vec convention
    vec(A @ X @ B) = (A kron B^T) vec(X).
    """
    if m.algebra is not n.algebra:
        raise ValueError("hom_basis: modules live over different algebras")
    f = m.algebra.field
    q = m.algebra.quiver
    nv = len(q.vertices)
    sizes = [m.dims[v] * n.dims[v] for v in range(nv)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    total = int(offsets[-1])
    rows = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        r = m.dims[v] * n.dims[w]
        if r == 0:
            continue
        # equation row (i, j) of block a, i < m.dims[v] and j < n.dims[w]
        block = f.zeros(r, total)
        i = np.arange(m.dims[v])[:, None, None]
        j = np.arange(n.dims[w])[None, :, None]
        eq = i * n.dims[w] + j
        if sizes[w]:
            # M_a kron I: unknown (s, j) of f_w with coefficient M_a[i, s]
            s = np.arange(m.dims[w])[None, None, :]
            block[eq, offsets[w] + s * n.dims[w] + j] = m.mats[a][:, None, :]
        if sizes[v]:
            # I kron N_a^T: unknown (i, l) of f_v with coefficient -N_a[l, j]
            l = np.arange(n.dims[v])[None, None, :]
            block[eq, offsets[v] + i * n.dims[v] + l] -= n.mats[a].T[None, :, :]
        rows.append(block % f.p)
    system = np.concatenate(rows, axis=0) if rows else f.zeros(0, total)
    kernel = f.kernel_basis(system)
    morphisms = tuple(morphism_from_flat(m, n, row) for row in kernel)
    return HomBasis(m, n, morphisms)


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


def submodule_from_rows(m: ModuleRep, rows_per_vertex, label: str = "") -> tuple:
    """(S, inclusion) for the submodule spanned by the given rows.

    The rows at each vertex must be linearly independent and the span must
    be closed under every arrow action (asserted).
    """
    f = m.algebra.field
    q = m.algebra.quiver
    basis = [_as_row_block(b, m.dims[v], f.p) for v, b in enumerate(rows_per_vertex)]
    dims = [b.shape[0] for b in basis]
    mats = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        acted = f.mul(basis[v], m.mats[a])
        coords = f.coords_in_rowspace(basis[w], acted)
        assert coords is not None, "rows do not span a submodule"
        mats.append(coords)
    sub = ModuleRep(m.algebra, dims, mats, label=label)
    incl = ModuleMorphism(sub, m, basis)
    return sub, incl


def quotient_by_rows(m: ModuleRep, rows_per_vertex, label: str = "") -> tuple:
    """(Q, projection) for the quotient of m by the span of the given rows."""
    f = m.algebra.field
    q = m.algebra.quiver
    quots = []
    for v in range(len(m.dims)):
        rows = _as_row_block(rows_per_vertex[v], m.dims[v], f.p)
        quots.append(f.quotient_by_rowspace(rows, m.dims[v]))
    dims = [qt.dim for qt in quots]
    mats = []
    for a in range(len(q.arrows)):
        v, w = q.arrow_source(a), q.arrow_target(a)
        mats.append(f.mul(f.mul(quots[v].section, m.mats[a]), quots[w].proj))
    quo = ModuleRep(m.algebra, dims, mats, label=label)
    proj = ModuleMorphism(m, quo, [qt.proj for qt in quots])
    return quo, proj


@dataclass(frozen=True)
class Factorization:
    kernel: ModuleRep
    kernel_inclusion: ModuleMorphism
    image: ModuleRep
    image_inclusion: ModuleMorphism  # image -> target
    image_projection: ModuleMorphism  # source ->> image
    cokernel: ModuleRep
    cokernel_projection: ModuleMorphism


def factorize(fmor: ModuleMorphism) -> Factorization:
    """Vertexwise kernel/image/cokernel with the induced arrow actions."""
    f = fmor.field
    m, n = fmor.source, fmor.target
    ker_rows = [f.left_kernel_basis(fmor.mats[v]) for v in range(len(m.dims))]
    kernel, ker_incl = submodule_from_rows(m, ker_rows, label=f"ker({m.label})")
    im_rows = [f.row_space_basis(fmor.mats[v]) for v in range(len(m.dims))]
    image, im_incl = submodule_from_rows(n, im_rows, label=f"im({m.label})")
    epi_mats = []
    for v in range(len(m.dims)):
        coords = f.coords_in_rowspace(im_rows[v], fmor.mats[v])
        assert coords is not None
        epi_mats.append(coords)
    im_proj = ModuleMorphism(m, image, epi_mats)
    cokernel, coker_proj = quotient_by_rows(n, im_rows, label=f"coker({m.label})")
    return Factorization(kernel, ker_incl, image, im_incl, im_proj, cokernel, coker_proj)


@dataclass(frozen=True)
class RST:
    radical: ModuleRep
    radical_inclusion: ModuleMorphism
    socle: ModuleRep
    socle_inclusion: ModuleMorphism
    top: ModuleRep
    top_projection: ModuleMorphism


def rst(m: ModuleRep) -> RST:
    """Radical (= m·rad A), socle (annihilator of all arrows), and top."""
    f = m.algebra.field
    q = m.algebra.quiver
    nv = len(m.dims)
    rad_rows = []
    for w in range(nv):
        stacked = (
            np.concatenate([m.mats[a] for a in q.arrows_into(w)], axis=0)
            if q.arrows_into(w)
            else f.zeros(0, m.dims[w])
        )
        rad_rows.append(f.row_space_basis(stacked))
    radical, rad_incl = submodule_from_rows(m, rad_rows, label=f"rad({m.label})")
    top, top_proj = quotient_by_rows(m, rad_rows, label=f"top({m.label})")
    soc_rows = []
    for v in range(nv):
        outs = q.arrows_from(v)
        if outs:
            spread = np.concatenate([m.mats[a] for a in outs], axis=1)
        else:
            spread = f.zeros(m.dims[v], 0)
        soc_rows.append(f.left_kernel_basis(spread))
    socle, soc_incl = submodule_from_rows(m, soc_rows, label=f"soc({m.label})")
    return RST(radical, rad_incl, socle, soc_incl, top, top_proj)


# ---------------------------------------------------------------------------
# canonical modules
# ---------------------------------------------------------------------------


def simple(tbl: AlgebraTable, v: int) -> ModuleRep:
    key = ("simple", v)
    if key not in tbl._cache:
        nv = len(tbl.quiver.vertices)
        if not 0 <= v < nv:
            raise ValueError(f"unknown vertex index {v}")
        dims = tuple(1 if u == v else 0 for u in range(nv))
        mats = [
            tbl.field.zeros(dims[tbl.quiver.arrow_source(a)], dims[tbl.quiver.arrow_target(a)])
            for a in range(len(tbl.quiver.arrows))
        ]
        name = tbl.quiver.vertices[v]
        tbl._cache[key] = ModuleRep(tbl, dims, mats, label=f"S({name})")
    return tbl._cache[key]


def projective(tbl: AlgebraTable, v: int) -> ModuleRep:
    """e_v·A: vertex spaces spanned by basis paths from v, arrows concatenate."""
    key = ("projective", v)
    if key not in tbl._cache:
        nv = len(tbl.quiver.vertices)
        if not 0 <= v < nv:
            raise ValueError(f"unknown vertex index {v}")
        by_vertex = [
            tuple(p for p in tbl.basis_paths_from(v) if p.target == w) for w in range(nv)
        ]
        index = [{p: i for i, p in enumerate(paths)} for paths in by_vertex]
        dims = tuple(len(paths) for paths in by_vertex)
        f = tbl.field
        mats = []
        for a in range(len(tbl.quiver.arrows)):
            src, tgt = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
            mat = f.zeros(dims[src], dims[tgt])
            arrow_path = Path(src, (a,), tgt)
            for i, p in enumerate(by_vertex[src]):
                for term, coeff in tbl.multiply_paths(p, arrow_path).items():
                    mat[i, index[tgt][term]] = coeff
            mats.append(mat)
        name = tbl.quiver.vertices[v]
        mod = ModuleRep(tbl, dims, mats, label=f"P({name})")
        mod._memo["paths_by_vertex"] = by_vertex
        tbl._cache[key] = mod
    return tbl._cache[key]


def dual(m: ModuleRep, label: str = "") -> ModuleRep:
    """The k-dual as a right module over the opposite algebra.

    Same vertex dimensions; the reversed arrow acts by the transpose.
    """
    opp = opposite(m.algebra)
    mats = [m.mats[a].T for a in range(len(m.algebra.quiver.arrows))]
    return ModuleRep(opp, m.dims, mats, label=label or f"D({m.label})")


def dual_morphism(f: ModuleMorphism) -> ModuleMorphism:
    """D is contravariant: dual(f): dual(target) -> dual(source), blocks f_v^T."""
    return ModuleMorphism(dual(f.target), dual(f.source), [b.T for b in f.mats])


def injective(tbl: AlgebraTable, v: int) -> ModuleRep:
    """D of the opposite algebra's projective at v."""
    key = ("injective", v)
    if key not in tbl._cache:
        name = tbl.quiver.vertices[v]
        mod = dual(projective(opposite(tbl), v), label=f"I({name})")
        assert mod.algebra is tbl
        tbl._cache[key] = mod
    return tbl._cache[key]


def direct_sum(tbl: AlgebraTable, mods: Sequence[ModuleRep], label: str = "") -> ModuleRep:
    for m in mods:
        if m.algebra is not tbl:
            raise ValueError("direct_sum: algebra mismatch")
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    dims = tuple(sum(m.dims[v] for m in mods) for v in range(nv))
    mats = []
    for a in range(len(tbl.quiver.arrows)):
        src, tgt = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
        mat = f.zeros(dims[src], dims[tgt])
        r = c = 0
        for m in mods:
            mr, mc = m.dims[src], m.dims[tgt]
            mat[r : r + mr, c : c + mc] = m.mats[a]
            r += mr
            c += mc
        mats.append(mat)
    return ModuleRep(tbl, dims, mats, label=label or "+".join(m.label for m in mods) or "0")


def sum_inclusions(tbl: AlgebraTable, mods: Sequence[ModuleRep], total: ModuleRep):
    """Inclusion and projection morphisms of each summand of direct_sum."""
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    incls, projs = [], []
    offsets = [0] * nv
    for m in mods:
        inc = []
        prj = []
        for v in range(nv):
            block = f.zeros(m.dims[v], total.dims[v])
            if m.dims[v]:
                block[:, offsets[v] : offsets[v] + m.dims[v]] = f.eye(m.dims[v])
            inc.append(block)
            prj.append(block.T)
        incls.append(ModuleMorphism(m, total, inc))
        projs.append(ModuleMorphism(total, m, prj))
        for v in range(nv):
            offsets[v] += m.dims[v]
    return incls, projs


def regular(tbl: AlgebraTable) -> ModuleRep:
    key = ("regular",)
    if key not in tbl._cache:
        mods = [projective(tbl, v) for v in range(len(tbl.quiver.vertices))]
        tbl._cache[key] = direct_sum(tbl, mods, label="A")
    return tbl._cache[key]


def dual_regular(tbl: AlgebraTable) -> ModuleRep:
    """D(A) as a right module: the dual of the opposite algebra's regular."""
    key = ("dual_regular",)
    if key not in tbl._cache:
        tbl._cache[key] = dual(regular(opposite(tbl)), label="DA")
    return tbl._cache[key]


# ---------------------------------------------------------------------------
# projective sums with labelled path bases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProjSum:
    """A direct sum of indecomposable projectives with generator bookkeeping.

    ``vertices[j]`` is the source vertex of copy j.  At each vertex w the
    module's basis is the concatenation over copies j of the basis paths
    vertices[j] -> w, recorded in ``labels[w]`` as (copy, path) pairs.
    ``gen_pos[j]`` locates copy j's generator (its trivial path) inside the
    basis at vertices[j].
    """

    module: ModuleRep
    vertices: tuple
    labels: tuple
    gen_pos: tuple

    @property
    def is_zero(self) -> bool:
        return not self.vertices


def proj_sum(tbl: AlgebraTable, vertices: Sequence[int]) -> ProjSum:
    vertices = tuple(int(v) for v in vertices)
    key = ("proj_sum", vertices)
    if key in tbl._cache:
        return tbl._cache[key]
    nv = len(tbl.quiver.vertices)
    projs = [projective(tbl, v) for v in vertices]
    paths = [p._memo["paths_by_vertex"] for p in projs]
    labels = tuple(
        tuple((j, path) for j in range(len(vertices)) for path in paths[j][w])
        for w in range(nv)
    )
    module = direct_sum(tbl, projs, label="+".join(f"P({tbl.quiver.vertices[v]})" for v in vertices) or "0")
    gen_pos = []
    for j, v in enumerate(vertices):
        offset = sum(len(paths[i][v]) for i in range(j))
        local = next(i for i, p in enumerate(paths[j][v]) if p.is_trivial)
        gen_pos.append(offset + local)
    ps = ProjSum(module, vertices, labels, tuple(gen_pos))
    tbl._cache[key] = ps
    return ps


def projsum_morphism(ps: ProjSum, target: ModuleRep, gen_rows) -> ModuleMorphism:
    """The unique morphism ps.module -> target sending copy j's generator to
    the row vector gen_rows[j] (an element of target at vertices[j])."""
    tbl = target.algebra
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    mats = []
    for w in range(nv):
        rows = f.zeros(ps.module.dims[w], target.dims[w])
        for i, (j, path) in enumerate(ps.labels[w]):
            x = np.asarray(gen_rows[j], dtype=np.int64).reshape(1, -1)
            rows[i] = f.mul(x, target.path_matrix(path))[0]
        mats.append(rows)
    return ModuleMorphism(ps.module, target, mats)


def projsum_map_elements(ps_src: ProjSum, ps_tgt: ProjSum, d: ModuleMorphism):
    """Decode a morphism between projective sums into algebra elements.

    Returns elements[t][s] in e_{V(t)}·A·e_{U(s)} (V = ps_tgt.vertices,
    U = ps_src.vertices) with d(gen_s) = sum_t gen_t · elements[t][s].
    """
    out = [[{} for _ in ps_src.vertices] for _ in ps_tgt.vertices]
    for s, u in enumerate(ps_src.vertices):
        row = d.mats[u][ps_src.gen_pos[s]]
        for i, (t, path) in enumerate(ps_tgt.labels[u]):
            c = int(row[i])
            if c:
                out[t][s][path] = c
    return out


def projsum_map_from_elements(ps_src: ProjSum, ps_tgt: ProjSum, elements) -> ModuleMorphism:
    """Inverse of projsum_map_elements: rebuild the morphism from elements."""
    tbl = ps_tgt.module.algebra
    f = tbl.field
    gen_rows = []
    for s, u in enumerate(ps_src.vertices):
        row = f.zeros(1, ps_tgt.module.dims[u])
        for t, v in enumerate(ps_tgt.vertices):
            el = elements[t][s]
            if not el:
                continue
            act = ps_tgt.module.element_matrix(el, v, u)
            row = f.add(row, act[ps_tgt.gen_pos[t]].reshape(1, -1))
        gen_rows.append(row[0])
    return projsum_morphism(ps_src, ps_tgt.module, gen_rows)


def left_mult_morphism(tbl: AlgebraTable, element: dict, src: int, dst: int) -> ModuleMorphism:
    """Left multiplication P(src) -> P(dst) by an element of e_dst·A·e_src.

    Right-module morphisms e_src·A -> e_dst·A are exactly left
    multiplications by such elements.
    """
    f = tbl.field
    psrc, pdst = projective(tbl, src), projective(tbl, dst)
    src_paths = psrc._memo["paths_by_vertex"]
    dst_index = [
        {p: i for i, p in enumerate(paths)} for paths in pdst._memo["paths_by_vertex"]
    ]
    nv = len(tbl.quiver.vertices)
    mats = []
    for w in range(nv):
        mat = f.zeros(psrc.dims[w], pdst.dims[w])
        for i, q in enumerate(src_paths[w]):
            for elpath, coeff in element.items():
                assert elpath.source == dst and elpath.target == src
                for term, c2 in tbl.multiply_paths(elpath, q).items():
                    mat[i, dst_index[w][term]] = (mat[i, dst_index[w][term]] + coeff * c2) % f.p
        mats.append(mat)
    return ModuleMorphism(psrc, pdst, mats)


# ---------------------------------------------------------------------------
# covers and hulls
# ---------------------------------------------------------------------------


def proj_cover(m: ModuleRep) -> tuple:
    """(P, cover) with P = ⊕ P(v)^{dim top(m)_v}; ker(cover) ⊆ rad P."""
    tbl = m.algebra
    f = tbl.field
    parts = rst(m)
    # canonical section of the top projection: quotient sections per vertex
    vertices = []
    gen_rows = []
    for v in range(len(m.dims)):
        qt = f.quotient_by_rowspace(parts.radical_inclusion.mats[v], m.dims[v])
        for i in range(qt.dim):
            vertices.append(v)
            gen_rows.append(qt.section[i])
    ps = proj_sum(tbl, vertices)
    cover = projsum_morphism(ps, m, gen_rows)
    return ps, cover


def inj_hull(m: ModuleRep) -> tuple:
    """(I, embedding): the dual of the opposite-side projective cover."""
    dm = dual(m)
    ps, cover = proj_cover(dm)
    hull = dual(ps.module, label=f"E({m.label})")
    embedding = ModuleMorphism(m, hull, [b.T for b in cover.mats])
    return hull, embedding


def is_projective(m: ModuleRep) -> bool:
    if m.is_zero:
        return True
    ps, cover = proj_cover(m)
    return ps.module.total_dim == m.total_dim


def is_injective(m: ModuleRep) -> bool:
    if m.is_zero:
        return True
    hull, _ = inj_hull(m)
    return hull.total_dim == m.total_dim


# ---------------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------------

_EXHAUSTIVE_BUDGET = 200_000


def is_isomorphic(m: ModuleRep, n: ModuleRep, seed: int = 0, trials: int = 64):
    """True / False / None (undetermined).

    Equal dims, then seeded random search for an invertible combination of a
    hom basis; definitive False when dims or dim End differ or the search
    space is small enough to exhaust; None when the bounded search cannot
    decide (never silently False).
    """
    if m.algebra is not n.algebra:
        raise ValueError("is_isomorphic: algebra mismatch")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    hom = hom_basis(m, n)
    if hom.dim == 0:
        return False
    p = m.algebra.field.p
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        coeffs = rng.integers(0, p, size=hom.dim)
        if hom.combo(coeffs).is_isomorphism():
            return True
    if hom_basis(m, m).dim != hom_basis(n, n).dim:
        return False  # dim End is an isomorphism invariant
    if p**hom.dim <= _EXHAUSTIVE_BUDGET:
        for coeffs in itertools.product(range(p), repeat=hom.dim):
            if any(coeffs) and hom.combo(coeffs).is_isomorphism():
                return True
        return False
    for _ in range(32 * trials):
        coeffs = rng.integers(0, p, size=hom.dim)
        if hom.combo(coeffs).is_isomorphism():
            return True
    return None


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_modules(tbl: AlgebraTable, seed: int = 0, size: int = 64) -> list:
    """Deterministic-in-seed module sample; see the contract in the README.

    Always includes (in order): simples, projectives, injectives, radicals
    and tops of projectives, syzygies and cosyzygies of simples to depth 3;
    then random cokernels of random morphisms between projective sums, until
    ``size`` entries.  Zero modules are dropped, duplicates (bit-identical
    representations) appear once.  The sample is computed once per table and
    arguments; each call returns a fresh list of the same modules.
    """
    key = ("sample", seed, size)
    if key in tbl._cache:
        return list(tbl._cache[key])
    nv = len(tbl.quiver.vertices)
    out = []
    seen = set()

    def push(mod, label=None):
        if mod.is_zero or len(out) >= size:
            return
        sig = mod.signature()
        if sig in seen:
            return
        seen.add(sig)
        if label:
            mod.label = label
        out.append(mod)

    for v in range(nv):
        push(simple(tbl, v))
    for v in range(nv):
        push(projective(tbl, v))
    for v in range(nv):
        push(injective(tbl, v))
    for v in range(nv):
        parts = rst(projective(tbl, v))
        push(parts.radical)
        push(parts.top)
    for v in range(nv):
        mod = simple(tbl, v)
        for depth in range(1, 4):
            _, cover = proj_cover(mod)
            mod = factorize(cover).kernel
            push(mod, label=f"syz^{depth}(S_{tbl.quiver.vertices[v]})")
            if mod.is_zero:
                break
    for v in range(nv):
        mod = simple(tbl, v)
        for depth in range(1, 4):
            _, emb = inj_hull(mod)
            mod = factorize(emb).cokernel
            push(mod, label=f"cosyz^{depth}(S_{tbl.quiver.vertices[v]})")
            if mod.is_zero:
                break

    rng = np.random.default_rng(seed)
    attempts = 0
    while len(out) < size and attempts < 40 * size:
        attempts += 1
        mult0 = rng.integers(0, 3, size=nv)
        mult1 = rng.integers(0, 3, size=nv)
        verts0 = [v for v in range(nv) for _ in range(mult0[v])]
        verts1 = [v for v in range(nv) for _ in range(mult1[v])]
        if not verts0 or not verts1:
            continue
        src = proj_sum(tbl, verts0).module
        tgt = proj_sum(tbl, verts1).module
        hom = hom_basis(src, tgt)
        if hom.dim == 0:
            continue
        coeffs = rng.integers(0, tbl.field.p, size=hom.dim)
        fmor = hom.combo(coeffs)
        coker = factorize(fmor).cokernel
        push(coker, label=f"sample[{len(out)}]")
    tbl._cache[key] = tuple(out)
    return out


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


class ModuleFileError(ValueError):
    pass


def parse_module(text: str, tbl: AlgebraTable, label: str = "module") -> ModuleRep:
    """Parse the module file format (see docs/formats.md).

      dims <d_1> ... <d_n>        # one entry per vertex, in table order
      arrow <name> <entries...>   # row-major dims[src] x dims[tgt] block
    Arrows with zero-sized or all-zero matrices may be omitted.
    """
    dims = None
    mats = {}
    q = tbl.quiver
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if toks[0] == "dims":
            if dims is not None:
                raise ModuleFileError(f"line {lineno}: duplicate dims line")
            if len(toks) != len(q.vertices) + 1:
                raise ModuleFileError(
                    f"line {lineno}: expected {len(q.vertices)} dimensions"
                )
            try:
                dims = tuple(int(t) for t in toks[1:])
            except ValueError:
                raise ModuleFileError(f"line {lineno}: dimensions must be integers") from None
            if any(d < 0 for d in dims):
                raise ModuleFileError(f"line {lineno}: negative dimension")
        elif toks[0] == "arrow":
            if dims is None:
                raise ModuleFileError(f"line {lineno}: dims line must come first")
            if len(toks) < 2:
                raise ModuleFileError(f"line {lineno}: arrow line needs a name")
            name = toks[1]
            if name not in q.arrow_index:
                raise ModuleFileError(f"line {lineno}: unknown arrow {name!r}")
            a = q.arrow_index[name]
            if a in mats:
                raise ModuleFileError(f"line {lineno}: duplicate arrow {name!r}")
            r, c = dims[q.arrow_source(a)], dims[q.arrow_target(a)]
            entries = toks[2:]
            if len(entries) != r * c:
                raise ModuleFileError(
                    f"line {lineno}: arrow {name!r} needs {r * c} entries, got {len(entries)}"
                )
            try:
                # reduce as Python ints: entries may exceed the int64 range
                vals = [int(t) % tbl.field.p for t in entries]
            except ValueError:
                raise ModuleFileError(f"line {lineno}: entries must be integers") from None
            mats[a] = np.array(vals, dtype=np.int64).reshape(r, c)
        else:
            raise ModuleFileError(f"line {lineno}: unknown directive {toks[0]!r}")
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
