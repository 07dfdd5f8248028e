"""Reference routes the tests compare the product against.

Each function here answers a question that ``ardom`` answers by another,
exact route, and is kept only so that the tests can check the two agree:

- :func:`hom_basis`, a basis of Hom(m, n) as morphisms, over the one
  Kronecker solver ``ardom.modules._hom_rows`` (looked up on each call, so a
  test that counts that solver's calls sees these too);
- :func:`random_isomorphism_search`, a seeded random search for an
  invertible combination of a Hom basis, against the Krull–Schmidt
  ``ardom.modules.is_isomorphic``;
- :func:`evaluation_and_torsion`, the evaluation map m -> m** into the
  double Hom-dual built in full, whose kernel ``ardom.homology.torsion``
  reads without building m**;
- :func:`is_n_torsion_free_via_dual`, Ext^i(DA, τm) = 0 for i = 1..n,
  against the transpose route ``ardom.homology.is_n_torsion_free``;
- :func:`domdim_whole`, the dominant dimension of A read off the
  coresolution of the regular module as one module, against the summand
  route ``ardom.homology.domdim_algebra``;
- :func:`mueller_whole`, :func:`gorenstein_whole` and :func:`ext_g_whole`,
  Müller's formula, the Gorenstein dimension and Ext^g(DA, A) with D(A)
  resolved whole, against ``ardom.homology.domdim_R_via_mueller`` and
  ``gorenstein_dim`` and the ``ext_g_dim`` of ``ardom.verify``, which read
  them off the D P(v) one indecomposable injective at a time;
- :func:`left_mult_morphism`, left multiplication P(src) -> P(dst) by an
  algebra element, multiplied out path by path, against the Yoneda rows
  that :func:`arrow_left_mult` and ``ardom.arseq.projective_rad_end`` read;
- :func:`ext_module_by_post_composition`, Ext^i(m, A) graded by the
  Ext^i(m, P(v)) of :func:`ext_classes_of_the_resolution`, each opposite
  arrow acting by post-composition with :func:`arrow_left_mult`, against
  ``ardom.homology.ext_module``, the cohomology of the dualised resolution;
- :func:`torsion_per_vertex`, t(m) from one Hom(m, P(v)) system per vertex
  v, against ``ardom.homology.torsion``, which reads all of Hom(m, A) from
  one system;
- :func:`rad_end_by_the_chain`, the local certificate decided by the chain
  of radical powers alone, against ``ardom.modules.certify_local``, which
  also refuses at the first product of nonzero trace;
- :func:`projsum_labels`, a (copy, path) label per basis position of a
  projective sum, and the routes over it, each map built one at a time:
  :func:`projsum_gen_pos`, :func:`one_yoneda_map`,
  :func:`yoneda_block_by_labels` and :func:`projsum_map_elements_by_labels`,
  against ``ardom.modules._yoneda_maps``, which builds k maps side by side
  from the sum's ``first`` layout alone, and the callers that read it;
- :func:`knit_by_sequences`, the AR quiver knitted with one almost split
  sequence per listed non-injective module, against
  ``ardom.arseq.knit_indecomposables``, which reads the successors off the
  AR mesh and builds a sequence only where no mesh is known.  The
  Krull–Schmidt splitter both share is passed in by the caller, since
  other routes here check it.

Nothing here is memoised, and nothing here calls the routes it checks.
:func:`domdim_whole` walks the one coresolution walk there is,
``domdim_module``, but on A whole, so it checks the split into the P(v)
and how their values combine; the whole-module Müller and Gorenstein
routes likewise walk the one resolution and Ext search there are,
``pdim`` and ``first_nonzero_ext``, on D(A) whole.
"""

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

import ardom.modules
from ardom.algebra import Path, opposite, reverse_path
from ardom.arseq import almost_split
from ardom.homology import (
    DEFAULT_CAP,
    CappedNat,
    InvariantError,
    domdim_module,
    ext_dim,
    first_nonzero_ext,
    pdim,
    syzygy,
    tau,
)
from ardom.modules import (
    _path_actions,
    Indecomposable,
    ModuleMorphism,
    ModuleRep,
    certify_local,
    cokernel,
    dual,
    dual_regular,
    is_injective,
    is_projective,
    kernel,
    morphism_from_flat,
    proj_cover,
    proj_sum,
    projective,
    projective_paths,
    regular,
    socle,
    submodule_from_rows,
    top_vertices,
    yoneda_block,
    zero_module,
)


@dataclass(frozen=True)
class HomBasis:
    """A basis of Hom(source, target): ``rows`` holds the flattened basis
    morphisms, one row each (dim x sum of block sizes)."""

    source: ModuleRep
    target: ModuleRep
    morphisms: tuple
    rows: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.morphisms)

    def combo(self, coeffs: Sequence[int]) -> ModuleMorphism:
        """The combination sum_i coeffs[i] * morphisms[i], built as one morphism."""
        p = self.source.algebra.field.p
        c = np.array([int(x) % p for x in coeffs], dtype=np.int64)
        return morphism_from_flat(self.source, self.target, c @ self.rows % p)


def hom_basis(m: ModuleRep, n: ModuleRep) -> HomBasis:
    """Basis of Hom_A(m, n) as the kernel of one assembled linear system
    (``ardom.modules._hom_rows``), with each basis row as a morphism."""
    rows = ardom.modules._hom_rows(m, n)
    return HomBasis(m, n, tuple(morphism_from_flat(m, n, row) for row in rows), rows)


_EXHAUSTIVE_BUDGET = 200_000


def random_isomorphism_search(m: ModuleRep, n: ModuleRep, seed: int = 0, trials: int = 64):
    """True / False / None (undetermined).

    Equal dims and equal tops, then seeded random search for an invertible
    combination of a hom basis; definitive False when dims, tops
    (:func:`top_vertices`) or dim End differ or the search space is small
    enough to exhaust; None when the bounded search cannot decide (never
    silently False).
    """
    if m.algebra is not n.algebra:
        raise ValueError("random_isomorphism_search: algebra mismatch")
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    # isomorphic modules have isomorphic tops
    if top_vertices(m) != top_vertices(n):
        return False
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


def _star_with_bases(m: ModuleRep):
    """Hom(m, A) as a module over the opposite algebra.

    Vertex space at v: Hom(m, P(v)), with the chosen hom_basis as basis.
    The opposite arrow a°: w -> v (for a: v -> w) acts by post-composition
    with the left-multiplication P(w) -> P(v) by the arrow.  Returns the
    module together with the hom bases.
    """
    tbl = m.algebra
    opp = opposite(tbl)
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    bases = [hom_basis(m, projective(tbl, v)) for v in range(nv)]
    dims = [hb.dim for hb in bases]
    mats = [None] * len(opp.quiver.arrows)
    for a in range(len(tbl.quiver.arrows)):
        v, w = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
        lm = arrow_left_mult(tbl, a)
        mat = f.zeros(dims[w], dims[v])
        for i, g in enumerate(bases[w].morphisms):
            composed = g.compose(lm).flatten().reshape(1, -1)
            coords = f.coords_in_rowspace(bases[v].rows, composed)
            if coords is None:
                raise InvariantError("post-composition leaves the hom basis span")
            mat[i] = coords[0]
        mats[a] = mat
    star = ModuleRep(opp, dims, mats, label=f"{m.label}*")
    return star, bases


@dataclass(frozen=True)
class EvalData:
    evaluation: ModuleMorphism  # m -> m**
    double_dual: ModuleRep
    torsion: ModuleRep
    torsion_inclusion: ModuleMorphism
    torsionless: bool
    reflexive: bool


def evaluation_and_torsion(m: ModuleRep) -> EvalData:
    """The canonical map into the double Hom-dual and its kernel.

    m* is built by :func:`_star_with_bases`; m** is the same construction
    applied over the opposite algebra, landing back over the original one.
    The evaluation sends a basis vector x at vertex v to the functional
    φ ↦ φ(x), expressed in the chosen basis of m** by reversing the path
    coordinates of φ(x).
    """
    tbl = m.algebra
    opp = opposite(tbl)
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    star, bases = _star_with_bases(m)
    dstar, bases2 = _star_with_bases(star)
    if dstar.algebra is not tbl:
        raise InvariantError("the double dual lives over another algebra")
    ev_mats = []
    for v in range(nv):
        mat = f.zeros(m.dims[v], dstar.dims[v])
        for t in range(m.dims[v]):
            # the morphism star -> P°(v) given by φ ↦ φ(e_t), in coordinates
            pv = projective(opp, v)
            blocks = []
            for u in range(nv):
                rows = f.zeros(star.dims[u], pv.dims[u])
                for i, g in enumerate(bases[u].morphisms):
                    val = g.mats[v][t]  # φ_i(e_t) over basis paths u -> v
                    out_el = {}
                    for path, c in zip(projective_paths(tbl, u)[v], val):
                        c = int(c)
                        if not c:
                            continue
                        rev = reverse_path(path)
                        for q, c2 in opp.normal_form({rev: c}).items():
                            out_el[q] = (out_el.get(q, 0) + c2) % f.p
                    for q, c in out_el.items():
                        rows[i, projective_paths(opp, v)[u][q]] = c
                blocks.append(rows.reshape(-1))
            flat = np.concatenate(blocks) if blocks else f.zeros(1, 0)[0]
            coords = f.coords_in_rowspace(bases2[v].rows, flat.reshape(1, -1))
            if coords is None:
                raise InvariantError("evaluation image escaped the hom basis")
            mat[t] = coords[0]
        ev_mats.append(mat)
    evaluation = ModuleMorphism(m, dstar, ev_mats)
    t_mod, t_inclusion = kernel(evaluation)
    t_mod.label = f"t({m.label})"
    return EvalData(
        evaluation=evaluation,
        double_dual=dstar,
        torsion=t_mod,
        torsion_inclusion=t_inclusion,
        torsionless=t_mod.is_zero,
        reflexive=evaluation.is_isomorphism(),
    )


def is_n_torsion_free_via_dual(m: ModuleRep, n: int) -> bool:
    """The direct-definition route: Ext^i(DA, tau m) = 0 for i = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tbl = m.algebra
    da = dual_regular(tbl)
    tm = tau(m)
    if tm.is_zero:
        return True
    for i in range(1, n + 1):
        if ext_dim(da, tm, i) != 0:
            return False
    return True


def domdim_whole(tbl, cap: int = DEFAULT_CAP) -> CappedNat:
    """domdim A from the minimal injective coresolution of A = ⊕_v P(v)
    walked as one module, D(A) resolved whole."""
    return domdim_module(regular(tbl), cap)


def mueller_whole(tbl, cap: int = DEFAULT_CAP) -> CappedNat:
    """domdim End(A ⊕ DA) by Müller's formula, 1 + the least i >= 1 with
    Ext^i(DA, A) nonzero, D(A) resolved whole as a module over A."""
    da = dual_regular(tbl)
    if is_projective(da):
        return CappedNat.infinite("dual regular module is projective")
    i = first_nonzero_ext(da, cap)
    return CappedNat.at_least(cap + 2) if i is None else CappedNat.exact(i + 1)


def gorenstein_whole(tbl, cap: int = DEFAULT_CAP) -> CappedNat:
    """The Gorenstein dimension from injdim A on both sides, each the pdim
    of the dual of the whole regular module."""
    right = pdim(dual(regular(tbl)), cap)
    left = pdim(dual(regular(opposite(tbl))), cap)
    if right.is_exact and left.is_exact:
        if right.value != left.value:
            raise InvariantError("one-sided finite injective dimensions disagree")
        return right
    return CappedNat.at_least(min(right.value, left.value))


def ext_g_whole(tbl, g: int) -> int:
    """dim Ext^g(DA, A) over A, D(A) resolved whole."""
    return ext_dim(dual_regular(tbl), regular(tbl), g)


def left_mult_morphism(tbl, element: dict, src: int, dst: int) -> ModuleMorphism:
    """Left multiplication P(src) -> P(dst) by an element of e_dst·A·e_src,
    each basis path of P(src) multiplied by each path of the element.

    Right-module morphisms e_src·A -> e_dst·A are exactly left
    multiplications by such elements.
    """
    f = tbl.field
    psrc, pdst = projective(tbl, src), projective(tbl, dst)
    src_paths, dst_index = projective_paths(tbl, src), projective_paths(tbl, dst)
    mats = []
    for w in range(len(tbl.quiver.vertices)):
        mat = f.zeros(psrc.dims[w], pdst.dims[w])
        for i, q in enumerate(src_paths[w]):
            for elpath, coeff in element.items():
                if elpath.source != dst or elpath.target != src:
                    raise ValueError(f"element path {elpath} does not run {dst} -> {src}")
                for term, c2 in tbl.multiply_paths(elpath, q).items():
                    mat[i, dst_index[w][term]] = (mat[i, dst_index[w][term]] + coeff * c2) % f.p
        mats.append(mat)
    return ModuleMorphism(psrc, pdst, mats)


def arrow_left_mult(tbl, a: int) -> ModuleMorphism:
    """Left multiplication P(w) -> P(v) by the arrow a: v -> w, the row of
    a in the Yoneda block of P(w) into P(v)."""
    v, w = tbl.quiver.arrow_source(a), tbl.quiver.arrow_target(a)
    row = projective_paths(tbl, v)[w][Path(v, (a,), w)]
    block = yoneda_block(proj_sum(tbl, (w,)), projective(tbl, v))
    return morphism_from_flat(projective(tbl, w), projective(tbl, v), block[row])


def ext_classes_of_the_resolution(m: ModuleRep, i: int, v: int) -> tuple:
    """(cocycles, quotient) of Ext^i(m, P(v)), read at degree i of the
    minimal resolution of m itself: the kernel rows of the cochain matrix
    out of Hom(P_i, P(v)) in generator coordinates, and their quotient by
    the coboundaries (none in degree 0)."""
    f = m.algebra.field
    pv = projective(m.algebra, v)
    cocycles = f.kernel_basis(ardom.homology._cochain(syzygy(m, i), pv)[0].T)
    coords = f.zeros(0, cocycles.shape[0])
    if i >= 1:
        coords = f.coords_in_rowspace(cocycles, ardom.homology._cochain(syzygy(m, i - 1), pv)[0])
        if coords is None:
            raise InvariantError("cochain image escapes the kernel")
    return cocycles, f.quotient_by_rowspace(coords, cocycles.shape[0])


def ext_module_by_post_composition(m: ModuleRep, i: int) -> ModuleRep:
    """Ext^i(m, A) over the opposite algebra, built vertex by vertex.

    The vertex space at v is Ext^i(m, P(v)) on the basis of
    :func:`ext_classes_of_the_resolution`.  The opposite of an arrow
    a: v -> w acts by post-composition with left multiplication
    P(w) -> P(v) by a, which moves the block of a cocycle at each copy P(u)
    of P_i by its block at u.  Degree i >= 2 is degree 1 of Ω^{i-1} m,
    relabelled.
    """
    tbl = m.algebra
    f = tbl.field
    label = f"Ext{i}({m.label},A)"
    if i >= 2:
        return ext_module_by_post_composition(syzygy(m, i - 1), 1).relabeled(label)
    if syzygy(m, i).is_zero:
        return zero_module(opposite(tbl), label=label)
    classes = [ext_classes_of_the_resolution(m, i, v) for v in range(len(tbl.quiver.vertices))]
    tops = ardom.homology._presentation(syzygy(m, i))[0].vertices
    mats = []
    for a in range(len(tbl.quiver.arrows)):
        src, src_quot = classes[tbl.quiver.arrow_target(a)]
        dst, dst_quot = classes[tbl.quiver.arrow_source(a)]
        if not src_quot.dim or not dst_quot.dim:
            mats.append(f.zeros(src_quot.dim, dst_quot.dim))
            continue
        lam = f.block_diag([arrow_left_mult(tbl, a).mats[u] for u in tops])
        coords = f.coords_in_rowspace(dst, f.mul(f.mul(src_quot.section, src), lam))
        if coords is None:
            raise InvariantError("post-composition leaves the cocycle space")
        mats.append(f.mul(coords, dst_quot.proj))
    return ModuleRep(opposite(tbl), [quot.dim for _, quot in classes], mats, label=label)


def torsion_per_vertex(m: ModuleRep) -> ModuleRep:
    """t(m) as the intersection of the kernels of all of Hom(m, A), with
    Hom(m, P(v)) read vertex by vertex: the cocycles of
    :func:`ext_classes_of_the_resolution` in degree 0, turned into maps
    P_0 -> P(v) by one :func:`yoneda_block_by_labels` each, brought down
    to m through a section of the cover; at each vertex u the left kernel
    of all their blocks side by side."""
    tbl = m.algebra
    f = tbl.field
    label = f"t({m.label})"
    p0, cover = proj_cover(m)
    if p0.module.dims == m.dims:  # projective: torsionless
        return submodule_from_rows(m, [f.zeros(0, d) for d in m.dims], label=label)[0]
    sections = [f.solve_left(c, f.eye(d)) for c, d in zip(cover.mats, m.dims)]
    blocks = [[] for _ in m.dims]
    for v in range(len(tbl.quiver.vertices)):
        pv = projective(tbl, v)
        cocycles = ext_classes_of_the_resolution(m, 0, v)[0]
        if not cocycles.shape[0]:
            continue
        maps = f.mul(cocycles, yoneda_block_by_labels(proj_sum(tbl, p0.vertices), pv))
        at = 0
        for u, s in enumerate(sections):
            d0, dv = p0.module.dims[u], pv.dims[u]
            g = maps[:, at : at + d0 * dv].reshape(len(maps), d0, dv)
            at += d0 * dv
            blocks[u].append(f.mul(s, g.transpose(1, 0, 2).reshape(d0, len(maps) * dv)))
    rows = [
        f.left_kernel_basis(np.concatenate(b, axis=1) if b else f.zeros(d, 0))
        for b, d in zip(blocks, m.dims)
    ]
    return submodule_from_rows(m, rows, label=label)[0]


def rad_end_by_the_chain(m: ModuleRep):
    """The flattened basis of rad End(m), the trace-zero endomorphisms, when
    they span a nilpotent ideal, else None (also for the zero module and for
    p | dim m).  Nilpotency is decided by the chain of powers R^{j+1} =
    R^j·R alone: None once a power repeats, or when R^{dim m} is not 0."""
    f = m.algebra.field
    n = m.total_dim
    if n == 0 or n % f.p == 0:
        return None
    blocks = ardom.modules._vertex_blocks
    rows = ardom.modules._hom_rows(m, m)
    traces = sum(np.trace(b, axis1=1, axis2=2) for b in blocks(rows, m, m)) % f.p
    rad = f.mul(f.left_kernel_basis(traces.reshape(-1, 1)), rows)
    power = f.row_space_basis(rad)
    for _ in range(n - 1):
        if not len(power):
            break
        products = [
            np.matmul(a[:, None], b[None]).reshape(len(a) * len(b), -1) % f.p
            for a, b in zip(blocks(power, m, m), blocks(rad, m, m))
        ]
        nxt = f.row_space_basis(np.concatenate(products, axis=1))
        if np.array_equal(nxt, power):
            return None
        power = nxt
    return None if len(power) else rad


def projsum_labels(ps) -> tuple:
    """At each vertex w, the (copy, path) label of each basis position of
    ps.module: copy j's basis paths vertices[j] -> w in basis order, the
    copies in order."""
    tbl = ps.module.algebra
    paths = [projective_paths(tbl, v) for v in ps.vertices]
    return tuple(
        tuple([(j, path) for j in range(len(ps.vertices)) for path in paths[j][w]])
        for w in range(len(tbl.quiver.vertices))
    )


def projsum_gen_pos(ps) -> tuple:
    """The basis position of each copy's generator, its trivial path
    looked up among the labels at its vertex."""
    labels = projsum_labels(ps)
    return tuple(
        next(i for i, (c, q) in enumerate(labels[v]) if c == j and q.is_trivial)
        for j, v in enumerate(ps.vertices)
    )


def one_yoneda_map(ps, target: ModuleRep, starts: dict) -> ModuleMorphism:
    """The one morphism ps.module -> target whose generator rows for the
    copies of each vertex u are stacked, in copy order and reduced mod p,
    as ``starts[u]``: the row at label (j, path) is copy j's generator row
    times the action of path."""
    tbl = target.algebra
    f = tbl.field
    mats = [f.zeros(d, target.dims[w]) for w, d in enumerate(ps.module.dims)]
    for u, start in starts.items():
        first = [ps.first[j] for j, v in enumerate(ps.vertices) if v == u]
        index = projective_paths(tbl, u)
        for path, acted in _path_actions(target, start, tbl.basis_paths_from(u)).items():
            w = path.target
            i = index[w][path]
            for r, at in enumerate(first):
                mats[w][at[w] + i] = acted[r]
    return ModuleMorphism(ps.module, target, mats)


def yoneda_block_by_labels(ps, n: ModuleRep) -> np.ndarray:
    """Hom(ps.module, n) from generator coordinates to flattened morphisms:
    row k of copy j's block of rows is the morphism sending copy j's
    generator to basis vector k of N_{u_j} and the other generators to 0,
    which has row k of the action of path on N at each label (j, path)."""
    tbl = n.algebra
    f = tbl.field
    nv = len(tbl.quiver.vertices)
    offsets = np.cumsum([0] + [ps.module.dims[w] * n.dims[w] for w in range(nv)])
    starts = np.cumsum([0] + [n.dims[u] for u in ps.vertices])
    spanning = f.zeros(int(starts[-1]), int(offsets[-1]))
    actions = {}  # copies of one projective share their paths
    for u in dict.fromkeys(ps.vertices):
        actions.update(_path_actions(n, f.eye(n.dims[u]), tbl.basis_paths_from(u)))
    for w, labels in enumerate(projsum_labels(ps)):
        d = n.dims[w]
        for i, (j, path) in enumerate(labels):
            at = offsets[w] + i * d
            spanning[starts[j] : starts[j + 1], at : at + d] = actions[path]
    return spanning


def projsum_map_elements_by_labels(ps_src, ps_tgt, d: ModuleMorphism):
    """elements[t][s] with d(gen_s) = sum_t gen_t · elements[t][s], read
    off the generator rows of d at the labels of ps_tgt."""
    out = [[{} for _ in ps_src.vertices] for _ in ps_tgt.vertices]
    labels = projsum_labels(ps_tgt)
    for s, u in enumerate(ps_src.vertices):
        row = d.mats[u][projsum_gen_pos(ps_src)[s]]
        for i, (t, path) in enumerate(labels[u]):
            c = int(row[i])
            if c:
                out[t][s][path] = c
    return out


def knit_by_sequences(tbl, limit: int, split):
    """(records, successors) of the AR quiver, or None on the same give-ups
    as the knit: the projectives closed under the targets of left almost
    split maps, each target read off a built sequence.  ``successors[i]``
    lists, with multiplicity, the indices of the summands of the middle term
    of ``almost_split(U, rad_end)`` for U = ``records[i]`` not injective, and
    of U/soc U for U injective, as ``split(m, listed)`` returns them
    (``ardom.modules.indecomposable_summands``): a listed summand as its
    record, isomorphic new ones as one record, listed once."""
    nv = len(tbl.quiver.vertices)
    if nv > limit:
        return None
    found = [certify_local(projective(tbl, v)) for v in range(nv)]
    if any(cert is None for cert in found):
        return None
    successors = []
    for ind in found:  # the loop reaches the records it appends
        if is_injective(ind.module):
            m = cokernel(socle(ind.module)[1])[0]
        else:
            m = almost_split(ind.module, ind.rad_end).x
        parts = split(m, found)
        if parts is None:
            return None
        index = {id(known): j for j, known in enumerate(found)}
        for part in parts:
            if id(part) not in index:
                if len(found) == limit or part.module.total_dim > 2 * tbl.dimension:
                    return None
                index[id(part)] = len(found)
                found.append(
                    Indecomposable(part.module.relabeled(f"ind[{len(found)}]"), part.rad_end)
                )
        successors.append([index[id(part)] for part in parts])
    return tuple(found), successors
