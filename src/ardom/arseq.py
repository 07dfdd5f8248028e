"""Almost split sequences starting at an indecomposable projective.

For a non-injective projective U = P(v) the sequence 0 → U → X → V → 0 with
V the inverse translate of U is constructed from an extension class: Ext^1
is realized as Hom(ΩV, U) modulo restrictions of Hom(Q_0, U) along the
minimal presentation Q_1 → Q_0 → V, the local ring End(U) = e_v·A·e_v acts
by post-composition, and any nonzero element of the socle of that action
represents the almost split extension.  The middle term is the pushout
X = coker(ΩV → U ⊕ Q_0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraTable
from .homology import _builder, ext_dim, tau_inverse, transpose
from .modules import (
    ModuleMorphism,
    ModuleRep,
    direct_sum,
    factorize,
    hom_basis,
    is_injective,
    left_mult_morphism,
    projective,
    regular,
    sum_inclusions,
)

__all__ = [
    "Ext1Data",
    "ArSequence",
    "ArSequenceError",
    "ext1_with_end_action",
    "almost_split_from_projective",
    "has_n_tf_ar_sequences",
    "first_failure",
]


@dataclass(frozen=True)
class Ext1Data:
    """Ext^1(V, U) presented as a quotient of Hom(ΩV, U), with End-action.

    ``representatives[j]`` is a morphism ΩV → U representing the j-th basis
    vector; ``actions[r]`` is the matrix (acting on coordinate rows) of
    post-composition with the r-th basis element of rad End(U).
    """

    vertex: int
    v_module: ModuleRep
    omega: ModuleRep
    omega_inclusion: ModuleMorphism  # ΩV -> Q_0
    q0_cover: ModuleMorphism  # Q_0 ->> V
    dim: int
    representatives: tuple
    actions: tuple
    _hom_flats: np.ndarray
    _quotient: object

    def class_coords(self, f: ModuleMorphism) -> np.ndarray:
        """Coordinates in the Ext^1 basis of the class of f: ΩV → U."""
        fld = self.v_module.algebra.field
        coords = fld.coords_in_rowspace(self._hom_flats, f.flatten().reshape(1, -1))
        assert coords is not None
        return fld.mul(coords, self._quotient.proj)[0]


def _rad_end_paths(tbl: AlgebraTable, v: int):
    """Basis of rad End(P(v)) = e_v·rad(A)·e_v: nontrivial cycles at v."""
    return [p for p in tbl.basis_paths_from(v) if p.target == v and len(p.arrows) >= 1]


def ext1_with_end_action(v_module: ModuleRep, vertex: int) -> Ext1Data:
    """Ext^1(V, P(vertex)) with the rad End action, from V's presentation."""
    tbl = v_module.algebra
    fld = tbl.field
    u = projective(tbl, vertex)
    b = _builder(v_module)
    omega = b.syzygy(1)
    if omega.is_zero:
        raise ValueError("Ext^1 vanishes: the module has projective dimension 0")
    incl = b.inclusions[0]
    cover = b.covers[0]
    hom = hom_basis(omega, u)
    if hom.dim == 0:
        raise ValueError("Ext^1 vanishes: no morphisms from the syzygy")
    flats = np.stack([g.flatten() for g in hom.morphisms])
    restricted = []
    for g in hom_basis(b.sums[0].module, u).morphisms:
        coords = fld.coords_in_rowspace(flats, incl.compose(g).flatten().reshape(1, -1))
        assert coords is not None
        restricted.append(coords[0])
    rows = (
        np.stack(restricted) if restricted else fld.zeros(0, hom.dim)
    )
    quot = fld.quotient_by_rowspace(fld.row_space_basis(rows), hom.dim)
    if quot.dim == 0:
        raise ValueError("Ext^1 vanishes: every class lifts to the cover")
    # independent route: the cochain computation must agree
    assert quot.dim == ext_dim(v_module, u, 1), "Ext^1 dimension mismatch between routes"
    reps = []
    for j in range(quot.dim):
        combo = hom.combo(quot.section[j])
        reps.append(combo)
    actions = []
    for path in _rad_end_paths(tbl, vertex):
        lm = left_mult_morphism(tbl, {path: 1}, src=vertex, dst=vertex)
        mat = fld.zeros(quot.dim, quot.dim)
        for j, rep in enumerate(reps):
            composed = rep.compose(lm)
            coords = fld.coords_in_rowspace(flats, composed.flatten().reshape(1, -1))
            assert coords is not None
            mat[j] = fld.mul(coords, quot.proj)[0]
        actions.append(mat)
    return Ext1Data(
        vertex=vertex,
        v_module=v_module,
        omega=omega,
        omega_inclusion=incl,
        q0_cover=cover,
        dim=quot.dim,
        representatives=tuple(reps),
        actions=tuple(actions),
        _hom_flats=flats,
        _quotient=quot,
    )


class ArSequenceError(RuntimeError):
    """A constructed almost split sequence fails one of its invariants."""


@dataclass(frozen=True)
class ArSequence:
    vertex: int
    u: ModuleRep
    x: ModuleRep
    v: ModuleRep
    inclusion: ModuleMorphism  # U -> X
    surjection: ModuleMorphism  # X -> V
    class_map: ModuleMorphism  # ΩV -> U representing the extension class
    ext_data: Ext1Data

    def check(self) -> None:
        """Re-verify the structural invariants; raises ArSequenceError on failure."""
        if self.x.total_dim != self.u.total_dim + self.v.total_dim:
            raise ArSequenceError("dim X != dim U + dim V")
        if not self.inclusion.is_injective_map():
            raise ArSequenceError("U -> X is not injective")
        if not self.surjection.is_surjective_map():
            raise ArSequenceError("X -> V is not surjective")
        if not self.inclusion.compose(self.surjection).is_zero:
            raise ArSequenceError("the composite U -> X -> V is not zero")
        ker = factorize(self.surjection).kernel
        if ker.total_dim != self.u.total_dim:
            raise ArSequenceError("the kernel of X -> V is not the image of U")
        coords = self.ext_data.class_coords(self.class_map)
        if not np.any(coords):
            raise ArSequenceError("extension class is zero: the sequence would split")
        fld = self.u.algebra.field
        for mat in self.ext_data.actions:
            if np.any(fld.mul(coords.reshape(1, -1), mat)):
                raise ArSequenceError("class not annihilated by rad End(U)")


def _socle_coords(data: Ext1Data) -> np.ndarray:
    """Basis rows of the joint kernel of the rad End(U) action matrices."""
    fld = data.v_module.algebra.field
    if not data.actions:
        return fld.eye(data.dim)
    spread = np.concatenate(data.actions, axis=1)
    rows = fld.left_kernel_basis(spread)
    assert rows.shape[0] >= 1, "empty Ext-socle: impossible for an AR starting term"
    return rows


def almost_split_from_projective(tbl: AlgebraTable, vertex: int, choice: int = 0) -> ArSequence:
    """The almost split sequence 0 → P(vertex) → X → τ⁻¹P(vertex) → 0.

    ``choice`` selects among deterministic nonzero socle elements (different
    choices produce isomorphic middle terms; exposed for exactly that test).
    """
    u = projective(tbl, vertex)
    if is_injective(u):
        raise ValueError(
            f"projective at vertex {tbl.quiver.vertices[vertex]} is injective; "
            "no almost split sequence starts there"
        )
    key = ("ar_sequence", vertex, choice)
    if key in tbl._cache:
        return tbl._cache[key]
    fld = tbl.field
    v_mod = tau_inverse(u)
    assert not v_mod.is_zero
    data = ext1_with_end_action(v_mod, vertex)
    socle = _socle_coords(data)
    candidates = [socle[i] for i in range(socle.shape[0])]
    doubled = (2 * socle[0]) % fld.p
    if np.any(doubled):  # zero over GF(2): that class would split
        candidates.append(doubled)
    xi = candidates[choice % len(candidates)]
    # lift the socle class to a representing morphism ΩV -> U; representative
    # j realizes the j-th quotient coordinate, so the combination mirrors xi
    class_map = None
    for c, rep in zip(xi, data.representatives):
        piece = rep.scale(int(c))
        class_map = piece if class_map is None else class_map.add(piece)
    q0 = data.q0_cover.source
    total = direct_sum(tbl, [u, q0])
    incls, projs = sum_inclusions(tbl, [u, q0], total)
    g = class_map.compose(incls[0]).add(data.omega_inclusion.compose(incls[1]).scale(-1))
    parts = factorize(g)
    x = parts.cokernel
    x.label = f"X({u.label})"
    inclusion = incls[0].compose(parts.cokernel_projection)
    # the map U ⊕ Q_0 -> V (zero on U, the cover on Q_0) kills im(g), so it
    # descends along the quotient's section
    phi = projs[1].compose(data.q0_cover)
    surj_mats = []
    for w in range(len(tbl.quiver.vertices)):
        section = _cokernel_section(parts, w, fld)
        surj_mats.append(fld.mul(section, phi.mats[w]))
    surjection = ModuleMorphism(x, v_mod, surj_mats)
    seq = ArSequence(
        vertex=vertex,
        u=u,
        x=x,
        v=v_mod,
        inclusion=inclusion,
        surjection=surjection,
        class_map=class_map,
        ext_data=data,
    )
    seq.check()
    tbl._cache[key] = seq
    return seq


def _cokernel_section(parts, w: int, fld):
    """Right inverse of the cokernel projection at vertex w."""
    proj = parts.cokernel_projection.mats[w]
    section = fld.solve_left(proj, fld.eye(proj.shape[1]))
    assert section is not None
    return section


def has_n_tf_ar_sequences(tbl: AlgebraTable, n: int):
    """Whether every AR sequence starting at a projective is n-torsion-free.

    Returns (verdict, report): verdict is a plain bool (the underlying Ext
    computations are exact), vacuously True when every projective is
    injective.  The report lists one entry per vertex: skipped vertices carry
    a ``skipped`` reason; tested vertices map each term U, X, V to None (all
    required Ext groups vanish) or to the first degree where one does not.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    report = []
    verdict = True
    tested = 0
    for vertex in range(len(tbl.quiver.vertices)):
        u = projective(tbl, vertex)
        name = tbl.quiver.vertices[vertex]
        if is_injective(u):
            report.append({"vertex": name, "skipped": "projective is injective"})
            continue
        tested += 1
        seq = almost_split_from_projective(tbl, vertex)
        entry = {"vertex": name, "terms": {}}
        for term_name, term in (("U", seq.u), ("X", seq.x), ("V", seq.v)):
            bad = _first_nonvanishing_degree(term, n)
            entry["terms"][term_name] = bad
            if bad is not None:
                verdict = False
        report.append(entry)
    if tested == 0:
        report.append({"note": "vacuous: every projective is injective"})
    return verdict, report


def first_failure(report):
    """(vertex, term, degree) of the first reported failure, or None."""
    for entry in report:
        for term_name in ("U", "X", "V"):
            bad = entry.get("terms", {}).get(term_name)
            if bad is not None:
                return entry["vertex"], term_name, bad
    return None


def _first_nonvanishing_degree(m: ModuleRep, n: int):
    """Least 1 <= i <= n with Ext^i over the opposite of (Tr m, A°) nonzero."""
    tr = transpose(m)
    if tr.is_zero:
        return None
    areg = regular(tr.algebra)
    for i in range(1, n + 1):
        if ext_dim(tr, areg, i) != 0:
            return i
    return None
