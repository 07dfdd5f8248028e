"""Almost split sequences, and the indecomposables they knit together.

For an indecomposable non-injective U with a basis of rad End(U), the
sequence 0 → U → X → V → 0 with V = τ⁻¹U is constructed from an extension
class: Ext^1(V, U) is read off the minimal presentation P_1 → P_0 → V of V as
cocycles P_1 → U modulo the maps that factor through d_1
(:func:`ext_classes`), End(U) acts by post-composition, and any nonzero
element of the socle of that action represents the almost split extension.
A cocycle c factors through the cover P_1 ↠ ΩV, so the middle term is the
pushout X = coker((c, −d_1): P_1 → U ⊕ P_0), the pushout along ΩV ⊆ P_0,
built at each vertex from the block [c_v | −d_1,v].

:func:`knit_indecomposables` closes the projectives under the targets of
left almost split maps; a finite closure is every indecomposable.  It reads
the targets off the AR mesh (:func:`_knit`): every listed module certifies
End/rad = k, so the successors of U are τ⁻¹ of its non-injective
predecessors and the P(w) with U | rad P(w), and the predecessors of τ⁻¹U
are the successors of U.  One τ⁻¹ is taken per listed non-injective module,
and a sequence is built by :func:`almost_split` only for a module whose
predecessors are not known yet, which is never an injective one.
:func:`almost_split_from_projective` passes the cycles at v, which span
rad End(P(v)) = e_v·rad(A)·e_v, and serves :func:`ar_report`.

:func:`has_n_tf_ar_sequences` decides whether the sequences that start at
projectives are n-torsion-free without building them, from D rad P(v) and
D P(v) (:func:`_sweep`); :func:`ar_report` builds them as well and checks
the degrees against their terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraTable
from .homology import (
    _presentation,
    ext_classes,
    first_nonzero_ext,
    post_compose,
    tau_inverse,
    torsion_free_failure_degree,
)
from .modules import (
    _projective_injective_tops,
    Indecomposable,
    InvariantError,
    ModuleMorphism,
    ModuleRep,
    certify_local,
    cokernel,
    direct_sum,
    dual,
    indecomposable_summands,
    is_injective,
    isomorphic_to,
    kernel,
    memoized,
    morphism_from_flat,
    proj_cover,
    proj_sum,
    projective,
    projective_paths,
    projsum_morphism,
    radical,
    yoneda_block,
)

__all__ = [
    "ArSequence",
    "ArSequenceError",
    "projective_rad_end",
    "almost_split",
    "almost_split_from_projective",
    "knit_indecomposables",
    "has_n_tf_ar_sequences",
    "ar_report",
    "first_failure",
    "failure_witness",
]


def _rad_end_paths(tbl: AlgebraTable, v: int):
    """Basis of rad End(P(v)) = e_v·rad(A)·e_v: nontrivial cycles at v."""
    return [p for p in tbl.basis_paths_from(v) if p.target == v and len(p.arrows) >= 1]


def projective_rad_end(tbl: AlgebraTable, v: int) -> list:
    """rad End(P(v)) as endomorphisms: left multiplication by each cycle of
    :func:`_rad_end_paths`, its row in the Yoneda block of P(v) into itself."""
    pv, index = projective(tbl, v), projective_paths(tbl, v)[v]
    block = yoneda_block(proj_sum(tbl, (v,)), pv)
    return [morphism_from_flat(pv, pv, block[index[p]]) for p in _rad_end_paths(tbl, v)]


def _cocycle(v_module: ModuleRep, u: ModuleRep, coeffs) -> ModuleMorphism:
    """The cocycle P_1 → U of the Ext^1(V, U) class with coordinates
    ``coeffs``: a map out of P_1 is fixed by its generator images."""
    fld = v_module.algebra.field
    ps1 = _presentation(v_module)[1]
    cocycles, quot = ext_classes(v_module, u, 1)
    row = fld.mul(fld.mul(np.reshape(coeffs, (1, -1)), quot.section), cocycles)[0]
    bounds = np.cumsum([0] + [u.dims[w] for w in ps1.vertices])
    return projsum_morphism(ps1, u, [row[a:b] for a, b in zip(bounds, bounds[1:])])


class ArSequenceError(RuntimeError):
    """A constructed almost split sequence fails one of its invariants."""


@dataclass(frozen=True)
class ArSequence:
    """0 → U → X → V → 0 with the cocycle of its class and the action of
    rad End(U) on Ext^1(V, U): ``actions[r]`` is the matrix, acting on
    coordinate rows of the :func:`ext_classes` basis, of post-composition
    with the r-th basis element of rad End(U)."""

    u: ModuleRep
    x: ModuleRep
    v: ModuleRep
    inclusion: ModuleMorphism  # U -> X
    surjection: ModuleMorphism  # X -> V
    class_map: ModuleMorphism  # a cocycle P_1 -> U representing the extension class
    actions: tuple

    def class_coords(self, f: ModuleMorphism) -> np.ndarray:
        """Coordinates in the Ext^1(V, U) basis of the class of a cocycle f: P_1 → U."""
        fld = self.v.algebra.field
        ps1 = _presentation(self.v)[1]
        shape = (ps1.module.dims, self.u.dims)
        if (f.source.dims, f.target.dims) != shape or f.defect() is not None:
            raise ArSequenceError("the class map is not a morphism P_1 → U")
        cocycles, quot = ext_classes(self.v, self.u, 1)
        gens = np.concatenate([f.mats[u][ps1.first[s][u]] for s, u in enumerate(ps1.vertices)])
        coords = fld.coords_in_rowspace(cocycles, gens.reshape(1, -1))
        if coords is None:
            raise ArSequenceError("the class map is not a cocycle P_1 → U")
        return fld.mul(coords, quot.proj)[0]

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
        ker = kernel(self.surjection)[0]
        if ker.total_dim != self.u.total_dim:
            raise ArSequenceError("the kernel of X -> V is not the image of U")
        coords = self.class_coords(self.class_map)
        if not np.any(coords):
            raise ArSequenceError("extension class is zero: the sequence would split")
        fld = self.u.algebra.field
        for mat in self.actions:
            if np.any(fld.mul(coords.reshape(1, -1), mat)):
                raise ArSequenceError("class not annihilated by rad End(U)")


def _socle_coords(actions: tuple, dim: int, fld) -> np.ndarray:
    """Basis rows of the joint kernel of the rad End(U) action matrices on
    Ext^1 of dimension ``dim``; none (Ext^1 = 0 included) is an error."""
    rows = fld.left_kernel_basis(np.concatenate(actions, axis=1)) if actions else fld.eye(dim)
    if rows.shape[0] == 0:
        raise ArSequenceError("empty Ext-socle: impossible for an AR starting term")
    return rows


def almost_split(u: ModuleRep, rad_end, choice: int = 0) -> ArSequence:
    """The almost split sequence 0 → U → X → τ⁻¹U → 0 of an indecomposable
    non-injective U, given ``rad_end``, a basis of rad End(U).

    ``choice`` selects among deterministic nonzero socle elements (different
    choices produce isomorphic middle terms; exposed for exactly that test).
    Every invariant of :meth:`ArSequence.check` is checked before returning.
    """
    tbl = u.algebra
    fld = tbl.field
    v_mod = tau_inverse(u)
    if v_mod.is_zero:
        raise ArSequenceError(f"the inverse translate of the non-injective {u.label} is zero")
    actions = tuple(post_compose(v_mod, 1, r) for r in rad_end)
    socle_rows = _socle_coords(actions, ext_classes(v_mod, u, 1)[1].dim, fld)
    candidates = [socle_rows[i] for i in range(socle_rows.shape[0])]
    doubled = (2 * socle_rows[0]) % fld.p
    if np.any(doubled):  # zero over GF(2): that class would split
        candidates.append(doubled)
    class_map = _cocycle(v_mod, u, candidates[choice % len(candidates)])
    p0, _, _, d1 = _presentation(v_mod)
    # X = coker((c, −d_1): P_1 → U ⊕ P_0), block [c_v | −d_1,v] at each vertex
    g = ModuleMorphism._trusted(
        d1.source,
        direct_sum(tbl, [u, p0.module]),
        [np.concatenate([c, (-d) % fld.p], axis=1) for c, d in zip(class_map.mats, d1.mats)],
    )
    x, projection, sections = cokernel(g)
    inclusion = ModuleMorphism._trusted(u, x, [pr[:k] for k, pr in zip(u.dims, projection.mats)])
    # the map U ⊕ P_0 -> V (zero on U, the cover on P_0) kills im(g), so it
    # descends along the quotient's section
    cover = proj_cover(v_mod)[1]
    surjection = ModuleMorphism(
        x, v_mod, [fld.mul(s[:, k:], b) for k, s, b in zip(u.dims, sections, cover.mats)]
    )
    seq = ArSequence(u, x, v_mod, inclusion, surjection, class_map, actions)
    seq.check()
    return seq


@memoized
def almost_split_from_projective(tbl: AlgebraTable, vertex: int, choice: int = 0) -> ArSequence:
    """The almost split sequence 0 → P(vertex) → X → τ⁻¹P(vertex) → 0:
    :func:`almost_split` with the cycle basis of :func:`projective_rad_end`."""
    if vertex in _projective_injective_tops(tbl):
        raise ValueError(
            f"projective at vertex {tbl.quiver.vertices[vertex]} is injective; "
            "no almost split sequence starts there"
        )
    return almost_split(projective(tbl, vertex), projective_rad_end(tbl, vertex), choice)


@memoized
def knit_indecomposables(tbl: AlgebraTable, limit: int):
    """Every indecomposable module up to isomorphism, each certified, or None.

    The :class:`~ardom.modules.Indecomposable` records of :func:`_knit`,
    P(v) first, the others labelled ``ind[i]`` in order of discovery.  None
    when the list would pass ``limit`` modules, when a module would pass
    2·dim A, the size of the largest quotient the module sample draws,
    when a certificate fails (p | dim U, or a split not found), or when
    the mesh would leave an injective module's successors to be built,
    which :func:`_knit` shows never happens on an algebra that knits.
    """
    knit = _knit(tbl, limit)
    return None if knit is None else knit[0]


def _knit(tbl: AlgebraTable, limit: int):
    """(records, successors, inverse_translates) of the knitted AR quiver,
    or None (the give-ups of :func:`knit_indecomposables`).

    ``successors[i]`` lists, with multiplicity, the indices of the targets
    of the left almost split map out of U = ``records[i]``: the summands of
    the middle term of its almost split sequence when U is not injective,
    of U/soc U when it is, each read off the mesh or, on a τ-periodic orbit,
    off a built sequence.  ``inverse_translates[i]`` is the index of τ⁻¹U
    for every non-injective U.

    The list S starts at the P(v) and the summands of each rad P(v)
    (:func:`~ardom.modules.indecomposable_summands`), and every listed
    non-injective U has τ⁻¹U (:func:`~ardom.homology.tau_inverse`)
    identified against S (:func:`~ardom.modules.isomorphic_to`) or listed
    with its certificate (:func:`~ardom.modules.certify_local`).  Every
    record certifies End/rad = k, so the AR mesh gives the successors
    without a sequence (Auslander–Reiten–Smalø, *Representation Theory of
    Artin Algebras*, Ch. V.5 and VII.1; Assem–Simson–Skowroński, *Elements*
    vol. 1, Ch. IV.4).  An irreducible map U → Y goes either to a
    projective P(w), as often as U is a summand of rad P(w), the inclusion
    rad P(w) ⊆ P(w) being minimal right almost split; or to Y = τ⁻¹W with
    W → U irreducible, as often as W occurs in the middle term ending at U,
    the valuations being symmetric under τ.  So with pred(U) the summands
    of that middle term (of rad P(v) for U = P(v)):

        succ(U) = τ⁻¹ pred(U) ⊕ (the P(w) with U | rad P(w)),
        pred(τ⁻¹U) = succ(U),

    τ⁻¹ dropping the injective predecessors.  Modules whose predecessors
    are known are taken first, in index order; only when none is left is
    the sequence of the least remaining module built, by
    :func:`almost_split` from its record's rad End basis, and its middle
    term split.  That happens where the mesh has no starting point, on a
    τ-periodic orbit (the simples of a selfinjective Nakayama algebra).
    Should the least remaining module be injective, the knit gives None
    rather than build U/soc U, and no result changes.  On a
    representation-finite algebra every τ-orbit is periodic or starts at a
    projective, whose τ⁻¹-chain is listed and read off the mesh link by link
    (pred(τ⁻¹U) = succ(U)) before any sequence is built, and an injective is
    never τ-periodic, as τ⁻¹ kills it.  On a representation-infinite algebra
    the closure never finishes, so the knit gives None whatever it builds.

    A finite S closed this way is every indecomposable, as every listed
    module has its successors listed.  Let b be the largest length in S and
    M ∉ S indecomposable.  A nonzero map from a listed X to M is not split
    mono (M ≇ X), so it factors through X's left almost split map, whose
    targets are listed: it is a sum of composites X → X' → M with X → X'
    irreducible and X' ∈ S.  After 2^b − 1 such steps the map is a sum of
    composites of 2^b − 1 non-isomorphisms between indecomposables of
    length ≤ b, followed by a map to M, and these vanish by the Harada–Sai
    lemma.  So every map from S to M is zero; but M receives a nonzero map
    from its projective cover, a sum of listed P(v).  Hence M ∈ S
    (Assem–Simson–Skowroński, *Elements* vol. 1, Ch. IV.5).
    """
    nv = len(tbl.quiver.vertices)
    if nv > limit:
        return None
    found = [certify_local(projective(tbl, v)) for v in range(nv)]
    if any(cert is None for cert in found):
        return None
    where = {id(ind): i for i, ind in enumerate(found)}  # found keeps each record alive

    def listed(cert):
        """The index of a new certified record, or None past ``limit`` or 2·dim A."""
        if len(found) == limit or cert.module.total_dim > 2 * tbl.dimension:
            return None
        found.append(Indecomposable(cert.module.relabeled(f"ind[{len(found)}]"), cert.rad_end))
        where[id(found[-1])] = len(found) - 1
        return len(found) - 1

    def summands(m):
        """Indices of m's summands with multiplicity, new ones listed once; None on a give-up."""
        parts = indecomposable_summands(m, found)
        if parts is None:
            return None
        new = {}  # a new record (isomorphic summands share one) -> its index, while parts holds it
        out = []
        for part in parts:
            i = where.get(id(part), new.get(id(part)))
            if i is None:
                i = new[id(part)] = listed(part)
                if i is None:
                    return None
            out.append(i)
        return out

    preds = {v: summands(radical(projective(tbl, v))[0]) for v in range(nv)}
    if any(p is None for p in preds.values()):
        return None
    into_projectives = {}  # i -> the w with U_i | rad P(w), with multiplicity
    for w in range(nv):
        for i in preds[w]:
            into_projectives.setdefault(i, []).append(w)
    tau_inv, succs, translated = {}, {}, 0
    while True:
        while translated < len(found):  # τ⁻¹ of each listed module, those it lists included
            u = found[translated].module
            if not is_injective(u):
                v = tau_inverse(u)
                j = next((j for j, ind in enumerate(found) if isomorphic_to(v, ind)), None)
                if j is None:
                    cert = certify_local(v)
                    j = None if cert is None else listed(cert)
                    if j is None:
                        return None
                tau_inv[translated] = j
            translated += 1
        ready = next((i for i in range(len(found)) if i not in succs and i in preds), None)
        if ready is not None:  # the mesh lists nothing new: each τ⁻¹ is listed already
            succs[ready] = [tau_inv[w] for w in preds[ready] if w in tau_inv]
            succs[ready] += into_projectives.get(ready, [])
        else:
            ready = next((i for i in range(len(found)) if i not in succs), None)
            if ready is None:
                return tuple(found), succs, tau_inv
            if ready not in tau_inv:  # an injective: unreachable, see above
                return None
            ind = found[ready]
            succs[ready] = summands(almost_split(ind.module, ind.rad_end).x)
            if succs[ready] is None:
                return None
        if ready in tau_inv:
            preds[tau_inv[ready]] = succs[ready]


def _sweep(tbl: AlgebraTable, n: int):
    """Yield (vertex, term, degree) in report order, building no almost
    split sequence and no transpose.

    A vertex whose projective is injective yields one item with term None.
    Every other vertex v yields the terms U, X, V of its almost split
    sequence 0 → P → X → τ⁻¹P → 0, P = P(v), in turn, each with None (the
    required Ext groups vanish) or the first degree where one does not.
    Term M fails at the least i <= n with Ext^i(Tr M, A°) ≠ 0 over the
    opposite algebra, and each Tr M is known up to projective summands,
    which Ext^{>=1}(−, A°) does not see, by identities that hold over every
    artin algebra (so over every GF(p)):

    - U = P is projective, so Tr U = 0 and U never fails.
    - V = τ⁻¹P = Tr D P.  P is not injective, so D P is indecomposable and
      not projective, and Tr V = Tr Tr D P ≅ D P (Auslander–Reiten–Smalø,
      *Representation Theory of Artin Algebras*, Ch. IV.1).  V fails at the
      least i with Ext^i(D P, A°) ≠ 0.
    - X.  An irreducible map out of P goes either to a projective Q, with P
      a summand of rad Q, or to a non-projective Y.  Then τY → P is
      irreducible too, so W = τY is a non-injective summand of rad P, as
      the inclusion rad P ⊆ P is minimal right almost split.  The
      valuations are symmetric under τ (ARS Ch. V.5 and VII.1;
      Assem–Simson–Skowroński, *Elements* vol. 1, Ch. IV.3): Y = τ⁻¹W
      occurs in X as often as W occurs in rad P.  So X ≅ τ⁻¹(rad P) ⊕
      (projectives), τ⁻¹ killing the injective summands of rad P, whose
      duals are projective; hence Tr X ≅ Tr Tr D rad P ≅ D rad P up to
      projective summands.  X fails at the least i with
      Ext^i(D rad P, A°) ≠ 0, and never when D rad P is projective
      (rad P = 0 included).

    :func:`ar_report` builds each sequence and checks these degrees against
    its terms.  Items are yielded lazily, so a caller that stops at a
    failing X never reads V.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for vertex in range(len(tbl.quiver.vertices)):
        if vertex in _projective_injective_tops(tbl):
            yield vertex, None, None
            continue
        p = projective(tbl, vertex)
        yield vertex, "U", None
        yield vertex, "X", first_nonzero_ext(dual(radical(p)[0]), n)
        yield vertex, "V", first_nonzero_ext(dual(p), n)


def _until_failure(items):
    """The items up to and including the first one with a degree."""
    for item in items:
        yield item
        if item[2] is not None:
            return


def _verdict_and_report(tbl: AlgebraTable, items):
    """(verdict, report) from sweep items: one entry per vertex reached, a
    ``vacuous`` note when none was tested, verdict False iff some term fails."""
    report = []
    for vertex, term_name, degree in items:
        name = tbl.quiver.vertices[vertex]
        if term_name is None:
            report.append({"vertex": name, "skipped": "projective is injective"})
            continue
        if term_name == "U":
            report.append({"vertex": name, "terms": {}})
        report[-1]["terms"][term_name] = degree
    if all("terms" not in entry for entry in report):
        report.append({"note": "vacuous: every projective is injective"})
    return first_failure(report) is None, report


def has_n_tf_ar_sequences(tbl: AlgebraTable, n: int):
    """Whether every AR sequence starting at a projective is n-torsion-free.

    Returns (verdict, report): verdict is a plain bool (the underlying Ext
    computations are exact), vacuously True when every projective is
    injective.  The degrees are read off D rad P(v) and D P(v) over the
    opposite algebra (:func:`_sweep`); no sequence is built.  One failing
    term refutes the claim, so the sweep stops there: a False report ends
    at the failing vertex, whose entry holds its terms U, X, V up to and
    including the failing one.  A True report is the full
    :func:`ar_report`.
    """
    return _verdict_and_report(tbl, _until_failure(_sweep(tbl, n)))


def ar_report(tbl: AlgebraTable, n: int):
    """(verdict, report) of the full sweep: the verdict of
    :func:`has_n_tf_ar_sequences`, and one entry per vertex.  Skipped vertices
    carry a ``skipped`` reason; tested vertices map each term U, X, V to None
    (all required Ext groups vanish) or to the first degree where one does
    not.

    Every almost split sequence is also built and checked
    (:meth:`ArSequence.check`), and each term's degree is read a second
    time off its transpose (:func:`~ardom.homology.torsion_free_failure_degree`);
    an :class:`~ardom.modules.InvariantError` is raised where that differs
    from the degree the sweep read off D rad P(v) or D P(v).
    """
    items = list(_sweep(tbl, n))
    for vertex, term_name, degree in items:
        if term_name == "U":  # the first item of a tested vertex
            seq = almost_split_from_projective(tbl, vertex)
            terms = {"U": seq.u, "X": seq.x, "V": seq.v}
        if term_name is not None:
            built = torsion_free_failure_degree(terms[term_name], n)
            if built != degree:
                raise InvariantError(
                    f"term {term_name} at vertex {tbl.quiver.vertices[vertex]}: the sweep "
                    f"reads degree {degree}, the built sequence {built}"
                )
    return _verdict_and_report(tbl, items)


def first_failure(report):
    """(vertex, term, degree) of the first reported failure, or None."""
    for entry in report:
        for term_name in ("U", "X", "V"):
            bad = entry.get("terms", {}).get(term_name)
            if bad is not None:
                return entry["vertex"], term_name, bad
    return None


def failure_witness(report):
    """The first reported failure as {"vertex", "term", "degree"}, or None:
    the witness of every verdict and ``ar-check`` record."""
    failure = first_failure(report)
    return None if failure is None else dict(zip(("vertex", "term", "degree"), failure))
