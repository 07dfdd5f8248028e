"""Homological invariants over bound quiver algebras.

Syzygies Ω^k M, whose minimal presentations P_1 -> P_0 -> M (built in
:mod:`ardom.modules`) give every degree of a minimal resolution (degree i of
M is degree 0 of Ω^i M; an injective coresolution is the dual of the
opposite side's resolution), Ext dimensions, the transpose and the
translates D·Tr / Tr·D, the torsion submodule t(M) (the kernel of the
evaluation map into the double dual, read without building it),
n-torsion-freeness, and the capped numeric invariants (grade, dominant,
global, Gorenstein dimension).

Unbounded searches are capped (default 30) and report their outcome through
:class:`CappedNat`, which keeps "exact n", "at least n", and
"infinite, with a certificate" apart.  Searches with a fixed target degree
(a single Ext dimension, say) raise their own resolution depth as needed and
are always exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraTable, opposite, reverse_path
from .modules import (
    _cochain,
    _hom_maps,
    _presentation,
    _projective_injective_socles,
    _projective_injective_tops,
    InvariantError,
    ModuleMorphism,
    ModuleRep,
    dual,
    cokernel,
    is_projective,
    kernel,
    memoized,
    omega,
    proj_sum,
    projective,
    projsum_map_from_elements,
    quotient_by_rows,
    regular,
    simple,
    socle_vertices,
    submodule_from_rows,
    top_vertices,
    zero_module,
)

__all__ = [
    "DEFAULT_CAP",
    "CappedNat",
    "InvariantError",
    "syzygy",
    "ext_dim",
    "ext_classes",
    "post_compose",
    "ext_module",
    "transpose",
    "tau",
    "tau_inverse",
    "torsion",
    "grade",
    "domdim_module",
    "domdim_algebra",
    "pdim",
    "injdim",
    "gldim",
    "gorenstein_dim",
    "first_nonzero_ext",
    "torsion_free_failure_degree",
    "is_n_torsion_free",
    "domdim_R_via_mueller",
]

DEFAULT_CAP = 30


# ---------------------------------------------------------------------------
# capped integer invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CappedNat:
    """A nonnegative invariant that a bounded search may not pin down.

    kind 'exact': the value is known.
    kind 'at_least': the search exhausted its cap; the true value is >= value.
    kind 'infinite': certified infinite; certificate says why.
    """

    kind: str
    value: int = 0
    certificate: str = ""

    @staticmethod
    def exact(n: int) -> "CappedNat":
        return CappedNat("exact", int(n))

    @staticmethod
    def at_least(n: int) -> "CappedNat":
        return CappedNat("at_least", int(n))

    @staticmethod
    def infinite(certificate: str) -> "CappedNat":
        if not certificate:
            # an explicit raise, unlike an assert, survives python -O
            raise AssertionError("infinite requires a certificate")
        return CappedNat("infinite", 0, certificate)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def ge(self, other):
        """self >= other as True / False / None (None: a cap was too small
        to decide).  ``other`` is a CappedNat or an int n, read as exact(n)."""
        other = _capped(other)
        if self.is_infinite:
            return True
        if other.is_infinite or self.value < other.value:
            return False if self.is_exact else None
        return True if other.is_exact else None

    def eq(self, other):
        """self == other, three-valued like :meth:`ge`: both ways >=."""
        other = _capped(other)
        both = (self.ge(other), other.ge(self))
        if False in both:
            return False
        return True if both == (True, True) else None

    @staticmethod
    def least(values) -> "CappedNat":
        """The least of ``values`` as far as their caps pin it down: an
        exact value when one lies at or below every lower bound, else at least
        the least bound or value; infinite when every value is."""
        values = list(values)
        exacts = [v.value for v in values if v.is_exact]
        bounds = [v.value for v in values if v.kind == "at_least"]
        if not exacts and not bounds:
            return CappedNat.infinite("all components certified infinite")
        if exacts and (not bounds or min(bounds) >= min(exacts)):
            return CappedNat.exact(min(exacts))
        return CappedNat.at_least(min(bounds + exacts))

    @staticmethod
    def greatest(values) -> "CappedNat":
        """The exact greatest of ``values`` when every one is exact, else the
        first that is not, and no later one is read.  Every maximum the values
        allow is allowed by that one; it is also the tightest answer when,
        as for pdims capped at ``cap + 1``, a bound exceeds every exact value."""
        best = 0
        for v in values:
            if not v.is_exact:
                return v
            best = max(best, v.value)
        return CappedNat.exact(best)

    def __str__(self):
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at_least":
            return f">={self.value}"
        return f"inf ({self.certificate})"

    def to_json(self):
        out = {"kind": self.kind}
        if self.kind != "infinite":
            out["value"] = self.value
        if self.certificate:
            out["certificate"] = self.certificate
        return out


def _capped(x) -> CappedNat:
    return x if isinstance(x, CappedNat) else CappedNat.exact(x)


def _check_cap(cap: int) -> None:
    """The one check of a capped invariant's cap, as for negative degrees."""
    if cap < 0:
        raise ValueError("cap must be >= 0")


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------


def syzygy(m: ModuleRep, k: int = 1) -> ModuleRep:
    """Ω^k m, the kernel of the projective cover taken k times.

    Degree i of the minimal resolution of m is degree 0 of Ω^i m: P_i is
    the cover of Ω^i m and d_i is d_1 of Ω^{i-1} m.  Read along
    :func:`_walk`, so a large k costs at most one walk into the cycle of
    syzygies and once around it.
    """
    if k < 0:
        raise ValueError("negative syzygy degree")
    if k == 0:
        return m
    syz = m  # a zero m yields no step
    for j, (syz, q) in enumerate(_walk(m), 1):
        if j == k:
            return syz
        if q:
            return syzygy(syz, (k - j) % q)
    return syz


def _walk(m: ModuleRep):
    """(Ω^j m, q) for j = 1, 2, ...: the one syzygy walk, and the only place
    that notices a repeat.  Each step is the shared :func:`omega` of a
    module signature, so resolutions whose syzygies coincide compute each
    step once, and Ω^{j+1} m depends only on the signature of Ω^j m.  So the
    walk ends after a zero syzygy, and at the first Ω^j m whose signature
    repeats that of Ω^{j−q} m (j − q >= 1), yielded with that q > 0: past
    either it only repeats.  q is 0 on every other item; m itself is not
    counted as seen, and a zero m yields nothing."""
    seen = {}  # signature of Ω^j m -> j
    for j in itertools.count(1):
        if m.is_zero:
            return
        m = omega(m)[0]
        q = j - seen.setdefault(m.signature(), j)
        yield m, q
        if q:
            return


# ---------------------------------------------------------------------------
# Ext dimensions
# ---------------------------------------------------------------------------


@memoized
def ext_dim(m: ModuleRep, n: ModuleRep, i: int) -> int:
    """dim_k Ext^i(m, n) via the minimal projective resolution of m: the
    cocycles of the :func:`_cochain` out of Hom(P_i, N) less the rank,
    rows less cocycles, of the one into it.

    The resolution is extended to degree i+1 on demand, so the answer is
    always exact for the requested degree.
    """
    if i < 0:
        raise ValueError("negative Ext degree")
    if m.algebra is not n.algebra:
        raise ValueError("ext_dim: modules live over different algebras")
    mat, prev = _cochain(syzygy(m, i - 1), n) if i else ((), ())
    return len(_cochain(syzygy(m, i), n)[1]) - (len(mat) - len(prev))


@memoized
def ext_classes(m: ModuleRep, n: ModuleRep, i: int) -> tuple:
    """(cocycles, quotient) of Ext^i(m, n) in generator coordinates: the
    kernel rows of the shared cochain matrix out of Hom(P_i, N), and their
    quotient by the coboundaries (none in degree 0, where this is Hom(m, N)).
    Degree i >= 2 is degree 1 of Ω^{i-1} m, and is read there."""
    if i < 0:
        raise ValueError("negative Ext degree")
    if i >= 2:
        return ext_classes(syzygy(m, i - 1), n, 1)
    f = m.algebra.field
    cocycles = _cochain(syzygy(m, i), n)[1]
    coords = f.zeros(0, cocycles.shape[0])
    if i >= 1:
        coords = f.coords_in_rowspace(cocycles, _cochain(syzygy(m, i - 1), n)[0])
        if coords is None:
            raise InvariantError("cochain image escapes the kernel")
    quot = f.quotient_by_rowspace(coords, cocycles.shape[0])
    if quot.dim != ext_dim(m, n, i):
        raise InvariantError("graded Ext dimension mismatch")
    return cocycles, quot


def post_compose(m: ModuleRep, i: int, lm: ModuleMorphism) -> np.ndarray:
    """Post-composition with lm: N -> N' as a matrix Ext^i(m, N) ->
    Ext^i(m, N') on the :func:`ext_classes` bases; lm moves the block of a
    cochain at each copy P(u) of P_i by its block at u."""
    if i < 0:
        raise ValueError("negative Ext degree")
    f = m.algebra.field
    src, dst = ext_classes(m, lm.source, i), ext_classes(m, lm.target, i)
    if not src[1].dim or not dst[1].dim:
        return f.zeros(src[1].dim, dst[1].dim)
    lam = f.block_diag([lm.mats[u] for u in _presentation(syzygy(m, i))[0].vertices])
    moved = f.mul(f.mul(src[1].section, src[0]), lam)
    coords = f.coords_in_rowspace(dst[0], moved)
    if coords is None:
        raise InvariantError("post-composition leaves the cocycle space")
    return f.mul(coords, dst[1].proj)


@memoized
def ext_module(m: ModuleRep, i: int) -> ModuleRep:
    """Ext^i(m, A) as a right module over the opposite algebra.

    Hom_A(P(v), A) is P°(v), so the dualised resolution Hom_A(P_•, A) is a
    complex of sums of opposite projectives whose maps are the
    :func:`_dual_presentation` of each syzygy.  Degree 0 is ker d_1*, the
    Hom-dual m*; degree 1 is ker d_2* / im d_1*, with d_2* the dual
    presentation of Ω m.  Degree i >= 2 is Ext^1(Ω^{i-1} m, A), so modules
    whose syzygies coincide share one Ext module.  Kept per module
    signature.
    """
    if i < 0:
        raise ValueError("negative Ext degree")
    if i >= 2:
        return ext_module(syzygy(m, i - 1), 1)
    if syzygy(m, i).is_zero:
        return zero_module(opposite(m.algebra))
    cocycles, inclusion = kernel(_dual_presentation(syzygy(m, i)))
    if i == 0:
        return cocycles
    f = m.algebra.field
    coboundaries = []
    for basis, block in zip(inclusion.mats, _dual_presentation(m).mats):
        coords = f.coords_in_rowspace(basis, block)
        if coords is None:
            raise InvariantError("a coboundary leaves the cocycles")
        coboundaries.append(coords)
    return quotient_by_rows(cocycles, coboundaries)[0]


# ---------------------------------------------------------------------------
# transpose and translates
# ---------------------------------------------------------------------------


@memoized
def _dual_presentation(m: ModuleRep) -> ModuleMorphism:
    """d_1* = Hom_A(d_1, A) for the minimal presentation P_1 -> P_0 -> m.

    With the differential written as elements x[t][s] in e_{V_t}·A·e_{U_s},
    the reversed elements give the map ⊕_t P°(V_t) -> ⊕_s P°(U_s) over the
    opposite algebra.  Shared by :func:`transpose` and :func:`ext_module`.
    """
    opp = opposite(m.algebra)
    ps0, ps1, x, _ = _presentation(m)
    y = [
        [{reverse_path(p): c for p, c in x[t][s].items()} for t in range(len(ps0.vertices))]
        for s in range(len(ps1.vertices))
    ]
    return projsum_map_from_elements(proj_sum(opp, ps0.vertices), proj_sum(opp, ps1.vertices), y)


@memoized
def transpose(m: ModuleRep) -> ModuleRep:
    """Tr m, the cokernel of :func:`_dual_presentation` over the opposite
    algebra; zero on projective modules, whose P_1 is 0.  Kept per module
    signature."""
    return cokernel(_dual_presentation(m))[0]


def tau(m: ModuleRep) -> ModuleRep:
    """D·Tr: zero exactly on modules with no non-projective summand."""
    return dual(transpose(m))


def tau_inverse(m: ModuleRep) -> ModuleRep:
    """Tr·D: zero exactly on modules with no non-injective summand."""
    return transpose(dual(m))


# ---------------------------------------------------------------------------
# torsion
# ---------------------------------------------------------------------------


@memoized
def torsion(m: ModuleRep) -> ModuleRep:
    """t(m), the kernel of the evaluation m -> m**, without building m**.

    x lies in that kernel exactly when φ(x) = 0 for every φ: m -> A, so at
    vertex u, t(m) is the left kernel ∩_φ {y : y·φ_u = 0} of the blocks φ_u
    of a basis of Hom(m, A), side by side: the vertex blocks of
    :func:`~ardom.modules._hom_maps` into A.  It depends only on the column
    space of the stacked φ_u, and Hom(m, A) = ⊕_v Hom(m, P(v)), so it is
    the same as over the bases of all the Hom(m, P(v)) together.  The
    canonical kernel basis depends only on the column space, so the module
    is bit-identical to the kernel of the evaluation map into the double
    dual (``tests/reference.py``).  A module that embeds in a projective is
    torsionless, so no Hom space is read for a projective m, nor for an m
    whose injective envelope, ⊕ I(v) over
    :func:`~ardom.modules.socle_vertices`, is projective: each of its v is
    in the table's set of v with I(v) projective.  Kept per module
    signature.
    """
    tbl = m.algebra
    f = tbl.field
    # m embeds in a projective: nothing dies in m**
    if is_projective(m) or _projective_injective_socles(tbl).issuperset(socle_vertices(m)):
        return submodule_from_rows(m, [f.zeros(0, d) for d in m.dims])[0]
    maps = _hom_maps(m, regular(tbl))[1]
    return submodule_from_rows(m, [f.left_kernel_basis(g) for g in maps])[0]


# ---------------------------------------------------------------------------
# capped invariants
# ---------------------------------------------------------------------------


def grade(m: ModuleRep, cap: int = DEFAULT_CAP) -> CappedNat:
    """Least i with Ext^i(m, A) nonzero; infinite for the zero module."""
    _check_cap(cap)
    if m.is_zero:
        return CappedNat.infinite("zero module")
    i = first_nonzero_ext(m, cap, start=0)
    return CappedNat.at_least(cap + 1) if i is None else CappedNat.exact(i)


_FINITE = "finite coresolution with all terms projective"
_PERIODIC = "periodic coresolution among projectives"


def domdim_module(m: ModuleRep, cap: int = DEFAULT_CAP) -> CappedNat:
    """Number of leading projective terms of the minimal injective coresolution.

    The j-th term is the dual of the cover of the j-th cosyzygy's dual,
    ⊕ I(v) over the vertices v of that dual's top (:func:`top_vertices`),
    and by Krull–Schmidt it is projective iff each I(v) is, that is iff
    each v lies in the table's set of v with I(v) projective, the socles of
    the injective P(u); no I(v) is built.  The top of the first, D m, is
    read as the socle of m (:func:`~ardom.modules.socle_vertices`), which
    :func:`~ardom.modules.is_injective` reads too.  The cosyzygies are D m
    and its :func:`_walk`.  Certified infinite when the coresolution
    terminates with all terms projective or when the walk repeats while all
    terms so far are projective (the terms then cycle); otherwise capped.
    """
    _check_cap(cap)
    if m.is_zero:
        return CappedNat.infinite("zero module")
    return _coresolution_walk(m, cap)


def _coresolution_walk(m: ModuleRep, cap: int, certify: bool = True) -> CappedNat:
    """:func:`domdim_module` of a nonzero m.  Without ``certify`` the walk
    stops once term ``cap`` is read, and builds no cosyzygy after it, so it
    certifies no infinite value there: enough where only an exact value up
    to ``cap`` counts."""
    # coresolution of m = dual of the resolution of D(m).  D m, and with it
    # the opposite table, comes before the set builds every P(u), unless the
    # fold of domdim_algebra built them first (linear A_256: 138 MB, else 129 MB)
    cos = dual(m)
    projective_socles = _projective_injective_socles(m.algebra)
    if not projective_socles.issuperset(socle_vertices(m)):  # the top of D m
        return CappedNat.exact(0)
    for j, (cos, q) in enumerate(itertools.islice(_walk(cos), cap + certify), 1):
        if cos.is_zero or q:
            return CappedNat.infinite(_PERIODIC if q else _FINITE)
        if j > cap:  # read only to certify
            break
        if not projective_socles.issuperset(top_vertices(cos)):
            return CappedNat.exact(j)
    return CappedNat.at_least(cap + 1)


def _least_over_summands(tbl: AlgebraTable, search, cap: int, floor: int = 0) -> list:
    """The values ``search(P(v), bound)`` over the non-injective P(v), in
    vertex order: the fold of a least value over the summands of A.
    ``bound`` is ``cap`` until some value is exact, and then the least exact
    value minus 1, since only values below it can lower it; the fold stops
    once a value is ``floor``.  Every value past the first exact one is
    exact or a bound at least the least exact value."""
    values, bound = [], cap
    for v in range(len(tbl.quiver.vertices)):
        if v in _projective_injective_tops(tbl):
            continue
        values.append(search(projective(tbl, v), bound))
        if values[-1].is_exact:
            bound = values[-1].value - 1
            if bound < floor:
                break
    return values


@memoized
def domdim_algebra(tbl: AlgebraTable, cap: int = DEFAULT_CAP) -> CappedNat:
    """domdim A, the least domdim P(v) over the non-injective P(v).

    Minimal injective coresolutions are additive: the injective envelope
    of M ⊕ N is E(M) ⊕ E(N), so the cosyzygies of M ⊕ N are those of M and
    N side by side (Assem–Simson–Skowroński, *Elements* vol. 1, I.5).  For
    A = ⊕_v P(v), the j-th term of the coresolution of A is the sum over v
    of the j-th terms of the P(v), and by Krull–Schmidt it is projective iff
    every summand is.  So the first non-projective term of A comes at the
    least j at which some P(v) has one, and D(A) is never resolved whole.
    A projective-injective P(v) has the coresolution P(v) -> 0, with no
    non-projective term, and is skipped.  The summands are folded by
    :func:`_least_over_summands`; a walk below the first ``cap`` builds no
    cosyzygy past its bound.

    Values combine as the whole-module walk combines them: the least
    exact value if any; infinite when every summand is, periodic if one
    of them is; otherwise at least ``cap + 1``.  Kept per table and cap.
    """
    _check_cap(cap)
    values = _least_over_summands(
        tbl, lambda pv, bound: _coresolution_walk(pv, bound, certify=bound == cap), cap
    )
    if all(v.is_infinite for v in values):
        periodic = any(v.certificate == _PERIODIC for v in values)
        return CappedNat.infinite(_PERIODIC if periodic else _FINITE)
    return CappedNat.least(values)


def pdim(m: ModuleRep, cap: int = DEFAULT_CAP) -> CappedNat:
    """Projective dimension, the first zero syzygy of the :func:`_walk`.  A
    walk that repeats never ends, and stops with the value it would reach
    at the cap."""
    _check_cap(cap)
    if m.is_zero:
        raise ValueError("projective dimension of the zero module is undefined")
    for i, (syz, _) in enumerate(itertools.islice(_walk(m), cap + 1)):
        if syz.is_zero:
            return CappedNat.exact(i)
    return CappedNat.at_least(cap + 1)


def injdim(m: ModuleRep, cap: int = DEFAULT_CAP) -> CappedNat:
    _check_cap(cap)
    return pdim(dual(m), cap)


def gldim(tbl: AlgebraTable, cap: int = DEFAULT_CAP) -> CappedNat:
    _check_cap(cap)
    return CappedNat.greatest(pdim(simple(tbl, v), cap) for v in range(len(tbl.quiver.vertices)))


def _regular_injdim(tbl: AlgebraTable, cap: int) -> CappedNat:
    """injdim A_A, read one indecomposable injective at a time.

    D is a duality, so injdim A_A = pdim D(A_A) over the opposite algebra,
    and D(A_A) = ⊕_v D P(v).  Minimal resolutions are additive: the cover
    of M ⊕ N is the sum of the covers, so the syzygies of the sum are
    those of M and N side by side and pdim(M ⊕ N) = max(pdim M, pdim N),
    read by :meth:`CappedNat.greatest` like the walk of the whole sum.  Over
    the opposite table this is injdim of the left regular module, the max
    of pdim I(v) over A.
    """
    return CappedNat.greatest(
        pdim(dual(projective(tbl, v)), cap) for v in range(len(tbl.quiver.vertices))
    )


def gorenstein_dim(tbl: AlgebraTable, cap: int = DEFAULT_CAP) -> CappedNat:
    """Injective dimension of the regular module, required equal on both
    sides; each side is :func:`_regular_injdim`, so D(A) is never resolved
    whole, and the D P(v) are the modules the AR sweep resolves."""
    _check_cap(cap)
    right = _regular_injdim(tbl, cap)
    left = _regular_injdim(opposite(tbl), cap)
    if right.is_exact and left.is_exact:
        if right.value != left.value:
            raise InvariantError(
                "one-sided finite injective dimensions disagree; this contradicts "
                "the two-sided theory and indicates a bug"
            )
        return right
    bound = min(right.value, left.value)
    return CappedNat.at_least(bound)


# ---------------------------------------------------------------------------
# torsion-freeness
# ---------------------------------------------------------------------------


def first_nonzero_ext(m: ModuleRep, n: int, start: int = 1):
    """Least start <= i <= n with Ext^i(m, A) nonzero, A the regular module
    of m's own algebra, or None when all of them vanish (or n < start).
    The one Ext-degree search: :func:`grade` from degree 0, the
    torsion-freeness degrees and :func:`domdim_R_via_mueller` from 1.

    Degree i >= 1 is read as Ext^1(Ω^{i−1} m, A) along the :func:`_walk`
    from Ω^{start−1} m, and depends only on the signature of Ω^{i−1} m.  So
    once that is zero or repeats, every later degree repeats one read as
    zero, and the search stops there with None.
    """
    areg = regular(m.algebra)
    if start == 0:
        if n >= 0 and ext_dim(m, areg, 0):
            return 0
        start = 1
    syz = syzygy(m, start - 1)
    for i, (syz, q) in enumerate(itertools.chain([(syz, 0)], _walk(syz)), start):
        if i > n or syz.is_zero or q:
            return None
        if ext_dim(syz, areg, 1):
            return i


def torsion_free_failure_degree(m: ModuleRep, n: int):
    """Least 1 <= i <= n with Ext^i over the opposite algebra of (Tr m, A°)
    nonzero, or None when all of them vanish (m is n-torsion-free):
    :func:`first_nonzero_ext` of the transpose."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if is_projective(m):
        return None  # Tr m = 0, and Tr m = 0 only then
    return first_nonzero_ext(transpose(m), n)


def is_n_torsion_free(m: ModuleRep, n: int) -> bool:
    """Vanishing of Ext^i over the opposite algebra of (Tr m, A°), i = 1..n."""
    return torsion_free_failure_degree(m, n) is None


@memoized
def domdim_R_via_mueller(tbl: AlgebraTable, cap: int = DEFAULT_CAP) -> CappedNat:
    """Dominant dimension of End(A ⊕ DA) by the classical formula.

    A ⊕ DA is a generator-cogenerator, so the dominant dimension of its
    endomorphism ring equals inf{i >= 1 : Ext^i(DA, A) != 0} + 1, and is
    infinite exactly when DA is projective (the selfinjective case).

    D is a duality, so Ext^i_A(DA, A) ≅ Ext^i_{A°}(D A_A, A°) with
    D A_A = ⊕_v D P(v), and Ext is additive in its first argument: the
    least nonzero degree is the least :func:`first_nonzero_ext` of the
    D P(v), the modules the AR sweep and the dominant dimension walk read.
    An injective P(v) has D P(v) projective, with no Ext in degrees >= 1,
    and is skipped.  DA is projective exactly when every P(v) is injective:
    the P(v) are then as many pairwise non-isomorphic indecomposable
    injectives as there are I(v).  The D P(v) are folded by
    :func:`_least_over_summands`.  Kept per table and cap.
    """
    _check_cap(cap)

    def search(pv, bound):
        i = first_nonzero_ext(dual(pv), bound)
        return CappedNat.at_least(bound + 1) if i is None else CappedNat.exact(i)

    values = _least_over_summands(tbl, search, cap, floor=1)
    if not values:
        return CappedNat.infinite("dual regular module is projective")
    least = CappedNat.least(values)
    return CappedNat(least.kind, least.value + 1)
