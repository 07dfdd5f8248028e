"""Verification checks over a corpus of algebras.

Each check computes two independently defined sides of a statement and
reports a Verdict: pass when the sides agree, fail with a re-checkable
witness when they provably disagree, inconclusive when a capped search ran
out before deciding.  Checks never guess: a None from a capped comparison is
reported as such rather than coerced to a boolean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial

from .algebra import AlgebraTable, InputError, nakayama_from_kupisch, opposite
from .arseq import failure_witness, has_n_tf_ar_sequences, knit_indecomposables
from .corpus import CorpusEntry
from .homology import (
    DEFAULT_CAP,
    CappedNat,
    domdim_algebra,
    domdim_R_via_mueller,
    ext_dim,
    ext_module,
    gldim,
    gorenstein_dim,
    grade,
    pdim,
    torsion,
)
from .modules import (
    dual,
    is_selfinjective,
    nakayama_indecomposables,
    projective,
    regular,
    sample_modules,
    serialize_module,
    simple,
)

__all__ = [
    "Verdict",
    "verify_main_theorem",
    "verify_gendo_cor",
    "verify_gorenstein",
    "verify_grade_formulas",
    "verify_cor47",
    "scan_nakayama_question",
    "run_suite",
    "exit_code",
    "SUITES",
    "EXIT_PASS",
    "EXIT_FAIL",
    "EXIT_INPUT_ERROR",
    "EXIT_INCONCLUSIVE",
    "EXIT_INTERNAL",
]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def exit_code(statuses) -> int:
    """The exit code of a run whose verdicts have these statuses: 1 if one
    fails, else 3 if one is inconclusive, else 0."""
    statuses = set(statuses)
    if "fail" in statuses:
        return EXIT_FAIL
    if "inconclusive" in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


@dataclass
class Verdict:
    check: str
    algebra: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {"check": self.check, "algebra": self.algebra, "status": self.status, "detail": self.detail},
            sort_keys=True,
        )

    def to_text(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "inconclusive": "????"}[self.status]
        bits = []
        for k, v in sorted(self.detail.items()):
            bits.append(f"{k}={v}")
        return f"{mark}  {self.check:16s} {self.algebra:14s} " + " ".join(bits)


def _kleene_and(*values):
    """Three-valued conjunction: False dominates, then None, then True."""
    if any(v is False for v in values):
        return False
    if any(v is None for v in values):
        return None
    return True


def _status_from_equiv(lhs, rhs) -> str:
    if lhs is None or rhs is None:
        return "inconclusive"
    return "pass" if lhs == rhs else "fail"


def _undecided(cap: int, *answers):
    """The ``why`` of an inconclusive verdict: the statement of each
    (answer, statement) pair whose three-valued answer is None; None when
    every answer is decided."""
    undecided = [what for answer, what in answers if answer is None]
    return f"not decided at cap {cap}: {'; '.join(undecided)}" if undecided else None


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def verify_main_theorem(tbl: AlgebraTable, n: int, cap: int = DEFAULT_CAP) -> Verdict:
    """Torsion-free AR sequences against the two dominant dimensions.

    LHS: every almost split sequence starting at an indecomposable projective
    has all three terms n-torsion-free, read off D rad P(v) and D P(v) by
    :func:`~ardom.arseq.has_n_tf_ar_sequences` with no sequence built.
    RHS: the algebra's dominant dimension is at least n and the
    endomorphism-ring dominant dimension (by the classical formula) is at
    least n + 2.
    """
    lhs, report = has_n_tf_ar_sequences(tbl, n)
    dd = domdim_algebra(tbl, cap=cap)
    mu = domdim_R_via_mueller(tbl, cap=cap)
    rhs = _kleene_and(dd.ge(n), mu.ge(n + 2))
    detail = {
        "n": n,
        "cap": cap,
        "ar_side": lhs,
        "domdim": str(dd),
        "mueller": str(mu),
        "gc_side": rhs if rhs is not None else "undecided",
    }
    status = _status_from_equiv(lhs, rhs)
    if status == "inconclusive":
        detail["why"] = _undecided(
            cap,
            (dd.ge(n), f"domdim >= {n} (domdim {dd})"),
            (mu.ge(n + 2), f"mueller >= {n + 2} (mueller {mu})"),
        )
    if not lhs:
        detail["witness"] = failure_witness(report)
    return Verdict("main-theorem", tbl.label, status, detail)


def verify_gendo_cor(tbl: AlgebraTable, n: int, cap: int = DEFAULT_CAP) -> Verdict:
    """The corollary for algebras flagged gendo-symmetric.

    domdim >= n + 2 must be equivalent to n-torsion-free AR sequences, and
    the dominant dimension must agree with the endomorphism-ring formula.
    """
    detail = {"n": n, "cap": cap}
    if "gendo_symmetric" not in tbl.flags:
        detail["note"] = "vacuous: algebra not flagged gendo_symmetric"
        return Verdict("gendo-corollary", tbl.label, "pass", detail)
    dd = domdim_algebra(tbl, cap=cap)
    mu = domdim_R_via_mueller(tbl, cap=cap)
    ar_side, report = has_n_tf_ar_sequences(tbl, n)
    lhs = dd.ge(n + 2)
    fk = dd.eq(mu)
    detail.update(
        {"domdim": str(dd), "mueller": str(mu), "ar_side": ar_side, "fang_koenig": fk}
    )
    if fk is False:
        detail["witness"] = "dominant dimension disagrees with the Mueller formula"
        return Verdict("gendo-corollary", tbl.label, "fail", detail)
    status = _status_from_equiv(lhs, ar_side)
    if status == "fail":
        detail["witness"] = (
            failure_witness(report) or "AR sequences n-torsion-free although domdim < n + 2"
        )
    elif status == "inconclusive" or fk is None:
        status = "inconclusive"
        detail["why"] = _undecided(
            cap,
            (lhs, f"domdim >= {n + 2} (domdim {dd})"),
            (fk, f"domdim == mueller ({dd} against {mu})"),
        )
    return Verdict("gendo-corollary", tbl.label, status, detail)


def verify_gorenstein(tbl: AlgebraTable, cap: int = DEFAULT_CAP) -> Verdict:
    """Finite positive Gorenstein dimension forces both failure witnesses.

    For a non-selfinjective algebra of exact Gorenstein dimension g >= 1,
    Ext^g of the dual regular module against the regular one must be nonzero
    and the g-torsion-free AR property must fail.  D is a duality, so
    Ext^g_A(DA, A) ≅ Ext^g over the opposite algebra of (D A_A, A°), and
    D A_A = ⊕_v D P(v): ``ext_g_dim`` is the sum of the Ext^g(D P(v), A°),
    the modules that :func:`~ardom.homology.gorenstein_dim` resolves.
    """
    detail = {"cap": cap}
    g = gorenstein_dim(tbl, cap=cap)
    detail["gorenstein"] = str(g)
    if g.is_infinite or not g.is_exact:
        detail["why"] = "Gorenstein dimension not pinned down at this cap"
        return Verdict("gorenstein", tbl.label, "inconclusive", detail)
    if g.value == 0:
        detail["note"] = "vacuous: Gorenstein dimension 0"
        return Verdict("gorenstein", tbl.label, "pass", detail)
    areg = regular(opposite(tbl))
    ext_g = sum(
        ext_dim(dual(projective(tbl, v)), areg, g.value) for v in range(len(tbl.quiver.vertices))
    )
    ar_holds, report = has_n_tf_ar_sequences(tbl, g.value)
    detail["ext_g_dim"] = ext_g
    detail["ar_side"] = ar_holds
    ok = ext_g != 0 and ar_holds is False
    if not ok:
        detail["witness"] = {
            "g": g.value,
            "ext_nonzero": ext_g != 0,
            "ar_property_fails": not ar_holds,
        }
    else:
        detail["failing_term"] = failure_witness(report)
    return Verdict("gorenstein", tbl.label, "pass" if ok else "fail", detail)


def _module_set(tbl: AlgebraTable, seed: int, sample_size: int):
    """(record, [(where, module)]): every indecomposable when the algebra is
    Nakayama (:func:`nakayama_indecomposables`) or when its AR quiver knits
    within ``sample_size`` modules (:func:`knit_indecomposables`), else the
    seeded sample of that size.  ``where`` names the module in a witness: its
    top vertex and length, its index in the knitted list, or its sample
    index."""
    uniserials = nakayama_indecomposables(tbl)
    if uniserials is not None:
        names = tbl.quiver.vertices
        items = [({"vertex": names[v], "length": l}, m) for v, l, m in uniserials]
        return {"kind": "all indecomposables", "count": len(items)}, items
    knitted = knit_indecomposables(tbl, sample_size)
    if knitted is not None:
        items = [({"indecomposable": i}, ind.module) for i, ind in enumerate(knitted)]
        return {"kind": "all indecomposables", "count": len(items)}, items
    sample = sample_modules(tbl, seed=seed, size=sample_size)
    items = [({"sample_index": idx}, m) for idx, m in enumerate(sample)]
    return {"kind": "sampled", "size": len(items), "seed": seed}, items


def _sampled(modules: dict, sample_size: int):
    """The ``why`` of a record whose bounds held on a sample only (evidence,
    not a proof); None for any other module set."""
    if modules.get("kind") != "sampled":
        return None
    return (
        f"checked on a sample of {modules['size']} modules (seed {modules['seed']}) only: "
        f"the AR quiver did not knit within --sample-size {sample_size}"
    )


def verify_grade_formulas(
    tbl: AlgebraTable,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    sample_size: int = 64,
) -> Verdict:
    """Dominant dimension against grades of torsion and Ext modules.

    (a) When domdim is positive (or certified infinite), it must equal the
        minimum over simples of the grade of their torsion submodule.
    (b) grade(t(M)) >= domdim for every module M.
    (c) grade(Ext^i(M, A)) >= domdim for i = 1..4 and every module M.
    (d) When domdim = 0 and the algebra is hereditary but not a linear
        A_n path algebra, the minimum in (a) must be exactly 1.  The
        hypothesis is read off the table: kQ/I with I admissible is
        hereditary iff I = 0, so (d) runs on every relation-free table of
        domdim 0.  A linear A_n has domdim 1 and never reaches it.  In a
        non-semisimple kQ a vertex v that is not a sink has
        Hom(S(v), A) = 0 and pdim S(v) = 1, so t(S(v)) = S(v) has grade 1.

    (b) and (c) are additive in M, so they hold for every module once they
    hold for every indecomposable.  The record's ``modules`` says which
    modules were checked: none when domdim = 0, where both bounds read
    grade >= 0 (``vacuous``); every indecomposable, the uniserials of a
    Nakayama algebra or the knitted AR quiver of a representation-finite
    one that fits in ``sample_size`` modules (``all indecomposables``, a
    proof); otherwise the seeded sample (``sampled``), on which a failing
    module fails the record and anything else leaves it inconclusive.
    """
    dd = domdim_algebra(tbl, cap=cap)
    detail = {"cap": cap, "domdim": str(dd)}
    grades = [
        grade(torsion(simple(tbl, v)), cap=cap)
        for v in range(len(tbl.quiver.vertices))
    ]
    min_grade = CappedNat.least(grades)
    detail["min_simple_grade"] = str(min_grade)
    agree, claim = True, None

    if dd.is_infinite or (dd.is_exact and dd.value >= 1):
        agree = dd.eq(min_grade)
        claim = f"domdim == min simple torsion grade ({dd} against {min_grade})"
        if agree is False:
            detail["witness"] = {
                "formula": "domdim == min grade of simple torsion",
                "domdim": str(dd),
                "min_simple_grade": str(min_grade),
            }
            return Verdict("grade-formulas", tbl.label, "fail", detail)
    elif dd.is_exact and dd.value == 0 and not tbl.relations:
        agree = min_grade.eq(1)
        claim = f"hereditary non-linear entries have minimum grade 1 ({min_grade})"
        if agree is False:
            detail["witness"] = {
                "formula": "hereditary non-linear entries have minimum grade 1",
                "min_simple_grade": str(min_grade),
            }
            return Verdict("grade-formulas", tbl.label, "fail", detail)
        if agree:
            detail["zero_domdim_branch"] = "minimum grade is 1 as required"

    if dd.is_exact and dd.value == 0:
        # every grade is >= 0: (b) and (c) hold for every module
        detail["modules"], items = {"kind": "vacuous"}, []
    else:
        detail["modules"], items = _module_set(tbl, seed, sample_size)
    checked = open_bounds = 0
    first_open = None
    for idx, (where, m) in enumerate(items):
        bounds = [("torsion", grade(torsion(m), cap=cap))]
        for i in range(1, 5):
            bounds.append((f"ext{i}", grade(ext_module(m, i), cap=cap)))
        for tag, g in bounds:
            ok = g.ge(dd)
            if ok is False:
                detail["witness"] = {
                    "formula": "grade lower bound",
                    **where,
                    "module_dims": list(m.dims),
                    "module_text": serialize_module(m),
                    "which": tag,
                    "grade": str(g),
                    "domdim": str(dd),
                }
                return Verdict("grade-formulas", tbl.label, "fail", detail)
            if ok is None:
                open_bounds += 1
                first_open = first_open or (
                    f"grade of {tag} of {detail['modules']['kind']} module {idx} "
                    f"({m.label}) >= domdim ({g} against {dd})"
                )
            checked += 1
    detail["bounds_checked"] = checked
    if open_bounds > 1:
        first_open += f", and {open_bounds - 1} more undecided bounds"
    why = _undecided(
        cap,
        (agree, claim),
        (True if dd.is_exact or dd.is_infinite else None, f"domdim ({dd})"),
        (None if first_open else True, first_open),
    )
    why = "; ".join(filter(None, [why, _sampled(detail["modules"], sample_size)]))
    if why:
        detail["why"] = why
        return Verdict("grade-formulas", tbl.label, "inconclusive", detail)
    return Verdict("grade-formulas", tbl.label, "pass", detail)


def verify_cor47(
    tbl: AlgebraTable,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    sample_size: int = 64,
) -> Verdict:
    """On an algebra with 2 <= gldim <= domdim, nonzero torsion has pdim gldim.

    The precondition is part of the check: an entry marked for this
    corollary whose dimensions do not satisfy it fails outright.  pdim is
    additive in the maximum and t(M ⊕ N) = t(M) ⊕ t(N), so the statement is
    checked on the modules of the grade suite, ``modules`` in the record:
    every indecomposable where they can be listed, else the sample, which
    can fail the record but leaves a pass inconclusive.
    """
    gl = gldim(tbl, cap=cap)
    dd = domdim_algebra(tbl, cap=cap)
    detail = {"cap": cap, "gldim": str(gl), "domdim": str(dd)}
    if not (gl.is_exact and dd.is_exact):
        detail["why"] = f"gldim {gl} or domdim {dd} not exact at cap {cap}"
        return Verdict("torsion-pdim", tbl.label, "inconclusive", detail)
    if gl.value < 2 or gl.value > dd.value:
        detail["witness"] = "precondition 2 <= gldim <= domdim does not hold"
        return Verdict("torsion-pdim", tbl.label, "fail", detail)
    detail["modules"], items = _module_set(tbl, seed, sample_size)
    nonzero = 0
    for where, m in items:
        t = torsion(m)
        if t.is_zero:
            continue
        nonzero += 1
        pd = pdim(t, cap=cap)
        if not (pd.is_exact and pd.value == gl.value):
            detail["witness"] = {
                **where,
                "module_dims": list(m.dims),
                "module_text": serialize_module(m),
                "torsion_dims": list(t.dims),
                "pdim": str(pd),
                "expected": gl.value,
            }
            return Verdict("torsion-pdim", tbl.label, "fail", detail)
    detail["nonzero_torsion_witnesses"] = nonzero
    if nonzero == 0:
        detail["note"] = "no nonzero torsion found"
    why = _sampled(detail["modules"], sample_size)
    if why:
        detail["why"] = why
        return Verdict("torsion-pdim", tbl.label, "inconclusive", detail)
    return Verdict("torsion-pdim", tbl.label, "pass", detail)


# ---------------------------------------------------------------------------
# the Nakayama scan
# ---------------------------------------------------------------------------


def _cyclic_series(m: int, max_len: int):
    """Admissible cyclic Kupisch series with m entries, up to rotation.

    Each class is listed once, as its least rotation, in increasing order.
    A least rotation starts at its smallest entry, so a prefix is extended
    only by entries c_{i+1} >= max(c_0, c_i - 1), in increasing order; a
    full tuple is kept when it also closes the cycle (c_0 >= c_{m-1} - 1)
    and no rotation of it is smaller.
    """
    out = []

    def extend(prefix):
        if len(prefix) == m:
            c = tuple(prefix)
            if c[0] >= c[-1] - 1 and all(c <= c[i:] + c[:i] for i in range(1, m)):
                out.append(c)
            return
        for nxt in range(max(prefix[0], prefix[-1] - 1), max_len + 1):
            prefix.append(nxt)
            extend(prefix)
            prefix.pop()

    for first in range(2, max_len + 1):
        extend([first])
    return out


def scan_nakayama_question(
    m: int, max_len: int, cap: int = DEFAULT_CAP, question: bool = True
):
    """Scan cyclic Nakayama algebras with m simples for a counterexample.

    A counterexample would be a non-selfinjective entry whose AR sequences
    are all 2m-torsion-free.  Alongside, every enumerated algebra must obey
    the bound: dominant dimension >= 2m forces selfinjectivity.  Returns
    (verdict, rows) with one row per algebra in deterministic order.
    """
    if m < 1:
        raise InputError("need at least one simple")
    if max_len < 2:
        raise InputError("max length must be at least 2")
    if cap < 0:
        raise InputError("cap must be >= 0")
    rows = []
    status = "pass"
    detail = {"simples": m, "max_len": max_len, "cap": cap, "bound": 2 * m}
    for series in _cyclic_series(m, max_len):
        tbl = nakayama_from_kupisch(list(series), cyclic=True)
        selfinj = is_selfinjective(tbl)
        dd = domdim_algebra(tbl, cap=cap)
        row = {
            "series": list(series),
            "selfinjective": selfinj,
            "domdim": str(dd),
        }
        big = dd.ge(2 * m)
        if big is None:
            row["note"] = "dominant dimension undecided at this cap"
        elif big and not selfinj:
            row["violates"] = "domdim >= 2m on a non-selfinjective algebra"
        if question and not selfinj:
            tf, report = has_n_tf_ar_sequences(tbl, 2 * m)
            row["tf_ar_at_2m"] = tf
            if tf:
                row["violates"] = "2m-torsion-free AR sequences without selfinjectivity"
            else:
                row["first_failure"] = failure_witness(report)
        if "violates" in row:  # fail outranks inconclusive, as in exit_code
            status = "fail"
            detail.setdefault("witness", row)
        elif big is None and status == "pass":
            status = "inconclusive"
        rows.append(row)
    detail["scanned"] = len(rows)
    if status == "pass":
        detail["note"] = "no counterexample; the bound held on every entry"
    return Verdict("nakayama-scan", f"cyclic-nakayama-m{m}", status, detail), rows


# ---------------------------------------------------------------------------
# suite runner
# ---------------------------------------------------------------------------

SUITES = ("main", "gendo", "gorenstein", "grade", "cor47")


class ProcessPoolExecutor:
    """``concurrent.futures.ProcessPoolExecutor``, imported when one is built.

    Only a ``--jobs`` run that forks builds a pool, so a serial run never
    loads ``concurrent.futures`` and its multiprocessing stack.
    """

    def __init__(self, max_workers):
        from concurrent.futures import ProcessPoolExecutor as pool_class

        self._pool = pool_class(max_workers=max_workers)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def map(self, fn, items):
        return self._pool.map(fn, items)


def _entry_verdicts(entry: CorpusEntry, suites, ns, cap, seed, sample_size):
    tbl = entry.load_table()
    out = []
    for suite in suites:
        if suite == "main":
            for n in ns:
                out.append(verify_main_theorem(tbl, n, cap=cap))
        elif suite == "gendo":
            if "gendo_symmetric" in tbl.flags:
                for n in ns:
                    out.append(verify_gendo_cor(tbl, n, cap=cap))
        elif suite == "gorenstein":
            out.append(verify_gorenstein(tbl, cap=cap))
        elif suite == "grade":
            out.append(verify_grade_formulas(tbl, cap=cap, seed=seed, sample_size=sample_size))
        elif suite == "cor47":
            if entry.is_classified("auslander"):
                out.append(verify_cor47(tbl, cap=cap, seed=seed, sample_size=sample_size))
        else:
            raise ValueError(f"unknown suite {suite!r}")
    return out


def run_suite(
    entries,
    suites=("main",),
    ns=(1,),
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    sample_size: int = 64,
    jobs: int = 1,
):
    """Run the selected suites over corpus entries, in manifest order; the
    suites and the ns run in order of first appearance, and one named twice
    runs once.

    Returns (verdicts, exit_code).  Workers only parallelize independent
    entries, so at most one worker per entry is started; the merged report
    order never depends on the job count.  The process pool is loaded and
    forked only when ``jobs`` >= 2 and there are at least 2 entries.  Forking
    pays only when entries are heavy: on a 2-CPU host ``--jobs 2`` over the
    14-entry corpus runs slower than a serial run (medians 0.221 s against
    0.161 s a pass).
    """
    if jobs < 1:
        raise InputError("jobs must be >= 1")
    if cap < 0:
        raise InputError("cap must be >= 0")
    if seed < 0:
        raise InputError("seed must be >= 0")
    if sample_size < 1:
        raise InputError("sample_size must be >= 1")
    suites = tuple(dict.fromkeys(suites))  # a repeated suite runs once
    if not suites:
        raise InputError("no suite to run")
    for suite in suites:
        if suite not in SUITES:
            raise InputError(f"unknown suite {suite!r}")
    ns = tuple(dict.fromkeys(ns))  # a repeated n runs once
    if not ns or any(type(n) is not int or n < 1 for n in ns):  # a bool is no n
        raise InputError(f"ns must be one or more integers >= 1, got {ns!r}")
    entries = list(entries)
    if not entries:
        raise InputError("empty corpus")
    jobs = min(jobs, len(entries))
    run = partial(
        _entry_verdicts, suites=suites, ns=ns, cap=cap, seed=seed, sample_size=sample_size
    )
    if jobs > 1:
        # a worker loads its entry's table itself rather than unpickle one
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run, [replace(e, _table=None) for e in entries]))
    else:
        chunks = map(run, entries)
    verdicts = [v for chunk in chunks for v in chunk]
    return verdicts, exit_code(v.status for v in verdicts)
