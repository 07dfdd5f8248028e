"""Bound quiver algebras kQ/I over GF(p) with a normal-form path basis.

Paths compose left to right: ``p*q`` means "first traverse p, then q", so a
right module action satisfies m·(p*q) = (m·p)·q and representation matrices
compose in path order.  Relations are completed to a confluent rewriting
system on paths (leading terms under the length-then-lexicographic order
rewritten to lower terms) by overlap completion; the algebra basis is the
set of irreducible paths, which must stay finite below the configured path
length cap.

An algebra element is a dict mapping ``Path`` to a nonzero coefficient in
``range(p)``.
"""

from __future__ import annotations

import warnings
import os
from dataclasses import dataclass
from typing import Iterable, Optional

from .linalg import PrimeField

__all__ = [
    "Quiver",
    "Path",
    "Presentation",
    "AlgebraTable",
    "PresentationError",
    "CompletionError",
    "parse_presentation",
    "build_table",
    "table_from_text",
    "table_from_file",
    "nakayama_from_kupisch",
    "opposite",
    "DEFAULT_MAX_PATH_LENGTH",
    "KNOWN_FLAGS",
]

DEFAULT_MAX_PATH_LENGTH = 30
KNOWN_FLAGS = ("selfinjective", "gendo_symmetric", "symmetric")


class PresentationError(ValueError):
    """Malformed presentation text; carries the offending line (1-based)."""

    def __init__(self, message, line=None, col=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class CompletionError(ValueError):
    """Raised when the path basis is not verifiably finite at the cap."""


@dataclass(frozen=True)
class Quiver:
    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]  # (name, source, target)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vs = set(self.vertices)
        for name, src, tgt in self.arrows:
            if src not in vs or tgt not in vs:
                raise ValueError(f"arrow {name}: unknown endpoint")
        # Derived lookups, computed once; not dataclass fields, so equality
        # and hashing still see only vertices and arrows.
        vertex_index = {v: i for i, v in enumerate(self.vertices)}
        sources = tuple(vertex_index[a[1]] for a in self.arrows)
        targets = tuple(vertex_index[a[2]] for a in self.arrows)
        n = len(self.vertices)
        derived = {
            "vertex_index": vertex_index,
            "arrow_index": {a[0]: i for i, a in enumerate(self.arrows)},
            "_sources": sources,
            "_targets": targets,
            "_out": tuple(tuple(i for i, s in enumerate(sources) if s == v) for v in range(n)),
            "_in": tuple(tuple(i for i, t in enumerate(targets) if t == v) for v in range(n)),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def arrow_source(self, i: int) -> int:
        return self._sources[i]

    def arrow_target(self, i: int) -> int:
        return self._targets[i]

    def arrows_from(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def arrows_into(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def is_connected(self) -> bool:
        n = len(self.vertices)
        if n <= 1:
            return True
        adj = {i: set() for i in range(n)}
        for i in range(len(self.arrows)):
            s, t = self.arrow_source(i), self.arrow_target(i)
            adj[s].add(t)
            adj[t].add(s)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == n


@dataclass(frozen=True)
class Path:
    """A path in the quiver: source vertex, arrow indices, target vertex.

    The empty arrow sequence is the trivial path e_v at ``source``.
    """

    source: int
    arrows: tuple[int, ...]
    target: int

    def __len__(self):
        return len(self.arrows)

    @property
    def is_trivial(self) -> bool:
        return not self.arrows


def make_path(quiver: Quiver, source: int, arrows: tuple[int, ...]) -> Path:
    at = source
    for a in arrows:
        if quiver.arrow_source(a) != at:
            raise ValueError("arrows do not compose")
        at = quiver.arrow_target(a)
    return Path(source, tuple(arrows), at)


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: tuple[dict, ...]  # each an element dict {Path: coeff}
    field: PrimeField
    flags: frozenset


# ---------------------------------------------------------------------------
# presentation parser
# ---------------------------------------------------------------------------


def _is_name(tok: str) -> bool:
    return tok and (tok[0].isalpha() or tok[0] == "_") and all(
        c.isalnum() or c == "_" for c in tok
    )


def parse_presentation(text: str) -> Presentation:
    """Parse the line-oriented presentation format.

    Grammar (documented bit-exactly in docs/formats.md):
      file      := line*
      line      := (directive)? comment? NEWLINE
      directive := "field" INT
                 | "vertices" NAME+
                 | "arrow" NAME NAME NAME
                 | "relation" term (SIGN term)*
                 | "flags" FLAG*
      term      := (INT "*")? NAME ("*" NAME)+
      SIGN      := "+" | "-"            (a separate whitespace token)
      comment   := "#" anything
    Unknown directives, unknown names, non-composing or non-parallel paths,
    non-prime moduli and trailing garbage are all rejected.
    """
    p: Optional[int] = None
    vertex_names: list[str] = []
    arrow_decls: list[tuple[str, str, str]] = []
    relation_lines: list[tuple[int, list[str]]] = []
    flags: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head, rest = toks[0], toks[1:]
        if head == "field":
            if p is not None:
                raise PresentationError("duplicate field line", lineno)
            if len(rest) != 1 or not rest[0].isdigit():
                raise PresentationError("expected: field <prime>", lineno)
            p = int(rest[0])
        elif head == "vertices":
            if not rest:
                raise PresentationError("vertices line needs at least one name", lineno)
            for tok in rest:
                if not _is_name(tok):
                    raise PresentationError(f"bad vertex name {tok!r}", lineno)
            vertex_names.extend(rest)
        elif head == "arrow":
            if len(rest) != 3:
                raise PresentationError("expected: arrow <name> <source> <target>", lineno)
            if not _is_name(rest[0]):
                raise PresentationError(f"bad arrow name {rest[0]!r}", lineno)
            arrow_decls.append((rest[0], rest[1], rest[2]))
        elif head == "relation":
            if not rest:
                raise PresentationError("empty relation", lineno)
            relation_lines.append((lineno, rest))
        elif head == "flags":
            for tok in rest:
                if tok not in KNOWN_FLAGS:
                    raise PresentationError(
                        f"unknown flag {tok!r} (known: {', '.join(KNOWN_FLAGS)})", lineno
                    )
                flags.add(tok)
        else:
            raise PresentationError(f"unknown directive {head!r}", lineno)

    if p is None:
        raise PresentationError("missing field line")
    try:
        fld = PrimeField(p)
    except ValueError as exc:
        raise PresentationError(str(exc)) from None
    if not vertex_names:
        raise PresentationError("missing vertices line")
    try:
        quiver = Quiver(tuple(vertex_names), tuple(arrow_decls))
    except ValueError as exc:
        raise PresentationError(str(exc)) from None

    relations = []
    for lineno, toks in relation_lines:
        relations.append(_parse_relation(quiver, fld, toks, lineno))

    if not quiver.is_connected():
        warnings.warn("quiver is disconnected; invariants are computed per the whole table")

    return Presentation(quiver, tuple(relations), fld, frozenset(flags))


def _parse_relation(quiver: Quiver, fld: PrimeField, toks: list[str], lineno: int) -> dict:
    # split the token stream on +/- sign tokens
    terms: list[tuple[int, str]] = []  # (sign, term token)
    sign = 1
    expect_term = True
    for tok in toks:
        if tok in ("+", "-"):
            if expect_term:
                raise PresentationError("misplaced sign in relation", lineno)
            sign = 1 if tok == "+" else -1
            expect_term = True
        elif expect_term:
            terms.append((sign, tok))
            expect_term = False
        else:
            raise PresentationError(
                f"trailing garbage {tok!r} in relation (terms are joined by + or -)", lineno
            )
    if expect_term:
        raise PresentationError("relation ends with a dangling sign", lineno)

    element: dict[Path, int] = {}
    src_tgt = None
    for sign, term in terms:
        factors = term.split("*")
        coeff = 1
        if factors and factors[0].isdigit():
            coeff = int(factors[0])
            factors = factors[1:]
        for f in factors:
            if f not in quiver.arrow_index:
                raise PresentationError(f"unknown arrow {f!r}", lineno)
        if len(factors) < 2:
            raise PresentationError(
                "relation path shorter than 2 arrows (ideal must be admissible)", lineno
            )
        arrows = tuple(quiver.arrow_index[f] for f in factors)
        try:
            path = make_path(quiver, quiver.arrow_source(arrows[0]), arrows)
        except ValueError:
            raise PresentationError(f"arrows do not compose in {term!r}", lineno) from None
        if src_tgt is None:
            src_tgt = (path.source, path.target)
        elif (path.source, path.target) != src_tgt:
            raise PresentationError("relation mixes non-parallel paths", lineno)
        c = (element.get(path, 0) + sign * coeff) % fld.p
        if c:
            element[path] = c
        else:
            element.pop(path, None)
    if not element:
        raise PresentationError("relation vanishes mod p", lineno)
    return element


# ---------------------------------------------------------------------------
# completion and the algebra table
# ---------------------------------------------------------------------------


class AlgebraTable:
    """A bound quiver algebra with a completed normal-form path basis.

    Treat instances as immutable: every attribute is written once during
    construction.  The private dictionaries are memo caches only, so the
    table is safe to share read-only across worker processes/threads.
    """

    def __init__(
        self,
        quiver: Quiver,
        fld: PrimeField,
        relations: tuple[dict, ...],
        flags: frozenset = frozenset(),
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        label: str = "",
    ):
        self.quiver = quiver
        self.field = fld
        self.relations = relations
        self.flags = frozenset(flags)
        self.max_path_length = max_path_length
        self.label = label or "algebra"
        # lexicographic rank of each arrow by name, for the monomial order
        order = sorted(range(len(quiver.arrows)), key=lambda i: quiver.arrows[i][0])
        self._lexrank = [0] * len(quiver.arrows)
        for rank, i in enumerate(order):
            self._lexrank[i] = rank
        self.rules: dict[tuple[int, ...], dict] = {}
        self._nf_cache: dict = {}
        self._product_cache: dict = {}
        self._cache: dict = {}  # cross-module memo (modules/homology layers)
        self._opposite: Optional[AlgebraTable] = None
        self._complete()
        self._enumerate_basis()

    # -- monomial order ----------------------------------------------------

    def word_key(self, word: tuple[int, ...]):
        return (len(word), tuple(self._lexrank[a] for a in word))

    def path_key(self, path: Path):
        return (len(path.arrows), tuple(self._lexrank[a] for a in path.arrows), path.source)

    def leading(self, element: dict) -> tuple[Path, int]:
        path = max(element, key=self.path_key)
        return path, element[path]

    # -- element arithmetic -------------------------------------------------

    def el_add(self, x: dict, y: dict, c: int = 1) -> dict:
        """x + c·y with zero coefficients dropped."""
        out = dict(x)
        for path, coeff in y.items():
            s = (out.get(path, 0) + c * coeff) % self.field.p
            if s:
                out[path] = s
            else:
                out.pop(path, None)
        return out

    def el_scale(self, c: int, x: dict) -> dict:
        c %= self.field.p
        if c == 0:
            return {}
        return {path: c * coeff % self.field.p for path, coeff in x.items()}

    def idempotent(self, v: int) -> dict:
        return {Path(v, (), v): 1}

    def one(self) -> dict:
        return {Path(v, (), v): 1 for v in range(len(self.quiver.vertices))}

    # -- rewriting -----------------------------------------------------------

    def _find_redex(self, word: tuple[int, ...]):
        """Leftmost, then shortest, occurrence of a rule LHS inside word."""
        n = len(word)
        for start in range(n):
            for stop in range(start + 2, n + 1):
                lhs = word[start:stop]
                if lhs in self.rules:
                    return start, stop, lhs
        return None

    def normal_form_path(self, path: Path) -> dict:
        """Normal form of a single path as an element dict."""
        cached = self._nf_cache.get(path)
        if cached is not None:
            return dict(cached)
        result: dict[Path, int] = {}
        stack: list[tuple[Path, int]] = [(path, 1)]
        while stack:
            cur, coeff = stack.pop()
            hit = self._find_redex(cur.arrows)
            if hit is None:
                c = (result.get(cur, 0) + coeff) % self.field.p
                if c:
                    result[cur] = c
                else:
                    result.pop(cur, None)
                continue
            start, stop, lhs = hit
            prefix, suffix = cur.arrows[:start], cur.arrows[stop:]
            for term, tc in self.rules[lhs].items():
                word = prefix + term.arrows + suffix
                nxt = Path(cur.source, word, cur.target)
                stack.append((nxt, coeff * tc % self.field.p))
        self._nf_cache[path] = dict(result)
        return result

    def normal_form(self, element: dict) -> dict:
        out: dict[Path, int] = {}
        for path, coeff in element.items():
            out = self.el_add(out, self.normal_form_path(path), coeff)
        return out

    def multiply_paths(self, a: Path, b: Path) -> dict:
        if a.target != b.source:
            return {}
        key = (a, b)
        cached = self._product_cache.get(key)
        if cached is None:
            cached = self.normal_form_path(Path(a.source, a.arrows + b.arrows, b.target))
            self._product_cache[key] = cached
        return dict(cached)

    def multiply(self, x: dict, y: dict) -> dict:
        out: dict[Path, int] = {}
        for pa, ca in x.items():
            for pb, cb in y.items():
                if pa.target != pb.source:
                    continue
                out = self.el_add(out, self.multiply_paths(pa, pb), ca * cb)
        return out

    # -- completion -----------------------------------------------------------

    def _add_rule_from(self, element: dict, pending: list):
        nf = self.normal_form(element)
        if not nf:
            return
        lead, coeff = self.leading(nf)
        if len(lead.arrows) < 2:
            raise ValueError(
                "internal error: completion produced a leading path of length < 2 "
                "(the parsed ideal is not admissible)"
            )
        if len(lead.arrows) > self.max_path_length:
            raise CompletionError(
                f"not verifiably finite-dimensional at this cap "
                f"(rewriting rule of length {len(lead.arrows)} exceeds "
                f"max_path_length={self.max_path_length})"
            )
        inv = self.field.inv(coeff)
        rhs = {path: (-inv * c) % self.field.p for path, c in nf.items() if path != lead}
        # kick out every rule the new leading word would reduce, re-queue it
        lw = lead.arrows
        stale = []
        for other_lhs, other_rhs in self.rules.items():
            if _contains(other_lhs, lw):
                stale.append(other_lhs)
                continue
            if any(_contains(t.arrows, lw) for t in other_rhs):
                stale.append(other_lhs)
        for other_lhs in stale:
            other_rhs = self.rules.pop(other_lhs)
            src = self.quiver.arrow_source(other_lhs[0])
            tgt = self.quiver.arrow_target(other_lhs[-1])
            el = {Path(src, other_lhs, tgt): 1}
            el = self.el_add(el, other_rhs, -1)
            pending.append(el)
        self.rules[lw] = rhs
        self._nf_cache.clear()
        self._product_cache.clear()

    def _complete(self):
        pending: list[dict] = [dict(r) for r in self.relations]
        checked: set = set()
        while True:
            while pending:
                # FIFO is fine: the fully interreduced system at the fixpoint
                # is the reduced Groebner basis, unique for the chosen order.
                self._add_rule_from(pending.pop(0), pending)
            # overlap pass
            new_elements = []
            for lhs1 in sorted(self.rules, key=self.word_key):
                for lhs2 in sorted(self.rules, key=self.word_key):
                    for width in range(1, min(len(lhs1), len(lhs2))):
                        if (lhs1, lhs2, width) in checked:
                            continue
                        checked.add((lhs1, lhs2, width))
                        if lhs1[len(lhs1) - width:] != lhs2[:width]:
                            continue
                        s = self._overlap_element(lhs1, lhs2, width)
                        if s:
                            new_elements.append(s)
            if not new_elements:
                break
            pending.extend(new_elements)

    def _overlap_element(self, lhs1, lhs2, width) -> dict:
        """S-element of the overlap word lhs1 · lhs2[width:]; {} if it resolves."""
        tail = lhs2[width:]
        head = lhs1[: len(lhs1) - width]
        src = self.quiver.arrow_source(lhs1[0])
        tgt = self.quiver.arrow_target(lhs2[-1])
        e1: dict[Path, int] = {}
        for term, c in self.rules[lhs1].items():
            e1 = self.el_add(e1, {Path(src, term.arrows + tail, tgt): 1}, c)
        e2: dict[Path, int] = {}
        for term, c in self.rules[lhs2].items():
            e2 = self.el_add(e2, {Path(src, head + term.arrows, tgt): 1}, c)
        return self.normal_form(self.el_add(e1, e2, -1))

    # -- basis ------------------------------------------------------------------

    def _enumerate_basis(self):
        quiver = self.quiver
        nv = len(quiver.vertices)
        frontier = [Path(v, (), v) for v in range(nv)]
        words: list[Path] = []
        while frontier:
            words.extend(frontier)
            nxt = []
            for path in frontier:
                for a in quiver.arrows_from(path.target):
                    word = path.arrows + (a,)
                    # path is irreducible, so only suffixes ending at the new
                    # arrow can form a rule LHS
                    if any(word[i:] in self.rules for i in range(len(word) - 1)):
                        continue
                    if len(word) >= self.max_path_length:
                        raise CompletionError(
                            f"not verifiably finite-dimensional at this cap "
                            f"(irreducible path of length {len(word)} reaches "
                            f"max_path_length={self.max_path_length})"
                        )
                    nxt.append(Path(path.source, word, quiver.arrow_target(a)))
            frontier = nxt
        words.sort(key=self.path_key)
        self.basis: tuple[Path, ...] = tuple(words)
        self.basis_index = {path: i for i, path in enumerate(words)}
        self._paths_from = [
            tuple(p for p in words if p.source == v) for v in range(nv)
        ]
        self._paths_into = [
            tuple(p for p in words if p.target == v) for v in range(nv)
        ]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_paths_from(self, v: int) -> tuple[Path, ...]:
        return self._paths_from[v]

    def basis_paths_into(self, v: int) -> tuple[Path, ...]:
        return self._paths_into[v]

    def path_label(self, path: Path) -> str:
        if path.is_trivial:
            return f"e_{self.quiver.vertices[path.source]}"
        return "*".join(self.quiver.arrows[a][0] for a in path.arrows)

    def element_label(self, element: dict) -> str:
        if not element:
            return "0"
        bits = []
        for path in sorted(element, key=self.path_key):
            c = element[path]
            bits.append(self.path_label(path) if c == 1 else f"{c}*{self.path_label(path)}")
        return " + ".join(bits)

    def __repr__(self):
        return (
            f"AlgebraTable({self.label!r}, p={self.field.p}, "
            f"dim={self.dimension}, vertices={len(self.quiver.vertices)})"
        )


def _contains(word: tuple[int, ...], sub: tuple[int, ...]) -> bool:
    if len(sub) > len(word):
        return False
    return any(word[i : i + len(sub)] == sub for i in range(len(word) - len(sub) + 1))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def build_table(
    pres: Presentation,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
    label: str = "",
) -> AlgebraTable:
    return AlgebraTable(
        pres.quiver,
        pres.field,
        pres.relations,
        flags=pres.flags,
        max_path_length=max_path_length,
        label=label,
    )


def table_from_text(
    text: str, max_path_length: int = DEFAULT_MAX_PATH_LENGTH, label: str = ""
) -> AlgebraTable:
    return build_table(parse_presentation(text), max_path_length, label)


def table_from_file(path, max_path_length: int = DEFAULT_MAX_PATH_LENGTH) -> AlgebraTable:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    label = os.path.splitext(os.path.basename(str(path)))[0]
    return table_from_text(text, max_path_length, label)


def opposite(tbl: AlgebraTable) -> AlgebraTable:
    """The opposite algebra: arrows and relation paths reversed.

    Completion re-runs on the reversed presentation, and the result is
    cached both ways so ``opposite(opposite(tbl)) is tbl``.
    """
    if tbl._opposite is not None:
        return tbl._opposite
    q = tbl.quiver
    rev = Quiver(q.vertices, tuple((name, tgt, src) for name, src, tgt in q.arrows))
    relations = []
    for element in tbl.relations:
        rel = {}
        for path, coeff in element.items():
            rel[Path(path.target, tuple(reversed(path.arrows)), path.source)] = coeff
        relations.append(rel)
    opp = AlgebraTable(
        rev,
        tbl.field,
        tuple(relations),
        flags=tbl.flags,
        max_path_length=tbl.max_path_length,
        label=tbl.label + "^op",
    )
    tbl._opposite = opp
    opp._opposite = tbl
    return opp


def reverse_path(opp_quiver: Quiver, path: Path) -> Path:
    """The same walk traversed backwards, as a path of the reversed quiver."""
    return Path(path.target, tuple(reversed(path.arrows)), path.source)


def nakayama_from_kupisch(
    c: Iterable[int],
    cyclic: bool,
    p: int = 101,
    max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
) -> AlgebraTable:
    """The connected Nakayama algebra with Kupisch series ``c``.

    ``c[i]`` is the composition length of the i-th indecomposable projective.
    Cyclic case: vertices on an oriented cycle, requires every c_i >= 2 and
    c_{i+1} >= c_i - 1 cyclically.  Linear case: an A_m line, requires
    c_m = 1, c_i >= 2 for i < m and the same descent condition.
    The relations kill the length-c_i path starting at vertex i, so the
    dimension is the series sum.  The table is flagged selfinjective exactly
    when the series is cyclic and constant.
    """
    series = [int(x) for x in c]
    m = len(series)
    if m == 0:
        raise ValueError("empty Kupisch series")
    if any(x < 1 for x in series):
        raise ValueError("Kupisch series entries must be >= 1")
    if cyclic:
        if any(x < 2 for x in series):
            raise ValueError("cyclic Kupisch series requires every entry >= 2")
        for i in range(m):
            if series[(i + 1) % m] < series[i] - 1:
                raise ValueError("inadmissible Kupisch series (descends by more than 1)")
    else:
        if series[-1] != 1:
            raise ValueError("linear Kupisch series must end with 1")
        if any(x < 2 for x in series[:-1]):
            raise ValueError("linear Kupisch series requires entries >= 2 before the last")
        for i in range(m - 1):
            if series[i + 1] < series[i] - 1:
                raise ValueError("inadmissible Kupisch series (descends by more than 1)")
        if any(series[i] > m - i for i in range(m)):
            raise ValueError("linear Kupisch series entry exceeds the remaining line length")

    vertices = tuple(f"v{i + 1}" for i in range(m))
    n_arrows = m if cyclic else m - 1
    arrows = []
    for i in range(n_arrows):
        arrows.append((f"a{i + 1}", f"v{i + 1}", f"v{(i + 1) % m + 1}"))
    quiver = Quiver(vertices, tuple(arrows))
    fld = PrimeField(p)

    relations = []
    for i in range(m):
        length = series[i]
        if not cyclic and i + length > m - 1:
            continue  # the path of that length does not exist; nothing to kill
        word = tuple((i + j) % m for j in range(length))
        if not cyclic and any(a >= n_arrows for a in word):
            continue
        path = make_path(quiver, i, word)
        relations.append({path: 1})

    flags = set()
    if cyclic and len(set(series)) == 1:
        flags.add("selfinjective")
    shape = "cyclic" if cyclic else "linear"
    tbl = AlgebraTable(
        quiver,
        fld,
        tuple(relations),
        flags=frozenset(flags),
        max_path_length=max_path_length,
        label=f"nakayama-{shape}-{'-'.join(map(str, series))}",
    )
    assert tbl.dimension == sum(series), "Kupisch series dimension check failed"
    return tbl
