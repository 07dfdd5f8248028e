"""Bound quiver algebras kQ/I over GF(p) with a normal-form path basis.

Paths compose left to right: ``p*q`` means "first traverse p, then q", so a
right module action satisfies m·(p*q) = (m·p)·q and representation matrices
compose in path order.  Relations are completed to a confluent rewriting
system on paths (leading terms under the length-then-lexicographic order
rewritten to lower terms) by overlap completion; the algebra basis is the
set of irreducible paths.  It must be finite, which is decided from the
completed rules (Ufnarovski's criterion) before any basis path is listed.
The configured path length cap bounds the rules that completion may create;
it does not bound the basis paths.

An algebra element is a dict mapping ``Path`` to a nonzero coefficient in
``range(p)``.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional

from .linalg import PrimeField

__all__ = [
    "Quiver",
    "Path",
    "Presentation",
    "AlgebraTable",
    "InputError",
    "PresentationError",
    "CompletionError",
    "InvariantError",
    "is_ascii_int",
    "ascii_int",
    "read_input",
    "input_lines",
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


class InputError(ValueError):
    """Bad input: a malformed file, flag or argument.  The cli exits 2 on it.

    ``line`` and ``col``, 1-based, locate the fault in its file, and
    :func:`read_input` sets ``source`` to name the file.  ``__str__`` is the
    one place that formats where a refusal points:
    ``<source>: <message> (line N, col C)``, each part only where known."""

    source = None

    def __init__(self, message, line=None, col=None):
        super().__init__(message, line, col)

    def __str__(self):
        message, line, col = self.args
        if self.source is not None:
            message = f"{self.source}: {message}"
        if line is None:
            return message
        return f"{message} (line {line}" + ("" if col is None else f", col {col}") + ")"


class PresentationError(InputError):
    """Malformed presentation text, a flag that does not hold, or an ideal
    that is not admissible."""


class CompletionError(InputError):
    """Raised when the path basis is infinite, or completion needs a rule
    longer than the cap."""


class InvariantError(RuntimeError):
    """An internal check failed: two routes disagree, or a vector leaves its space."""


def is_ascii_int(text: str, signed: bool = True) -> bool:
    """The one rule for integers read from input: an optional sign (if
    ``signed``), then the ASCII digits 0-9.  ``int()`` also takes other
    Unicode digits, underscores and whitespace."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def ascii_int(text: str) -> int:
    """``int(text)``, or ValueError where :func:`is_ascii_int` refuses it."""
    if not is_ascii_int(text):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


# Whitespace other than space and tab, and the C0/C1 controls that are not
# whitespace: str.split() and str.splitlines() would cut a line at the
# first kind and keep the second inside a token.
_NOT_A_SEPARATOR = re.compile(r"[^\S \t]|[\x00-\x08\x0e-\x1f\x7f-\x9f]")


def read_input(path, parse, *args, source=None):
    """``parse(text, *args)`` on the text of an input file: the one rule for
    opening one and for naming it.  It is read as UTF-8 with no newline
    translation, so a lone CR reaches :func:`input_lines` and is refused
    there rather than read as a line end.  Every :class:`InputError` raised
    while reading or parsing, and every warning, names ``source``, the path
    by default."""
    if source is None:
        source = path
    try:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read: {exc.strerror or exc}") from None
        with warnings.catch_warnings(record=True) as caught:
            result = parse(_utf8(data), *args)
    except InputError as exc:
        exc.source = source
        raise
    for w in caught:
        warnings.warn(f"{source}: {w.message}", w.category)
    return result


def _utf8(data: bytes) -> str:
    """``data`` decoded as UTF-8, or an InputError at its first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad, reason = exc.start, exc.reason
    # the bytes before the bad one decode, and no character spans a line end
    start = data.rfind(b"\n", 0, bad) + 1
    raise InputError(
        f"not UTF-8 from byte 0x{data[bad]:02X}: {reason}",
        data.count(b"\n", 0, bad) + 1,
        len(data[start:bad].decode("utf-8")) + 1,
    )


def input_lines(text: str, error):
    """(line number, tokens) of every line of an input file that holds more
    than a comment.

    The one rule for separators read from input: lines end at LF (one CR
    before it is dropped), a ``#`` starts a comment, and tokens are
    separated by ASCII spaces and tabs.  Any other whitespace or control
    character before the comment raises ``error(message, line number,
    column)``.
    """
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw[:-1] if raw.endswith("\r") else raw
        line = line.split("#", 1)[0]
        bad = _NOT_A_SEPARATOR.search(line)
        if bad is not None:
            raise error(
                f"whitespace or control character U+{ord(bad.group()):04X}: "
                "only ASCII spaces and tabs separate tokens",
                lineno,
                bad.start() + 1,
            )
        toks = line.split()
        if toks:
            yield lineno, toks


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


class Path(tuple):
    """A path in the quiver: source vertex, arrow indices, target vertex.

    The empty arrow sequence is the trivial path e_v at ``source``.  A path
    is the tuple (source, arrows, target), so hashing and equality are the
    tuple's, and never match a bare tuple of arrow indices; ``len`` counts
    the arrows.
    """

    __slots__ = ()

    def __new__(cls, source: int, arrows: tuple[int, ...], target: int):
        return tuple.__new__(cls, (source, arrows, target))

    source = property(itemgetter(0))
    arrows = property(itemgetter(1))
    target = property(itemgetter(2))

    def __getnewargs__(self):
        return self[0], self[1], self[2]

    def __len__(self):
        return len(self[1])

    def __repr__(self):
        return f"Path(source={self[0]!r}, arrows={self[1]!r}, target={self[2]!r})"

    @property
    def is_trivial(self) -> bool:
        return not self[1]


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
      SIGN      := "+" | "-"            (a separate token)
      comment   := "#" anything
    Lines and tokens are split by :func:`input_lines`.  Unknown directives,
    unknown names, non-composing or non-parallel paths, non-prime moduli and
    trailing garbage are all rejected.
    """
    p: Optional[int] = None
    vertex_names: list[str] = []
    arrow_decls: list[tuple[str, str, str]] = []
    relation_lines: list[tuple[int, list[str]]] = []
    flags: set[str] = set()

    for lineno, toks in input_lines(text, PresentationError):
        head, rest = toks[0], toks[1:]
        if head == "field":
            if p is not None:
                raise PresentationError("duplicate field line", lineno)
            if len(rest) != 1 or not is_ascii_int(rest[0], signed=False):
                raise PresentationError("expected: field <prime>", lineno)
            try:
                p = int(rest[0])
            except ValueError as exc:  # past int()'s digit limit
                raise PresentationError(
                    f"field has too many digits ({len(rest[0])})", lineno
                ) from exc
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
        if is_ascii_int(factors[0], signed=False):
            try:
                coeff = int(factors[0])
            except ValueError as exc:  # past int()'s digit limit
                raise PresentationError(
                    f"coefficient has too many digits ({len(factors[0])})", lineno
                ) from exc
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
    construction.  The one private dict ``_memo`` is a cache only: it holds
    path normal forms (``("nf", path)``, which products read too) and the
    results of ``modules.memoized`` functions over this table, so the table
    is safe to share read-only across worker processes/threads.

    ``arrow_products`` records, for each basis path p and arrow a that
    composes after it, the product p·a when listing the basis settles it:
    the basis path p·a, or None when a monomial rule (right side 0) kills
    it.  A product that a rule rewrites to other paths has no entry; ask
    :meth:`multiply_paths` for it.

    ``_dimension`` is for constructors that know the dimension already
    (:func:`opposite`, :func:`nakayama_from_kupisch`): with it the cycle
    search that decides finite dimension is skipped, and listing the basis
    raises :class:`InvariantError` once it lists more words than that, or at
    the end if it listed fewer.
    """

    def __init__(
        self,
        quiver: Quiver,
        fld: PrimeField,
        relations: tuple[dict, ...],
        flags: frozenset = frozenset(),
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        label: str = "",
        _dimension: Optional[int] = None,
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
        # an upper bound on the rule LHS lengths: it only grows, also when
        # completion drops a rule, and bounds the search in _find_redex
        self._longest_lhs = 0
        self._memo: dict = {}
        self._opposite: Optional[AlgebraTable] = None
        self._complete()
        cycle = None if _dimension is not None else _normal_cycle(quiver, self.rules)
        if cycle is not None:
            label = "*".join(quiver.arrows[a][0] for a in cycle)
            raise CompletionError(
                f"infinite-dimensional: every power of the path {label} is a "
                f"normal word, so nonzero (a cycle of the Ufnarovski graph)"
            )
        self._enumerate_basis(_dimension)

    # -- monomial order ----------------------------------------------------

    def word_key(self, word: tuple[int, ...]):
        return (len(word), tuple(map(self._lexrank.__getitem__, word)))

    def path_key(self, path: Path):
        word = path.arrows
        return (len(word), tuple(map(self._lexrank.__getitem__, word)), path.source)

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

    def idempotent(self, v: int) -> dict:
        return {Path(v, (), v): 1}

    def one(self) -> dict:
        return {Path(v, (), v): 1 for v in range(len(self.quiver.vertices))}

    # -- rewriting -----------------------------------------------------------

    def _find_redex(self, word: tuple[int, ...]):
        """Leftmost, then shortest, occurrence of a rule LHS inside word.

        Only subwords no longer than ``_longest_lhs`` can be one, so a table
        without rules (a path algebra, linear A_n) scans nothing.
        """
        if not self.rules:
            return None
        n = len(word)
        for start in range(n):
            for stop in range(start + 2, min(n, start + self._longest_lhs) + 1):
                lhs = word[start:stop]
                if lhs in self.rules:
                    return start, stop, lhs
        return None

    def normal_form_path(self, path: Path) -> dict:
        """Normal form of a single path as an element dict."""
        memo, key = self._memo, ("nf", path)
        cached = memo.get(key)
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
        memo[key] = dict(result)
        return result

    def normal_form(self, element: dict) -> dict:
        out: dict[Path, int] = {}
        for path, coeff in element.items():
            out = self.el_add(out, self.normal_form_path(path), coeff)
        return out

    def multiply_paths(self, a: Path, b: Path) -> dict:
        if a.target != b.source:
            return {}
        return self.normal_form_path(Path(a.source, a.arrows + b.arrows, b.target))

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
        self._longest_lhs = max(self._longest_lhs, len(lw))
        self._memo.clear()

    def _complete(self):
        pending: list[dict] = [dict(r) for r in self.relations]
        checked: set = set()
        while True:
            while pending:
                # FIFO is fine: the fully interreduced system at the fixpoint
                # is the reduced Groebner basis, unique for the chosen order.
                self._add_rule_from(pending.pop(0), pending)
            if not any(self.rules.values()):
                break  # monomial rules: both sides of every overlap rewrite to 0
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

    def _enumerate_basis(self, dimension: Optional[int] = None):
        """List the normal words by length.  With ``dimension``, the words
        must number exactly that many: a longer list stops at the first
        length past it, so a basis that never ends is never listed."""
        quiver, rules = self.quiver, self.rules
        nv = len(quiver.vertices)
        frontier = [Path(v, (), v) for v in range(nv)]
        words: list[Path] = []
        products: dict = {}
        while frontier:
            words.extend(frontier)
            if dimension is not None and len(words) > dimension:
                raise InvariantError(
                    f"{self.label}: more than {dimension} normal words, the known dimension"
                )
            nxt = []
            for path in frontier:
                for a in quiver.arrows_from(path.target):
                    word = path.arrows + (a,)
                    # path is irreducible, so only suffixes ending at the new
                    # arrow can form a rule LHS, and in a reduced system at
                    # most one does (no LHS lies inside another)
                    rhs = None
                    for i in range(max(0, len(word) - self._longest_lhs), len(word) - 1):
                        rhs = rules.get(word[i:])
                        if rhs is not None:
                            break
                    if rhs is None:
                        product = Path(path.source, word, quiver.arrow_target(a))
                        nxt.append(product)
                        products[path, a] = product
                    elif not rhs:
                        products[path, a] = None
            frontier = nxt
        if dimension is not None and len(words) != dimension:
            raise InvariantError(
                f"{self.label}: {len(words)} normal words, not the known dimension {dimension}"
            )
        self.arrow_products = products
        words.sort(key=self.path_key)
        self.basis: tuple[Path, ...] = tuple(words)
        self.basis_index = {path: i for i, path in enumerate(words)}
        paths_from = [[] for _ in range(nv)]
        for p in words:  # one pass, in basis order
            paths_from[p.source].append(p)
        self._paths_from = [tuple(paths) for paths in paths_from]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_paths_from(self, v: int) -> tuple[Path, ...]:
        return self._paths_from[v]

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


def _normal_cycle(quiver: Quiver, tips) -> Optional[tuple[int, ...]]:
    """A closed path all of whose powers are normal words, or None when
    the normal words are finitely many.

    The normal words are the paths of ``quiver`` with no subword in
    ``tips`` (arrow-index tuples: the rule LHS of a completed table), and
    they form the table's basis.  By Ufnarovski's criterion (Mat. Zametki
    31, 1982) they are finitely many iff the graph of the normal words has
    no cycle.  The graph is read here in its automaton form.  The state of
    a normal path is its end vertex and its longest suffix that is a
    proper prefix of a tip.  Appending an arrow a to a path in state
    (v, u) gives a normal path iff no suffix of u + (a,) is a tip, and the
    new state follows from u + (a,) alone.  Walks from the states (v, ())
    spell the normal paths one to one, and there are at most
    #vertices + Σ|tip| states, so the normal paths are infinitely many iff
    a walk reaches a cycle; the arrows along that cycle are returned.
    """
    prefixes = {()} | {t[:i] for t in tips for i in range(len(t))}
    outs, targets = quiver._out, quiver._targets  # what arrows_from / arrow_target read

    def step(state, a):
        word = state[1] + (a,)
        suffixes = [word[i:] for i in range(len(word) + 1)]
        if any(s in tips for s in suffixes):
            return None
        return targets[a], next(s for s in suffixes if s in prefixes)

    done = set()
    for v in range(len(quiver.vertices)):
        start = (v, ())
        if start in done:
            continue
        # iterative depth-first search; `trail` is the current walk
        trail = [(start, None)]
        on_trail = {start: 0}
        todo = [iter(outs[v])]
        while todo:
            state = trail[-1][0]
            a = next(todo[-1], None)
            if a is None:
                todo.pop()
                done.add(state)
                del on_trail[state]
                trail.pop()
                continue
            nxt = step(state, a)
            if nxt is None or nxt in done:
                continue
            if nxt in on_trail:
                arrows = [arr for _, arr in trail[on_trail[nxt] + 1:]]
                return tuple(arrows + [a])
            on_trail[nxt] = len(trail)
            trail.append((nxt, a))
            todo.append(iter(outs[nxt[0]]))
    return None


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
    """The table of a parsed presentation.  The ideal must be admissible, and
    ``selfinjective`` and ``symmetric`` are claims checked here that change
    no result: both need :func:`~ardom.modules.is_selfinjective`, and
    ``symmetric`` also needs A weakly symmetric, each P(v) with socle S(v)."""
    tbl = AlgebraTable(
        pres.quiver,
        pres.field,
        pres.relations,
        flags=pres.flags,
        max_path_length=max_path_length,
        label=label,
    )
    _check_admissible(tbl)
    # imported here: modules imports this module
    from .modules import is_selfinjective, projective, socle_vertices

    for flag in sorted(tbl.flags & {"selfinjective", "symmetric"}):
        if not is_selfinjective(tbl):
            raise PresentationError(f"flag {flag} does not hold: D(A) is not projective")
    if "symmetric" in tbl.flags:
        names = tbl.quiver.vertices
        for v in range(len(names)):
            (w,) = socle_vertices(projective(tbl, v))  # P(v) is indecomposable injective
            if w != v:
                raise PresentationError(
                    f"flag symmetric does not hold: P({names[v]}) has socle S({names[w]}), "
                    "so A is not weakly symmetric"
                )
    return tbl


def _check_admissible(tbl: AlgebraTable) -> None:
    """Raise PresentationError unless the ideal of the table is admissible.

    Relations are combinations of paths of length >= 2, so the ideal is
    admissible exactly when the arrow ideal J is nilpotent.  R_1 is spanned
    by the arrows and R_{k+1} by the products of a basis of R_k with each
    arrow, so R_k is spanned by the paths of length k and J^k = R_k + R_{k+1}
    + ...  The powers of a nilpotent J shrink strictly until they vanish, so
    J^k = 0, and with it R_k = 0, for some k <= dim A + 1.
    """
    q, f = tbl.quiver, tbl.field
    arrows = [Path(q.arrow_source(a), (a,), q.arrow_target(a)) for a in range(len(q.arrows))]

    def span(elements) -> list:
        rows = f.zeros(len(elements), tbl.dimension)
        for i, element in enumerate(elements):
            for path, c in element.items():
                rows[i, tbl.basis_index[path]] = c
        return [
            {tbl.basis[j]: int(c) for j, c in enumerate(row) if c}
            for row in f.row_space_basis(rows)
        ]

    power = span([tbl.normal_form_path(a) for a in arrows])
    for _ in range(tbl.dimension):
        if not power:
            break
        # most x·a are empty (a does not compose with x): each would be a zero row
        products = [tbl.multiply(x, {a: 1}) for x in power for a in arrows]
        power = span([product for product in products if product])
    if power:
        raise PresentationError(
            f"the ideal is not admissible: paths of length {tbl.dimension + 1} "
            f"span a space of dimension {len(power)}, so the arrow ideal is not nilpotent"
        )


def table_from_text(
    text: str, max_path_length: int = DEFAULT_MAX_PATH_LENGTH, label: str = ""
) -> AlgebraTable:
    return build_table(parse_presentation(text), max_path_length, label)


def table_from_file(path, max_path_length: int = DEFAULT_MAX_PATH_LENGTH) -> AlgebraTable:
    label = os.path.splitext(os.path.basename(str(path)))[0]
    return read_input(path, table_from_text, max_path_length, label)


def opposite(tbl: AlgebraTable) -> AlgebraTable:
    """The opposite algebra: arrows and relation paths reversed.

    Completion re-runs on the reversed presentation, and the result is
    cached both ways so ``opposite(opposite(tbl)) is tbl``.  The opposite
    has the dimension of ``tbl``, so no cycle search decides that it is
    finite: listing its basis checks the count instead.
    """
    if tbl._opposite is not None:
        return tbl._opposite
    q = tbl.quiver
    rev = Quiver(q.vertices, tuple((name, tgt, src) for name, src, tgt in q.arrows))
    relations = tuple(
        {reverse_path(path): coeff for path, coeff in element.items()} for element in tbl.relations
    )
    opp = AlgebraTable(
        rev,
        tbl.field,
        relations,
        flags=tbl.flags,
        max_path_length=tbl.max_path_length,
        label=tbl.label + "^op",
        _dimension=tbl.dimension,
    )
    tbl._opposite = opp
    opp._opposite = tbl
    return opp


def reverse_path(path: Path) -> Path:
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
    c_m = 1, c_i >= 2 for i < m and the same descent condition, which
    together keep c_i within the m - i + 1 vertices left on the line.
    The relations kill the length-c_i path starting at vertex i, so the
    dimension is the series sum, which listing the basis checks in place of
    the cycle search.  The table is flagged selfinjective exactly when the
    series is cyclic and constant.
    """
    series = [int(x) for x in c]
    m = len(series)
    if m == 0:
        raise InputError("empty Kupisch series")
    if any(x < 1 for x in series):
        raise InputError("Kupisch series entries must be >= 1")
    if cyclic:
        if any(x < 2 for x in series):
            raise InputError("cyclic Kupisch series requires every entry >= 2")
        for i in range(m):
            if series[(i + 1) % m] < series[i] - 1:
                raise InputError("inadmissible Kupisch series (descends by more than 1)")
    else:
        if series[-1] != 1:
            raise InputError("linear Kupisch series must end with 1")
        if any(x < 2 for x in series[:-1]):
            raise InputError("linear Kupisch series requires entries >= 2 before the last")
        for i in range(m - 1):
            if series[i + 1] < series[i] - 1:
                raise InputError("inadmissible Kupisch series (descends by more than 1)")

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
        path = make_path(quiver, i, word)
        relations.append({path: 1})

    flags = set()
    if cyclic and len(set(series)) == 1:
        flags.add("selfinjective")
    shape = "cyclic" if cyclic else "linear"
    return AlgebraTable(
        quiver,
        fld,
        tuple(relations),
        flags=frozenset(flags),
        max_path_length=max_path_length,
        label=f"nakayama-{shape}-{'-'.join(map(str, series))}",
        _dimension=sum(series),
    )
