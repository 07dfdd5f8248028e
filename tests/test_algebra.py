"""Presentation parsing, overlap completion, and table arithmetic.

The dimension oracle here is independent of the rewriting engine: it spans
the ideal inside the path space by brute-force products and counts the
quotient dimension with plain linear algebra.
"""

import itertools
import os
import pickle
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ardom.algebra
from ardom.algebra import (
    AlgebraTable,
    DEFAULT_MAX_PATH_LENGTH,
    CompletionError,
    InputError,
    InvariantError,
    Path,
    PresentationError,
    Quiver,
    _contains,
    _normal_cycle,
    make_path,
    nakayama_from_kupisch,
    opposite,
    parse_presentation,
    table_from_text,
)
from ardom.linalg import PrimeField
import reference

A2_TEXT = """
# the path algebra of a single arrow
field 101
vertices v1 v2
arrow a v1 v2
"""

KRONECKER_TEXT = """
field 101
vertices v1 v2
arrow a v1 v2
arrow b v1 v2
"""

DIM5_TEXT = """
field 101
vertices v1 v2
arrow a v1 v2
arrow b v2 v1
relation a*b
"""

COMM_SQUARE_TEXT = """
field 101
vertices v1 v2 v3 v4
arrow a v1 v2
arrow b v2 v4
arrow c v1 v3
arrow d v3 v4
relation a*b - c*d
"""


# -- oracle -----------------------------------------------------------------


def all_paths_up_to(quiver, maxlen):
    """Every path of length <= maxlen, by breadth-first extension."""
    paths = [Path(v, (), v) for v in range(len(quiver.vertices))]
    frontier = list(paths)
    for _ in range(maxlen):
        nxt = []
        for path in frontier:
            for a in quiver.arrows_from(path.target):
                nxt.append(Path(path.source, path.arrows + (a,), quiver.arrow_target(a)))
        paths.extend(nxt)
        frontier = nxt
    return paths


def quotient_dim_oracle(quiver, relations, p, maxlen):
    """dim kQ/I by spanning the ideal inside the path space directly.

    Only valid when every path of length maxlen already lies in the span
    (checked), which holds for the monomial/homogeneous cases used here.
    """
    fld = PrimeField(p)
    paths = all_paths_up_to(quiver, maxlen)
    index = {path: i for i, path in enumerate(paths)}
    rows = []
    for rel in relations:
        some_path = next(iter(rel))
        lefts = [q for q in paths if q.target == some_path.source]
        rights = [q for q in paths if q.source == some_path.target]
        for x, y in itertools.product(lefts, rights):
            row = fld.zeros(1, len(paths))[0]
            ok = True
            for mid, coeff in rel.items():
                word = x.arrows + mid.arrows + y.arrows
                if len(word) > maxlen:
                    ok = False
                    break
                row[index[Path(x.source, word, y.target)]] += coeff
            if ok:
                rows.append(row % p)
    ideal = fld.mat(rows) if rows else fld.zeros(0, len(paths))
    rank = fld.rank(ideal)
    # sanity: every path of maximal length must already be in the ideal span
    for path in paths:
        if len(path.arrows) == maxlen:
            target = fld.zeros(1, len(paths))
            target[0, index[path]] = 1
            assert fld.solve_left(ideal, target) is not None, (
                "oracle cap too small: a maximal-length path is not in the ideal"
            )
    return len(paths) - rank


# -- parser -----------------------------------------------------------------


def test_parse_a2():
    pres = parse_presentation(A2_TEXT)
    assert pres.quiver.vertices == ("v1", "v2")
    assert pres.quiver.arrows == (("a", "v1", "v2"),)
    assert pres.relations == ()
    assert pres.field.p == 101


def test_parse_relation_convention():
    # a*b means "first a, then b": the path runs v1 -> v2 -> v3
    pres = parse_presentation(
        "field 7\nvertices v1 v2 v3\narrow a v1 v2\narrow b v2 v3\nrelation a*b\n"
    )
    (rel,) = pres.relations
    (path,) = rel
    assert path.source == 0 and path.target == 2
    assert rel[path] == 1


def test_parse_relation_coefficients_and_signs():
    pres = parse_presentation(
        "field 7\nvertices p1 p2 p3\n"
        "arrow a p1 p2\narrow b p2 p3\narrow c p1 p2\narrow d p2 p3\n"
        "relation 2*a*b - c*d + a*d\n"
    )
    (rel,) = pres.relations
    coeffs = sorted(rel.values())
    assert coeffs == [1, 2, 6]  # -1 is 6 mod 7


def test_parse_non_parallel_rejected():
    with pytest.raises(PresentationError, match="non-parallel"):
        parse_presentation(
            "field 5\nvertices v1 v2 v3\narrow a v1 v2\narrow b v2 v3\narrow c v3 v1\n"
            "relation a*b + b*c\n"
        )
    with pytest.raises(PresentationError, match="do not compose"):
        parse_presentation(
            "field 5\nvertices v1 v2 v3\narrow a v1 v2\narrow b v2 v3\nrelation b*b\n"
        )


def test_parse_short_path_rejected():
    with pytest.raises(PresentationError, match="admissible"):
        parse_presentation("field 5\nvertices v1 v2\narrow a v1 v2\nrelation a\n")


def test_parse_bad_modulus():
    with pytest.raises(PresentationError, match="not prime"):
        parse_presentation("field 6\nvertices v\n")


def test_parse_trailing_garbage():
    with pytest.raises(PresentationError):
        parse_presentation("field 5\nvertices v1 v2\narrow a v1 v2 oops\n")
    with pytest.raises(PresentationError):
        parse_presentation("field 5 5\nvertices v\n")
    with pytest.raises(PresentationError, match="trailing garbage"):
        parse_presentation(
            "field 5\nvertices v1 v2\narrow a v1 v2\narrow b v2 v1\nrelation a*b b*a\n"
        )


def test_parse_unknown_names_and_directives():
    with pytest.raises(PresentationError, match="unknown arrow"):
        parse_presentation("field 5\nvertices v1 v2\narrow a v1 v2\nrelation a*z\n")
    with pytest.raises(PresentationError, match="unknown directive"):
        parse_presentation("field 5\nvertices v\nfoo bar\n")
    with pytest.raises(PresentationError, match="unknown flag"):
        parse_presentation("field 5\nvertices v\nflags shiny\n")
    with pytest.raises(PresentationError, match="endpoint"):
        parse_presentation("field 5\nvertices v1\narrow a v1 v9\n")


def test_parse_sign_errors():
    with pytest.raises(PresentationError, match="dangling"):
        parse_presentation("field 5\nvertices v1\narrow a v1 v1\nrelation a*a +\n")
    with pytest.raises(PresentationError, match="misplaced"):
        parse_presentation("field 5\nvertices v1\narrow a v1 v1\nrelation + a*a\n")


def test_parse_zero_relation_rejected():
    with pytest.raises(PresentationError, match="vanishes"):
        parse_presentation("field 5\nvertices v1\narrow a v1 v1\nrelation a*a - a*a\n")


def test_disconnected_warns():
    with pytest.warns(UserWarning, match="disconnected"):
        parse_presentation("field 5\nvertices v1 v2\n")


@pytest.mark.parametrize("flag", ["selfinjective", "symmetric"])
def test_selfinjective_flags_are_checked(flag):
    # hereditary A_2 is not selfinjective: D(A) is not projective
    with pytest.raises(PresentationError, match=f"flag {flag} does not hold"):
        table_from_text(A2_TEXT + f"flags {flag}\n")
    # the gendo-symmetric flag is not one of the checked ones
    assert "gendo_symmetric" in table_from_text(A2_TEXT + "flags gendo_symmetric\n").flags


@pytest.mark.parametrize("name", ["nak-22", "nak-33"])
def test_selfinjective_corpus_entries_still_load(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", name + ".alg")
    with open(path, encoding="utf-8") as fh:
        tbl = table_from_text(fh.read(), label=name)
    assert "selfinjective" in tbl.flags


@pytest.mark.parametrize("name, symmetric", [("nak-22", False), ("nak-33", True)])
def test_the_symmetric_flag_needs_each_projective_to_have_its_own_socle(name, symmetric):
    # the socles of P(v1), P(v2): S(v2), S(v1) on nak-22, S(v1), S(v2) on nak-33
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", name + ".alg")
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("flags selfinjective", "flags symmetric")
    if symmetric:
        assert "symmetric" in table_from_text(text, label=name).flags
    else:
        message = re.escape("flag symmetric does not hold: P(v1) has socle S(v2)")
        with pytest.raises(PresentationError, match=message):
            table_from_text(text, label=name)


@pytest.mark.parametrize(
    "relation, dimension",
    [("x*x*x - x*x*x*x", None), ("x*x - x*x*x", None), ("x*x*x", 3), ("x*x*x*x*x", 5)],
)
def test_only_admissible_ideals_build_a_table(relation, dimension):
    text = f"field 101\nvertices v\narrow x v v\nrelation {relation}\n"
    if dimension is None:  # x^k never vanishes
        with pytest.raises(PresentationError, match="not admissible"):
            table_from_text(text)
    else:
        assert table_from_text(text).dimension == dimension


def test_the_admissibility_check_reduces_no_zero_row(monkeypatch):
    # x·a is spanned only where the arrow a composes with x: on the line A_24
    # nearly every other product is empty, and each would be a zero row
    n = 24
    text = "field 101\nvertices " + " ".join(f"v{i}" for i in range(n)) + "\n"
    text += "".join(f"arrow a{i} v{i} v{i + 1}\n" for i in range(n - 1))
    tbl = table_from_text(text)
    reduced = []
    original = PrimeField.row_space_basis

    def recorded(self, m):
        reduced.append(np.array(m))
        return original(self, m)

    monkeypatch.setattr(PrimeField, "row_space_basis", recorded)
    ardom.algebra._check_admissible(tbl)
    assert len(reduced) == n  # R_1, ..., R_23 and the empty R_24
    assert all(m.any(axis=1).all() for m in reduced)


def dense_span(tbl, elements):
    """The spans as first written: each rref row read over all dim A columns."""
    rows = tbl.field.zeros(len(elements), tbl.dimension)
    for i, element in enumerate(elements):
        for path, c in element.items():
            rows[i, tbl.basis_index[path]] = c
    return [
        {tbl.basis[j]: int(c) for j, c in enumerate(row) if c}
        for row in tbl.field.row_space_basis(rows)
    ]


@pytest.mark.parametrize("name", ["ka2", "auslander-x3", "comm-square", "nak-233", "wild3"])
def test_the_admissibility_spans_read_the_nonzero_columns_alone(name, monkeypatch):
    # _span must give the dense reading's dicts, entries and order alike, on
    # every power the check reads
    path = os.path.join(os.path.dirname(__file__), os.pardir, "corpus", name + ".alg")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    tbl = table_from_text(text)
    seen = []
    original = ardom.algebra._span

    def compared(t, elements):
        got = original(t, elements)
        assert [list(x.items()) for x in got] == [list(x.items()) for x in dense_span(t, elements)]
        assert all(type(c) is int for x in got for c in x.values())
        seen.append(len(got))
        return got

    monkeypatch.setattr(ardom.algebra, "_span", compared)
    ardom.algebra._check_admissible(tbl)
    assert len(seen) >= 2 and seen[0] and seen[-1] == 0


def test_input_errors_share_one_base_class():
    from ardom.algebra import InputError, InvariantError
    from ardom.arseq import ArSequenceError
    from ardom.corpus import CorpusError
    from ardom.modules import ModuleFileError

    for error in (PresentationError, CompletionError, ModuleFileError, CorpusError):
        assert issubclass(error, InputError) and issubclass(error, ValueError)
    for error in (InvariantError, ArSequenceError):
        assert not issubclass(error, ValueError)


def test_an_input_error_formats_its_source_and_location_after_pickling():
    # a corpus entry loaded in a pool worker reaches the cli pickled
    err = PresentationError("unknown directive 'foo'", 3, 5)
    assert str(err) == "unknown directive 'foo' (line 3, col 5)"
    assert str(InputError("no field", 2)) == "no field (line 2)"
    err.source = "bad: bad.alg"
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(err, protocol))
        assert type(back) is PresentationError
        assert str(back) == "bad: bad.alg: unknown directive 'foo' (line 3, col 5)"


def test_nakayama_from_kupisch_sets_its_flag_without_the_check():
    tbl = nakayama_from_kupisch([3, 3], cyclic=True)
    assert "selfinjective" in tbl.flags
    assert not any(key[0] == "dual_regular" for key in tbl._memo)
    assert "selfinjective" not in nakayama_from_kupisch([3, 2], cyclic=True).flags


def test_kupisch_dimension_check_is_an_internal_error(monkeypatch, capsys):
    from ardom.cli import main
    from ardom.verify import EXIT_INPUT_ERROR, EXIT_INTERNAL

    # with no rules a cyclic quiver has a normal word of every length, so
    # listing the basis passes the series sum and stops there
    monkeypatch.setattr(AlgebraTable, "_complete", lambda self: None)
    with pytest.raises(InvariantError, match="more than 5 normal words") as exc:
        nakayama_from_kupisch([3, 2], cyclic=True)
    assert not isinstance(exc.value, ValueError)
    # an internal error is not reported as bad input (exit 2), but as exit 4
    code = main(["scan", "nakayama", "--simples", "2", "--max-len", "3"])
    assert code == EXIT_INTERNAL != EXIT_INPUT_ERROR
    assert re.match(r"internal error: \S+: more than \d+ normal words", capsys.readouterr().err)


# -- completion ---------------------------------------------------------------


def test_ka2_basis():
    tbl = table_from_text(A2_TEXT)
    assert tbl.dimension == 3
    labels = {tbl.path_label(b) for b in tbl.basis}
    assert labels == {"e_v1", "e_v2", "a"}


def test_kronecker_dimension():
    assert table_from_text(KRONECKER_TEXT).dimension == 4


def test_dim5_basis_matches_oracle():
    tbl = table_from_text(DIM5_TEXT)
    assert tbl.dimension == 5
    labels = {tbl.path_label(b) for b in tbl.basis}
    assert labels == {"e_v1", "e_v2", "a", "b", "b*a"}
    pres = parse_presentation(DIM5_TEXT)
    assert quotient_dim_oracle(pres.quiver, pres.relations, 101, 3) == 5


def test_comm_square_dimension_matches_oracle():
    tbl = table_from_text(COMM_SQUARE_TEXT)
    assert tbl.dimension == 9
    # maxlen 3 makes the top path level empty, so the truncation is exact
    pres = parse_presentation(COMM_SQUARE_TEXT)
    assert quotient_dim_oracle(pres.quiver, pres.relations, 101, 3) == 9


def test_loop_without_relations_is_decided_infinite():
    with pytest.raises(CompletionError, match="every power of the path a is a normal word"):
        table_from_text("field 5\nvertices v\narrow a v v\n", max_path_length=10)


def test_rule_longer_than_the_cap_is_rejected():
    text = "field 5\nvertices v\narrow a v v\nrelation " + "*".join(["a"] * 12) + "\n"
    with pytest.raises(CompletionError, match="not verifiably finite-dimensional"):
        table_from_text(text, max_path_length=11)
    assert table_from_text(text, max_path_length=12).dimension == 12


def test_a_proven_finite_basis_may_outgrow_the_cap():
    # linear A_31 has no relations, so nothing is completed and the cap is
    # never consulted; its paths of length 30 are listed once the basis is
    # decided finite
    tbl = nakayama_from_kupisch(range(31, 0, -1), cyclic=False)
    assert tbl.max_path_length == DEFAULT_MAX_PATH_LENGTH == 30
    assert tbl.dimension == 31 * 32 // 2 == 496
    assert max(len(p.arrows) for p in tbl.basis) == 30


TWO_LOOPS_TEXT = "field 101\nvertices v\narrow x v v\narrow y v v\n"


@pytest.mark.parametrize(
    "relations, cycles",
    [
        ((), {"x"}),  # the free algebra on two loops
        (("x*y - y*x",), {"x", "y"}),  # k[x, y]
        (("x*x", "y*y"), {"x*y", "y*x"}),  # (xy)^k survives
        (("x*x", "y*x"), {"y"}),  # y^k survives
    ],
)
def test_infinite_dimension_is_decided_before_the_basis_is_listed(
    relations, cycles, monkeypatch
):
    # the basis enumeration would never end (2^k paths of each length k for
    # two free loops); the decision must come first
    def never(self):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(AlgebraTable, "_enumerate_basis", never)
    text = TWO_LOOPS_TEXT + "".join(f"relation {r}\n" for r in relations)
    with pytest.raises(CompletionError, match="infinite-dimensional") as err:
        table_from_text(text)
    assert re.search(r"every power of the path (\S+) is", str(err.value)).group(1) in cycles


def _paths_of_length(quiver, length):
    paths = [((), v) for v in range(len(quiver.vertices))]
    for _ in range(length):
        paths = [(w + (a,), quiver.arrow_target(a)) for w, v in paths for a in quiver.arrows_from(v)]
    return [w for w, _ in paths]


def _has_long_normal_paths(quiver, tips):
    """The literal Ufnarovski graph: whether a normal path extends depends
    only on its end vertex and its last d - 1 arrows (d the longest tip), so
    walk those states.  A walk longer than the number of states repeats
    one, and then normal paths of every length exist."""
    keep = max((len(t) for t in tips), default=1) - 1
    states = len(quiver.vertices) + sum(len(quiver.arrows) ** j for j in range(1, keep + 1))
    frontier = {((), v) for v in range(len(quiver.vertices))}
    for _ in range(states + 1):
        frontier = {
            ((w + (a,))[-keep:] if keep else (), quiver.arrow_target(a))
            for w, v in frontier
            for a in quiver.arrows_from(v)
            if not any(w[i:] + (a,) in tips for i in range(len(w) + 1))
        }
    return bool(frontier)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_normal_cycle_agrees_with_the_literal_graph(data):
    nv = data.draw(st.integers(1, 2))
    ends = st.tuples(st.integers(0, nv - 1), st.integers(0, nv - 1))
    arrows = data.draw(st.lists(ends, min_size=1, max_size=3))
    quiver = Quiver(
        tuple(f"v{i}" for i in range(nv)),
        tuple((f"a{i}", f"v{s}", f"v{t}") for i, (s, t) in enumerate(arrows)),
    )
    words = _paths_of_length(quiver, 2) + _paths_of_length(quiver, 3)
    tips = set(data.draw(st.lists(st.sampled_from(words), max_size=5))) if words else set()
    cycle = _normal_cycle(quiver, tips)
    assert (cycle is not None) == _has_long_normal_paths(quiver, tips)
    if cycle is not None:
        assert quiver.arrow_source(cycle[0]) == quiver.arrow_target(cycle[-1])
        power = cycle * 8
        assert not any(_contains(power, t) for t in tips)


def test_corpus_and_scanned_tables_have_finitely_many_normal_words():
    from ardom.corpus import load_corpus
    from ardom.verify import _cyclic_series

    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    tables = [e.load_table() for e in load_corpus(corpus)]
    tables += [
        nakayama_from_kupisch(list(c), cyclic=True)
        for m in range(1, 6)
        for c in _cyclic_series(m, 6)
    ]
    for tbl in tables:
        assert _normal_cycle(tbl.quiver, tbl.rules) is None
        assert all(len(p) < tbl.max_path_length for p in tbl.basis)


def overlap_elements(tbl):
    """The S-element of every overlap of two rule left-hand sides, as the
    overlap pass of completion forms them."""
    return [
        tbl._overlap_element(lhs1, lhs2, width)
        for lhs1 in tbl.rules
        for lhs2 in tbl.rules
        for width in range(1, min(len(lhs1), len(lhs2)))
        if lhs1[len(lhs1) - width :] == lhs2[:width]
    ]


def test_monomial_rules_overlap_only_in_zero():
    # completion skips the overlap pass when every rule is monomial
    from ardom.corpus import load_corpus
    from ardom.verify import _cyclic_series

    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    tables = [e.load_table() for e in load_corpus(corpus)]
    tables = [tbl for tbl in tables if not any(tbl.rules.values())]
    assert len(tables) == 12  # all but auslander-x3 and comm-square
    tables += [
        nakayama_from_kupisch(list(c), cyclic=True)
        for m in range(1, 5)
        for c in _cyclic_series(m, 6)
    ]
    overlaps = 0
    for tbl in tables:
        assert not any(tbl.rules.values())
        elements = overlap_elements(tbl)
        assert all(s == {} for s in elements)
        overlaps += len(elements)
    assert overlaps


# -- paths ---------------------------------------------------------------------


def test_a_path_is_a_tuple_with_the_dataclass_hash_equality_and_repr():
    path = Path(0, (1, 2), 3)
    assert (path.source, path.arrows, path.target) == (0, (1, 2), 3)
    assert path == Path(0, (1, 2), 3) and hash(path) == hash(Path(0, (1, 2), 3))
    # the frozen dataclass hashed the tuple of its fields
    assert hash(path) == hash((0, (1, 2), 3))
    assert path != Path(1, (1, 2), 3) and path != Path(0, (1,), 3) and path != Path(0, (1, 2), 2)
    assert repr(path) == "Path(source=0, arrows=(1, 2), target=3)"
    assert len(path) == 2 and len(Path(4, (), 4)) == 0
    assert Path(4, (), 4).is_trivial and not path.is_trivial
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(path, protocol))
        assert type(back) is Path and back == path and hash(back) == hash(path)
        assert repr(back) == repr(path) and len(back) == 2


def test_no_path_equals_a_rule_key():
    for text in (DIM5_TEXT, COMM_SQUARE_TEXT):
        tbl = table_from_text(text)
        assert tbl.rules
        for lhs in tbl.rules:
            path = make_path(tbl.quiver, tbl.quiver.arrow_source(lhs[0]), lhs)
            assert path.arrows == lhs and path != lhs and lhs != path
            assert path not in tbl.rules and lhs not in tbl.basis_index
    trivial = Path(0, (), 0)
    assert trivial != () and trivial != (0,) and () not in {trivial}


# -- multiplication ------------------------------------------------------------


def test_idempotents():
    tbl = table_from_text(DIM5_TEXT)
    e1, e2 = tbl.idempotent(0), tbl.idempotent(1)
    assert tbl.multiply(e1, e1) == e1
    assert tbl.multiply(e1, e2) == {}
    one = tbl.one()
    for b in tbl.basis:
        el = {b: 1}
        assert tbl.multiply(one, el) == el
        assert tbl.multiply(el, one) == el


def test_relation_kills_product():
    tbl = table_from_text(DIM5_TEXT)
    a = {make_path(tbl.quiver, 0, (0,)): 1}
    b = {make_path(tbl.quiver, 1, (1,)): 1}
    assert tbl.multiply(a, b) == {}  # a*b reduced to 0 by the relation
    ba = tbl.multiply(b, a)
    assert len(ba) == 1 and tbl.path_label(next(iter(ba))) == "b*a"


def test_associativity_random_triples():
    rng = random.Random(0)
    for text in (DIM5_TEXT, COMM_SQUARE_TEXT, KRONECKER_TEXT):
        tbl = table_from_text(text)
        for _ in range(50):
            x, y, z = ({rng.choice(tbl.basis): rng.randrange(1, tbl.field.p)} for _ in range(3))
            left = tbl.multiply(tbl.multiply(x, y), z)
            right = tbl.multiply(x, tbl.multiply(y, z))
            assert left == right


# -- confluence property --------------------------------------------------------


def reduce_random_order(tbl, path, rng):
    """Reduce by picking redexes uniformly at random instead of leftmost."""
    element = {path: 1}
    while True:
        redexes = []
        for term in element:
            w = term.arrows
            for start in range(len(w)):
                for stop in range(start + 2, len(w) + 1):
                    if w[start:stop] in tbl.rules:
                        redexes.append((term, start, stop))
        if not redexes:
            return element
        term, start, stop = rng.choice(redexes)
        coeff = element.pop(term)
        for sub, c in tbl.rules[term.arrows[start:stop]].items():
            word = term.arrows[:start] + sub.arrows + term.arrows[stop:]
            nxt = Path(term.source, word, term.target)
            s = (element.get(nxt, 0) + coeff * c) % tbl.field.p
            if s:
                element[nxt] = s
            else:
                element.pop(nxt, None)


def random_walk_path(tbl, rng, maxlen=6):
    v = rng.randrange(len(tbl.quiver.vertices))
    arrows = []
    at = v
    for _ in range(rng.randrange(maxlen + 1)):
        outs = tbl.quiver.arrows_from(at)
        if not outs:
            break
        a = rng.choice(outs)
        arrows.append(a)
        at = tbl.quiver.arrow_target(a)
    return Path(v, tuple(arrows), at)


def test_confluence_random_reduction_orders():
    rng = random.Random(7)
    tables = [
        table_from_text(DIM5_TEXT),
        table_from_text(COMM_SQUARE_TEXT),
        nakayama_from_kupisch([3, 3], cyclic=True),
        nakayama_from_kupisch([4, 3, 2], cyclic=True),
    ]
    for tbl in tables:
        for _ in range(60):
            path = random_walk_path(tbl, rng)
            expected = tbl.normal_form_path(path)
            got = reduce_random_order(tbl, path, rng)
            assert got == expected


TWO_LOOPS = "field 101\nvertices v\narrow x v v\narrow y v v\n"


def _agrees_with_random_reduction_orders(tbl, longest):
    rng = random.Random(0)
    for n in range(2, longest + 1):
        for word in itertools.product(range(2), repeat=n):
            path = Path(0, word, 0)
            assert reduce_random_order(tbl, path, rng) == tbl.normal_form_path(path)


def test_a_normal_form_whose_terms_cancel_is_zero():
    # the rules y*x -> x*x + x*y and x*x*y -> -2*x*x*x take y*x*x to
    # x*x*x + x*y*x, then to 2*x*x*x + x*x*y, then to 0
    text = TWO_LOOPS + "relation y*y + 2*y*x\nrelation 100*x*x + y*x + 100*x*y\n"
    tbl = table_from_text(text)
    pres = parse_presentation(text)
    assert tbl.dimension == quotient_dim_oracle(pres.quiver, pres.relations, 101, 5) == 6
    x, y = (Path(0, (a,), 0) for a in range(2))
    assert tbl.normal_form_path(Path(0, (1, 0, 0), 0)) == {}
    assert tbl.multiply(tbl.multiply({y: 1}, {x: 1}), {x: 1}) == {}
    _agrees_with_random_reduction_orders(tbl, 5)


def test_completion_requeues_a_rule_whose_right_side_a_new_rule_reduces():
    text = TWO_LOOPS + "relation 55*x*x + 64*x*y*x + 98*y*y\nrelation 72*x*x*y\n"
    tbl = table_from_text(text)
    assert tbl.dimension == 12
    # every right side is left in normal form
    for rhs in tbl.rules.values():
        for term in rhs:
            assert not any(_contains(term.arrows, lhs) for lhs in tbl.rules)
    _agrees_with_random_reduction_orders(tbl, 5)


# -- opposite ----------------------------------------------------------------------


def test_opposite_ka2():
    tbl = table_from_text(A2_TEXT)
    opp = opposite(tbl)
    assert opp.quiver.arrows == (("a", "v2", "v1"),)
    assert opp.dimension == 3
    assert opposite(opp) is tbl


def test_opposite_dim5():
    tbl = table_from_text(DIM5_TEXT)
    opp = opposite(tbl)
    assert opp.dimension == tbl.dimension == 5
    # the relation a*b becomes the reversed path b°*a° (same names, reversed walk)
    (rel,) = opp.relations
    (path,) = rel
    assert [opp.quiver.arrows[a][0] for a in path.arrows] == ["b", "a"]
    # the original a*b ran v1 -> v2 -> v1; the reversed walk does too
    assert path.source == 0 and path.target == 0


def test_opposite_preserves_selfinjective_flag():
    tbl = nakayama_from_kupisch([2, 2], cyclic=True)
    assert "selfinjective" in opposite(tbl).flags


def test_opposite_dimension_always_preserved():
    for text in (A2_TEXT, KRONECKER_TEXT, DIM5_TEXT, COMM_SQUARE_TEXT):
        tbl = table_from_text(text)
        assert opposite(tbl).dimension == tbl.dimension


def assert_lists_the_table_of_the_full_constructor(tbl, searched):
    """tbl, built with its dimension known, against the constructor that
    runs the cycle search (which appends the quiver to ``searched``)."""
    full = AlgebraTable(
        tbl.quiver,
        tbl.field,
        tbl.relations,
        flags=tbl.flags,
        max_path_length=tbl.max_path_length,
        label=tbl.label,
    )
    assert searched[-1] is tbl.quiver
    assert tbl.rules == full.rules, tbl.label
    assert tbl.basis == full.basis, tbl.label
    assert tbl.arrow_products == full.arrow_products, tbl.label


@pytest.fixture
def searched(monkeypatch):
    """The quivers of the cycle searches run while the test lasts."""
    out = []
    original = ardom.algebra._normal_cycle

    def counting(quiver, tips):
        out.append(quiver)
        return original(quiver, tips)

    monkeypatch.setattr(ardom.algebra, "_normal_cycle", counting)
    return out


def test_the_opposite_lists_the_table_of_the_full_constructor(searched):
    # opposite() knows the dimension, so it runs no cycle search, yet it
    # must complete and list the same table as the constructor that does
    from ardom.corpus import load_corpus
    from ardom.verify import _cyclic_series

    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    tables = [e.load_table() for e in load_corpus(corpus)]
    assert len(searched) == len(tables)  # only the tables read from files search
    tables += [
        nakayama_from_kupisch(list(c), cyclic=True) for m in range(1, 5) for c in _cyclic_series(m, 6)
    ]
    opposites = [opposite(tbl) for tbl in tables]
    assert len(searched) == 14
    for tbl, opp in zip(tables, opposites):
        assert_lists_the_table_of_the_full_constructor(opp, searched)
        assert opposite(opp) is tbl and opposite(tbl) is opp


def linear_kupisch_series(m: int):
    """Every admissible linear Kupisch series with m entries."""
    for head in itertools.product(range(2, m + 1), repeat=m - 1):
        series = head + (1,)
        if all(series[i + 1] >= series[i] - 1 for i in range(m - 1)):
            yield series


def test_nakayama_tables_list_the_table_of_the_full_constructor(searched):
    # nakayama_from_kupisch knows the dimension, the series sum, so it runs
    # no cycle search either
    from ardom.verify import _cyclic_series

    series = [(c, True) for m in range(1, 6) for c in _cyclic_series(m, 6)]
    series += [(c, False) for m in range(1, 7) for c in linear_kupisch_series(m)]
    for c, cyclic in series:
        tbl = nakayama_from_kupisch(c, cyclic)
        assert not searched and tbl.dimension == sum(c)
        assert_lists_the_table_of_the_full_constructor(tbl, searched)
        searched.clear()


@pytest.mark.parametrize("wrong", [-1, 1])
def test_an_opposite_of_the_wrong_dimension_raises(wrong, monkeypatch):
    tbl = nakayama_from_kupisch([3, 2], cyclic=True)
    monkeypatch.setattr(AlgebraTable, "dimension", property(lambda t: len(t.basis) + wrong))
    for _ in range(2):  # nothing is cached by the failed attempt
        with pytest.raises(InvariantError, match="normal words"):
            opposite(tbl)


def test_a_wrong_completion_of_the_opposite_cannot_list_forever(monkeypatch):
    # with no rules the opposite of a cyclic Nakayama algebra is the path
    # algebra of an oriented cycle, with infinitely many normal words; the
    # listing must stop at the known dimension, long before 1,000 paths
    tbl = nakayama_from_kupisch([3, 2], cyclic=True)
    made = itertools.count()

    def counted(*args):
        if next(made) == 1_000:
            raise AssertionError("the opposite's basis listing ran on")
        return Path(*args)

    monkeypatch.setattr(AlgebraTable, "_complete", lambda t: None)
    monkeypatch.setattr(ardom.algebra, "Path", counted)
    with pytest.raises(InvariantError, match="more than 5 normal words"):
        opposite(tbl)


# -- the ordered listing and the monomial completion, against the oracles ---------


def is_monomial(relations):
    return all(len(element) == 1 for element in relations)


def assert_matches_the_oracles(tbl):
    """The table against the brute-force basis sorted by ``path_key``, the
    products read off it and, for a monomial ideal, its minimal relation
    paths.  A binomial ideal's rules are compared with those completed from
    its relations in reverse order: the reduced Gröbner basis is unique."""
    basis = reference.basis_by_sort(tbl)
    assert tbl.basis == tuple(basis), tbl.label
    assert tbl.basis_index == {p: i for i, p in enumerate(basis)}, tbl.label
    assert tbl.arrow_products == reference.arrow_products_by_definition(tbl, basis), tbl.label
    if is_monomial(tbl.relations):
        rules, longest = reference.minimal_relation_paths(tbl.relations, tbl.max_path_length)
        assert list(tbl.rules.items()) == list(rules.items()), tbl.label
        assert tbl._longest_lhs == longest, tbl.label
    else:
        reordered = AlgebraTable(tbl.quiver, tbl.field, tbl.relations[::-1], _dimension=tbl.dimension)
        assert tbl.rules == reordered.rules, tbl.label
        assert tbl._longest_lhs >= max(map(len, tbl.rules)), tbl.label


@pytest.mark.parametrize("p", [2, 3, 101])
def test_corpus_tables_and_their_opposites_match_the_oracles(p, fresh_corpus_table):
    corpus = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
    names = sorted(f[:-4] for f in os.listdir(corpus) if f.endswith(".alg"))
    assert len(names) == 14
    for name in names:
        tbl = fresh_corpus_table(name, p)
        assert_matches_the_oracles(tbl)
        assert_matches_the_oracles(opposite(tbl))
    assert sum(is_monomial(fresh_corpus_table(n, p).relations) for n in names) == 12


def test_nakayama_tables_and_their_opposites_match_the_oracles():
    from ardom.verify import _cyclic_series

    series = [(c, True) for m in range(1, 6) for c in _cyclic_series(m, 6)]
    series += [(c, False) for m in range(1, 7) for c in linear_kupisch_series(m)]
    series += [(range(n, 0, -1), False) for n in range(1, 41)]  # linear A_n, no relations
    for c, cyclic in series:
        tbl = nakayama_from_kupisch(c, cyclic)
        assert_matches_the_oracles(tbl)
        assert_matches_the_oracles(opposite(tbl))


def random_monomial_presentation(seed):
    """A quiver of 1-3 vertices and 1-4 arrows, named in no rank order, up
    to 6 relation paths of 1-4 arrows (1 rarely) and a cap of 2-6."""
    rng = random.Random(seed)
    vertices = tuple(f"v{i}" for i in range(rng.randint(1, 3)))
    names = rng.sample("abcdxyz", rng.randint(1, 4))
    quiver = Quiver(vertices, tuple((n, rng.choice(vertices), rng.choice(vertices)) for n in names))
    fld = PrimeField(rng.choice((2, 3, 101)))
    relations = []
    for _ in range(rng.randint(0, 6)):
        length = 1 if rng.random() < 0.03 else rng.randint(2, 4)
        word = [rng.randrange(len(names))]
        while len(word) < length and quiver.arrows_from(quiver.arrow_target(word[-1])):
            word.append(rng.choice(quiver.arrows_from(quiver.arrow_target(word[-1]))))
        if len(word) == length:
            path = make_path(quiver, quiver.arrow_source(word[0]), tuple(word))
            relations.append({path: rng.randrange(1, fld.p)})
    return quiver, fld, tuple(relations), rng.randint(2, 6)


def test_random_monomial_presentations_match_the_oracles():
    outcomes = {"built": 0, "ValueError": 0, "CompletionError": 0, "infinite": 0}
    for seed in range(400):
        quiver, fld, relations, cap = random_monomial_presentation(seed)
        try:
            rules, _ = reference.minimal_relation_paths(relations, cap)
        except (ValueError, CompletionError) as exc:
            expected = exc
        else:
            cycle = _normal_cycle(quiver, rules)
            assert (cycle is not None) == _has_long_normal_paths(quiver, set(rules))
            expected = None
            if cycle is not None:
                label = "*".join(quiver.arrows[a][0] for a in cycle)
                expected = CompletionError(
                    f"infinite-dimensional: every power of the path {label} is a normal word, "
                    "so nonzero (a cycle of the Ufnarovski graph)"
                )
        if expected is not None:
            with pytest.raises(type(expected)) as err:
                AlgebraTable(quiver, fld, relations, max_path_length=cap)
            assert type(err.value) is type(expected) and str(err.value) == str(expected), seed
            kind = "infinite" if "infinite" in str(expected) else type(expected).__name__
            outcomes[kind] += 1
            continue
        tbl = AlgebraTable(quiver, fld, relations, max_path_length=cap, label=f"seed {seed}")
        assert_matches_the_oracles(tbl)
        assert_matches_the_oracles(opposite(tbl))
        outcomes["built"] += 1
    assert min(outcomes.values()) >= 10, outcomes


@pytest.mark.parametrize("relations, refused", [(["a^12", "a^2"], True), (["a^2", "a^12"], False)])
def test_monomial_relations_are_taken_in_order(relations, refused):
    # a^12 is refused at cap 11 when it is read first; after a^2 it
    # contains a rule and is dropped
    text = "field 101\nvertices v\narrow a v v\n" + "".join(
        "relation " + "*".join("a" * int(r[2:])) + "\n" for r in relations
    )
    if refused:
        with pytest.raises(CompletionError, match=r"rule of length 12 exceeds max_path_length=11"):
            table_from_text(text, max_path_length=11)
    else:
        tbl = table_from_text(text, max_path_length=11)
        assert tbl.dimension == 2 and list(tbl.rules) == [(0, 0)]


def test_nakayama_tables_are_listed_without_sorting_or_rewriting(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Nakayama table was sorted or rewritten")

    monkeypatch.setattr(AlgebraTable, "path_key", refuse)
    monkeypatch.setattr(AlgebraTable, "normal_form_path", refuse)
    for c, cyclic in [([3, 2], True), ([4, 4, 3], True), ([3, 2, 1], False), (range(24, 0, -1), False)]:
        opposite(nakayama_from_kupisch(c, cyclic))


# -- Nakayama generator ----------------------------------------------------------------


def test_nakayama_cyclic_22():
    tbl = nakayama_from_kupisch([2, 2], cyclic=True)
    assert tbl.dimension == 4
    assert "selfinjective" in tbl.flags


def test_nakayama_linear_21_is_ka2():
    tbl = nakayama_from_kupisch([2, 1], cyclic=False)
    assert tbl.dimension == 3
    assert len(tbl.quiver.vertices) == 2
    assert len(tbl.quiver.arrows) == 1
    assert "selfinjective" not in tbl.flags


def test_nakayama_cyclic_32():
    tbl = nakayama_from_kupisch([3, 2], cyclic=True)
    assert tbl.dimension == 5
    assert "selfinjective" not in tbl.flags
    # the regular-module injectivity oracle lives in test_modules


def test_nakayama_inadmissible():
    for series, cyclic, why in [
        ([3, 1], True, "every entry >= 2"),
        ([4, 2], True, "descends by more than 1"),
        ([2, 2], False, "must end with 1"),
        ([3, 1], False, "descends by more than 1"),  # c_1 > c_2 + 1
        ([1, 1], False, "entries >= 2 before the last"),
        ([0, 2], True, "entries must be >= 1"),
        ([], True, "empty"),
    ]:
        with pytest.raises(InputError, match=why):
            nakayama_from_kupisch(series, cyclic=cyclic)


def test_nakayama_dimension_is_series_sum():
    for series, cyclic in [
        ([2, 2], True),
        ([3, 3], True),
        ([3, 2], True),
        ([4, 3, 2], True),
        ([3, 2, 1], False),
        ([2, 2, 1], False),
        ([5, 5, 5], True),
    ]:
        assert nakayama_from_kupisch(series, cyclic).dimension == sum(series)


def test_quiver_validation():
    with pytest.raises(ValueError, match="duplicate vertex"):
        Quiver(("v", "v"), ())
    with pytest.raises(ValueError, match="duplicate arrow"):
        Quiver(("v",), (("a", "v", "v"), ("a", "v", "v")))
