import os

import pytest

from ardom.algebra import nakayama_from_kupisch, table_from_text
from ardom.arseq import knit_indecomposables
from ardom.modules import direct_sum, nakayama_indecomposables, sample_modules

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")

A2_TEXT = """
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
# Auslander algebra of k[x]/(x^2)
field 101
vertices v1 v2
arrow a v1 v2
arrow b v2 v1
relation a*b
flags gendo_symmetric
"""

COMM_SQUARE_TEXT = """
field 101
vertices p q r s
arrow a p q
arrow b q s
arrow c p r
arrow d r s
relation a*b - c*d
"""


@pytest.fixture(scope="session")
def a2():
    return table_from_text(A2_TEXT, label="a2")


@pytest.fixture(scope="session")
def kronecker():
    return table_from_text(KRONECKER_TEXT, label="kronecker")


@pytest.fixture(scope="session")
def dim5():
    return table_from_text(DIM5_TEXT, label="dim5")


@pytest.fixture(scope="session")
def comm_square():
    return table_from_text(COMM_SQUARE_TEXT, label="comm-square")


@pytest.fixture(scope="session")
def nak22():
    return nakayama_from_kupisch([2, 2], cyclic=True)


@pytest.fixture(scope="session")
def nak32():
    return nakayama_from_kupisch([3, 2], cyclic=True)


@pytest.fixture(scope="session")
def fresh_corpus_table():
    """Read a corpus algebra over GF(p) into a new table with empty caches."""

    def read(name, p):
        with open(os.path.join(CORPUS, name + ".alg"), encoding="utf-8") as fh:
            text = fh.read().replace("field 101", f"field {p}")
        return table_from_text(text, label=f"{name}@{p}")

    return read


@pytest.fixture(scope="session")
def differential_modules():
    """The modules a differential test runs over: every listed
    indecomposable (the uniserials of a Nakayama algebra, else the knitted
    AR quiver when it knits within 64 modules), 8 sampled modules at each of
    seeds 0, 1 and 2, and the sums Y ⊕ Z of neighbouring listed modules
    (sampled ones where none are listed)."""

    def build(tbl):
        uniserials = nakayama_indecomposables(tbl)
        if uniserials is not None:
            listed = [m for _, _, m in uniserials]
        else:
            listed = [ind.module for ind in knit_indecomposables(tbl, 64) or ()]
        sampled = [m for seed in (0, 1, 2) for m in sample_modules(tbl, seed=seed, size=8)]
        base = listed or sampled
        sums = [direct_sum(tbl, [y, z]) for y, z in zip(base, base[1:] + base[:1])]
        return listed + sampled + sums

    return build
