import os

import pytest

from ardom.algebra import nakayama_from_kupisch, table_from_text

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
