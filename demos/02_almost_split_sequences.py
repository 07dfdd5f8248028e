"""Almost split sequences starting at an indecomposable projective.

The construction: for a non-injective projective U = P(v), the sequence
0 -> U -> X -> V -> 0 with V the inverse translate of U is built from a
class in the socle of Ext^1(V, U) under the End(U)-action. The class is a
cocycle P_1 -> U on the minimal resolution P_1 -> P_0 -> V, and X is the
pushout along the differential P_1 -> P_0. `check()` re-verifies
exactness, non-splitness, and the socle condition from scratch.

Run:  python3 demos/02_almost_split_sequences.py
"""

import os

from ardom.algebra import table_from_file
from ardom.arseq import almost_split_from_projective
from ardom.modules import is_isomorphic

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def show(tbl, vertex):
    seq = almost_split_from_projective(tbl, vertex)
    seq.check()
    name = tbl.quiver.vertices[vertex]
    print(f"  start at P({name}):  0 -> {seq.u.dims} -> {seq.x.dims} -> {seq.v.dims} -> 0")
    return seq


def main():
    print("The textbook example: the path algebra of v1 --a--> v2.")
    print("The sequence starting at the simple projective P(v2) must be")
    print("0 -> P(v2) -> P(v1) -> S(v1) -> 0:")
    a2 = table_from_file(os.path.join(ROOT, "ka2.alg"))
    seq = show(a2, 1)
    assert seq.x.dims == (1, 1) and seq.v.dims == (1, 0)

    print()
    print("The Kronecker quiver (two parallel arrows). The middle term over")
    print("the simple projective is two copies of the big projective:")
    kron = table_from_file(os.path.join(ROOT, "kronecker.alg"))
    seq = show(kron, 1)

    print()
    print("The class is chosen from the socle of Ext^1(V, U) as a module")
    print("over End(U); any nonzero scaling gives an isomorphic middle term:")
    other = almost_split_from_projective(kron, 1, choice=1)
    print(f"  choice 0 middle {seq.x.dims}, choice 1 middle {other.x.dims},"
          f" isomorphic: {is_isomorphic(seq.x, other.x)}")

    print()
    print("A Nakayama algebra with Kupisch series [3,4,4], where the")
    print("sequence lives deeper in the module category:")
    nak = table_from_file(os.path.join(ROOT, "nak-344.alg"))
    show(nak, 0)


if __name__ == "__main__":
    main()
