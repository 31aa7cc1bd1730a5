"""Finite groups as hypergroups whose cells are all singletons.

A hypergroup with singleton cells is exactly a group (Corsini 1993), so a
group here is a HyperTable and every group operation runs on the
hypergroup code: cosets are `relations.congruence_mod`, quotients and the
abelianization are `relations.quotient_by` (G/gamma(G) for the latter),
products are `core.direct_product`, commutativity is
`core.is_commutative`, and the subgroup generated by a set is its
`core.product_closure`.  This module keeps the validator of integer
tables, the commutator subgroup, the isomorphism check of a canonical
map, and two per-table views of a group: integer products and inverses.
"""

from __future__ import annotations

from typing import Sequence

from hyperkernel import errors
from hyperkernel.core import (
    ElementSet,
    HyperTable,
    is_semihypergroup,
    mask_of,
    per_table,
    product_closure,
    scalar_identity,
)


def validate_group(
    table: Sequence[Sequence[int]], names: Sequence[str] | None = None
) -> HyperTable:
    """The singleton-cell table of an integer Cayley table.

    Raises InvalidGroupTable for a table that is not square or has an
    entry out of range, then what `inverses` raises.
    """
    rows = [list(r) for r in table]
    n = len(rows)
    if names is None:
        names = [str(i) for i in range(n)]
    if n == 0 or any(len(r) != n for r in rows) or len(names) != n:
        raise errors.InvalidGroupTable("table is not square")
    if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
        raise errors.InvalidGroupTable("entry out of range")
    G = HyperTable(names, [[1 << v for v in r] for r in rows])
    inverses(G)
    return G


@per_table
def inverses(G: HyperTable) -> tuple[int, ...]:
    """inverses(G)[a] is the inverse of a in the singleton-cell table G.

    Checks that G is a group first: raises NotAssociative with the least
    failing triple, NoIdentity, or NoInverse with the least element whose
    row misses the identity.
    """
    associative, witness = is_semihypergroup(G)
    if not associative:
        raise errors.NotAssociative(f"witness {witness}")
    e = scalar_identity(G)
    if e is None:
        raise errors.NoIdentity("no two-sided identity")
    # in a finite monoid a*b = e forces b*a = e (x -> b*x is one-to-one,
    # so b*c = e for some c, and c = a*b*c = a), so row a names a's inverse
    bit = 1 << e
    out = []
    for a, row in enumerate(G.rows):
        if bit not in row:
            raise errors.NoInverse(f"witness {a}")
        out.append(row.index(bit))
    return tuple(out)


@per_table
def products(G: HyperTable) -> tuple[tuple[int, ...], ...]:
    """products(G)[a][b] is the element a*b of the singleton-cell table G."""
    return tuple(tuple(cell.bit_length() - 1 for cell in row) for row in G.rows)


def commutator_subgroup(G: HyperTable) -> ElementSet:
    """Subgroup generated by all a*b*a^-1*b^-1: in a finite group, the
    closure of a nonempty set under products."""
    rows, inv = products(G), inverses(G)
    comms = mask_of(
        rows[rows[rows[a][b]][inv[a]]][inv[b]] for a in range(G.n) for b in range(G.n)
    )
    return ElementSet(G.n, product_closure(G)(comms, 0))


def isomorphic(
    G1: HyperTable, G2: HyperTable, f1: Sequence[int], f2: Sequence[int]
) -> bool:
    """Whether f1[x] -> f2[x] is an isomorphism from the group G1 onto G2.

    f1 and f2 send the same points x into G1 and G2, as two canonical
    projections do; the map is read off those pairs, so it must be well
    defined, cover G1, be injective and respect the products.
    """
    if G1.n != G2.n or len(f1) != len(f2):
        return False
    phi = [-1] * G1.n
    for a, b in zip(f1, f2):
        if phi[a] == -1:
            phi[a] = b
        elif phi[a] != b:
            return False
    if -1 in phi or len(set(phi)) != G1.n:
        return False
    rows1, rows2 = products(G1), products(G2)
    return all(
        phi[rows1[a][b]] == rows2[phi[a]][phi[b]]
        for a in range(G1.n)
        for b in range(G1.n)
    )
