"""Finite group arithmetic on Cayley tables.

Covers what the quotient side of the library needs: validation,
subgroup closure, commutator subgroups, abelianization, cosets and
quotient groups, the isomorphism check of a canonical map, and finitely
supported direct sums of abelianized factors.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from hyperkernel import errors, kernels
from hyperkernel.core import ElementSet, Partition, bits, mask_of


class GroupTable:
    """Validated single-valued Cayley table with identity and inverses."""

    __slots__ = ("n", "names", "rows", "identity", "inverse", "_index")

    def __init__(self, names: Sequence[str], rows: Sequence[Sequence[int]]):
        self.names = tuple(names)
        rows = self.rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows) or len(self.names) != n:
            raise errors.InvalidGroupTable("table is not square")
        if min(map(min, rows)) < 0 or max(map(max, rows)) >= n:
            raise errors.InvalidGroupTable("entry out of range")
        bit = [1 << v for v in range(n)]
        packed = kernels.assoc_witness(tuple(tuple(map(bit.__getitem__, r)) for r in rows), n)
        if packed >= 0:
            a, bc = divmod(packed, n * n)
            raise errors.NotAssociative(f"witness {(a, *divmod(bc, n))}")
        order, columns = tuple(range(n)), list(zip(*rows))
        ident = next((e for e in range(n) if rows[e] == order == columns[e]), None)
        if ident is None:
            raise errors.NoIdentity("no two-sided identity")
        # in a finite monoid a*b = e forces b*a = e (x -> b*x is one-to-one,
        # so b*c = e for some c, and c = a*b*c = a), so row a names a's inverse
        inverse = []
        for a, row in enumerate(rows):
            if ident not in row:
                raise errors.NoInverse(f"witness {a}")
            inverse.append(row.index(ident))
        self.n = n
        self.identity = ident
        self.inverse = tuple(inverse)
        self._index = {lab: i for i, lab in enumerate(self.names)}

    def mul(self, a: int, b: int) -> int:
        return self.rows[a][b]

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise errors.UnknownLabel(f"unknown element {label!r}") from None

    def is_abelian(self) -> bool:
        return all(
            self.rows[a][b] == self.rows[b][a]
            for a in range(self.n)
            for b in range(a + 1, self.n)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupTable)
            and self.names == other.names
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.names, self.rows))

    def __repr__(self) -> str:
        return f"GroupTable(order {self.n})"


def validate_group(
    table: Sequence[Sequence[int]], names: Sequence[str] | None = None
) -> GroupTable:
    """Build a GroupTable, raising NotAssociative/NoIdentity/NoInverse."""
    rows = [list(r) for r in table]
    if names is None:
        names = [str(i) for i in range(len(rows))]
    return GroupTable(names, rows)


def subgroup_generated(G: GroupTable, S: ElementSet | Iterable[int]) -> ElementSet:
    """Smallest subgroup containing S (closure under product and inverse)."""
    seeds = list(S)
    members = {G.identity}
    frontier = [G.identity]
    for s in seeds:
        if s not in members:
            members.add(s)
            frontier.append(s)
    while frontier:
        a = frontier.pop()
        candidates = [G.inverse[a]]
        candidates.extend(G.rows[a][b] for b in list(members))
        candidates.extend(G.rows[b][a] for b in list(members))
        for c in candidates:
            if c not in members:
                members.add(c)
                frontier.append(c)
    return ElementSet.from_indices(G.n, members)


def commutator_subgroup(G: GroupTable) -> ElementSet:
    """Subgroup generated by all a*b*a^-1*b^-1."""
    comms = set()
    for a in range(G.n):
        for b in range(G.n):
            comms.add(G.rows[G.rows[G.rows[a][b]][G.inverse[a]]][G.inverse[b]])
    return subgroup_generated(G, comms)


def cosets(G: GroupTable, N: ElementSet) -> Partition:
    """Partition of G into cosets of the normal subgroup N."""
    _require_normal_subgroup(G, N)
    nm = N.mask
    coset_of: dict[int, int] = {}
    class_of = [0] * G.n
    for a in range(G.n):
        cm = mask_of(G.rows[a][k] for k in bits(nm))
        cid = coset_of.setdefault(cm, len(coset_of))
        class_of[a] = cid
    return Partition(G.n, class_of)


def _require_normal_subgroup(G: GroupTable, N: ElementSet) -> None:
    nm = N.mask
    if not nm or not nm >> G.identity & 1:
        raise errors.NotNormal("not a subgroup: identity missing")
    for a in bits(nm):
        if not nm >> G.inverse[a] & 1:
            raise errors.NotNormal("not a subgroup: inverse escapes")
        for b in bits(nm):
            if not nm >> G.rows[a][b] & 1:
                raise errors.NotNormal("not a subgroup: product escapes")
    for g in range(G.n):
        gi = G.inverse[g]
        for a in bits(nm):
            if not nm >> G.rows[G.rows[g][a]][gi] & 1:
                raise errors.NotNormal(f"conjugation by {g} escapes")


def quotient_group(G: GroupTable, N: ElementSet) -> GroupTable:
    """Coset group with least-index representatives as element names."""
    part = cosets(G, N)
    reps = [c.indices()[0] for c in part.classes]
    names = [G.names[r] for r in reps]
    k = len(reps)
    rows = [
        [part.class_of[G.rows[reps[i]][reps[j]]] for j in range(k)] for i in range(k)
    ]
    return GroupTable(names, rows)


def abelianization(G: GroupTable) -> GroupTable:
    """Quotient by the commutator subgroup."""
    return quotient_group(G, commutator_subgroup(G))


def direct_product_group(G1: GroupTable, G2: GroupTable) -> GroupTable:
    """Componentwise product, row-major pairing."""
    n2 = G2.n
    names = [f"{a}.{b}" for a in G1.names for b in G2.names]
    rows = []
    for a1 in range(G1.n):
        for a2 in range(n2):
            rows.append(
                [
                    G1.rows[a1][b1] * n2 + G2.rows[a2][b2]
                    for b1 in range(G1.n)
                    for b2 in range(n2)
                ]
            )
    return GroupTable(names, rows)


def isomorphic(
    G1: GroupTable, G2: GroupTable, f1: Sequence[int], f2: Sequence[int]
) -> bool:
    """Whether f1[x] -> f2[x] is an isomorphism from G1 onto G2.

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
    rows1, rows2 = G1.rows, G2.rows
    return all(
        phi[rows1[a][b]] == rows2[phi[a]][phi[b]]
        for a in range(G1.n)
        for b in range(G1.n)
    )


class DirectSumFamily:
    """Indexed family of groups with their abelianization data.

    Supports finitely supported sums over the abelianized factors; the
    stored component of a factor is an element index of that factor's
    abelianization, never its identity.
    """

    __slots__ = ("groups", "abelianizations", "projections")

    def __init__(self, groups: Sequence[GroupTable]):
        self.groups = tuple(groups)
        abelians = []
        projections = []
        for G in self.groups:
            comm = commutator_subgroup(G)
            part = cosets(G, comm)
            abelians.append(quotient_group(G, comm))
            projections.append(part.class_of)
        self.abelianizations = tuple(abelians)
        self.projections = tuple(projections)

    def zero(self) -> "DirectSumElement":
        return DirectSumElement(self, ())

    def inject(self, factor: int, elem: int) -> "DirectSumElement":
        """Image of one factor element under projection into the sum."""
        if not 0 <= factor < len(self.groups):
            raise errors.FamilyMismatch(f"no factor {factor}")
        if not 0 <= elem < self.groups[factor].n:
            raise errors.FamilyMismatch(f"element {elem} outside factor {factor}")
        cls = self.projections[factor][elem]
        if cls == self.abelianizations[factor].identity:
            return self.zero()
        return DirectSumElement(self, ((factor, cls),))


class DirectSumElement:
    """Finitely supported element of the direct sum of abelianizations."""

    __slots__ = ("family", "support")

    def __init__(self, family: DirectSumFamily, support: Iterable[tuple[int, int]]):
        self.family = family
        self.support = tuple(sorted(support))

    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectSumElement)
            and self.family is other.family
            and self.support == other.support
        )

    def __hash__(self) -> int:
        return hash((id(self.family), self.support))

    def __repr__(self) -> str:
        if not self.support:
            return "DirectSumElement(0)"
        parts = ", ".join(
            f"{i}->{self.family.abelianizations[i].names[c]}" for i, c in self.support
        )
        return f"DirectSumElement({parts})"

    def __neg__(self) -> "DirectSumElement":
        out = []
        for i, c in self.support:
            out.append((i, self.family.abelianizations[i].inverse[c]))
        return DirectSumElement(self.family, out)


def direct_sum_add(
    family: DirectSumFamily, a: DirectSumElement, b: DirectSumElement
) -> DirectSumElement:
    """Componentwise sum; identity components drop out of the support."""
    if a.family is not family or b.family is not family:
        raise errors.FamilyMismatch("operands belong to a different family")
    acc = dict(a.support)
    for i, c in b.support:
        if i in acc:
            A = family.abelianizations[i]
            v = A.rows[acc[i]][c]
            if v == A.identity:
                del acc[i]
            else:
                acc[i] = v
        else:
            acc[i] = c
    return DirectSumElement(family, acc.items())
