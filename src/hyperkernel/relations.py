"""Fundamental relations and equivalence-relation machinery.

beta is the smallest strongly regular relation, computed as a congruence
closure of the table; on a semihypergroup it is the transitive closure
of "lie in a common product", and its quotient is the fundamental group.
gamma additionally relates products taken in a permuted order; it
factors through beta as the pullback of the mod-commutator congruence of
the fundamental group, which is how gamma() computes it.  gamma_oracle()
is the independent brute-force route over permuted tuples, kept for
cross-checking.
"""

from __future__ import annotations

from math import comb

from hyperkernel import errors, kernels
from hyperkernel.core import (
    DEFAULT_CLOSED_SET_BUDGET,
    ElementSet,
    HyperTable,
    Partition,
    _require_hypergroup,
    closed_sets,
    cosets,
    is_normal,
    per_table,
    product_closure,
    scalar_identity,
)
from hyperkernel.groups import commutator_subgroup, inverses

DEFAULT_ORACLE_BUDGET = 4_000_000


@per_table
def beta(H: HyperTable) -> Partition:
    """Smallest strongly regular relation, by congruence closure over
    class products: every C*z and z*C is merged until none is new.

    On a semihypergroup this is beta*, the transitive closure of the
    common-product relation (Koskas 1970; Freni 1991 showed beta = beta*
    in hypergroups).  On any table it is the least equivalence that puts
    every cell inside one class and that products respect.
    """
    return Partition(H.n, kernels.congruence_closure(H.rows, H.n))


@per_table
def gamma(H: HyperTable) -> Partition:
    """Smallest strongly regular relation with a commutative quotient.

    Computed through the fundamental group: the class of x is the union
    of beta classes lying in the coset of x modulo the commutator
    subgroup of the beta quotient.
    """
    G = fundamental_group(H, "gamma")
    return pullback(congruence_mod(G, commutator_subgroup(G)), beta(H))


def gamma_oracle(
    H: HyperTable,
    nmax: int = 4,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> Partition:
    """Brute-force gamma: permuted-product overlaps up to length nmax.

    Every element of a product of (x1..xk) is related to every element
    of the product of any reordering; the result is transitively closed.
    Independent of gamma()'s closure/quotient route by construction.

    The budget counts the kernel's lines: n block masks per multiset of
    length <= nmax - 2, keyed by its letters.  By the hockey-stick identity
    and k * comb(n + k - 1, k) = n * comb(n + k - 1, k - 1), that is
    n * comb(n + nmax - 2, nmax - 2) masks and n * comb(n + nmax - 2, nmax - 3) letters.
    """
    if nmax < 1:
        raise errors.HyperError(f"nmax must be at least 1, got {nmax}")
    masks = H.n * comb(H.n + nmax - 2, nmax - 2) if nmax > 1 else 0
    letters = H.n * comb(H.n + nmax - 2, nmax - 3) if nmax > 2 else 0
    if masks + letters > budget:
        raise errors.BudgetExceeded(
            f"gamma oracle: {masks} block masks and {letters} key letters "
            f"by length {nmax}, over the budget of {budget}"
        )
    parents = kernels.oracle_merge(H.rows, H.n, nmax)
    return Partition(H.n, parents)


def is_strongly_regular(H: HyperTable, R: Partition) -> bool:
    """Regular with whole cells landing inside single classes."""
    if R.n != H.n:
        raise errors.ShapeMismatch("partition carrier differs from table")
    return kernels.sr_check(H.rows, H.n, R.class_of)


class QuotientStructure:
    """Class-level table of a regular relation, with group detection.

    Group-ness is established a posteriori: the table must be single
    valued and pass group validation, never assumed from the relation.
    A plain slotted class, not a tuple, so that it can be weakly
    referenced.
    """

    __slots__ = ("relation", "table", "is_group", "__weakref__")

    def __init__(self, relation: Partition, table: HyperTable, is_group: bool):
        self.relation = relation
        self.table = table
        self.is_group = is_group


@per_table(labelled=True)
def quotient_by(H: HyperTable, R: Partition) -> QuotientStructure:
    """Quotient hyperoperation on classes, verified representative-free."""
    if R.n != H.n:
        raise errors.ShapeMismatch("partition carrier differs from table")
    met = kernels.met_sets(H.rows, R.class_of)
    k = len(R.classes)
    reps = [c.indices()[0] for c in R.classes]
    cells = [[met[reps[i]][reps[j]] for j in range(k)] for i in range(k)]
    if not kernels.regular(met, R.class_of):
        # name the first class pair, in (i, j) order, whose cell moves
        for i, ci in enumerate(R.classes):
            for j, cj in enumerate(R.classes):
                for x in ci:
                    for y in cj:
                        if met[x][y] != cells[i][j]:
                            raise errors.NotRegular(
                                f"cell ({i},{j}) depends on representatives: "
                                f"({H.names[reps[i]]},{H.names[reps[j]]}) vs "
                                f"({H.names[x]},{H.names[y]})"
                            )
    names = [H.names[r] for r in reps]
    table = HyperTable(names, cells, name=None)
    is_group = all(cell & (cell - 1) == 0 for row in cells for cell in row)
    if is_group:
        try:
            inverses(table)
        except errors.InvalidGroupTable:
            is_group = False
    return QuotientStructure(R, table, is_group)


def fundamental_group(H: HyperTable, what: str) -> HyperTable:
    """H/beta, the fundamental group of the hypergroup H, needed by `what`.
    It is a group on every hypergroup (Koskas 1970): a failure is internal."""
    _require_hypergroup(H, what)
    q = quotient_by(H, beta(H))
    if not q.is_group:
        raise errors.NotStronglyRegular("beta quotient failed to be a group")
    return q.table


def kernel_S(H: HyperTable, R: Partition) -> ElementSet:
    """The class acting as the identity of the quotient group.

    A regular R is strongly regular exactly when every cell of its
    memoised quotient_by(H, R) is a singleton."""
    try:
        q = quotient_by(H, R)
    except errors.NotRegular:
        q = None
    if q is None or any(c & (c - 1) for row in q.table.rows for c in row):
        raise errors.NotStronglyRegular("kernel needs a strongly regular relation")
    if not q.is_group:
        raise errors.NotStronglyRegular("quotient is not a group")
    return R.classes[scalar_identity(q.table)]


@per_table
def congruence_mod(H: HyperTable, K: ElementSet) -> Partition:
    """x related to y iff x*K and y*K coincide as sets, read from the
    x*K list of cosets(H, K).  Memoised on (rows, K), so a command
    builds each coset partition once."""
    c = cosets(H, K)
    if not c.is_subhypergroup:
        raise errors.NotASubhypergroup("congruence needs a subhypergroup")
    return Partition(H.n, c.xk)


def pullback(sigma: Partition, rho: Partition) -> Partition:
    """Lift a partition of rho's classes back to the carrier."""
    if sigma.n != len(rho.classes):
        raise errors.ShapeMismatch(
            f"sigma partitions {sigma.n} points but rho has {len(rho.classes)} classes"
        )
    return Partition(rho.n, [sigma.class_of[c] for c in rho.class_of])


def join(R1: Partition, R2: Partition) -> Partition:
    """Smallest equivalence containing both."""
    if R1.n != R2.n:
        raise errors.ShapeMismatch("partitions over different carriers")
    uf = kernels.UnionFind(R1.n)
    for part in (R1, R2):
        for block in part.classes:
            members = block.indices()
            for m in members[1:]:
                uf.union(members[0], m)
    return Partition(R1.n, uf.roots())


def enumerate_strongly_regular(
    H: HyperTable, budget: int = DEFAULT_CLOSED_SET_BUDGET
) -> list[Partition]:
    """Every strongly regular relation on a hypergroup, canonically ordered.

    beta* is the smallest strongly regular relation, so every strongly
    regular relation is the pullback through beta* of a congruence of
    the fundamental group G, that is of the coset partition of a normal
    subgroup.  The subgroups of G are the nonempty product-closed subsets
    of its table; budget bounds the product-closed sets visited.

    Each congruence sigma is re-checked on the k x k table of G, not on
    its pullback R on the n x n table of H; a failure raises as an
    internal error.  The two checks agree: with p the map of H onto G,
    beta is strongly regular, so the cell a*x lies inside the beta class
    p(a)p(x), and the one class of R it meets is the sigma class of
    p(a)p(x).  As p is onto, R is strongly regular on H exactly when
    sigma is strongly regular on G.
    """
    G = fundamental_group(H, "strongly regular enumeration")
    b = beta(H)
    found = []
    for mask in closed_sets(G.n, product_closure(G), budget, "fundamental-group subgroups"):
        N = ElementSet(G.n, mask)
        if not mask or not is_normal(G, N):
            continue
        sigma = congruence_mod(G, N)
        if not is_strongly_regular(G, sigma):
            raise errors.NotStronglyRegular(
                f"pullback of normal subgroup {N.labels(G.names)} is not strongly regular"
            )
        found.append(pullback(sigma, b))
    found.sort(key=Partition.sort_key)
    return found
