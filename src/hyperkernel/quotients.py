"""Subhypergroup classification, hearts, derived subhypergroups, quotients.

The heart and the derived subhypergroup are both computed twice, by
structurally different routes (complete-part intersections vs identity
classes of the fundamental relations); a disagreement raises, because it
can only mean an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass

from hyperkernel import errors
from hyperkernel.core import (
    DEFAULT_CLOSED_SET_BUDGET,
    ElementSet,
    HyperTable,
    Partition,
    bits,
    closed_sets,
    direct_product,
    hyperproduct,
    is_canonical,
    is_closed,
    is_conjugable,
    is_normal,
    is_subhypergroup,
    left_division,
    per_table,
    product_closure,
    right_division,
    scalar_identity,
)
from hyperkernel.groups import GroupTable, cosets, direct_product_group, isomorphic
from hyperkernel.relations import (
    QuotientStructure,
    beta,
    congruence_mod,
    gamma,
    is_regular,
    join,
    kernel_S,
    product_census,
    pullback,
    quotient_by,
)

def is_complete_part(H: HyperTable, C: ElementSet) -> bool:
    """C swallows every product set it meets."""
    cm = C.mask
    for p in product_census(H).masks:
        if p & cm and p | cm != cm:
            return False
    return True


@dataclass(frozen=True)
class SubEntry:
    members: ElementSet
    closed: bool
    normal: bool
    complete_part: bool
    conjugable: bool
    contains_S_beta: bool
    contains_S_gamma: bool


@dataclass(frozen=True)
class SubLattice:
    all: tuple[SubEntry, ...]

    def sets(self) -> tuple[ElementSet, ...]:
        return tuple(entry.members for entry in self.all)


def subhypergroups(H: HyperTable, budget: int = DEFAULT_CLOSED_SET_BUDGET) -> SubLattice:
    """Every subhypergroup with all classification flags, ascending by mask.

    Product-closed subsets are closed under intersection; their closure
    system is enumerated and filtered by the reproduction law.  budget
    bounds the product-closed sets visited.
    """
    s_beta = kernel_S(H, beta(H)).mask
    s_gamma = kernel_S(H, gamma(H)).mask
    entries = []
    for mask in closed_sets(H.n, product_closure(H), budget, "subhypergroup lattice"):
        K = ElementSet(H.n, mask)
        if not is_subhypergroup(H, K):
            continue
        entries.append(
            SubEntry(
                members=K,
                closed=is_closed(H, K),
                normal=is_normal(H, K),
                complete_part=is_complete_part(H, K),
                conjugable=is_conjugable(H, K),
                contains_S_beta=mask | s_beta == mask,
                contains_S_gamma=mask | s_gamma == mask,
            )
        )
    return SubLattice(tuple(entries))


def _complete_part_subhypergroups(H: HyperTable, budget: int) -> list[int]:
    """Masks of the subhypergroups that are complete parts, ascending.

    Complete parts are closed under intersection too, so the closure
    adds, with every element x, each census set containing x.
    """
    joins = [0] * H.n
    for p in product_census(H).masks:
        for x in bits(p):
            joins[x] |= p
    closure = product_closure(H, joins)
    return [
        mask
        for mask in closed_sets(H.n, closure, budget, "complete-part lattice")
        if is_subhypergroup(H, ElementSet(H.n, mask))
    ]


def heart(H: HyperTable, budget: int = DEFAULT_CLOSED_SET_BUDGET) -> ElementSet:
    """Intersection of all complete-part subhypergroups.

    Cross-checked against the identity class of the fundamental group;
    any disagreement is an internal error, never a mathematical outcome.
    """
    acc = H.full_mask
    for mask in _complete_part_subhypergroups(H, budget):
        acc &= mask
    via_kernel = kernel_S(H, beta(H))
    if acc != via_kernel.mask:
        raise errors.InconsistentHeart(
            f"complete-part intersection {acc:#x} != beta kernel {via_kernel.mask:#x}"
        )
    return ElementSet(H.n, acc)


def _division_set(H: HyperTable) -> int:
    """Mask of D, which derived() closes to a complete-part subhypergroup.

    D gathers, over all pairs (x, y), the right divisions z/w and left
    divisions z\\w taken elementwise across the two product sets x*y and
    y*x.  Each distinct (z, w) is divided once.
    """
    pairs = set()
    for x in range(H.n):
        for y in range(H.n):
            yx = tuple(bits(H.rows[y][x]))
            pairs.update((z, w) for z in bits(H.rows[x][y]) for w in yx)
    d = 0
    for z, w in pairs:
        d |= right_division(H, z, w).mask | left_division(H, w, z).mask
    return d


def derived(H: HyperTable, budget: int = DEFAULT_CLOSED_SET_BUDGET) -> ElementSet:
    """Smallest complete-part subhypergroup containing all division sets.

    Cross-checked against the identity class of gamma.
    """
    d = _division_set(H)
    acc = H.full_mask
    for mask in _complete_part_subhypergroups(H, budget):
        if mask | d == mask:
            acc &= mask
    via_kernel = kernel_S(H, gamma(H))
    if acc != via_kernel.mask:
        raise errors.InconsistentDerived(
            f"division construction {acc:#x} != gamma kernel {via_kernel.mask:#x}"
        )
    return ElementSet(H.n, acc)


def _coset_names(H: HyperTable, K: ElementSet, part: Partition) -> list[str]:
    km = K.mask
    names = []
    for block in part.classes:
        rep = block.indices()[0]
        if H.mul_mask(1 << rep, km) == km:
            names.append("K")
        else:
            names.append(f"{H.names[rep]}K")
    return names


@per_table
def quotient_hypergroup(H: HyperTable, K: ElementSet, name: str | None = None) -> HyperTable:
    """Coset table H/K for a normal subhypergroup K.

    Carrier is the distinct cosets x*K ordered by least representative;
    the coset equal to K is labeled K, the others rK by representative.
    """
    if not is_subhypergroup(H, K):
        raise errors.NotASubhypergroup("quotient needs a subhypergroup")
    if not is_normal(H, K):
        raise errors.NotNormal("quotient needs a normal subhypergroup")
    part = congruence_mod(H, K)
    q = quotient_by(H, part)
    return HyperTable(_coset_names(H, K, part), q.table.rows, name=name)


def _coset_quotient(H: HyperTable, K: ElementSet) -> QuotientStructure | None:
    """Quotient by coset equality, or None when it is not well defined."""
    part = congruence_mod(H, K)
    if not is_regular(H, part):
        return None
    return quotient_by(H, part)


def _closed_quotient_group(H: HyperTable, K: ElementSet) -> GroupTable | None:
    """The group H/K for closed K, or None when H/K is not a group."""
    if not is_subhypergroup(H, K):
        raise errors.NotASubhypergroup("need a subhypergroup")
    if not is_closed(H, K):
        raise errors.NotClosed("need a closed subhypergroup")
    q = _coset_quotient(H, K)
    return q.group if q is not None else None


def check_group_quotient(H: HyperTable, K: ElementSet) -> bool:
    """Whether H/K is a single-valued group, for closed K."""
    return _closed_quotient_group(H, K) is not None


def check_abelian_quotient(H: HyperTable, K: ElementSet) -> bool:
    """Whether H/K is an abelian group, for closed K."""
    G = _closed_quotient_group(H, K)
    return G is not None and G.is_abelian()


@dataclass(frozen=True)
class IdentityOutcome:
    relation: str
    kernel_match: bool
    quotient_iso: bool
    chain_match: bool

    @property
    def holds(self) -> bool:
        return self.kernel_match and self.quotient_iso and self.chain_match


@dataclass(frozen=True)
class CorrespondenceReport:
    outcomes: tuple[IdentityOutcome, ...]

    @property
    def holds(self) -> bool:
        return all(o.holds for o in self.outcomes)


def _correspondence_for(
    H: HyperTable, K: ElementSet, rel_name: str
) -> IdentityOutcome:
    rel = beta if rel_name == "beta" else gamma
    sigma = congruence_mod(H, K)
    Q = quotient_hypergroup(H, K)
    rho_Q = rel(Q)
    rho_H = rel(H)

    # Kernel of the induced relation vs the projected kernel product.
    s_bold = kernel_S(Q, rho_Q)
    s_rho = kernel_S(H, rho_H)
    lifted = hyperproduct(H, s_rho, K)
    projected = ElementSet.from_indices(Q.n, {sigma.class_of[t] for t in lifted})
    kernel_match = s_bold == projected

    # Quotient of the quotient vs quotient by the lifted kernel, through
    # the canonical map that sends x's class in the first to its class in
    # the second.
    g_left = quotient_by(Q, rho_Q).group
    gq = _coset_quotient(H, lifted)
    quotient_iso = (
        g_left is not None
        and gq is not None
        and gq.group is not None
        and isomorphic(
            g_left,
            gq.group,
            [rho_Q.class_of[q] for q in sigma.class_of],
            gq.relation.class_of,
        )
    )

    # Pullback through the cosets, the join, and the pullback through rho
    # of the congruence modulo the lifted kernel must coincide.
    p1 = pullback(rho_Q, sigma)
    p2 = join(rho_H, sigma)
    q_rho = quotient_by(H, rho_H)
    n_ids = ElementSet.from_indices(
        len(rho_H.classes),
        (
            c
            for c in range(len(rho_H.classes))
            if rho_H.classes[c].mask | lifted.mask == lifted.mask
        ),
    )
    sigma_prime = cosets(q_rho.group, n_ids)
    p3 = pullback(sigma_prime, rho_H)
    chain_match = p1 == p2 == p3

    return IdentityOutcome(rel_name, kernel_match, quotient_iso, chain_match)


def correspondence_probe(H: HyperTable, K: ElementSet) -> CorrespondenceReport:
    """Evaluate the quotient-correspondence identities without preconditions.

    Used to explore tables where the identities are not guaranteed; the
    report states what held, asserting nothing.
    """
    return CorrespondenceReport(
        tuple(_correspondence_for(H, K, rel) for rel in ("beta", "gamma"))
    )


def correspondence_check(H: HyperTable, K: ElementSet) -> CorrespondenceReport:
    """Correspondence identities for a canonical H and canonical sub K."""
    if not is_canonical(H):
        raise errors.NotCanonical("need a canonical hypergroup")
    if not is_subhypergroup(H, K):
        raise errors.NotASubhypergroup("need a subhypergroup")
    e = scalar_identity(H)
    if e is None or e not in K:
        raise errors.NotCanonical("subhypergroup must contain the identity")
    return correspondence_probe(H, K)


@dataclass(frozen=True)
class ProductIdentitiesReport:
    kernel_match: bool
    gamma_quotient_iso: bool
    product_kernel: ElementSet
    expected_kernel: ElementSet

    @property
    def holds(self) -> bool:
        return self.kernel_match and self.gamma_quotient_iso


def product_identities_check(
    H1: HyperTable, H2: HyperTable, budget: int = 64
) -> ProductIdentitiesReport:
    """Kernel and commutative-quotient identities of a direct product.

    The quotient identity checks the canonical map sending the gamma
    class of a pair to the pair of gamma classes of its coordinates.
    """
    if H1.n * H2.n > budget:
        raise errors.BudgetExceeded(
            f"product carrier {H1.n * H2.n} exceeds budget {budget}"
        )
    P = direct_product(H1, H2)
    sp = kernel_S(P, beta(P))
    s1 = kernel_S(H1, beta(H1))
    s2 = kernel_S(H2, beta(H2))
    expected = ElementSet.from_indices(
        P.n, (i1 * H2.n + i2 for i1 in s1 for i2 in s2)
    )
    rho_p, rho_1, rho_2 = gamma(P), gamma(H1), gamma(H2)
    g_p = quotient_by(P, rho_p).group
    g_1 = quotient_by(H1, rho_1).group
    g_2 = quotient_by(H2, rho_2).group
    iso = (
        g_p is not None
        and g_1 is not None
        and g_2 is not None
        and isomorphic(
            g_p,
            direct_product_group(g_1, g_2),
            rho_p.class_of,
            [c1 * g_2.n + c2 for c1 in rho_1.class_of for c2 in rho_2.class_of],
        )
    )
    return ProductIdentitiesReport(sp == expected, iso, sp, expected)


@dataclass(frozen=True)
class GroupQuotientProbe:
    """One subhypergroup's facts for the open closedness question."""

    members: ElementSet
    closed: bool
    normal: bool
    contains_heart: bool
    quotient_is_group: bool


def group_quotient_probe(H: HyperTable, budget: int = DEFAULT_CLOSED_SET_BUDGET) -> list[GroupQuotientProbe]:
    """Survey every subhypergroup for the closedness question.

    Records, without asserting, whether normal subhypergroups containing
    the heart but possibly not closed still give group quotients.
    """
    s_beta = kernel_S(H, beta(H)).mask
    out = []
    for K in subhypergroups(H, budget).sets():
        q = _coset_quotient(H, K)
        out.append(
            GroupQuotientProbe(
                members=K,
                closed=is_closed(H, K),
                normal=is_normal(H, K),
                contains_heart=K.mask | s_beta == K.mask,
                quotient_is_group=q is not None and q.is_group,
            )
        )
    return out
