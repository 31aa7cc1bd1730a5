"""Subhypergroup classification, hearts, derived subhypergroups, quotients.

Complete parts are the unions of beta classes (Corsini 1993).  The heart
and the derived subhypergroup are the identity classes of the
fundamental relations beta and gamma; tests/oracles.py keeps their
definitions as intersections of complete-part subhypergroups.
"""

from __future__ import annotations

from typing import NamedTuple

from hyperkernel import errors
from hyperkernel.core import (
    DEFAULT_CLOSED_SET_BUDGET,
    ElementSet,
    HyperTable,
    _require_hypergroup,
    build_cosets,
    closed_sets,
    direct_product,
    hyperproduct,
    is_canonical,
    is_closed,
    is_commutative,
    is_normal,
    is_subhypergroup,
    per_table,
    product_closure,
    scalar_identity,
)
from hyperkernel.groups import isomorphic
from hyperkernel.relations import (
    QuotientStructure,
    beta,
    congruence_mod,
    gamma,
    join,
    kernel_S,
    pullback,
    quotient_by,
)


def is_complete_part(H: HyperTable, C: ElementSet) -> bool:
    """Whether C swallows every product set it meets.

    On a semihypergroup these are exactly the unions of beta classes
    (Corsini 1993), which is what is tested.
    """
    cm = C.mask
    return all(k.mask & cm in (0, k.mask) for k in beta(H).classes)


class SubEntry(NamedTuple):
    """A subhypergroup K with its flags.  conjugable is closed: K is
    conjugable when each x with k*x or x*k meeting K (k in K) lies in K
    and has an x' with x'*x inside K.  On a product-closed K the first
    half is closedness, and the second holds with x' = x."""

    members: ElementSet
    closed: bool
    normal: bool
    complete_part: bool
    conjugable: bool
    contains_S_beta: bool
    contains_S_gamma: bool


class SubLattice(NamedTuple):
    all: tuple[SubEntry, ...]

    def sets(self) -> tuple[ElementSet, ...]:
        return tuple(entry.members for entry in self.all)


def subhypergroups(H: HyperTable, budget: int = DEFAULT_CLOSED_SET_BUDGET) -> SubLattice:
    """Every subhypergroup with all classification flags, ascending by mask.

    Product-closed subsets are closed under intersection; their closure
    system is enumerated and filtered by the reproduction law.  budget
    bounds the product-closed sets visited.  Each closed set's Cosets is
    built here and dropped, not memoised: the table's memo would keep
    both lists of every closed set.
    """
    _require_hypergroup(H, "subhypergroup lattice")
    s_beta, s_gamma = heart(H).mask, derived(H).mask
    entries = []
    for mask in closed_sets(H.n, product_closure(H), budget, "subhypergroup lattice"):
        c = build_cosets(H, mask)
        if not c.is_subhypergroup:
            continue
        K = ElementSet(H.n, mask)
        closed = c.is_closed
        entries.append(
            SubEntry(
                members=K,
                closed=closed,
                normal=c.is_normal,
                complete_part=is_complete_part(H, K),
                conjugable=closed,
                contains_S_beta=mask | s_beta == mask,
                contains_S_gamma=mask | s_gamma == mask,
            )
        )
    return SubLattice(tuple(entries))


def heart(H: HyperTable) -> ElementSet:
    """The beta class that is the identity of the fundamental group.

    On a hypergroup this is the intersection of all complete-part
    subhypergroups (Corsini 1993).  On a bare semihypergroup the two can
    differ, and this returns the beta class.
    """
    return kernel_S(H, beta(H))


def derived(H: HyperTable) -> ElementSet:
    """The gamma class that is the identity of the commutative quotient:
    the smallest complete-part subhypergroup containing all division sets."""
    _require_hypergroup(H, "derived subhypergroup")
    return kernel_S(H, gamma(H))


@per_table(labelled=True)
def quotient_hypergroup(H: HyperTable, K: ElementSet) -> HyperTable:
    """Coset table H/K for a normal subhypergroup K.

    Carrier is the distinct cosets x*K ordered by least representative;
    the coset equal to K is labeled K, the others rK by representative r.
    k*K = K for every k in K, so the coset equal to K is the one class
    of the coset partition that meets K.
    """
    if not is_subhypergroup(H, K):
        raise errors.NotASubhypergroup("quotient needs a subhypergroup")
    if not is_normal(H, K):
        raise errors.NotNormal("quotient needs a normal subhypergroup")
    part = congruence_mod(H, K)
    names = [
        "K" if block & K else f"{H.names[block.indices()[0]]}K"
        for block in part.classes
    ]
    return HyperTable(names, quotient_by(H, part).table.rows)


def _coset_quotient(H: HyperTable, K: ElementSet) -> QuotientStructure | None:
    """Quotient by coset equality, or None when it is not well defined."""
    try:
        return quotient_by(H, congruence_mod(H, K))
    except errors.NotRegular:
        return None


def _closed_quotient_group(H: HyperTable, K: ElementSet) -> HyperTable | None:
    """The group H/K for closed K, or None when H/K is not a group."""
    if not is_subhypergroup(H, K):
        raise errors.NotASubhypergroup("need a subhypergroup")
    if not is_closed(H, K):
        raise errors.NotClosed("need a closed subhypergroup")
    q = _coset_quotient(H, K)
    return q.table if q is not None and q.is_group else None


def check_group_quotient(H: HyperTable, K: ElementSet) -> bool:
    """Whether H/K is a single-valued group, for closed K."""
    return _closed_quotient_group(H, K) is not None


def check_abelian_quotient(H: HyperTable, K: ElementSet) -> bool:
    """Whether H/K is an abelian group, for closed K."""
    G = _closed_quotient_group(H, K)
    return G is not None and is_commutative(G)


class IdentityOutcome(NamedTuple):
    relation: str
    kernel_match: bool
    quotient_iso: bool
    chain_match: bool

    @property
    def holds(self) -> bool:
        return self.kernel_match and self.quotient_iso and self.chain_match


class CorrespondenceReport(NamedTuple):
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
    q_left = quotient_by(Q, rho_Q)
    gq = _coset_quotient(H, lifted)
    quotient_iso = (
        q_left.is_group
        and gq is not None
        and gq.is_group
        and isomorphic(
            q_left.table,
            gq.table,
            [rho_Q.class_of[q] for q in sigma.class_of],
            gq.relation.class_of,
        )
    )

    # Pullback through the cosets, the join, and the pullback through rho
    # of the congruence modulo the lifted kernel must coincide.
    p1 = pullback(rho_Q, sigma)
    p2 = join(rho_H, sigma)
    n_ids = ElementSet.from_indices(
        len(rho_H.classes),
        (c for c, block in enumerate(rho_H.classes) if block <= lifted),
    )
    sigma_prime = congruence_mod(quotient_by(H, rho_H).table, n_ids)
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


class ProductIdentitiesReport(NamedTuple):
    product: HyperTable
    kernel_match: bool
    gamma_quotient_iso: bool
    product_kernel: ElementSet
    expected_kernel: ElementSet

    @property
    def holds(self) -> bool:
        return self.kernel_match and self.gamma_quotient_iso


def product_identities_check(H1: HyperTable, H2: HyperTable) -> ProductIdentitiesReport:
    """Kernel and commutative-quotient identities of a direct product.

    The quotient identity checks the canonical map sending the gamma
    class of a pair to the pair of gamma classes of its coordinates.
    """
    P = direct_product(H1, H2)
    sp, s1, s2 = heart(P), heart(H1), heart(H2)
    expected = ElementSet.from_indices(
        P.n, (i1 * H2.n + i2 for i1 in s1 for i2 in s2)
    )
    rho_p, rho_1, rho_2 = gamma(P), gamma(H1), gamma(H2)
    q_p, q_1, q_2 = quotient_by(P, rho_p), quotient_by(H1, rho_1), quotient_by(H2, rho_2)
    k2 = len(rho_2.classes)
    iso = (
        q_p.is_group
        and q_1.is_group
        and q_2.is_group
        and isomorphic(
            q_p.table,
            direct_product(q_1.table, q_2.table),
            rho_p.class_of,
            [c1 * k2 + c2 for c1 in rho_1.class_of for c2 in rho_2.class_of],
        )
    )
    return ProductIdentitiesReport(P, sp == expected, iso, sp, expected)
