"""Seeded random-table sweep: every route is cross-checked against its
independent counterpart on hypergroups outside the curated corpus."""

import oracles
from generators import random_hypergroups
from hyperkernel.core import is_canonical, scalar_identity
from hyperkernel.quotients import (
    check_abelian_quotient,
    check_group_quotient,
    correspondence_check,
    derived,
    heart,
    subhypergroups,
)
from hyperkernel.relations import (
    beta,
    enumerate_strongly_regular,
    gamma,
    gamma_oracle,
    is_strongly_regular,
    kernel_S,
)


def test_random_hypergroup_cross_checks():
    tables = random_hypergroups(seed=424242, count=60, max_tries=20000)
    assert len(tables) == 60
    sizes = [H.n for H in tables]
    assert sizes.count(3) >= 10 and sizes.count(4) >= 10
    multivalued = [H for H in tables if any(c & (c - 1) for row in H.rows for c in row)]
    assert sum(H.n >= 3 for H in multivalued) >= 10
    canonical_seen = 0
    for H in tables:
        b = beta(H)
        assert is_strongly_regular(H, b)
        g = gamma(H)
        assert gamma_oracle(H, nmax=4) == g
        assert heart(H) == kernel_S(H, b) == oracles.heart(H)
        assert derived(H) == kernel_S(H, g) == oracles.derived(H)
        srs = enumerate_strongly_regular(H)
        assert srs == oracles.strongly_regular(H)
        for R in srs:
            assert b.refines(R)
        lattice = subhypergroups(H)
        assert lattice.all == oracles.subhypergroup_entries(H)
        s_beta = kernel_S(H, b)
        s_gamma = kernel_S(H, g)
        normal_closed = [
            e for e in lattice.all if e.normal and e.closed and e.contains_S_beta
        ]
        assert len(srs) == len(normal_closed)
        for entry in lattice.all:
            if not entry.closed:
                continue
            assert check_group_quotient(H, entry.members) == (
                entry.normal and s_beta <= entry.members
            )
            assert check_abelian_quotient(H, entry.members) == (
                s_gamma <= entry.members
            )
        if is_canonical(H):
            canonical_seen += 1
            e0 = scalar_identity(H)
            for entry in lattice.all:
                if e0 in entry.members:
                    assert correspondence_check(H, entry.members).holds
    assert canonical_seen >= 5
