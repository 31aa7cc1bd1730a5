"""Seeded random-table sweep: every route is cross-checked against its
independent counterpart on hypergroups outside the curated corpus."""

import random

import oracles
from hyperkernel.core import (
    HyperTable,
    is_canonical,
    is_hypergroup,
    scalar_identity,
)
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


def _random_hypergroups(seed, count, max_tries):
    rng = random.Random(seed)
    found = []
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        n = rng.choice([2, 2, 3, 3, 3, 4])
        full = (1 << n) - 1
        rows = [[rng.randrange(1, full + 1) for _ in range(n)] for _ in range(n)]
        H = HyperTable([str(i) for i in range(n)], rows)
        if is_hypergroup(H):
            found.append(H)
    return found


def test_random_hypergroup_cross_checks():
    tables = _random_hypergroups(seed=424242, count=60, max_tries=20000)
    assert len(tables) == 60
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
