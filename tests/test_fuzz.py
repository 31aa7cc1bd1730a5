"""Seeded random-table sweep: every route is cross-checked against its
independent counterpart on hypergroups outside the curated corpus."""

import random

import oracles
from hyperkernel import corpus
from hyperkernel.core import (
    HyperTable,
    bits,
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
    """Distinct hypergroups with n <= 4: group tables with cells widened.

    Each candidate is z2, z3, z4 or v4 in a shuffled element order, with
    some cells a*b widened to the coset abK of a random subgroup K.
    Uniformly random cells, or a group's cells widened by random subsets,
    almost never associate once n >= 3.
    """
    rng = random.Random(seed)
    groups = [corpus.fixtures()[name] for name in ("z2", "z3", "z4", "v4")]
    found = {}
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        G = rng.choice(groups)
        n = G.n
        order = list(range(n))
        rng.shuffle(order)
        mul = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mul[order[a]][order[b]] = order[G.rows[a][b].bit_length() - 1]
        subgroups = [
            m for m in range(1, 1 << n) if all(1 << mul[a][b] & m for a in bits(m) for b in bits(m))
        ]
        K = rng.choice(subgroups)
        p = rng.choice([0.3, 0.6, 1.0])
        rows = [
            [
                sum(1 << mul[ab][k] for k in bits(K)) if rng.random() < p else 1 << ab
                for ab in line
            ]
            for line in mul
        ]
        H = HyperTable([str(i) for i in range(n)], rows)
        if H.rows not in found and is_hypergroup(H):
            found[H.rows] = H
    return list(found.values())


def test_random_hypergroup_cross_checks():
    tables = _random_hypergroups(seed=424242, count=60, max_tries=20000)
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
