"""The closure-system routes against their brute-force oracles."""

import random

import pytest

import oracles
from hyperkernel import corpus
from hyperkernel.core import HyperTable, closed_sets, direct_product, product_closure
from hyperkernel.quotients import derived, heart, subhypergroups
from hyperkernel.relations import enumerate_strongly_regular


def _oracle_tables():
    """The corpus, the pair hypergroups (every subset closed) and h9 x z2."""
    out = dict(corpus.corpus())
    for n in range(1, 11):
        out[f"pair{n}"] = corpus.pair_hypergroup(n, name=f"pair{n}")
    out["h9xz2"] = direct_product(corpus.h9(), corpus.cyclic_group(2))
    return out


TABLES = _oracle_tables()


class TestClosedSets:
    def test_matches_brute_force_family(self):
        # Closure system of the down-sets of the divisibility order on 1..6.
        n = 6
        below = [
            sum(1 << (d - 1) for d in range(1, i + 2) if (i + 1) % d == 0)
            for i in range(n)
        ]

        def close(seed, forbidden):
            out = seed
            for i in range(n):
                if seed >> i & 1:
                    out |= below[i]
            return None if out & forbidden else out

        family = [
            m for m in range(1 << n)
            if all(m & below[i] == below[i] for i in range(n) if m >> i & 1)
        ]
        assert closed_sets(n, close) == family

    def test_product_closure_on_random_tables(self):
        # Any table, hypergroup or not: the closed sets are exactly the
        # subsets K with K*K inside K.
        rng = random.Random(5)
        for _ in range(300):
            n = rng.choice([3, 4, 5])
            rows = [[rng.randrange(1, 1 << n) for _ in range(n)] for _ in range(n)]
            H = HyperTable([str(i) for i in range(n)], rows)
            family = [m for m in range(1 << n) if H.mul_mask(m, m) | m == m]
            assert closed_sets(n, product_closure(H)) == family, rows


@pytest.mark.parametrize("name", sorted(TABLES))
def test_lattice_matches_powerset_scan(name):
    H = TABLES[name]
    assert subhypergroups(H).all == oracles.subhypergroup_entries(H)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_heart_and_derived_match_powerset_scan(name):
    H = TABLES[name]
    assert heart(H) == oracles.heart(H)
    assert derived(H) == oracles.derived(H)


@pytest.mark.parametrize("name", sorted(n for n, H in TABLES.items() if H.n <= 9))
def test_sr_relations_match_bell_scan(name):
    H = TABLES[name]
    assert enumerate_strongly_regular(H) == oracles.strongly_regular(H)
