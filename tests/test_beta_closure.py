"""beta by congruence closure against the census definitions of
tests/oracles.py: the closure is the smallest strongly regular relation
on any table, it equals the census route on associative tables, and the
complete parts are exactly the unions of its classes on hypergroups."""

import random

import oracles
from hyperkernel import corpus
from hyperkernel.core import (
    ElementSet,
    HyperTable,
    Partition,
    direct_product,
    is_hypergroup,
    is_semihypergroup,
)
from hyperkernel.quotients import is_complete_part
from hyperkernel.relations import beta

# a*a = {c}, b*b = {a,b}, c*a = {b}, ...: not associative, and the relation
# "lie in a common product" ({a,b}|{c}) is not strongly regular on it.
NON_ASSOCIATIVE = HyperTable.from_sets(
    ["a", "b", "c"],
    [[[2], [0], [2]], [[2], [0, 1], [2]], [[1], [0], [1]]],
)


def _random_tables(seed, count, sizes, singletons=0.0):
    """Seeded random hypergroupoids, associative or not.  A cell is a
    random singleton with probability `singletons`, else a uniformly
    drawn nonempty subset."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice(sizes)
        full = (1 << n) - 1
        rows = [
            [
                1 << rng.randrange(n) if rng.random() < singletons else rng.randrange(1, full + 1)
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        out.append(HyperTable([str(i) for i in range(n)], rows))
    return out


def _structured_tables(full_corpus):
    tables = dict(full_corpus)
    for k in range(1, 11):
        tables[f"pair{k}"] = corpus.pair_hypergroup(k)
    h9 = full_corpus["h9"]
    for other in ("z2", "s3", "h9"):
        tables[f"h9x{other}"] = direct_product(h9, full_corpus[other])
    return tables


def _nonempty_subsets(H):
    return (ElementSet(H.n, mask) for mask in range(1, 1 << H.n))


class TestSmallestStronglyRegular:
    def test_non_associative_example(self):
        T = NON_ASSOCIATIVE
        assert not is_semihypergroup(T)[0]
        census = oracles.beta(T)
        assert census == Partition.from_classes(3, [[0, 1], [2]])
        assert not oracles.is_strongly_regular(T, census)
        assert oracles.is_strongly_regular(T, beta(T))
        assert beta(T) == Partition.single_class(3)

    def test_random_tables_up_to_three_elements(self):
        # mostly singleton cells, so that beta often has several classes
        tables = _random_tables(seed=5150, count=400, sizes=[1, 2, 3, 3], singletons=0.8)
        associative = 0
        for T in tables:
            b = beta(T)
            found = oracles.strongly_regular(T)
            assert oracles.is_strongly_regular(T, b), T.rows
            assert b in found and all(b.refines(R) for R in found), T.rows
            associative += is_semihypergroup(T)[0]
        assert 0 < associative < len(tables)
        assert sum(len(beta(T)) > 1 for T in tables) >= 100


class TestAgainstCensus:
    def test_structured_tables(self, full_corpus):
        for name, H in _structured_tables(full_corpus).items():
            assert beta(H) == oracles.beta(H), name

    def test_random_semihypergroups(self):
        tables = _random_tables(seed=2718, count=4000, sizes=[1, 2, 3, 4])
        semi = [T for T in tables if is_semihypergroup(T)[0]]
        assert len(semi) >= 1000
        # Uniform cells are almost never associative above n = 2, so the
        # direct products of pairs of the n = 2 ones stand in for n = 4.
        pairs = [T for T in semi if T.n == 2]
        products = [direct_product(a, b) for a, b in zip(pairs[::2], pairs[1::2])]
        assert len(products) >= 150
        for T in semi + products:
            assert is_semihypergroup(T)[0]
            assert beta(T) == oracles.beta(T), T.rows


class TestCompleteParts:
    def test_every_subset_of_the_corpus(self, full_corpus):
        for name, H in full_corpus.items():
            for C in _nonempty_subsets(H):
                assert is_complete_part(H, C) == oracles.is_complete_part(H, C), (
                    name,
                    C.labels(H.names),
                )

    def test_every_subset_of_random_hypergroups(self):
        tables = _random_tables(seed=1618, count=6000, sizes=[2, 3, 4])
        hypergroups = [T for T in tables if is_hypergroup(T)]
        assert len(hypergroups) >= 250
        for T in hypergroups:
            for C in _nonempty_subsets(T):
                assert is_complete_part(T, C) == oracles.is_complete_part(T, C), (
                    T.rows,
                    C.indices(),
                )
