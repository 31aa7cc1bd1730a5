"""The kernels against their definitions, and on carriers wider than 64."""

import random

import oracles
from hyperkernel import corpus, kernels
from hyperkernel.core import HyperTable, Partition, total_hypergroup
from hyperkernel.relations import is_regular, is_strongly_regular


def _random_tables(seed, count):
    """Hypergroupoids with n <= 4, hypergroups or not."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.choice([2, 3, 3, 4])
        full = (1 << n) - 1
        rows = [[rng.randrange(1, full + 1) for _ in range(n)] for _ in range(n)]
        out.append(HyperTable([str(i) for i in range(n)], rows))
    return out


def test_regularity_matches_definitions_on_every_partition(full_corpus):
    tables = [H for H in full_corpus.values() if H.n <= 6] + _random_tables(7, 40)
    for H in tables:
        for class_of in oracles.all_class_assignments(H.n):
            R = Partition(H.n, class_of)
            assert is_regular(H, R) == oracles.is_regular(H, R), (H, R)
            assert is_strongly_regular(H, R) == oracles.is_strongly_regular(H, R), (H, R)


def test_union_find_roots_are_least_members():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(1, 30)
        uf = kernels.UnionFind(n)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(n + 1))]
        for a, b in pairs:
            uf.union(a, b)
        roots = uf.roots()
        R = Partition(n, roots)
        assert roots == [min(R.class_set(i)) for i in range(n)]
        assert all(R.relates(a, b) for a, b in pairs)


def test_oracle_merge_roots_on_h9():
    H = corpus.h9()
    # labels e a b c x y z u v; the classes are {e,a,b,c}, {x,y}, {z,u}, {v}
    assert kernels.oracle_merge(H.rows, H.n, 3) == [0, 0, 0, 0, 4, 4, 6, 6, 8]


def test_wide_carrier():
    T = total_hypergroup(70)
    assert kernels.census(T.rows, T.n, 10) == [T.full_mask]
    assert kernels.oracle_merge(T.rows, T.n, 2) == [0] * 70
    assert kernels.sr_check(T.rows, T.n, [0] * 70)
    assert not kernels.sr_check(T.rows, T.n, list(range(70)))
