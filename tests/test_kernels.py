"""The kernels against their definitions and their direct oracles, and on
carriers wider than 64 and 128 bits."""

import random
import tracemalloc

import generators
import oracles
from hyperkernel import corpus, kernels
from hyperkernel.core import (
    HyperTable,
    Partition,
    bits,
    direct_product,
    is_semihypergroup,
    total_hypergroup,
)
from hyperkernel.relations import gamma, is_strongly_regular

# The size ladder: h9 alone, then h9 times each of these fixtures.
LADDER = (None, "z2", "z3", "v4", "s3", "h9")


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
            regular = kernels.regular(kernels.met_sets(H.rows, R.class_of), R.class_of)
            assert regular == oracles.is_regular(H, R), (H, R)
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
        assert roots == [min(R.classes[R.class_of[i]]) for i in range(n)]
        assert all(R.class_of[a] == R.class_of[b] for a, b in pairs)


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


def _permuted(H, rng):
    """H with its element order shuffled."""
    order = list(range(H.n))
    rng.shuffle(order)
    new_index = [0] * H.n
    for new, old in enumerate(order):
        new_index[old] = new

    def remap(mask):
        return sum(1 << new_index[i] for i in bits(mask))

    rows = [[remap(H.rows[a][b]) for b in order] for a in order]
    return HyperTable([H.names[i] for i in order], rows)


def _widened(H, a, b, extra):
    """A copy of H whose cell a*b also holds the members of `extra`."""
    rows = [list(row) for row in H.rows]
    rows[a][b] |= extra
    return HyperTable(H.names, rows)


def test_kernels_match_their_oracles_on_random_tables():
    rng = random.Random(8)
    witnessed_rows = set()
    for i in range(3000):
        n = rng.randrange(1, 6)
        full = (1 << n) - 1
        rows = tuple(tuple(rng.randrange(1, full + 1) for _ in range(n)) for _ in range(n))
        packed = kernels.assoc_witness(rows, n)
        assert packed == oracles.assoc_witness(rows, n), rows
        if packed >= 0:
            witnessed_rows.add(packed // (n * n))
        if i % 10 == 0:
            # nmax 4 and 5 run the recurrence's deeper layers against the oracle
            for nmax in (1, 2, 3, 4, 5) if n <= 3 else (1, 2, 3, 4):
                assert kernels.oracle_merge(rows, n, nmax) == oracles.oracle_merge(rows, n, nmax), rows
    # witnesses in several rows, so the scan goes past a failing first row
    assert {0, 1, 2} <= witnessed_rows


def test_oracle_merge_links_the_pieces_of_a_block():
    # every piece block(M - t)*t here is one element, so at nmax 3 only
    # the links between the pieces of a block merge anything
    rows = ((4, 2, 2), (2, 4, 2), (2, 2, 1))
    assert kernels.oracle_merge(rows, 3, 2) == oracles.oracle_merge(rows, 3, 2) == [0, 1, 2]
    assert kernels.oracle_merge(rows, 3, 3) == oracles.oracle_merge(rows, 3, 3) == [0, 0, 0]


def test_block_layers_match_the_direct_blocks():
    # the roots cannot show a wrong block of length >= 4 (the length-3
    # overlaps already merge it), so the blocks themselves are compared;
    # cells are single-valued, widened with some probability
    rng = random.Random(9)
    for _ in range(400):
        n = rng.randrange(1, 6)
        p = rng.choice([0.0, 0.2, 0.5])
        rows = tuple(
            tuple((1 << rng.randrange(n)) | (rng.randrange(1 << n) if rng.random() < p else 0)
                  for _ in range(n))
            for _ in range(n)
        )
        layers = kernels._block_layers(n, kernels._Products(rows))
        for k, (_, blocks) in zip(range(1, 6 if n <= 3 else 5), layers):
            assert len(blocks) == len(set(blocks))
            assert set(blocks) == oracles.blocks(rows, n, k), (rows, k)


def test_oracle_merge_matches_its_oracle_on_hypergroups_and_their_products():
    fixtures = corpus.fixtures()
    found = generators.random_hypergroups(11, 20, 4000)
    tables = found + [direct_product(H, fixtures[s]) for H in found for s in ("z2", "s3")]
    assert max(H.n for H in tables) == 24
    for H in tables:
        for nmax in (1, 2, 3, 4) if H.n <= 12 else (2, 3):
            assert kernels.oracle_merge(H.rows, H.n, nmax) == oracles.oracle_merge(H.rows, H.n, nmax)


def test_kernels_match_their_oracles_on_permuted_ladder_rungs():
    h9 = corpus.h9()
    fixtures = corpus.fixtures()
    for second in LADDER:
        H = h9 if second is None else direct_product(h9, fixtures[second])
        for seed in (1, 2):
            P = _permuted(H, random.Random(seed))
            assert kernels.assoc_witness(P.rows, P.n) == -1
            if P.n <= 54:
                assert oracles.assoc_witness(P.rows, P.n) == -1
                nmax = 3
            else:
                # the oracles take over a second here; gamma is the
                # partition the nmax-3 oracle reaches
                assert Partition(P.n, kernels.oracle_merge(P.rows, P.n, 3)) == gamma(P)
                nmax = 2
            assert kernels.oracle_merge(P.rows, P.n, nmax) == oracles.oracle_merge(P.rows, P.n, nmax)


def test_assoc_witness_past_the_first_row():
    # e.0, the scalar identity, is element 0, so no triple (0, b, c) fails
    # while its row and column stay as they are
    H = direct_product(corpus.h9(), corpus.fixtures()["z3"])
    T = _widened(H, 5, 7, 1 << 20)
    packed = kernels.assoc_witness(T.rows, T.n)
    assert packed == oracles.assoc_witness(T.rows, T.n)
    assert packed // (T.n * T.n) > 0


def _first_failing_middle(rows, n):
    """The least b of any triple (a, b, c) breaking associativity, or None."""

    def times(s, t):
        out = 0
        for x in bits(s):
            for y in bits(t):
                out |= rows[x][y]
        return out

    for b in range(n):
        for a in range(n):
            for c in range(n):
                if times(rows[a][b], 1 << c) != times(1 << a, rows[b][c]):
                    return b
    return None


def test_assoc_witness_past_the_first_failing_middle():
    # a scan that stopped at the first middle element b with a failing
    # triple would miss these least triples, whose b comes later; the
    # symmetric widenings keep the commutative rungs commutative
    h9 = corpus.h9()
    fixtures = corpus.fixtures()
    for second in ("z2", "z3", "v4", "s3"):
        H = direct_product(h9, fixtures[second])
        rng = random.Random(H.n)
        for symmetric in (False, True):
            P = _permuted(H, rng)
            for _ in range(20):
                a, b, x = rng.randrange(P.n), rng.randrange(P.n), rng.randrange(P.n)
                T = _widened(P, a, b, 1 << x)
                if symmetric:
                    T = _widened(T, b, a, 1 << x)
                packed = kernels.assoc_witness(T.rows, T.n)
                assert packed == oracles.assoc_witness(T.rows, T.n), (second, a, b, x)
                if packed >= 0 and packed // T.n % T.n != _first_failing_middle(T.rows, T.n):
                    break
            else:
                assert False, (second, symmetric)


def test_assoc_witness_compares_rows_up_to_the_middle_on_commutative_tables():
    # on a commutative table the scan compares only the rows a <= b; z3
    # with the cell 1*1 widened fails on (1, 1, 2), (1, 2, 2) and their
    # mirrors, so its least triple lies on that edge, a = b
    z3 = corpus.cyclic_group(3)
    T = _widened(z3, 1, 1, 0b001)
    assert kernels.assoc_witness(T.rows, 3) == oracles.assoc_witness(T.rows, 3) == (1 * 3 + 1) * 3 + 2
    # commutative groups in a shuffled order with one symmetric pair of
    # cells widened: least triples with a = b > 0, and least triples
    # whose b comes after the first failing middle element
    rng = random.Random(19)
    groups = [corpus.cyclic_group(n) for n in (3, 4, 5, 6)] + [corpus.klein_four()]
    on_edge = later = 0
    for _ in range(600):
        P = _permuted(rng.choice(groups), rng)
        a, b, extra = rng.randrange(P.n), rng.randrange(P.n), rng.randrange(1, 1 << P.n)
        T = _widened(_widened(P, a, b, extra), b, a, extra)
        packed = kernels.assoc_witness(T.rows, T.n)
        assert packed == oracles.assoc_witness(T.rows, T.n), T.rows
        if packed >= 0:
            a, b = divmod(packed // T.n, T.n)
            assert a <= b
            on_edge += 0 < a == b
            later += b != _first_failing_middle(T.rows, T.n)
    assert on_edge >= 20 and later >= 20, (on_edge, later)


def test_assoc_witness_memory_on_h9xh9xz2():
    # the scan keeps one interned tuple per line, not the lists built
    H = direct_product(direct_product(corpus.h9(), corpus.h9()), corpus.fixtures()["z2"])
    tracemalloc.start()
    try:
        assert kernels.assoc_witness(H.rows, H.n) == -1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


def test_assoc_witness_above_128_bits():
    H = direct_product(direct_product(corpus.h9(), corpus.h9()), corpus.fixtures()["z2"])
    assert H.n == 162
    assert is_semihypergroup(H) == (True, None)
    T = _widened(H, 1, 2, 1 << 161)
    packed = kernels.assoc_witness(T.rows, T.n)
    assert packed >= 0
    assert packed == oracles.assoc_witness(T.rows, T.n)
