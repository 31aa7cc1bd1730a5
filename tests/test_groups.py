import itertools

import pytest

import generators
import oracles
from generators import double_coset_tables
from oracles import find_isomorphism
from hyperkernel import corpus, errors
from hyperkernel.core import (
    ElementSet,
    direct_product,
    is_commutative,
    product_closure,
    scalar_identity,
)
from hyperkernel.freeprod import DirectSumElement, DirectSumFamily, direct_sum_add
from hyperkernel.groups import (
    commutator_subgroup,
    inverses,
    isomorphic,
    products,
    validate_group,
)
from hyperkernel.relations import beta, congruence_mod, gamma, quotient_by

V4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]
S3_ROWS = corpus._s3_rows()[1]


def s3():
    return corpus.symmetric_group_3()


def closure(G, members):
    return ElementSet(G.n, product_closure(G)(G.set_of(members).mask, 0))


def mod(G, members):
    """The quotient table of G by the subgroup with these members."""
    return quotient_by(G, congruence_mod(G, G.set_of(members))).table


def abelianization(G):
    return quotient_by(G, gamma(G)).table


class TestValidation:
    def test_v4_valid(self):
        G = validate_group(V4, names=["e", "a", "b", "c"])
        assert scalar_identity(G) == 0
        assert inverses(G) == (0, 1, 2, 3)
        assert products(G) == tuple(map(tuple, V4))

    def test_corrupted_cell_not_associative(self):
        rows = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        rows[1][2] = 1
        with pytest.raises(errors.InvalidGroupTable):
            validate_group(rows)

    def test_no_identity(self):
        with pytest.raises(errors.NoIdentity):
            validate_group([[1, 1], [1, 1]])

    def test_subtraction_not_associative(self):
        # a*b = a - b mod 3: (0-1)-1 = 1 but 0-(1-1) = 0
        rows = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(errors.NotAssociative, match=r"witness \(0, 0, 1\)"):
            validate_group(rows)

    def test_errors_match_the_direct_loops(self):
        # random tables, relabelled groups with one cell changed, and
        # relabelled semigroups: left zero, null, max, a group with a zero
        import random

        from oracles import group_table_error

        rng = random.Random(6)
        groups = [Z4, V4, S3_ROWS, [[(i + j) % 6 for j in range(6)] for i in range(6)]]
        seen = set()
        for i in range(600):
            kind = i % 3
            n = rng.randint(1, 6)
            if kind == 0:
                rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            else:
                G = rng.choice(groups)
                semigroups = [
                    [[a] * n for a in range(n)],
                    [[0] * n for _ in range(n)],
                    [[max(a, b) for b in range(n)] for a in range(n)],
                    [[0] * (len(G) + 1)] + [[0] + [c + 1 for c in r] for r in G],
                ]
                table = G if kind == 1 else rng.choice(semigroups)
                n = len(table)
                perm = rng.sample(range(n), n)
                rows = [[0] * n for _ in range(n)]
                for a, b in itertools.product(range(n), repeat=2):
                    rows[perm[a]][perm[b]] = perm[table[a][b]]
                if kind == 1:
                    rows[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            expected = group_table_error(rows)
            if expected is None:
                G = validate_group(rows)
                e = scalar_identity(G)
                assert inverses(G) == tuple(
                    next(b for b in range(n) if rows[a][b] == e == rows[b][a])
                    for a in range(n)
                )
                seen.add("group")
                continue
            with pytest.raises(expected[0]) as info:
                validate_group(rows)
            assert type(info.value) is expected[0] and str(info.value) == expected[1]
            seen.add((expected[0], expected[1][:10]))
        assert {
            "group",
            (errors.NotAssociative, "witness (0"),
            (errors.NotAssociative, "witness (1"),
            (errors.NoIdentity, "no two-sid"),
            (errors.NoInverse, "witness 0"),
            (errors.NoInverse, "witness 3"),
        } <= seen

    def test_monoid_without_inverse(self):
        # {0, 1} under max: associative, identity 0, and 1 has no inverse
        with pytest.raises(errors.NoInverse, match="witness 1"):
            validate_group([[0, 1], [1, 1]])


class TestSubgroups:
    """In a finite group the product closure is the generated subgroup."""

    def test_identity_alone(self):
        G = s3()
        assert closure(G, [0]) == ElementSet.from_indices(6, [0])

    def test_transposition_generates_order_two(self):
        G = s3()
        assert len(closure(G, [G.index("s")])) == 2

    def test_two_generators_give_whole_group(self):
        G = s3()
        assert closure(G, [G.index("r"), G.index("s")]) == ElementSet(6, 0b111111)


class TestCommutators:
    def test_abelian_trivial(self):
        G = validate_group(V4)
        assert commutator_subgroup(G) == ElementSet.from_indices(4, [0])

    def test_s3_commutator_is_a3(self):
        G = s3()
        expected = ElementSet.from_indices(6, [G.index(x) for x in ("e", "r", "rr")])
        assert commutator_subgroup(G) == expected

    def test_product_commutator_splits(self):
        G1, G2 = s3(), s3()
        P = direct_product(G1, G2)
        c1 = commutator_subgroup(G1)
        c2 = commutator_subgroup(G2)
        expected = ElementSet.from_indices(
            P.n, (a * G2.n + b for a in c1 for b in c2)
        )
        assert commutator_subgroup(P) == expected


class TestQuotients:
    def test_mod_trivial_is_self(self):
        G = validate_group(Z4)
        assert mod(G, [0]).rows == G.rows

    def test_mod_whole_is_trivial(self):
        assert mod(validate_group(Z4), range(4)).n == 1

    def test_v4_mod_order_two(self):
        Q = mod(validate_group(V4), [0, 1])
        assert Q.n == 2
        assert find_isomorphism(Q, validate_group([[0, 1], [1, 0]])) is not None

    def test_cosets_partition(self):
        G = s3()
        part = congruence_mod(G, ElementSet.from_indices(6, [0, 1, 2]))
        assert len(part) == 2
        assert all(len(c) == 3 for c in part.classes)

    def test_abelianization(self):
        assert abelianization(s3()).n == 2
        assert abelianization(validate_group(V4)).n == 4
        assert is_commutative(abelianization(validate_group(Z4)))

    def test_abelianization_of_product(self):
        G1, G2 = s3(), validate_group(Z4)
        left = abelianization(direct_product(G1, G2))
        right = direct_product(abelianization(G1), abelianization(G2))
        assert find_isomorphism(left, right) is not None


def permuted_group(rows, perm):
    """The table whose element perm[a] plays the part of a."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[rows[a][b]]
    return validate_group(out)


class TestCanonicalMapCheck:
    def test_relabelling_is_isomorphism(self):
        perm = (2, 0, 3, 1)
        G, R = validate_group(Z4), permuted_group(Z4, perm)
        assert isomorphic(G, R, range(4), perm)

    def test_many_points_per_class(self):
        perm = (2, 0, 3, 1)
        f1 = [x % 4 for x in range(8)]
        assert isomorphic(validate_group(Z4), permuted_group(Z4, perm), f1, [perm[c] for c in f1])

    def test_not_well_defined(self):
        G = validate_group(Z4)
        # Points 0 and 4 share the class 0 in G1 but land on 0 and 2 in G2.
        f1 = [x % 4 for x in range(8)]
        f2 = [x % 4 for x in range(4)] + [(x + 2) % 4 for x in range(4)]
        assert not isomorphic(G, G, f1, f2)

    def test_bijection_not_homomorphism(self):
        G = validate_group(Z4)
        assert not isomorphic(G, G, range(4), (0, 2, 1, 3))

    def test_not_a_bijection(self):
        G = validate_group(Z4)
        assert not isomorphic(G, G, range(4), (0, 0, 0, 0))

    def test_orders_differ(self):
        assert not isomorphic(
            validate_group(Z4), validate_group([[0, 1], [1, 0]]), range(4), (0, 1, 0, 1)
        )

    def test_no_map_between_v4_and_z4(self):
        for perm in itertools.permutations(range(4)):
            assert not isomorphic(validate_group(V4), validate_group(Z4), range(4), perm)


class TestIsomorphism:
    def test_v4_vs_z4(self):
        assert find_isomorphism(validate_group(V4), validate_group(Z4)) is None

    def test_self_isomorphic(self):
        G = s3()
        phi = find_isomorphism(G, G)
        assert phi is not None and phi[0] == 0

    def test_witness_is_homomorphism(self):
        G = validate_group(V4)
        relabeled = validate_group(
            [[V4[(2, 3, 0, 1)[a]][(2, 3, 0, 1)[b]] for b in range(4)] for a in range(4)]
        )
        phi = find_isomorphism(G, relabeled)
        assert phi is not None
        for a in range(4):
            for b in range(4):
                assert phi[V4[a][b]] == products(relabeled)[phi[a]][phi[b]]

    def test_equivalence_spot_checks(self):
        z4 = validate_group(Z4)
        v4 = validate_group(V4)
        relabel = (1, 2, 3, 0)
        z4b = validate_group(
            [[relabel.index(Z4[relabel[a]][relabel[b]]) for b in range(4)] for a in range(4)]
        )
        assert find_isomorphism(z4, z4b) is not None  # symmetric
        assert find_isomorphism(z4b, z4) is not None
        assert find_isomorphism(v4, z4b) is None  # transitive with v4 != z4

    def test_commutator_is_normal(self):
        G = s3()
        rows, inv = products(G), inverses(G)
        comm = commutator_subgroup(G)
        for g in range(G.n):
            for a in comm:
                assert rows[rows[g][a]][inv[g]] in comm

    def test_coset_order_formula(self):
        G = s3()
        a3 = ElementSet.from_indices(6, [0, 1, 2])
        part = congruence_mod(G, a3)
        assert sum(len(c) for c in part.classes) == G.n
        assert G.n == len(a3) * len(part)


def parity_groups():
    """The corpus groups, s3 x s3, z4 x v4, and the fundamental groups of
    the double-coset tables."""
    out = {
        name: H
        for name, H in generators.corpus().items()
        if all(c & (c - 1) == 0 for row in H.rows for c in row)
    }
    out["s3xs3"] = direct_product(s3(), s3())
    out["z4xv4"] = direct_product(corpus.cyclic_group(4), corpus.klein_four())
    for name, H in double_coset_tables().items():
        q = quotient_by(H, beta(H))
        assert q.is_group
        out[f"fundamental group of {name}"] = q.table
    return out


class TestGroupOracles:
    """Product closure, congruences and gamma quotients against the direct
    subgroup, coset and quotient-group loops of the oracles."""

    def test_commutators_and_abelianizations(self):
        groups = parity_groups()
        assert {1, 2, 3, 6, 16, 36} <= {G.n for G in groups.values()}
        family = DirectSumFamily(list(groups.values()))
        for i, (name, G) in enumerate(groups.items()):
            comm = oracles.commutator_subgroup(G)
            assert commutator_subgroup(G) == comm, name
            assert family.projections[i] == oracles.cosets(G, comm).class_of, name
            assert family.abelianizations[i] == oracles.quotient_group(G, comm), name
            assert validate_group(products(G), G.names) == G, name
            assert list(inverses(G)) == oracles.GroupView(G).inverse, name

    def test_product_closure_and_congruences(self):
        normal = 0
        for G in (s3(), corpus.cyclic_group(6), corpus.klein_four()):
            subgroups = set()
            for mask in range(1, 1 << G.n):
                S = ElementSet(G.n, mask)
                subgroups.add(closure(G, S))
                assert closure(G, S) == oracles.subgroup_generated(G, S)
            for N in subgroups:
                try:
                    want = oracles.cosets(G, N)
                except errors.NotNormal:
                    continue
                assert congruence_mod(G, N) == want
                normal += 1
        assert normal == 3 + 4 + 5


class TestDirectSums:
    def test_add_zero(self):
        fam = DirectSumFamily([s3(), validate_group(Z4)])
        a = fam.inject(1, 3)
        assert direct_sum_add(fam, a, fam.zero()) == a

    def test_add_inverse_is_zero(self):
        fam = DirectSumFamily([s3(), validate_group(Z4)])
        a = direct_sum_add(fam, fam.inject(0, 3), fam.inject(1, 1))
        neg = [(i, inverses(fam.abelianizations[i])[c]) for i, c in a.support]
        assert direct_sum_add(fam, a, DirectSumElement(fam, neg)).support == ()

    def test_disjoint_supports_union(self):
        fam = DirectSumFamily([validate_group(Z4), validate_group(V4)])
        a = fam.inject(0, 1)
        b = fam.inject(1, 2)
        out = direct_sum_add(fam, a, b)
        assert [i for i, _ in out.support] == [0, 1]

    def test_commutator_class_vanishes(self):
        fam = DirectSumFamily([s3()])
        assert fam.inject(0, 1).support == ()  # a 3-cycle dies in the abelianization

    def test_family_mismatch(self):
        fam1 = DirectSumFamily([validate_group(Z4)])
        fam2 = DirectSumFamily([validate_group(Z4)])
        with pytest.raises(errors.FamilyMismatch):
            direct_sum_add(fam1, fam1.zero(), fam2.zero())
