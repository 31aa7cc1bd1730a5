import itertools

import pytest
from oracles import find_isomorphism

from hyperkernel import corpus, errors
from hyperkernel.core import ElementSet
from hyperkernel.groups import (
    DirectSumFamily,
    abelianization,
    commutator_subgroup,
    cosets,
    direct_product_group,
    direct_sum_add,
    isomorphic,
    quotient_group,
    subgroup_generated,
    validate_group,
)

V4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
Z4 = [[(i + j) % 4 for j in range(4)] for i in range(4)]


def s3():
    names, rows = corpus._s3_rows()
    return validate_group(rows, names)


class TestValidation:
    def test_v4_valid(self):
        G = validate_group(V4, names=["e", "a", "b", "c"])
        assert G.identity == 0
        assert G.inverse == (0, 1, 2, 3)

    def test_corrupted_cell_not_associative(self):
        rows = [[(i + j) % 3 for j in range(3)] for i in range(3)]
        rows[1][2] = 1
        with pytest.raises(errors.InvalidGroupTable):
            validate_group(rows)

    def test_no_identity(self):
        with pytest.raises(errors.NoIdentity):
            validate_group([[1, 0], [0, 1]][::-1] and [[1, 1], [1, 1]])

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
        groups = [Z4, V4, s3().rows, [[(i + j) % 6 for j in range(6)] for i in range(6)]]
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
                assert G.inverse == tuple(
                    next(b for b in range(n) if rows[a][b] == G.identity == rows[b][a])
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
    def test_identity_alone(self):
        G = s3()
        assert subgroup_generated(G, []) == ElementSet.from_indices(6, [0])

    def test_transposition_generates_order_two(self):
        G = s3()
        s = G.index("s")
        assert len(subgroup_generated(G, [s])) == 2

    def test_two_generators_give_whole_group(self):
        G = s3()
        assert subgroup_generated(G, [G.index("r"), G.index("s")]) == ElementSet(
            6, 0b111111
        )


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
        P = direct_product_group(G1, G2)
        c1 = commutator_subgroup(G1)
        c2 = commutator_subgroup(G2)
        expected = ElementSet.from_indices(
            P.n, (a * G2.n + b for a in c1 for b in c2)
        )
        assert commutator_subgroup(P) == expected


class TestQuotients:
    def test_mod_trivial_is_self(self):
        G = validate_group(Z4)
        Q = quotient_group(G, ElementSet.from_indices(4, [0]))
        assert Q.rows == G.rows

    def test_mod_whole_is_trivial(self):
        G = validate_group(Z4)
        Q = quotient_group(G, ElementSet(4, 0b1111))
        assert Q.n == 1

    def test_v4_mod_order_two(self):
        G = validate_group(V4)
        Q = quotient_group(G, ElementSet.from_indices(4, [0, 1]))
        assert Q.n == 2
        assert find_isomorphism(Q, validate_group([[0, 1], [1, 0]])) is not None

    def test_cosets_partition(self):
        G = s3()
        a3 = ElementSet.from_indices(6, [0, 1, 2])
        part = cosets(G, a3)
        assert len(part) == 2
        assert all(len(c) == 3 for c in part.classes)

    def test_non_normal_rejected(self):
        G = s3()
        with pytest.raises(errors.NotNormal):
            cosets(G, subgroup_generated(G, [G.index("s")]))

    def test_abelianization(self):
        assert abelianization(s3()).n == 2
        assert abelianization(validate_group(V4)).n == 4
        assert abelianization(validate_group(Z4)).is_abelian()

    def test_abelianization_of_product(self):
        G1, G2 = s3(), validate_group(Z4)
        left = abelianization(direct_product_group(G1, G2))
        right = direct_product_group(abelianization(G1), abelianization(G2))
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
        assert phi is not None and phi[G.identity] == G.identity

    def test_witness_is_homomorphism(self):
        G = validate_group(V4)
        relabeled = validate_group(
            [[V4[(2, 3, 0, 1)[a]][(2, 3, 0, 1)[b]] for b in range(4)] for a in range(4)]
        )
        phi = find_isomorphism(G, relabeled)
        assert phi is not None
        for a in range(4):
            for b in range(4):
                assert phi[G.rows[a][b]] == relabeled.rows[phi[a]][phi[b]]

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
        comm = commutator_subgroup(G)
        for g in range(G.n):
            gi = G.inverse[g]
            for a in comm:
                assert G.rows[G.rows[g][a]][gi] in comm

    def test_coset_order_formula(self):
        G = s3()
        a3 = ElementSet.from_indices(6, [0, 1, 2])
        part = cosets(G, a3)
        assert sum(len(c) for c in part.classes) == G.n
        assert G.n == len(a3) * len(part)


class TestDirectSums:
    def test_add_zero(self):
        fam = DirectSumFamily([s3(), validate_group(Z4)])
        a = fam.inject(1, 3)
        assert direct_sum_add(fam, a, fam.zero()) == a

    def test_add_inverse_is_zero(self):
        fam = DirectSumFamily([s3(), validate_group(Z4)])
        a = direct_sum_add(fam, fam.inject(0, 3), fam.inject(1, 1))
        assert direct_sum_add(fam, a, -a).is_zero()

    def test_disjoint_supports_union(self):
        fam = DirectSumFamily([validate_group(Z4), validate_group(V4)])
        a = fam.inject(0, 1)
        b = fam.inject(1, 2)
        out = direct_sum_add(fam, a, b)
        assert [i for i, _ in out.support] == [0, 1]

    def test_commutator_class_vanishes(self):
        fam = DirectSumFamily([s3()])
        assert fam.inject(0, 1).is_zero()  # a 3-cycle dies in the abelianization

    def test_family_mismatch(self):
        fam1 = DirectSumFamily([validate_group(Z4)])
        fam2 = DirectSumFamily([validate_group(Z4)])
        with pytest.raises(errors.FamilyMismatch):
            direct_sum_add(fam1, fam1.zero(), fam2.zero())
