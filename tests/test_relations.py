from math import comb

import generators
import oracles
import pytest
from oracles import find_isomorphism
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperkernel import corpus, errors, kernels
from hyperkernel.core import (
    HyperTable,
    Partition,
    is_commutative,
    is_polygroup,
    total_hypergroup,
)
from hyperkernel.relations import (
    beta,
    congruence_mod,
    enumerate_strongly_regular,
    gamma,
    gamma_oracle,
    is_strongly_regular,
    join,
    kernel_S,
    pullback,
    quotient_by,
)


def _classes(H, P):
    return sorted(sorted(H.names[i] for i in c) for c in P.classes)


class TestPartition:
    def test_canonical_class_ids_by_least_member(self):
        p = Partition(4, [7, 3, 7, 5])
        assert p.class_of == (0, 1, 0, 2)
        assert p.classes[0].indices() == (0, 2)

    def test_from_classes_requires_cover(self):
        with pytest.raises(errors.ShapeMismatch):
            Partition.from_classes(3, [[0, 1]])

    @pytest.mark.parametrize("bad", [-1, -3, 3, 7])
    def test_from_classes_refuses_members_off_the_carrier(self, bad):
        # -1 would otherwise land on element 2 through negative indexing
        with pytest.raises(errors.ShapeMismatch, match=f"element {bad} outside 0..2"):
            Partition.from_classes(3, [[0, bad], [1]])

    def test_refines(self):
        fine = Partition(4, range(4))
        coarse = Partition(4, [0] * 4)
        assert oracles.refines(fine, coarse)
        assert not oracles.refines(coarse, fine)


class TestCensus:
    def test_h9_census_contents(self, h9):
        masks = kernels.census(h9.rows, h9.n, 100_000)
        assert h9.subset(["b", "c"]).mask in masks
        assert h9.subset(["e", "a", "b", "c"]).mask in masks

    def test_group_census_is_singletons(self):
        G = corpus.cyclic_group(3)
        assert sorted(kernels.census(G.rows, G.n, 100_000)) == [1, 2, 4]

    def test_total_census_single_set(self):
        T = total_hypergroup(4)
        assert kernels.census(T.rows, T.n, 100_000) == [T.full_mask]

    def test_cap_returns_none(self, h9):
        assert kernels.census(h9.rows, 9, 3) is None


class TestBeta:
    def test_h9_beta_classes(self, h9):
        assert _classes(h9, beta(h9)) == [
            ["a", "b", "c", "e"],
            ["u", "z"],
            ["v"],
            ["x", "y"],
        ]

    def test_group_beta_discrete(self):
        G = corpus.symmetric_group_3()
        assert beta(G) == Partition(6, range(6))

    def test_total_beta_single(self):
        assert beta(total_hypergroup(5)) == Partition(5, [0] * 5)

    def test_beta_on_bare_semihypergroup(self):
        # constant table: associative, fails reproduction, beta still works
        from hyperkernel.core import HyperTable, is_hypergroup, is_semihypergroup

        T = HyperTable(["0", "1"], [[1, 1], [1, 1]])
        assert is_semihypergroup(T)[0] and not is_hypergroup(T)
        assert beta(T) == Partition(2, range(2))


class TestGamma:
    def test_h9_gamma_equals_beta(self, h9):
        assert gamma(h9) == beta(h9)

    def test_s3_gamma_parity(self):
        G = corpus.symmetric_group_3()
        expected = Partition.from_classes(6, [[0, 1, 2], [3, 4, 5]])
        assert gamma(G) == expected

    def test_total_gamma_single(self):
        assert gamma(total_hypergroup(3)) == Partition(3, [0] * 3)

    def test_oracle_matches_on_small_corpus(self):
        for name, H in generators.small_corpus(5).items():
            assert gamma_oracle(H, nmax=4) == gamma(H), name

    def test_oracle_matches_s3_and_h9(self, h9):
        assert gamma_oracle(corpus.symmetric_group_3(), nmax=4) == gamma(
            corpus.symmetric_group_3()
        )
        assert gamma_oracle(h9, nmax=4) == gamma(h9)

    def test_oracle_budget(self, h9):
        with pytest.raises(errors.BudgetExceeded):
            gamma_oracle(h9, nmax=4, budget=100)

    def test_oracle_budget_counts_block_masks_in_closed_form(self, h9):
        # 9 * comb(9 + nmax - 2, nmax - 2) masks and 9 * comb(9 + nmax - 2,
        # nmax - 3) key letters: 90 and 9 at nmax 3, 495 and 99 at nmax 4;
        # nmax - 1 and comb(nmax - 1, 2) on a one-element carrier
        message = (
            "^gamma oracle: 495 block masks and 99 key letters by length 4, "
            "over the budget of 100$"
        )
        with pytest.raises(errors.BudgetExceeded, match=message):
            gamma_oracle(h9, nmax=4, budget=100)
        assert gamma_oracle(h9, nmax=3, budget=99) == gamma_oracle(h9, nmax=3)
        with pytest.raises(errors.BudgetExceeded, match="^gamma oracle: 90 block masks and 9 key "):
            gamma_oracle(h9, nmax=3, budget=98)
        assert gamma_oracle(h9, nmax=2, budget=9) == gamma_oracle(h9, nmax=2)
        with pytest.raises(errors.BudgetExceeded, match="^gamma oracle: 999999999 block masks "):
            gamma_oracle(total_hypergroup(1), nmax=10**9, budget=100)
        assert gamma_oracle(total_hypergroup(1), nmax=14, budget=91) == Partition(1, [0])
        with pytest.raises(errors.BudgetExceeded, match="^gamma oracle: 13 block masks and 78 key "):
            gamma_oracle(total_hypergroup(1), nmax=14, budget=90)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_oracle_budget_is_the_masks_the_kernel_keeps(self, n):
        # oracle_merge keeps the lines of _block_layers up to nmax - 1:
        # n masks per multiset of length <= nmax - 2, and its letters
        H = total_hypergroup(n)
        for nmax in range(1, 7):
            lines = [line for _, (line, _) in zip(
                range(1, nmax), kernels._block_layers(n, kernels._Products(H.rows))
            )]
            masks = sum(len(row) for line in lines for row in line.values())
            letters = sum(len(key) for line in lines for key in line)
            assert masks == (n * comb(n + nmax - 2, nmax - 2) if nmax > 1 else 0)
            assert letters == (n * comb(n + nmax - 2, nmax - 3) if nmax > 2 else 0)
            held = masks + letters
            assert gamma_oracle(H, nmax=nmax, budget=held) == gamma_oracle(H, nmax=nmax)
            if held:
                with pytest.raises(errors.BudgetExceeded):
                    gamma_oracle(H, nmax=nmax, budget=held - 1)

    @pytest.mark.parametrize(
        "nmax, masks, letters", [(2829, 2828, 3997378), (4000, 3999, 7994001)]
    )
    def test_oracle_budget_bounds_the_one_element_table(self, nmax, masks, letters):
        # One mask per length but a key of k letters at length k: the
        # letters refuse it before the kernel's quadratic work starts.
        with pytest.raises(errors.BudgetExceeded) as exc:
            gamma_oracle(total_hypergroup(1), nmax=nmax)
        assert str(exc.value) == (
            f"gamma oracle: {masks} block masks and {letters} key letters "
            f"by length {nmax}, over the budget of 4000000"
        )

    def test_oracle_at_length_eight_matches_gamma(self, h9):
        # 9 * comb(15, 6) = 45,045 masks, inside the default budget
        assert gamma_oracle(h9, nmax=8) == gamma(h9)

    @pytest.mark.parametrize("nmax", [0, -1])
    def test_oracle_rejects_nmax_below_one(self, h9, nmax):
        with pytest.raises(errors.HyperError, match="nmax must be at least 1") as info:
            gamma_oracle(h9, nmax=nmax)
        assert not isinstance(info.value, errors.ResourceExhausted)

    def test_oracle_short_products_already_suffice_on_h9(self, h9):
        # every related block of h9 appears inside some length-2 product
        assert gamma_oracle(h9, nmax=2) == beta(h9)

    def test_oracle_needs_length_three_on_a_non_commutative_polygroup(self):
        # S4//<(01)(23)>: multi-valued and non-commutative, with fundamental
        # group S3.  Products of two letters relate too little; with three
        # the oracle reaches gamma, whose quotient is S3's abelianization.
        H = generators.s4_mod_double_transposition()
        assert H.n == 8 and is_polygroup(H) and not is_commutative(H)
        assert any(c & (c - 1) for row in H.rows for c in row)
        assert find_isomorphism(
            quotient_by(H, beta(H)).table, corpus.symmetric_group_3()
        ) is not None
        short = gamma_oracle(H, nmax=2)
        assert len(short) == 3 and short != gamma(H)
        assert gamma_oracle(H, nmax=3) == gamma(H)
        assert len(gamma(H)) == 2


class TestRegularityChecks:
    def test_beta_strongly_regular_everywhere(self, full_corpus):
        for H in full_corpus.values():
            assert is_strongly_regular(H, beta(H))

    def test_discrete_fails_on_proper_hypergroup(self, h9):
        assert not is_strongly_regular(h9, Partition(h9.n, range(h9.n)))

    def test_congruence_mod_regular(self, h9):
        sigma = congruence_mod(h9, h9.subset(["e", "a"]))
        assert oracles.is_regular(h9, sigma)

    def test_regular_not_strongly(self, h9):
        sigma = congruence_mod(h9, h9.subset(["e", "a"]))
        assert not is_strongly_regular(h9, sigma)


class TestQuotientBy:
    def test_h9_beta_quotient_is_v4(self, h9):
        q = quotient_by(h9, beta(h9))
        assert q.is_group
        assert find_isomorphism(q.table, corpus.klein_four()) is not None

    def test_single_class_quotient_trivial(self, h9):
        q = quotient_by(h9, Partition(h9.n, [0] * h9.n))
        assert q.is_group and q.table.n == 1

    def test_h9_coset_quotient_table(self, h9, h9q):
        sigma = congruence_mod(h9, h9.subset(["e", "a"]))
        q = quotient_by(h9, sigma)
        assert not q.is_group
        assert q.table.rows == h9q.rows

    def test_not_regular_raises_with_witness(self, h9):
        bad = Partition.from_classes(9, [[0, 4], [1], [2], [3], [5], [6], [7], [8]])
        with pytest.raises(errors.NotRegular) as exc:
            quotient_by(h9, bad)
        assert str(exc.value) == "cell (0,0) depends on representatives: (e,e) vs (x,x)"

    @pytest.mark.parametrize(
        "classes, message",
        [
            ([[0], [1, 4], [2], [3], [5], [6], [7], [8]], "cell (1,1) depends on representatives: (a,a) vs (a,x)"),
            ([[0], [1], [2, 6], [3], [4], [5], [7], [8]], "cell (1,2) depends on representatives: (a,b) vs (a,z)"),
            ([[0], [1], [2], [3], [4, 5], [6], [7], [8]], "cell (4,4) depends on representatives: (x,x) vs (x,y)"),
        ],
    )
    def test_not_regular_names_the_first_class_pair(self, h9, classes, message):
        with pytest.raises(errors.NotRegular) as exc:
            quotient_by(h9, Partition.from_classes(9, classes))
        assert str(exc.value) == message


class TestKernel:
    def test_h9_kernel(self, h9):
        assert kernel_S(h9, beta(h9)) == h9.subset(["e", "a", "b", "c"])
        assert kernel_S(h9, gamma(h9)) == h9.subset(["e", "a", "b", "c"])

    def test_group_discrete_kernel_is_identity(self):
        G = corpus.cyclic_group(4)
        assert kernel_S(G, Partition(4, range(4))) == G.set_of([0])

    def test_requires_strongly_regular(self, h9):
        sigma = congruence_mod(h9, h9.subset(["e", "a"]))
        with pytest.raises(errors.NotStronglyRegular):
            kernel_S(h9, sigma)

    def test_error_messages(self, h9):
        # regular but not strongly regular, not regular, and strongly
        # regular with a quotient that is not a group
        message = "kernel needs a strongly regular relation"
        regular = congruence_mod(h9, h9.subset(["e", "a"]))
        assert oracles.is_regular(h9, regular)
        irregular = Partition.from_classes(9, [[0, 4], *([i] for i in range(1, 9) if i != 4)])
        assert not oracles.is_regular(h9, irregular)
        for R in (regular, irregular):
            with pytest.raises(errors.NotStronglyRegular, match=f"^{message}$"):
                kernel_S(h9, R)
        semigroup = HyperTable(["a", "b"], [[0b01, 0b01], [0b01, 0b10]])
        with pytest.raises(errors.NotStronglyRegular, match="^quotient is not a group$"):
            kernel_S(semigroup, Partition(2, range(2)))


class TestCongruenceMod:
    def test_h9_mod_ea(self, h9):
        sigma = congruence_mod(h9, h9.subset(["e", "a"]))
        assert _classes(h9, sigma) == [
            ["a", "e"],
            ["b", "c"],
            ["u", "z"],
            ["v"],
            ["x"],
            ["y"],
        ]

    def test_mod_whole_single(self, h9):
        assert congruence_mod(h9, h9.carrier()) == Partition(h9.n, [0] * h9.n)

    def test_mod_identity_in_group_is_discrete(self):
        G = corpus.cyclic_group(4)
        assert congruence_mod(G, G.set_of([0])) == Partition(4, range(4))

    def test_rejects_non_subhypergroup(self, h9):
        with pytest.raises(errors.NotASubhypergroup):
            congruence_mod(h9, h9.subset(["e", "x"]))


class TestPullbackJoin:
    def test_pullback_trivial_commutator(self, h9):
        b = beta(h9)
        sigma = Partition(len(b.classes), range(len(b.classes)))
        assert pullback(sigma, b) == b

    def test_pullback_through_one_class(self, h9):
        rho = Partition(h9.n, [0] * h9.n)
        sigma = Partition(1, [0])
        assert pullback(sigma, rho) == rho

    def test_pullback_parity_through_discrete(self):
        G = corpus.symmetric_group_3()
        rho = Partition(6, range(6))
        sigma = Partition.from_classes(6, [[0, 1, 2], [3, 4, 5]])
        assert pullback(sigma, rho) == sigma

    def test_pullback_shape_mismatch(self, h9):
        with pytest.raises(errors.ShapeMismatch):
            pullback(Partition(3, range(3)), beta(h9))

    def test_join_idempotent_and_bounded(self, h9):
        b = beta(h9)
        assert join(b, b) == b
        assert join(Partition(h9.n, range(h9.n)), b) == b

    def test_join_beta_with_coset_congruence(self, h9):
        sigma = congruence_mod(h9, h9.subset(["e", "a"]))
        assert join(beta(h9), sigma) == beta(h9)


def _partitions(n):
    return st.builds(
        lambda values: Partition(n, values),
        st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
    )


class TestJoinProperties:
    @given(_partitions(6), _partitions(6))
    @settings(max_examples=80, deadline=None)
    def test_join_is_least_upper_bound(self, r1, r2):
        j = join(r1, r2)
        assert oracles.refines(r1, j) and oracles.refines(r2, j)
        # minimality: every block of the join is connected through r1/r2 steps
        for block in j.classes:
            members = set(block.indices())
            reached = {min(members)}
            frontier = [min(members)]
            while frontier:
                x = frontier.pop()
                for part in (r1, r2):
                    for y in part.classes[part.class_of[x]]:
                        if y not in reached:
                            reached.add(y)
                            frontier.append(y)
            assert reached == members

    @given(_partitions(5), _partitions(5))
    @settings(max_examples=50, deadline=None)
    def test_join_commutes(self, r1, r2):
        assert join(r1, r2) == join(r2, r1)


class TestEnumerateSR:
    def test_total2_single_relation(self):
        found = enumerate_strongly_regular(total_hypergroup(2))
        assert len(found) == 1
        assert found[0] == Partition(2, [0] * 2)

    def test_z2_congruences(self):
        found = enumerate_strongly_regular(corpus.cyclic_group(2))
        assert len(found) == 2

    def test_h9_matches_normal_closed_count(self, h9):
        from hyperkernel.quotients import subhypergroups

        found = enumerate_strongly_regular(h9)
        lattice = subhypergroups(h9)
        normal_closed = [
            e for e in lattice.all if e.normal and e.closed and e.contains_S_beta
        ]
        assert len(found) == len(normal_closed)

    def test_budget(self, h9):
        # The fundamental group of h9 is the Klein group: its product
        # closure has 6 closed sets, the empty set and 5 subgroups.
        message = "fundamental-group subgroups: visited 6 closed sets, over the budget of 5"
        with pytest.raises(errors.BudgetExceeded, match=message):
            enumerate_strongly_regular(h9, budget=5)
        assert len(enumerate_strongly_regular(h9, budget=6)) == 5

    def test_requires_hypergroup(self):
        # Associative but not reproductive: a*H = {a} misses b.
        H = HyperTable(["a", "b"], [[0b01, 0b01], [0b01, 0b10]])
        with pytest.raises(errors.NotAHypergroup):
            enumerate_strongly_regular(H)

    @pytest.mark.parametrize("name", sorted(generators.corpus()))
    def test_recheck_on_fundamental_group_matches_pullback(self, name):
        # The enumeration re-checks each congruence sigma on G = H/beta:
        # sigma is strongly regular on G exactly when its pullback is on H.
        H = generators.corpus()[name]
        b = beta(H)
        G = quotient_by(H, b).table
        assert G.n <= 6
        outcomes = set()
        for class_of in oracles.all_class_assignments(G.n):
            sigma = Partition(G.n, class_of)
            on_g = is_strongly_regular(G, sigma)
            assert on_g == is_strongly_regular(H, pullback(sigma, b)), class_of
            outcomes.add(on_g)
        assert True in outcomes
        if name in ("s3", "h9"):
            assert False in outcomes


class TestStructuralInvariants:
    def test_beta_is_smallest_sr(self, full_corpus):
        for H in full_corpus.values():
            if H.n > 6:
                continue
            b = beta(H)
            for R in enumerate_strongly_regular(H):
                assert oracles.refines(b, R)

    def test_gamma_smallest_with_abelian_quotient(self, full_corpus):
        for H in full_corpus.values():
            if H.n > 6:
                continue
            g = gamma(H)
            assert is_commutative(quotient_by(H, g).table)
            for R in enumerate_strongly_regular(H):
                q = quotient_by(H, R)
                if q.is_group and is_commutative(q.table):
                    assert oracles.refines(g, R)

    def test_kernel_class_identity(self, full_corpus):
        # Every class of a strongly regular relation is x * kernel.
        from hyperkernel.core import hyperproduct

        for H in full_corpus.values():
            if H.n > 6:
                continue
            for R in enumerate_strongly_regular(H):
                ker = kernel_S(H, R)
                for x in range(H.n):
                    assert (
                        hyperproduct(H, H.set_of([x]), ker) == R.classes[R.class_of[x]]
                    )

    def test_regular_containing_beta_is_strongly_regular(self, full_corpus):
        from oracles import all_class_assignments

        for H in full_corpus.values():
            if H.n > 5:
                continue
            b = beta(H)
            for class_of in all_class_assignments(H.n):
                R = Partition(H.n, class_of)
                if oracles.refines(b, R) and oracles.is_regular(H, R):
                    assert is_strongly_regular(H, R)

    def test_gamma_is_commutator_pullback(self, full_corpus):
        for H in full_corpus.values():
            b = beta(H)
            G = quotient_by(H, b).table
            sigma = oracles.cosets(G, oracles.commutator_subgroup(G))
            assert pullback(sigma, b) == gamma(H)

    def test_canonical_implies_gamma_equals_beta(self, full_corpus):
        from hyperkernel.core import is_canonical

        for H in full_corpus.values():
            if is_canonical(H):
                assert gamma(H) == beta(H)
