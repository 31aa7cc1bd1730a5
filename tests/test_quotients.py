from itertools import combinations_with_replacement

import oracles
import pytest
from oracles import find_isomorphism

from hyperkernel import corpus, errors
from hyperkernel.core import (
    ElementSet,
    HyperTable,
    direct_product,
    hyperproduct,
    is_hypergroup,
    is_semihypergroup,
    total_hypergroup,
)
from hyperkernel.quotients import (
    _coset_quotient,
    check_abelian_quotient,
    check_group_quotient,
    correspondence_check,
    correspondence_probe,
    derived,
    heart,
    is_complete_part,
    product_identities_check,
    quotient_hypergroup,
    subhypergroups,
)
from hyperkernel.relations import beta, gamma, kernel_S, quotient_by

# Largest group order the backtracking oracle is asked about.
ORACLE_MAX = 16


def _group(q):
    """The quotient table when it is a group, else None."""
    return q.table if q is not None and q.is_group else None


class TestCompleteParts:
    def test_beta_identity_class_is_complete_part(self, h9):
        assert is_complete_part(h9, h9.subset(["e", "a", "b", "c"]))

    def test_small_subhypergroup_is_not(self, h9):
        assert not is_complete_part(h9, h9.subset(["e", "a"]))

    def test_whole_carrier_is(self, h9):
        assert is_complete_part(h9, h9.carrier())


class TestSubhypergroups:
    def test_h9_lattice_contents(self, h9):
        sets = {entry.members.labels(h9.names) for entry in subhypergroups(h9).all}
        for expected in (("e",), ("e", "a"), ("e", "a", "b", "c")):
            assert expected in sets
        assert tuple(h9.names) in sets

    def test_group_lift_subgroups(self):
        G = corpus.cyclic_group(2)
        sets = [e.members.indices() for e in subhypergroups(G).all]
        assert sets == [(0,), (0, 1)]

    def test_total_only_whole(self):
        T = total_hypergroup(3)
        sets = [e.members for e in subhypergroups(T).all]
        assert sets == [T.carrier()]

    def test_flags_agree_with_predicates(self, h9):
        for entry in subhypergroups(h9).all:
            assert entry.closed == oracles.is_closed(h9, entry.members)
            assert entry.normal == oracles.is_normal(h9, entry.members)
            assert entry.conjugable == oracles.is_conjugable(h9, entry.members)

    def test_budget(self):
        # The budget counts product-closed sets visited: every one of the
        # 64 subsets of the pair hypergroup on 6 points is closed.
        message = "subhypergroup lattice: visited 17 closed sets, over the budget of 16"
        with pytest.raises(errors.BudgetExceeded, match=message):
            subhypergroups(corpus.pair_hypergroup(6), budget=16)
        assert len(subhypergroups(corpus.pair_hypergroup(6), budget=64).all) == 63


class TestHeartAndDerived:
    def test_h9_heart(self, h9):
        assert heart(h9) == h9.subset(["e", "a", "b", "c"])

    def test_group_heart_identity(self):
        G = corpus.symmetric_group_3()
        assert heart(G) == G.set_of([0])

    def test_total_heart_everything(self):
        T = total_hypergroup(3)
        assert heart(T) == T.carrier()

    def test_h9_derived(self, h9):
        assert derived(h9) == h9.subset(["e", "a", "b", "c"])

    def test_s3_derived_is_a3(self):
        G = corpus.symmetric_group_3()
        assert derived(G) == G.subset(["e", "r", "rr"])

    def test_commutative_derived_equals_heart(self, full_corpus):
        from hyperkernel.core import is_commutative

        for H in full_corpus.values():
            if is_commutative(H):
                assert derived(H) == heart(H)

    def test_routes_agree_everywhere(self, full_corpus):
        for H in full_corpus.values():
            assert heart(H) == oracles.heart(H)
            assert derived(H) == oracles.derived(H)

    def test_heart_of_a_bare_semihypergroup_is_the_beta_kernel(self):
        # the direct product of two 2-element semihypergroups; its only
        # complete-part subhypergroup is the carrier, yet beta has two
        # classes and a group quotient
        T = HyperTable(
            ["0", "1", "2", "3"],
            [[1, 2, 4, 8], [3, 2, 12, 8], [4, 8, 1, 2], [12, 8, 3, 2]],
        )
        assert is_semihypergroup(T)[0] and not is_hypergroup(T)
        assert oracles.heart(T) == T.carrier()
        assert heart(T) == kernel_S(T, beta(T)) == T.set_of([0, 1])


class TestQuotientHypergroup:
    def test_h9_mod_ea_matches_golden(self, h9, h9q):
        Q = quotient_hypergroup(h9, h9.subset(["e", "a"]))
        assert Q == h9q

    def test_mod_identity_is_isomorphic_copy(self):
        G = corpus.cyclic_group(3)
        Q = quotient_hypergroup(G, G.set_of([0]))
        assert Q.rows == G.rows

    def test_mod_heart_gives_fundamental_group_table(self, h9):
        Q = quotient_hypergroup(h9, h9.subset(["e", "a", "b", "c"]))
        assert Q.n == 4
        assert all(len(Q.cell(a, b)) == 1 for a in range(4) for b in range(4))

    def test_multivalued_cells_of_golden(self, h9):
        Q = quotient_hypergroup(h9, h9.subset(["e", "a"]))
        z = Q.index("zK")
        v = Q.index("vK")
        assert Q.cell(z, z) == Q.subset(["K", "bK"])
        assert Q.cell(z, v) == Q.subset(["xK", "yK"])

    def test_coset_k_may_start_outside_k(self):
        # x*K = K with x outside K and ahead of it: the coset named K is
        # the class that meets K, not the class whose least member is in K
        k, full = 0b0110, 0b1111
        rows = [[k, k, k, full]] * 3 + [[full] * 4]
        H = HyperTable(["x", "a", "b", "y"], rows)
        assert is_hypergroup(H)
        Q = quotient_hypergroup(H, H.subset(["a", "b"]))
        assert Q.names == ("K", "yK")
        assert Q.rows == ((0b01, 0b11), (0b11, 0b11))

    def test_requires_normal(self):
        G = corpus.symmetric_group_3()
        K = G.subset(["e", "s"])
        with pytest.raises(errors.NotNormal):
            quotient_hypergroup(G, K)


class TestGroupQuotientTheorem:
    def test_h9_heart_gives_group(self, h9):
        assert check_group_quotient(h9, h9.subset(["e", "a", "b", "c"]))

    def test_h9_ea_not_group(self, h9):
        assert not check_group_quotient(h9, h9.subset(["e", "a"]))

    def test_whole_carrier_trivial_group(self, h9):
        assert check_group_quotient(h9, h9.carrier())

    def test_requires_closed(self):
        H = corpus.pair_hypergroup(3)
        K = H.set_of([0])
        from hyperkernel.core import is_closed, is_subhypergroup

        assert is_subhypergroup(H, K) and not is_closed(H, K)
        with pytest.raises(errors.NotClosed):
            check_group_quotient(H, K)

    def test_s3_mod_rotations_is_abelian(self):
        G = corpus.symmetric_group_3()
        K = G.subset(["e", "r", "rr"])
        assert check_group_quotient(G, K)
        assert check_abelian_quotient(G, K)
        assert not check_abelian_quotient(G, G.set_of([0]))

    def test_equivalence_over_corpus(self, full_corpus):
        # group quotient <-> normal and heart inside, for closed subs
        for name, H in full_corpus.items():
            s_beta = kernel_S(H, beta(H))
            for entry in subhypergroups(H).all:
                if not entry.closed:
                    continue
                got = check_group_quotient(H, entry.members)
                expected = entry.normal and s_beta <= entry.members
                assert got == expected, (name, entry.members.labels(H.names))

    def test_abelian_equivalence_over_corpus(self, full_corpus):
        for name, H in full_corpus.items():
            s_gamma = kernel_S(H, gamma(H))
            for entry in subhypergroups(H).all:
                if not entry.closed:
                    continue
                got = check_abelian_quotient(H, entry.members)
                expected = s_gamma <= entry.members
                assert got == expected, (name, entry.members.labels(H.names))

    def test_normality_emerges_from_derived(self, full_corpus):
        # closed K containing the derived subhypergroup commutes with points
        from hyperkernel.core import is_normal

        for name, H in full_corpus.items():
            s_gamma = kernel_S(H, gamma(H))
            for entry in subhypergroups(H).all:
                if entry.closed and s_gamma <= entry.members:
                    assert is_normal(H, entry.members), name


class TestCorrespondence:
    def test_h9_ea_identities(self, h9):
        rep = correspondence_check(h9, h9.subset(["e", "a"]))
        assert rep.holds
        assert {o.relation for o in rep.outcomes} == {"beta", "gamma"}

    def test_h9_trivial_sub(self, h9):
        assert correspondence_check(h9, h9.subset(["e"])).holds

    def test_rejects_non_canonical(self):
        G = corpus.symmetric_group_3()
        with pytest.raises(errors.NotCanonical):
            correspondence_check(G, G.subset(["e"]))

    def test_probe_runs_on_non_canonical(self):
        G = corpus.symmetric_group_3()
        rep = correspondence_probe(G, G.subset(["e", "r", "rr"]))
        assert len(rep.outcomes) == 2


class TestProductIdentities:
    def test_h9_x_z2(self, h9):
        rep = product_identities_check(h9, corpus.cyclic_group(2))
        assert rep.holds
        z2 = corpus.cyclic_group(2)
        expected = ElementSet.from_indices(
            h9.n * 2, (i * 2 + 0 for i in range(4))
        )
        assert rep.product_kernel == expected

    def test_totals(self):
        rep = product_identities_check(total_hypergroup(2), total_hypergroup(2))
        assert rep.holds
        assert len(rep.product_kernel) == 4

    def test_group_lifts(self):
        rep = product_identities_check(
            corpus.symmetric_group_3(), corpus.cyclic_group(2)
        )
        assert rep.holds


class TestCanonicalMapAgainstSearch:
    """The identity flags check one canonical map; wherever the search
    reaches, that map is an isomorphism exactly when some isomorphism is."""

    @staticmethod
    def _agrees(flag, G1, G2) -> bool | None:
        if G1 is None or G2 is None:
            return not flag
        if G1.n > ORACLE_MAX:
            return None
        return flag == (find_isomorphism(G1, G2) is not None)

    def test_correspondence_quotients(self, full_corpus):
        tables = dict(full_corpus)
        tables["h9xz2"] = direct_product(full_corpus["h9"], full_corpus["z2"])
        checked = 0
        for name, H in tables.items():
            for entry in subhypergroups(H).all:
                if not entry.normal:
                    continue
                K = entry.members
                Q = quotient_hypergroup(H, K)
                outcomes = correspondence_probe(H, K).outcomes
                for rel, outcome in zip((beta, gamma), outcomes):
                    left = _group(quotient_by(Q, rel(Q)))
                    right = _group(_coset_quotient(H, hyperproduct(H, kernel_S(H, rel(H)), K)))
                    agrees = self._agrees(outcome.quotient_iso, left, right)
                    assert agrees is not False, (name, K.labels(H.names), outcome)
                    checked += agrees is True
        assert checked >= 200

    def test_product_quotients(self, full_corpus):
        pairs = [
            (a, b)
            for a, b in combinations_with_replacement(full_corpus, 2)
            if full_corpus[a].n * full_corpus[b].n <= 18
        ]
        pairs.append(("h9", "h9-quotient"))  # gamma quotient of order 16
        checked = 0
        for a, b in pairs:
            H1, H2 = full_corpus[a], full_corpus[b]
            rep = product_identities_check(H1, H2)
            P = direct_product(H1, H2)
            agrees = self._agrees(
                rep.gamma_quotient_iso,
                _group(quotient_by(P, gamma(P))),
                direct_product(
                    quotient_by(H1, gamma(H1)).table, quotient_by(H2, gamma(H2)).table
                ),
            )
            assert agrees is not False, (a, b)
            checked += agrees is True
        assert checked >= 130


class TestKernelClassification:
    def test_kernels_are_complete_conjugable_normal(self, full_corpus):
        from hyperkernel.core import is_normal
        from hyperkernel.relations import enumerate_strongly_regular

        for name, H in full_corpus.items():
            if H.n > 6:
                continue
            for R in enumerate_strongly_regular(H):
                ker = kernel_S(H, R)
                assert is_complete_part(H, ker), name
                assert oracles.is_conjugable(H, ker), name
                assert is_normal(H, ker), name


class TestProbes:
    def test_closed_normal_subs_containing_the_heart_give_groups(self, h9):
        implied = 0
        for e in subhypergroups(h9).all:
            if e.closed and e.normal and e.contains_S_beta:
                assert check_group_quotient(h9, e.members), e.members
                implied += 1
        assert implied > 0

    def test_identity_set_sits_inside_derived_kernel(self, full_corpus):
        # Inclusion always holds; strictness does occur (the 9-element
        # table has one identity but a four-element derived kernel).
        from hyperkernel.core import identities

        strict = []
        for name, H in full_corpus.items():
            e_set = identities(H)
            s_gamma = kernel_S(H, gamma(H))
            assert e_set <= s_gamma, name
            if len(e_set) < len(s_gamma):
                strict.append(name)
        assert "h9" in strict
