import random
import tracemalloc

import pytest

import oracles
from generators import random_hypergroups, s4_mod_double_transposition
from hyperkernel import corpus, errors, freeprod
from hyperkernel.freeprod import (
    EMPTY_WORD,
    DirectSumFamily,
    FactorRegistry,
    Letter,
    ReducedWord,
    embed,
    enumerate_words,
    inverse_word,
    kernel_count,
    make_word,
    multiply,
    multiply_sets,
    phi,
    project,
    psi,
    psi_image,
    psi_supports,
    quotient_conjecture_report,
    word_counts,
    word_product,
)
from hyperkernel.core import (
    HyperTable,
    direct_product,
    hyperproduct,
    identities,
    is_hypergroup,
    is_strongly_regular_hg,
    unique_inverses,
)
from hyperkernel.groups import validate_group
from hyperkernel.quotients import heart, quotient_hypergroup, subhypergroups
from hyperkernel.relations import beta, congruence_mod


@pytest.fixture(scope="module")
def reg():
    return FactorRegistry([corpus.h9(), corpus.klein_four()])


@pytest.fixture(scope="module")
def group_reg():
    names, rows = corpus._s3_rows()
    return FactorRegistry(
        [
            corpus.symmetric_group_3(),
            corpus.cyclic_group(4),
            corpus.klein_four(),
            corpus.cyclic_group(3),
        ]
    )


@pytest.fixture(scope="module")
def generated():
    return random_hypergroups(seed=2024, count=100, max_tries=20000)


def _multivalued(H):
    return any(c & (c - 1) for row in H.rows for c in row)


@pytest.fixture(scope="module")
def widened(generated):
    """The generator's multi-valued strongly regular tables, all n=2,
    times z2, z3 and s3."""
    fixtures = corpus.fixtures()
    return [
        direct_product(H, fixtures[g])
        for H in generated
        if _multivalued(H) and is_strongly_regular_hg(H)
        for g in ("z2", "z3", "s3")
    ]


def _letter(reg, factor, label):
    return reg.letter(factor, reg.factors[factor].index(label))


class TestRegistry:
    def test_rejects_non_strongly_regular_factor(self):
        from hyperkernel.core import total_hypergroup

        with pytest.raises(errors.NotStronglyRegular):
            FactorRegistry([total_hypergroup(2)])

    def test_rejects_non_hypergroup_factor(self):
        # e*e = e*a = {e} breaks reproduction: no hypergroup, so the
        # strong-regularity question is not reached
        H = HyperTable.from_sets(["e", "a"], [[[0], [0]], [[0, 1], [0, 1]]])
        assert not is_hypergroup(H)
        with pytest.raises(errors.NotAHypergroup):
            FactorRegistry([corpus.klein_four(), H])

    def test_strong_regularity_gives_unique_identity_and_inverses(self, generated, widened):
        # FactorRegistry reads identities and inverses without re-checking
        # their uniqueness; this is the implication it relies on.
        rng = random.Random(2024)
        tables = [H for H in corpus.corpus().values() if is_hypergroup(H)]
        while len(tables) < 400:
            # a cyclic group's table, some cells widened by a random subset;
            # these stay near n=2 once multi-valued
            n = rng.choice([2, 3, 4])
            p = rng.choice([0.1, 0.3, 1.0])
            rows = [
                [
                    1 << (a + b) % n
                    | (rng.randrange(1 << n) if rng.random() < p else 0)
                    for b in range(n)
                ]
                for a in range(n)
            ]
            H = HyperTable([str(i) for i in range(n)], rows)
            if is_hypergroup(H):
                tables.append(H)
        # group tables widened by cosets reach multi-valued n=3 and n=4
        assert {3, 4} <= {H.n for H in generated if _multivalued(H)}
        assert {3, 4} <= {H.n for H in generated if is_strongly_regular_hg(H)}
        # the generator's multi-valued strongly regular tables all have n=2;
        # their direct products with groups carry them to n=4, 6 and 12
        assert len(widened) == 18
        assert {H.n for H in widened} == {4, 6, 12}
        assert all(is_strongly_regular_hg(H) and _multivalued(H) for H in widened)
        tables += generated + widened
        strongly_regular = [H for H in tables if is_strongly_regular_hg(H)]
        assert 0 < len(strongly_regular) < len(tables)
        assert any(len(identities(H)) > 1 for H in tables)
        for H in strongly_regular:
            assert len(identities(H)) == 1
            assert unique_inverses(H) is not None

    def test_factor_structure(self, reg):
        H9 = reg.factors[0]
        assert reg.identities[0] == H9.index("e")
        assert reg.inverses[0][H9.index("x")] == H9.index("y")
        assert heart(H9) == H9.subset(["e", "a", "b", "c"])


class TestWords:
    def test_empty_word(self, reg):
        assert make_word(reg, []) == EMPTY_WORD

    def test_two_letter_word(self, reg):
        w = make_word(reg, [_letter(reg, 0, "x"), _letter(reg, 1, "a")])
        assert len(w.letters) == 2

    def test_adjacent_same_factor_rejected(self, reg):
        with pytest.raises(errors.AdjacentSameFactor):
            make_word(reg, [_letter(reg, 0, "x"), _letter(reg, 0, "y")])

    def test_identity_letter_rejected(self, reg):
        with pytest.raises(errors.IdentityLetter):
            make_word(reg, [_letter(reg, 0, "e")])

    def test_support(self, reg):
        x = _letter(reg, 0, "x")
        a = _letter(reg, 1, "a")
        w = make_word(reg, [x, a, x])
        assert oracles.support(w) == {x, a}
        assert oracles.support(EMPTY_WORD) == frozenset()

    @pytest.mark.parametrize("factor", [-1, -2, 2])
    def test_letter_refuses_a_factor_off_the_registry(self, reg, factor):
        # -1 and -2 would otherwise pick a factor by negative indexing
        message = f"^no factor {factor} in registry$"
        with pytest.raises(errors.ShapeMismatch, match=message):
            reg.letter(factor, 1)
        with pytest.raises(errors.ShapeMismatch, match=message):
            embed(reg, factor, 1)
        with pytest.raises(errors.ShapeMismatch, match=message):
            make_word(reg, [Letter(factor, 1)])


class TestInverseWord:
    def test_empty(self, reg):
        assert inverse_word(reg, EMPTY_WORD) == EMPTY_WORD

    def test_single_letter(self, reg):
        x = _letter(reg, 0, "x")
        inv = inverse_word(reg, ReducedWord((x,)))
        assert inv.letters[0].elem == reg.factors[0].index("y")

    def test_z_then_group_letter(self, reg):
        w = make_word(reg, [_letter(reg, 0, "z"), _letter(reg, 1, "a")])
        inv = inverse_word(reg, w)
        H9 = reg.factors[0]
        assert inv.letters[0] == _letter(reg, 1, "a")
        assert inv.letters[1].elem == H9.index("u")


class TestMultiply:
    def test_identity_word(self, reg):
        w = make_word(reg, [_letter(reg, 0, "x"), _letter(reg, 1, "a")])
        assert multiply(reg, EMPTY_WORD, w) == frozenset([w])
        assert multiply(reg, w, EMPTY_WORD) == frozenset([w])

    def test_distinct_factors_concatenate(self, reg):
        w1 = make_word(reg, [_letter(reg, 0, "x")])
        w2 = make_word(reg, [_letter(reg, 1, "a")])
        out = multiply(reg, w1, w2)
        assert out == frozenset([make_word(reg, [_letter(reg, 0, "x"), _letter(reg, 1, "a")])])

    def test_full_cancellation_of_sharp_inverse(self, reg):
        # the h9 element a is self inverse with a*a = {e}, so nothing spreads
        a = make_word(reg, [_letter(reg, 0, "a")])
        assert multiply(reg, a, inverse_word(reg, a)) == frozenset([EMPTY_WORD])

    def test_spread_cell_products(self, reg):
        x = make_word(reg, [_letter(reg, 0, "x")])
        out = multiply(reg, x, x)
        H9 = reg.factors[0]
        assert out == frozenset(
            [
                ReducedWord((Letter(0, H9.index("b")),)),
                ReducedWord((Letter(0, H9.index("c")),)),
            ]
        )

    def test_cancelling_boundary_spreads_nonidentity_members(self, reg):
        # x * y contains e and a: the product cancels and also spreads a
        H9 = reg.factors[0]
        x = make_word(reg, [_letter(reg, 0, "x")])
        y = make_word(reg, [_letter(reg, 0, "y")])
        out = multiply(reg, x, y)
        assert out == frozenset([EMPTY_WORD, ReducedWord((Letter(0, H9.index("a")),))])

    def test_cascading_cancellation(self, reg):
        w1 = make_word(
            reg, [_letter(reg, 0, "b"), _letter(reg, 1, "a"), _letter(reg, 0, "z")]
        )
        out = multiply(reg, w1, inverse_word(reg, w1))
        assert EMPTY_WORD in out

    def test_results_always_reduced(self, reg):
        rng = random.Random(5)
        pool = enumerate_words(reg, 3)
        for _ in range(300):
            w1 = pool[rng.randrange(len(pool))]
            w2 = pool[rng.randrange(len(pool))]
            for u in multiply(reg, w1, w2):
                # revalidates conditions (identity letters, adjacency)
                make_word(reg, u.letters)

    def test_associativity_sampled(self, reg):
        rng = random.Random(11)
        pool = enumerate_words(reg, 3)
        for _ in range(250):
            w1, w2, w3 = (pool[rng.randrange(len(pool))] for _ in range(3))
            left = multiply_sets(reg, multiply(reg, w1, w2), [w3])
            right = multiply_sets(reg, [w1], multiply(reg, w2, w3))
            assert left == right

    def test_bounded_reproduction(self, reg):
        # w2 is reachable from w1: w2 in w1 . (w1^-1 . w2)
        rng = random.Random(13)
        pool = enumerate_words(reg, 2)
        for _ in range(150):
            w1 = pool[rng.randrange(len(pool))]
            w2 = pool[rng.randrange(len(pool))]
            via = multiply(reg, inverse_word(reg, w1), w2)
            assert w2 in multiply_sets(reg, [w1], via)


class TestEmbedding:
    def test_identity_maps_to_empty(self, reg):
        assert embed(reg, 0, reg.identities[0]) == EMPTY_WORD

    def test_non_identity_single_letter(self, reg):
        H9 = reg.factors[0]
        assert embed(reg, 0, H9.index("x")) == ReducedWord((Letter(0, H9.index("x")),))

    def test_good_homomorphism_all_pairs(self, reg):
        H9 = reg.factors[0]
        for s in range(H9.n):
            for t in range(H9.n):
                lhs = multiply(reg, embed(reg, 0, s), embed(reg, 0, t))
                rhs = frozenset(embed(reg, 0, z) for z in H9.cell(s, t))
                assert lhs == rhs


class TestEnumeration:
    def test_zero_length(self, reg):
        assert enumerate_words(reg, 0) == [EMPTY_WORD]

    def test_single_factor_counts(self):
        reg1 = FactorRegistry([corpus.cyclic_group(4)])
        words = enumerate_words(reg1, 1)
        assert len(words) == 1 + 3

    def test_two_factor_counts(self):
        reg2 = FactorRegistry([corpus.cyclic_group(3), corpus.cyclic_group(3)])
        words = enumerate_words(reg2, 2)
        assert [len([w for w in words if len(w.letters) == k]) for k in (0, 1, 2)] == [1, 4, 8]

    def test_budget(self, reg):
        with pytest.raises(errors.BudgetExceeded):
            enumerate_words(reg, 4, budget=100)

    def test_canonical_order(self, reg):
        words = enumerate_words(reg, 2)
        keys = [w.sort_key() for w in words]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("names", [("z2", "z3", "z2"), ("h9", "s3", "v4")])
    def test_letter_by_letter_order_on_three_factors(self, names):
        # The canonical order compares all factors before any element,
        # so on three factors it differs from the enumeration's.
        reg = FactorRegistry([corpus.fixtures()[name] for name in names])
        words = enumerate_words(reg, 3)
        assert words == sorted(words, key=lambda w: (len(w.letters), w.letters))
        assert words != sorted(words, key=ReducedWord.sort_key)


class TestInverseUniqueness:
    def test_empty_word(self, reg):
        assert oracles.word_inverse_unique(reg, EMPTY_WORD, 2)

    def test_group_letter(self, group_reg):
        g = group_reg.letter(1, 1)
        assert oracles.word_inverse_unique(group_reg, ReducedWord((g,)), 2)

    def test_h9_letter(self, reg):
        x = _letter(reg, 0, "x")
        assert oracles.word_inverse_unique(reg, ReducedWord((x,)), 2)

    def test_longer_words(self, reg):
        pool = enumerate_words(reg, 3)
        rng = random.Random(17)
        for _ in range(12):
            w = pool[rng.randrange(len(pool))]
            assert oracles.word_inverse_unique(reg, w, 3, pool=pool)


class TestPhi:
    def test_empty(self, reg):
        assert phi(reg, EMPTY_WORD) == EMPTY_WORD

    def test_kernel_letters_vanish(self, reg):
        H9 = reg.factors[0]
        w = make_word(reg, [_letter(reg, 0, "b")])
        assert phi(reg, w) == EMPTY_WORD

    def test_kernel_letter_then_group_letter(self, reg):
        w = make_word(reg, [_letter(reg, 0, "b"), _letter(reg, 1, "a")])
        img = phi(reg, w)
        assert len(img) == 1
        assert img.letters[0].factor == 1

    def test_kernel_characterization(self, reg):
        # phi(w) = 1 exactly when every letter's class is its factor kernel
        pool = enumerate_words(reg, 2)
        for w in pool:
            in_kernel = all(
                l.elem in heart(reg.factors[l.factor]) for l in w.letters
            )
            assert (phi(reg, w) == EMPTY_WORD) == in_kernel

    def test_homomorphism_sampled(self, reg):
        rng = random.Random(23)
        pool = enumerate_words(reg, 3)
        target = reg.fundamental_registry()
        for _ in range(200):
            w1 = pool[rng.randrange(len(pool))]
            w2 = pool[rng.randrange(len(pool))]
            images = {phi(reg, u) for u in multiply(reg, w1, w2)}
            direct = multiply(target, phi(reg, w1), phi(reg, w2))
            assert images == direct

    def test_beta_equivalent_substitution_keeps_image(self, reg):
        # swapping a letter within its fundamental class fixes phi
        H9 = reg.factors[0]
        w = make_word(reg, [_letter(reg, 0, "z"), _letter(reg, 1, "a")])
        w2 = make_word(reg, [_letter(reg, 0, "u"), _letter(reg, 1, "a")])
        assert phi(reg, w) == phi(reg, w2)

    def test_multivalued_group_product_raises(self, reg, monkeypatch):
        # The check must survive python -O, so it cannot be an assert.
        import hyperkernel.freeprod as fp

        w = make_word(reg, [_letter(reg, 0, "x")])
        two = frozenset([EMPTY_WORD, w])
        monkeypatch.setattr(fp, "multiply", lambda registry, a, b: two)
        with pytest.raises(errors.NotStronglyRegular, match="2 words"):
            phi(reg, w)


class TestPsi:
    def test_empty_is_zero(self, group_reg):
        fam = group_reg.direct_sum_family()
        assert psi(fam, EMPTY_WORD).is_zero()

    def test_worked_products(self, group_reg):
        # w1 = s@0 g@1, w2 = a@2 r@3 with every letter nontrivial in the
        # abelianization: the product's image has support on all four factors
        w1 = make_word(group_reg, [group_reg.letter(0, 3), group_reg.letter(1, 1)])
        w2 = make_word(group_reg, [group_reg.letter(2, 1), group_reg.letter(3, 1)])
        prods = word_product(group_reg, [w1, w2])
        supports = {psi_image(group_reg, u).support for u in prods}
        assert len(supports) == 1
        assert [i for i, _ in supports.pop()] == [0, 1, 2, 3]

    def test_commutator_words_vanish(self, group_reg):
        rng = random.Random(29)
        pool = [w for w in enumerate_words(group_reg, 2) if not w.is_empty()]
        for _ in range(60):
            w1 = pool[rng.randrange(len(pool))]
            w2 = pool[rng.randrange(len(pool))]
            comm = word_product(
                group_reg,
                [w1, w2, inverse_word(group_reg, w1), inverse_word(group_reg, w2)],
            )
            for u in comm:
                assert psi_image(group_reg, u).is_zero()

    def test_additive_sampled(self, group_reg):
        rng = random.Random(31)
        fam = group_reg.direct_sum_family()
        pool = enumerate_words(group_reg, 2)
        for _ in range(150):
            w1 = pool[rng.randrange(len(pool))]
            w2 = pool[rng.randrange(len(pool))]
            prods = multiply(group_reg, w1, w2)
            want = freeprod.direct_sum_add(
                fam, psi_image(group_reg, w1), psi_image(group_reg, w2)
            )
            for u in prods:
                assert psi_image(group_reg, u) == want

    def test_family_mismatch(self, group_reg):
        fam = DirectSumFamily([validate_group([[0, 1], [1, 0]])])
        w = make_word(group_reg, [group_reg.letter(1, 1)])
        with pytest.raises(errors.FamilyMismatch):
            psi(fam, w)


PSI_FIXTURES = [("s3",), ("s3", "s3"), ("s3", "z3", "z2"), ("h9", "v4")]
PSI_SECONDS = ["z2", "s3", "h9"]


@pytest.fixture(scope="module")
def psi_registries(widened):
    """The registries of TestPsiSupports."""
    fixtures = corpus.fixtures()
    z2 = corpus.cyclic_group(2)
    return (
        [FactorRegistry([fixtures[name] for name in names]) for names in PSI_FIXTURES]
        + [
            FactorRegistry([s4_mod_double_transposition(), fixtures[second]])
            for second in PSI_SECONDS
        ]
        + [FactorRegistry([H, z2]) for H in widened]
    )


class TestPsiSupports:
    """The state route against psi_image on every word, and both against
    the composite route of the oracles: phi, then the commutator cosets
    of the fundamental groups."""

    @staticmethod
    def _per_word(reg, max_len):
        return {psi_image(reg, w).support for w in enumerate_words(reg, max_len)}

    @pytest.mark.parametrize("names", PSI_FIXTURES)
    def test_matches_per_word_images(self, names):
        reg = FactorRegistry([corpus.fixtures()[name] for name in names])
        for max_len in range(6):
            assert psi_supports(reg, max_len) == self._per_word(reg, max_len)

    @pytest.mark.parametrize("second", PSI_SECONDS)
    def test_matches_per_word_images_with_a_non_commutative_polygroup(self, second):
        # S4//<(01)(23)> has fundamental group S3, so its letters reach
        # the sum through a non-abelian group
        reg = FactorRegistry([s4_mod_double_transposition(), corpus.fixtures()[second]])
        for max_len in range(4):
            assert psi_supports(reg, max_len) == self._per_word(reg, max_len)

    def test_matches_per_word_images_on_multivalued_products(self, widened):
        z2 = corpus.cyclic_group(2)
        for H in widened:
            reg = FactorRegistry([H, z2])
            for max_len in range(6):
                assert psi_supports(reg, max_len) == self._per_word(reg, max_len)

    def test_gamma_quotients_are_the_abelianized_fundamental_groups(self, psi_registries):
        # gamma = delta * beta: H/gamma* is the abelianization of H/beta*,
        # names included, and the projection of H factors through beta
        assert len(psi_registries) == 4 + 3 + 18
        for reg in psi_registries:
            family = reg.direct_sum_family()
            fundamental = DirectSumFamily(reg.fundamental_registry().factors)
            assert family.abelianizations == fundamental.abelianizations
            assert family.identities == fundamental.identities
            for H, proj_H, proj_G in zip(
                reg.factors, family.projections, fundamental.projections
            ):
                b = beta(H)
                assert all(proj_G[b.class_of[x]] == y for x, y in enumerate(proj_H))

    def test_matches_the_composite_route(self, psi_registries):
        for reg in psi_registries:
            words = enumerate_words(reg, 3)
            want = {w: oracles.psi_support(reg, w) for w in words}
            assert {w: psi_image(reg, w).support for w in words} == want
            assert psi_supports(reg, 3) == set(want.values())


class TestClosure:
    def test_group_factors_always_pass(self, group_reg):
        rep = oracles.polygroup_closure_check(group_reg, max_len=2, samples=150, seed=3)
        assert rep.passed and rep.triples_checked == 150

    def test_h9_registry_passes(self, reg):
        rep = oracles.polygroup_closure_check(reg, max_len=3, samples=250, seed=5)
        assert rep.passed

    def test_closure_check_rejects_non_polygroup_factor(self):
        # strongly regular, so the registry accepts it, but its identity e
        # is not scalar: a*e = {e, a}
        H = HyperTable.from_sets(["e", "a"], [[[0], [1]], [[0, 1], [0, 1]]])
        reg = FactorRegistry([corpus.klein_four(), H])
        with pytest.raises(ValueError, match="factor 1 is not a polygroup"):
            oracles.polygroup_closure_check(reg, max_len=2, samples=10)


class TestConjectures:
    def test_report_structure(self, h9):
        rep = quotient_conjecture_report(
            [h9, corpus.klein_four()],
            [h9.subset(["e", "a"]), corpus.klein_four().subset(["e", "a"])],
            max_len=2,
        )
        f1 = rep.free_product_of_quotients
        assert f1["all_quotient_words_covered"]
        assert f1["base_words_with_identity_image"] == f1["sub_product_words"]
        assert rep.fundamental_formula["per_factor_quotients_isomorphic"]
        assert rep.fundamental_formula["images_cover_targets"]
        # the commutative formula's two sides are reported, not asserted
        assert "counts_agree" in rep.commutative_formula

    # Literal counts: the report counts word sets, so the order in which
    # multiply produces words must not change them.
    @pytest.mark.parametrize(
        "second, sub, free_product",
        [
            (
                "v4",
                ["e", "a"],
                {
                    "quotient_word_counts": [1, 6, 10, 30],
                    "covered_image_counts": [1, 6, 10, 30],
                    "all_quotient_words_covered": True,
                    "base_words_with_identity_image": 22,
                    "sub_product_words": 7,
                },
            ),
            (
                "s3",
                ["e", "r", "rr"],
                {
                    "quotient_word_counts": [1, 6, 10, 30],
                    "covered_image_counts": [1, 6, 10, 30],
                    "all_quotient_words_covered": True,
                    "base_words_with_identity_image": 45,
                    "sub_product_words": 14,
                },
            ),
        ],
    )
    def test_report_at_length_three(self, h9, second, sub, free_product):
        G = corpus.fixtures()[second]
        rep = quotient_conjecture_report(
            [h9, G], [h9.subset(["e", "a"]), G.subset(sub)], max_len=3
        )
        assert rep.max_len == 3
        assert rep.free_product_of_quotients == free_product
        assert rep.fundamental_formula == {
            "per_factor_quotients_isomorphic": True,
            "target_word_counts": [1, 4, 6, 12],
            "image_word_counts": [1, 4, 6, 12],
            "images_cover_targets": True,
        }
        assert rep.commutative_formula == {
            "summed_image_counts_by_support": [1, 4, 3, 0],
            "claimed_word_counts_by_length": [1, 4, 6, 12],
            "counts_agree": False,
        }

    def test_report_rejects_negative_max_len(self, h9):
        K = h9.subset(["e", "a"])
        with pytest.raises(errors.HyperError) as exc:
            quotient_conjecture_report([h9, h9], [K, K], max_len=-1)
        assert str(exc.value) == "max_len must be at least 0, got -1"
        assert not isinstance(exc.value, errors.ResourceExhausted)
        rep = quotient_conjecture_report([h9, h9], [K, K], max_len=0)
        assert rep.free_product_of_quotients == {
            "quotient_word_counts": [1],
            "covered_image_counts": [1],
            "all_quotient_words_covered": True,
            "base_words_with_identity_image": 1,
            "sub_product_words": 1,
        }
        assert rep.fundamental_formula == {
            "per_factor_quotients_isomorphic": True,
            "target_word_counts": [1],
            "image_word_counts": [1],
            "images_cover_targets": True,
        }
        assert rep.commutative_formula == {
            "summed_image_counts_by_support": [1],
            "claimed_word_counts_by_length": [1],
            "counts_agree": True,
        }


def _normal_subs(H):
    return [e.members for e in subhypergroups(H).all if e.normal]


# Factor pairs of the state tests; "d" is S4//<(01)(23)>.
PAIRS = [("h9", "v4"), ("h9", "s3"), ("h9", "h9"), ("d", "z2"), ("d", "s3"), ("d", "h9")]


def _targets(first, second):
    """The base registry of a pair, and for every pair of normal K_i the
    (registry, class maps) of the quotient and of the fundamental target."""
    tables = {**corpus.fixtures(), "d": s4_mod_double_transposition()}
    factors = [tables[first], tables[second]]

    def target(subs):
        reg = FactorRegistry([quotient_hypergroup(H, K) for H, K in zip(factors, subs)])
        return reg, [congruence_mod(H, K).class_of for H, K in zip(factors, subs)]

    targets = []
    for K1 in _normal_subs(factors[0]):
        for K2 in _normal_subs(factors[1]):
            lifted = [hyperproduct(H, heart(H), K) for H, K in zip(factors, [K1, K2])]
            targets.append((target([K1, K2]), target(lifted)))
    return FactorRegistry(factors), targets


def _check_walk(base, reg, maps, max_len, fundamental):
    """The walk's kernel count against the states of the oracle's walk.
    On a fundamental target every state's image is one word, since the
    target is a group."""
    states = oracles.image_counts(base, reg, maps, max_len)
    assert kernel_count(base, reg, maps, max_len) == sum(
        c for (_, image), c in states.items() if EMPTY_WORD in image
    )
    if fundamental:
        assert all(len(image) == 1 for _, image in states)


class TestStateCounts:
    """The state-count report against the per-word oracle."""

    @pytest.mark.parametrize("second", ["v4", "s3", "h9"])
    def test_matches_per_word_oracle_on_every_normal_pair(self, h9, second):
        G = corpus.fixtures()[second]
        for K1 in _normal_subs(h9):
            for K2 in _normal_subs(G):
                for max_len in (1, 2, 3):
                    args = ([h9, G], [K1, K2], max_len)
                    assert quotient_conjecture_report(
                        *args
                    ) == oracles.quotient_conjecture_report(*args)

    @pytest.mark.parametrize("second", ["z2", "s3", "h9"])
    def test_matches_per_word_oracle_with_a_non_commutative_polygroup(self, second):
        D, G = s4_mod_double_transposition(), corpus.fixtures()[second]
        assert len(_normal_subs(D)) == 4
        for K1 in _normal_subs(D):
            for K2 in _normal_subs(G):
                for max_len in (1, 2, 3):
                    args = ([D, G], [K1, K2], max_len)
                    assert quotient_conjecture_report(
                        *args
                    ) == oracles.quotient_conjecture_report(*args)

    @staticmethod
    def _assert_images_are_target_words(base, reg, maps, max_len):
        # The report takes the image counts to be the target's word
        # counts: the images lie among the target's words, and each target
        # word is the image of its letterwise lift.  Checked here on the
        # oracle's states, which project every base word.
        states = oracles.image_counts(base, reg, maps, max_len)
        words = set().union(*(image for _, image in states))
        for word in words:
            assert len(make_word(reg, word.letters).letters) <= max_len
        assert words == set(enumerate_words(reg, max_len))

    @pytest.mark.parametrize("first, second", PAIRS)
    def test_images_are_target_words(self, first, second):
        base, targets = _targets(first, second)
        for target in targets:
            for reg, maps in target:
                for max_len in (1, 2, 3):
                    self._assert_images_are_target_words(base, reg, maps, max_len)

    @pytest.mark.parametrize("first, second", PAIRS)
    def test_fundamental_images_follow_the_quotient_images(self, first, second):
        # The report walks the quotient target only.  Each fundamental
        # target is a group image of the quotient factor, so a base word's
        # fundamental image is one word fixed by its quotient image: per
        # (length, last factor) a fundamental walk would store at most as
        # many ids as the quotient walk, and the budget admits both.
        base, targets = _targets(first, second)
        words = enumerate_words(base, 3)
        for (qreg, qmaps), (treg, tmaps) in targets:
            follows = {}
            for w in words:
                last = w.letters[-1].factor if w.letters else -1
                state = (len(w.letters), last, project(qreg, w, qmaps))
                image = project(treg, w, tmaps)
                assert len(image) == 1
                assert follows.setdefault(state, image) == image

    @pytest.mark.parametrize("first, second", PAIRS)
    def test_walk_matches_state_oracle(self, first, second):
        base, targets = _targets(first, second)
        for target in targets:
            for fundamental, (reg, maps) in enumerate(target):
                for max_len in (1, 2, 3):
                    _check_walk(base, reg, maps, max_len, fundamental)

    def test_walk_matches_state_oracle_on_three_factors(self, h9):
        G, V = corpus.symmetric_group_3(), corpus.klein_four()
        factors = [h9, G, V]
        subs = [h9.subset(["e", "a"]), G.subset(["e", "r", "rr"]), V.subset(["e", "a"])]
        base = FactorRegistry(factors)
        lifted = [hyperproduct(H, heart(H), K) for H, K in zip(factors, subs)]
        for fundamental, targets in enumerate((subs, lifted)):
            reg = FactorRegistry([quotient_hypergroup(H, K) for H, K in zip(factors, targets)])
            maps = [congruence_mod(H, K).class_of for H, K in zip(factors, targets)]
            for max_len in (1, 2, 3):
                _check_walk(base, reg, maps, max_len, fundamental)
                self._assert_images_are_target_words(base, reg, maps, max_len)

    def test_walk_matches_state_oracle_on_h9_h9_at_length_four(self):
        base, targets = _targets("h9", "h9")
        for target in targets:
            for fundamental, (reg, maps) in enumerate(target):
                _check_walk(base, reg, maps, 4, fundamental)

    def test_walk_memory_on_h9_h9(self, h9):
        # The walk keeps int ids and one layer of states.  Frozensets of
        # ReducedWord peak near 35 MB here, and a set of the ids covered
        # near 7.8 MB, so the bound fails either.
        K = h9.subset(["e", "a"])
        base = FactorRegistry([h9, h9])
        target = FactorRegistry([quotient_hypergroup(h9, K)] * 2)
        maps = [congruence_mod(h9, K).class_of] * 2
        tracemalloc.start()
        try:
            kernel = kernel_count(base, target, maps, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel == 1663
        assert peak < 7_000_000

    def test_fundamental_target_that_is_no_group_is_refused(self, h9, monkeypatch):
        # Read with the heart {e}, the fundamental target of h9 would be the
        # multi-valued h9/{e,a}, whose images are not all single words.
        monkeypatch.setattr(freeprod, "heart", lambda H: H.subset(["e"]))
        K = h9.subset(["e", "a"])
        with pytest.raises(errors.NotStronglyRegular) as exc:
            quotient_conjecture_report([h9, h9], [K, K], 2)
        assert str(exc.value) == "factor 0: H/(S_beta K) is not a group"

    def test_matches_per_word_oracle_on_h9_h9_at_length_four(self, h9):
        K = h9.subset(["e", "a"])
        args = ([h9, h9], [K, K], 4)
        assert quotient_conjecture_report(*args) == oracles.quotient_conjecture_report(*args)

    def test_budget_threshold(self, h9, monkeypatch):
        # The one walk, over the quotient target, charges k per layer and
        # one per id each layer stores, per (last factor, image) state
        # reached at that length, counted here from one projection per
        # base word; the oracle route counts the base words it lists.
        G = corpus.klein_four()
        factors = [h9, G]
        subs = [h9.subset(["e", "a"]), G.subset(["e", "a"])]
        base = FactorRegistry(factors)
        reg = FactorRegistry([quotient_hypergroup(H, K) for H, K in zip(factors, subs)])
        maps = [congruence_mod(H, K).class_of for H, K in zip(factors, subs)]
        stored = {}
        for w in enumerate_words(base, 3):
            if w.letters:
                image = project(reg, w, maps)
                stored[len(w.letters), w.letters[-1].factor, image] = len(image)
        spend = 3 * 4 // 2 + sum(stored.values())
        words = len(enumerate_words(base, 3))
        for route, name, limit, message in (
            (quotient_conjecture_report, "IMAGE_BUDGET", spend,
             f"conjecture images: charged {spend} word ids by length 3, "
             f"over the budget of {spend - 1}"),
            (oracles.quotient_conjecture_report, "DEFAULT_WORD_BUDGET", words,
             f"more than {words - 1} words below length 3"),
        ):
            monkeypatch.setattr(freeprod, name, limit)
            assert route(factors, subs, 3).max_len == 3
            monkeypatch.setattr(freeprod, name, limit - 1)
            with pytest.raises(errors.BudgetExceeded) as exc:
                route(factors, subs, 3)
            assert str(exc.value) == message
            monkeypatch.undo()

    def test_one_letter_factors_are_charged_by_length(self):
        # Two states of one id per layer on z2, z2: the layers and ids
        # together charge L * (L + 1) / 2 + 2 * L, which passes 4,000,000
        # at L = 2826, by the second id of layer 2725.
        reg = FactorRegistry([corpus.cyclic_group(2)] * 2)
        maps = [[0, 1], [0, 1]]
        # Only the empty word's image is empty; each layer's two words are
        # not.
        assert kernel_count(reg, reg, maps, 2825) == 1
        message = (
            "conjecture images: charged 4000001 word ids by length 2725, "
            "over the budget of 4000000"
        )
        with pytest.raises(errors.BudgetExceeded) as exc:
            kernel_count(reg, reg, maps, 2826)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "names", [("z4",), ("h9", "v4"), ("s3", "z3", "z2"), ("h9", "h9")]
    )
    def test_word_counts_match_enumeration(self, names):
        reg = FactorRegistry([corpus.fixtures()[name] for name in names])
        sizes = [H.n - 1 for H in reg.factors]
        for max_len in range(5):
            words = enumerate_words(reg, max_len)
            counts = word_counts(sizes, max_len)
            assert counts == [sum(len(w.letters) == k for w in words) for k in range(max_len + 1)]

    def test_state_counts_sum_to_the_words_they_project(self, h9):
        # Letters of a factor that share a coset are one step with their
        # multiplicity; every base word lands in exactly one state.
        G = corpus.symmetric_group_3()
        factors = [h9, G]
        subs = [h9.subset(["e", "a"]), G.subset(["e", "r", "rr"])]
        base = FactorRegistry(factors)
        target = FactorRegistry(
            [quotient_hypergroup(H, K) for H, K in zip(factors, subs)]
        )
        maps = [congruence_mod(H, K).class_of for H, K in zip(factors, subs)]
        words = enumerate_words(base, 3)
        want: dict = {}
        for w in words:
            state = (w.letters[-1].factor if w.letters else -1, project(target, w, maps))
            want[state] = want.get(state, 0) + 1
        assert oracles.image_counts(base, target, maps, 3) == want
