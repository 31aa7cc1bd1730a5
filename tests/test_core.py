import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperkernel import core, corpus, errors
from hyperkernel.core import (
    ElementSet,
    HyperTable,
    direct_product,
    from_group,
    hyperproduct,
    identities,
    inverse_candidates,
    is_canonical,
    is_closed,
    is_commutative,
    is_hypergroup,
    is_normal,
    is_polygroup,
    is_quasihypergroup,
    is_regular_hg,
    is_semihypergroup,
    is_strongly_regular_hg,
    is_subhypergroup,
    left_division,
    right_division,
    total_hypergroup,
)


def _set(H, labels):
    return H.subset(labels)


class TestElementSet:
    def test_canonical_iteration_ascends(self):
        s = ElementSet.from_indices(5, [3, 0, 4])
        assert s.indices() == (0, 3, 4)
        assert list(s) == [0, 3, 4]

    def test_set_algebra(self):
        a = ElementSet.from_indices(4, [0, 1])
        b = ElementSet.from_indices(4, [1, 2])
        assert (a | b).indices() == (0, 1, 2)
        assert (a & b).indices() == (1,)
        assert (a - b).indices() == (0,)
        assert a & b <= a
        assert len(a) == 2 and bool(a)
        assert not ElementSet(4)

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(errors.InvalidTable):
            ElementSet(2, 0b100)

    @pytest.mark.parametrize("indices", [[-1], [0, -3], [3]])
    def test_out_of_range_index_rejected(self, indices):
        with pytest.raises(errors.InvalidTable):
            ElementSet.from_indices(3, indices)


class TestTableConstruction:
    def test_empty_cell_rejected(self):
        with pytest.raises(errors.InvalidTable):
            HyperTable(["0", "1"], [[1, 0], [1, 1]])

    def test_duplicate_label_rejected(self):
        with pytest.raises(errors.InvalidTable):
            HyperTable(["a", "a"], [[1, 1], [1, 1]])

    def test_unknown_label_lookup(self, h9):
        with pytest.raises(errors.UnknownLabel):
            h9.index("nope")

    @pytest.mark.parametrize("a, b", [(-1, 0), (0, -1), (9, 0), (0, 9)])
    def test_cell_outside_the_carrier_rejected(self, h9, a, b):
        with pytest.raises(errors.InvalidTable, match="out of range for carrier 9"):
            h9.cell(a, b)


class TestHyperproduct:
    def test_h9_singleton_x_x(self, h9):
        out = hyperproduct(h9, _set(h9, ["x"]), _set(h9, ["x"]))
        assert out == _set(h9, ["b", "c"])

    def test_singletons_reduce_to_cell(self, h9):
        a, b = h9.index("z"), h9.index("v")
        out = hyperproduct(h9, _set(h9, ["z"]), _set(h9, ["v"]))
        assert out == h9.cell(a, b)

    def test_union_of_cells(self, h9):
        out = hyperproduct(h9, _set(h9, ["e", "a"]), _set(h9, ["z"]))
        assert out == _set(h9, ["z", "u"])

    def test_empty_operand_rejected(self, h9):
        with pytest.raises(errors.EmptyOperand):
            hyperproduct(h9, ElementSet(h9.n), _set(h9, ["e"]))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_first_argument(self, data):
        H = corpus.h9()
        full = H.full_mask
        a = data.draw(st.integers(1, full))
        extra = data.draw(st.integers(0, full))
        b = data.draw(st.integers(1, full))
        small = hyperproduct(H, ElementSet(H.n, a), ElementSet(H.n, b))
        big = hyperproduct(H, ElementSet(H.n, a | extra), ElementSet(H.n, b))
        assert small <= big

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_set_level_associativity(self, data):
        H = corpus.h9()
        full = H.full_mask
        A, B, C = (ElementSet(H.n, data.draw(st.integers(1, full))) for _ in range(3))
        left = hyperproduct(H, hyperproduct(H, A, B), C)
        right = hyperproduct(H, A, hyperproduct(H, B, C))
        assert left == right


class TestDivisions:
    def test_h9_right_division(self, h9):
        out = right_division(h9, h9.index("v"), h9.index("x"))
        assert out == _set(h9, ["z", "u"])

    def test_group_division(self):
        G = corpus.cyclic_group(4)
        # b/c = b * c^-1 in a group: 1/3 -> 1 + (4-3) = 2
        assert right_division(G, 1, 3) == G.set_of([2])
        assert left_division(G, 1, 3) == G.set_of([2])

    def test_total_division_is_everything(self):
        T = total_hypergroup(3)
        assert right_division(T, 1, 2) == T.carrier()

    @pytest.mark.parametrize("division", [right_division, left_division])
    @pytest.mark.parametrize("b, c", [(-1, 0), (0, -1), (9, 0), (0, 9)])
    def test_element_outside_the_carrier_rejected(self, h9, division, b, c):
        with pytest.raises(errors.InvalidTable):
            division(h9, b, c)

    def test_divisions_nonempty_on_hypergroups(self, full_corpus):
        for H in full_corpus.values():
            for b in range(H.n):
                for c in range(H.n):
                    assert right_division(H, b, c)
                    assert left_division(H, b, c)


class TestAxiomPredicates:
    def test_h9_is_semihypergroup(self, h9):
        assert is_semihypergroup(h9) == (True, None)

    def test_group_lift_is_semihypergroup(self):
        assert is_semihypergroup(corpus.symmetric_group_3())[0]

    def test_two_element_counterexample(self):
        T = HyperTable(["0", "1"], [[1, 2], [1, 1]])
        ok, witness = is_semihypergroup(T)
        assert not ok
        assert witness == (1, 0, 1)

    def test_h9_is_quasihypergroup(self, h9):
        assert is_quasihypergroup(h9) == (True, None)

    def test_missing_row_element_fails_reproduction(self):
        T = HyperTable(["0", "1"], [[1, 1], [1, 3]])
        ok, witness = is_quasihypergroup(T)
        assert not ok
        assert witness == 0

    def test_total_is_quasihypergroup(self):
        assert is_quasihypergroup(total_hypergroup(4))[0]

    def test_h9_hypergroup_and_commutative(self, h9):
        assert is_hypergroup(h9)
        assert is_commutative(h9)

    def test_s3_not_commutative(self):
        G = corpus.symmetric_group_3()
        assert is_hypergroup(G)
        assert not is_commutative(G)


class TestIdentitiesAndInverses:
    def test_h9_identities(self, h9):
        assert identities(h9) == _set(h9, ["e"])

    def test_total_identities_everything(self):
        T = total_hypergroup(4)
        assert identities(T) == T.carrier()

    def test_group_identity(self):
        G = corpus.cyclic_group(5)
        assert identities(G) == G.set_of([0])

    def test_h9_inverse_of_z(self, h9):
        cl, cr, c = inverse_candidates(h9, h9.index("z"))
        assert c == _set(h9, ["u"])

    def test_group_inverse(self):
        G = corpus.cyclic_group(5)
        assert inverse_candidates(G, 2)[2] == G.set_of([3])

    def test_left_right_symmetry(self, h9):
        for H in (h9, total_hypergroup(3), corpus.symmetric_group_3()):
            for x in range(H.n):
                cl_x = inverse_candidates(H, x)[0]
                for y in range(H.n):
                    assert (y in cl_x) == (x in inverse_candidates(H, y)[1])


class TestRegularityPredicates:
    def test_h9_strongly_regular(self, h9):
        assert is_regular_hg(h9)
        assert is_strongly_regular_hg(h9)

    def test_total2_regular_not_strongly(self):
        T = total_hypergroup(2)
        assert is_regular_hg(T)
        assert not is_strongly_regular_hg(T)

    def test_groups_strongly_regular(self):
        assert is_strongly_regular_hg(corpus.symmetric_group_3())

    def test_requires_hypergroup(self):
        T = HyperTable(["0", "1"], [[1, 1], [1, 1]])
        with pytest.raises(errors.NotAHypergroup):
            is_regular_hg(T)


class TestCanonicalAndPolygroup:
    def test_h9_canonical(self, h9):
        assert is_canonical(h9)

    def test_abelian_group_canonical(self):
        assert is_canonical(corpus.klein_four())

    def test_total_not_canonical(self):
        assert not is_canonical(total_hypergroup(3))

    def test_s3_polygroup_not_canonical(self):
        G = corpus.symmetric_group_3()
        assert is_polygroup(G)
        assert not is_canonical(G)

    def test_canonical_implies_strongly_regular(self, full_corpus):
        for H in full_corpus.values():
            if is_canonical(H):
                assert is_strongly_regular_hg(H)


class TestSubsetPredicates:
    def test_h9_ea_is_canonical_subhypergroup(self, h9):
        K = _set(h9, ["e", "a"])
        assert is_subhypergroup(h9, K)
        assert is_closed(h9, K)
        assert is_normal(h9, K)

    def test_whole_carrier_is_subhypergroup(self, h9):
        K = h9.carrier()
        assert is_subhypergroup(h9, K)
        assert is_closed(h9, K)
        assert is_normal(h9, K)

    def test_h9_ex_not_subhypergroup(self, h9):
        assert not is_subhypergroup(h9, _set(h9, ["e", "x"]))

    @pytest.mark.parametrize("pred", [is_subhypergroup, is_closed, is_normal])
    @pytest.mark.parametrize("K", [ElementSet(20, 1 << 15), ElementSet(2, 1)])
    def test_set_outside_the_carrier_rejected(self, h9, pred, K):
        # a larger carrier once indexed past the table, a smaller one was
        # answered as the subset of h9 with the same mask
        with pytest.raises(errors.ShapeMismatch, match="sets over different carriers"):
            pred(h9, K)

    def test_total_only_whole(self):
        T = total_hypergroup(3)
        subs = [
            m
            for m in range(1, 8)
            if is_subhypergroup(T, ElementSet(3, m))
        ]
        assert subs == [7]


class TestConstructions:
    def test_from_group_z2(self):
        G = from_group([[0, 1], [1, 0]])
        assert G.n == 2
        assert G.cell(0, 1) == G.set_of([1])

    def test_from_group_rejects_bad_table(self):
        with pytest.raises(errors.InvalidGroupTable):
            from_group([[0, 1], [1, 1]])

    def test_direct_product_size_and_cells(self):
        T = total_hypergroup(2)
        Z = corpus.cyclic_group(2)
        P = direct_product(T, Z)
        assert P.n == 4
        # (a1,a2)*(b1,b2) hits {(c1,c2): c1 in a1b1, c2 in a2b2}, row-major.
        a, b = 0 * 2 + 1, 1 * 2 + 0  # (0,1), (1,0)
        expected = {c1 * 2 + c2 for c1 in (0, 1) for c2 in (1,)}
        assert set(P.cell(a, b)) == expected

    def test_direct_product_matches_the_bit_loop(self):
        # the ladder rungs, then random factors whose product is wider than
        # 64 bits, so a cell spreads past one machine word
        import random

        import oracles

        fixtures = corpus.fixtures()
        pairs = [(fixtures["h9"], fixtures[s]) for s in ("z2", "z3", "v4", "s3", "h9")]
        rng = random.Random(4)
        while len(pairs) < 25:
            n1, n2 = rng.randint(5, 12), rng.randint(5, 12)
            if n1 * n2 > 64:
                pairs.append(tuple(
                    HyperTable([str(i) for i in range(n)],
                               [[rng.randrange(1, 1 << n) for _ in range(n)] for _ in range(n)])
                    for n in (n1, n2)
                ))
        for H1, H2 in pairs:
            P = direct_product(H1, H2, name="p")
            Q = oracles.direct_product(H1, H2, name="p")
            assert (P, P.name) == (Q, Q.name)

    def test_structure_report_consistency(self, full_corpus):
        for H in full_corpus.values():
            rep = core.structure_report(H)
            assert rep.is_hypergroup == (
                rep.is_semihypergroup and rep.is_quasihypergroup
            )
            for flag in (
                "is_semihypergroup",
                "is_quasihypergroup",
                "is_hypergroup",
                "is_commutative",
                "is_canonical",
                "is_regular_hg",
                "is_strongly_regular_hg",
                "is_polygroup",
            ):
                if not getattr(rep, flag):
                    assert flag in rep.witnesses


def _cell_loop_predicates(H):
    """Reproduction witness, scalar identity and commutativity witness,
    cell by cell from their definitions."""
    n, rows = H.n, H.rows
    quasi = (True, None)
    for a in range(n):
        row = col = 0
        for x in range(n):
            row |= rows[a][x]
            col |= rows[x][a]
        if row != H.full_mask or col != H.full_mask:
            quasi = (False, a)
            break
    scalar = next(
        (e for e in range(n) if all(rows[e][x] == 1 << x == rows[x][e] for x in range(n))),
        None,
    )
    pairs = ((a, b) for a in range(n) for b in range(a + 1, n))
    comm = next(((a, b) for a, b in pairs if rows[a][b] != rows[b][a]), None)
    return quasi, scalar, comm


def _row_predicate_tables():
    import random

    import generators

    rng = random.Random(3)
    out = list(corpus.corpus().values()) + generators.random_hypergroups(9, 40, 4000)
    for _ in range(200):
        n = rng.randint(1, 5)
        out.append(HyperTable([str(i) for i in range(n)],
                              [[rng.randrange(1, 1 << n) for _ in range(n)] for _ in range(n)]))
    # Hypergroups with the scalar identity 0 and unique inverses that are
    # not reversible.  The least failing triple of the first breaks z in
    # y'*x and of the second y in x*z'; the other half fails later.
    for rows in ([[1, 2, 4, 8], [2, 2, 6, 11], [4, 15, 15, 12], [8, 11, 15, 8]],
                 [[1, 2, 4, 8], [2, 2, 6, 15], [4, 6, 13, 8], [8, 15, 13, 8]]):
        out.append(HyperTable([str(i) for i in range(4)], rows))
    for G in (corpus.cyclic_group(4), corpus.klein_four(), corpus.symmetric_group_3()):
        for _ in range(20):
            rows = [list(r) for r in G.rows]
            a, b = rng.randrange(G.n), rng.randrange(G.n)
            rows[a][b] |= 1 << rng.randrange(G.n)
            out.append(HyperTable(G.names, rows))
    return out


def test_row_predicates_match_cell_loops():
    # The axiom and identity predicates read whole rows and columns, and
    # each class flag comes from one witness function; check the predicates
    # and structure_report against cell loops and the oracles' definitions
    # on corpus, generated, random and perturbed tables.
    import oracles

    seen = set()
    for H in _row_predicate_tables():
        quasi, scalar, comm = _cell_loop_predicates(H)
        assert is_quasihypergroup(H) == quasi, H.rows
        assert core.scalar_identity(H) == scalar, H.rows
        assert core.commutativity_witness(H) == comm, H.rows
        expected = {
            "is_hypergroup": oracles.is_hypergroup(H),
            "is_regular_hg": oracles.is_regular_hg(H),
            "is_strongly_regular_hg": oracles.is_strongly_regular_hg(H),
            "is_polygroup": oracles.is_polygroup(H),
        }
        expected["is_canonical"] = expected["is_polygroup"] and comm is None
        rep = core.structure_report(H)
        assert {flag: getattr(rep, flag) for flag in expected} == expected, H.rows
        assert is_polygroup(H) == expected["is_polygroup"], H.rows
        assert is_canonical(H) == expected["is_canonical"], H.rows
        sets = oracles.inverse_sets(H)
        unique = all(len(c) == 1 for c in sets)
        assert core.unique_inverses(H) == (tuple(min(c) for c in sets) if unique else None)
        if expected["is_hypergroup"]:
            assert is_regular_hg(H) == expected["is_regular_hg"], H.rows
            assert is_strongly_regular_hg(H) == expected["is_strongly_regular_hg"], H.rows
            if oracles.identities(H):
                no_inverse = next((x for x, c in enumerate(sets) if not c), None)
                assert rep.witnesses.get("is_regular_hg", (None,)) == (no_inverse,)
            if scalar is not None and unique:
                failure = oracles.reversibility_witness(H)
                witness = failure and ("reversibility", *failure)
                assert rep.witnesses.get("is_polygroup") == witness, H.rows
        seen.update(expected.items())
    # every flag comes out both ways
    assert len(seen) == 2 * len(expected)
