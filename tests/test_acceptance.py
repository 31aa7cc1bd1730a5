"""Acceptance suite: one test per criterion, exact tolerances, one
printed line per criterion (run with -s or -v to see them)."""

import random

import generators
import oracles
from oracles import find_isomorphism

from hyperkernel import corpus, freeprod as fp
from hyperkernel.cli import main as cli_main
from hyperkernel.core import hyperproduct, is_canonical, scalar_identity
from hyperkernel.hypio import format_hyp, parse_hyp
from hyperkernel.quotients import (
    check_abelian_quotient,
    check_group_quotient,
    correspondence_check,
    derived,
    heart,
    product_identities_check,
    quotient_hypergroup,
    subhypergroups,
)
from hyperkernel.relations import (
    beta,
    enumerate_strongly_regular,
    fundamental_group,
    gamma,
    gamma_oracle,
    kernel_S,
    quotient_by,
)


def _passed(num, label):
    print(f"[acceptance] criterion {num} ({label}): PASS")


def test_criterion_01_fundamental_relation_of_the_nine_element_table(h9):
    b = beta(h9)
    classes = {tuple(block.labels(h9.names)) for block in b.classes}
    assert classes == {("e", "a", "b", "c"), ("x", "y"), ("z", "u"), ("v",)}
    q = quotient_by(h9, b)
    assert q.is_group
    assert find_isomorphism(q.table, corpus.klein_four()) is not None
    assert kernel_S(h9, b) == h9.subset(["e", "a", "b", "c"])
    _passed(1, "nine-element fundamental relation")


def test_criterion_02_nine_element_quotient_table(h9, h9q):
    K = h9.subset(["e", "a"])
    Q = quotient_hypergroup(h9, K)
    assert Q.names == ("K", "bK", "xK", "yK", "zK", "vK")
    assert Q == h9q  # cell-for-cell, including the multi-valued cells
    z, v = Q.index("zK"), Q.index("vK")
    assert Q.cell(z, z) == Q.subset(["K", "bK"])
    assert Q.cell(z, v) == Q.subset(["xK", "yK"])
    assert kernel_S(Q, beta(Q)) == Q.subset(["K", "bK"])
    assert hyperproduct(h9, kernel_S(h9, beta(h9)), K) == h9.subset(
        ["e", "a", "b", "c"]
    )
    _passed(2, "nine-element quotient table")


def test_criterion_03_oracle_equivalence(h9, full_corpus):
    small = {name: H for name, H in full_corpus.items() if H.n <= 5}
    assert len(small) >= 12
    for name, H in small.items():
        assert gamma_oracle(H, nmax=4) == gamma(H), name
    assert gamma_oracle(h9, nmax=4) == gamma(h9)
    _passed(3, f"oracle equivalence on {len(small)} small instances plus h9")


def test_criterion_04_route_equality(full_corpus):
    for name, H in full_corpus.items():
        assert heart(H) == kernel_S(H, beta(H)) == oracles.heart(H), name
        assert derived(H) == kernel_S(H, gamma(H)) == oracles.derived(H), name
    _passed(4, "heart and derived route equality")


def test_criterion_05_group_quotient_theorems(full_corpus):
    mismatches = []
    for name, H in full_corpus.items():
        s_beta = kernel_S(H, beta(H))
        s_gamma = kernel_S(H, gamma(H))
        for entry in subhypergroups(H).all:
            if not entry.closed:
                continue
            K = entry.members
            if check_group_quotient(H, K) != (entry.normal and s_beta <= K):
                mismatches.append((name, "group", K.labels(H.names)))
            if check_abelian_quotient(H, K) != (s_gamma <= K):
                mismatches.append((name, "abelian", K.labels(H.names)))
    assert mismatches == []
    _passed(5, "quotient group theorems over all closed subhypergroups")


def test_criterion_06_correspondence_identities(h9, full_corpus):
    pairs = 0
    base_pair_seen = False
    for name, H in full_corpus.items():
        if not is_canonical(H):
            continue
        e = scalar_identity(H)
        for entry in subhypergroups(H).all:
            if e not in entry.members:
                continue
            report = correspondence_check(H, entry.members)
            assert report.holds, (name, entry.members.labels(H.names))
            pairs += 1
            if H is h9 or (name == "h9" and entry.members == H.subset(["e", "a"])):
                base_pair_seen = True
    assert pairs >= 6
    assert correspondence_check(h9, h9.subset(["e", "a"])).holds
    _passed(6, f"quotient correspondence identities on {pairs} canonical pairs")


def test_criterion_07_sr_correspondence_cardinality(full_corpus):
    checked = 0
    for name, H in full_corpus.items():
        if H.n > 6:
            continue
        found = enumerate_strongly_regular(H)
        lattice = subhypergroups(H)
        normal_closed = [
            e for e in lattice.all if e.normal and e.closed and e.contains_S_beta
        ]
        assert len(found) == len(normal_closed), name
        checked += 1
    assert checked >= 10
    _passed(7, f"strongly-regular correspondence cardinality on {checked} instances")


def test_criterion_08_product_identities(h9):
    z2 = corpus.cyclic_group(2)
    t2 = generators.corpus()["total2"]
    s3 = corpus.symmetric_group_3()
    v4 = corpus.klein_four()
    pairs = [
        (h9, z2),
        (h9, t2),
        (t2, z2),
        (z2, z2),
        (s3, z2),
        (s3, s3),
        (t2, t2),
        (v4, s3),
    ]
    for H1, H2 in pairs:
        report = product_identities_check(H1, H2)
        assert report.kernel_match, (H1.name, H2.name)
        assert report.gamma_quotient_iso, (H1.name, H2.name)
    assert len(pairs) >= 6
    _passed(8, f"direct-product identities on {len(pairs)} pairs")


def _registries():
    h9 = corpus.h9()
    v4 = corpus.klein_four()
    s3 = corpus.symmetric_group_3()
    return [
        fp.FactorRegistry([h9, v4]),
        fp.FactorRegistry([v4, s3]),
        fp.FactorRegistry([h9, s3, v4]),
    ]


def test_criterion_09_free_product_suite():
    rng = random.Random(20260810)
    pair_count = 0
    commutator_words = 0
    for reg in _registries():
        pool = fp.enumerate_words(reg, 4, budget=200_000)
        target = fp.FactorRegistry([fundamental_group(H, "operation") for H in reg.factors])
        fam = reg.direct_sum_family()
        for _ in range(350):
            w1 = pool[rng.randrange(len(pool))]
            w2 = pool[rng.randrange(len(pool))]
            w3 = pool[rng.randrange(len(pool))]
            pair_count += 1
            prod12 = fp.multiply(reg, w1, w2)
            # associativity as set equality
            left = fp.multiply_sets(reg, prod12, [w3])
            right = fp.multiply_sets(reg, [w1], fp.multiply(reg, w2, w3))
            assert left == right
            # letterwise projection is a homomorphism
            images = {fp.phi(reg, u) for u in prod12}
            direct = fp.multiply(target, fp.phi(reg, w1), fp.phi(reg, w2))
            assert images == direct
            # summed projection is additive
            want = fp.direct_sum_add(
                fam, fp.psi_image(reg, w1), fp.psi_image(reg, w2)
            )
            for u in prod12:
                assert fp.psi_image(reg, u) == want
        # unique two-sided inverses among all words up to length 4
        sample = [pool[rng.randrange(len(pool))] for _ in range(10)]
        sample.append(fp.EMPTY_WORD)
        for w in sample:
            assert oracles.word_inverse_unique(reg, w, 4, pool=pool)
        # commutator words vanish under the summed projection
        nonempty = [w for w in pool if not w.is_empty() and len(w.letters) <= 2]
        for _ in range(80):
            w1 = nonempty[rng.randrange(len(nonempty))]
            w2 = nonempty[rng.randrange(len(nonempty))]
            comm = fp.word_product(
                reg, [w1, w2, oracles.inverse_word(reg, w1), oracles.inverse_word(reg, w2)]
            )
            for u in comm:
                commutator_words += 1
                assert fp.psi_image(reg, u).support == ()
    assert pair_count >= 1000
    assert commutator_words >= 200
    _passed(
        9,
        f"free products: {pair_count} sampled pairs, "
        f"{commutator_words} commutator words",
    )


def test_criterion_10_polygroup_closure():
    for i, reg in enumerate(_registries()):
        report = oracles.polygroup_closure_check(reg, max_len=3, samples=500, seed=i)
        assert report.triples_checked >= 500
        assert report.passed
    _passed(10, "polygroup reversibility on 500 sampled triples per registry")


_CLI_VECTORS = [
    ("check", "h9"),
    ("check", "total4"),
    ("beta", "h9"),
    ("gamma", "h9"),
    ("gamma", "h9", "--oracle", "--nmax", "4"),
    ("heart", "h9"),
    ("derived", "s3"),
    ("subs", "h9", "--closed", "--normal"),
    ("quotient", "h9", "--sub", "e,a"),
    ("product", "h9", "z2"),
    ("sr-enum", "v4"),
    ("freeprod", "--factors", "h9,v4", "eval", "x@0 a@1 * y@0"),
    ("freeprod", "--factors", "s3,z4", "psi", "s@0 1@1 s@0"),
    ("freeprod", "--factors", "h9,v4", "conjectures", "--subs", "e,a;e,a"),
]


def test_criterion_11_determinism_and_round_trip(capsys):
    for argv in _CLI_VECTORS:
        for flags in ((), ("--json",)):
            outputs = []
            for _ in range(2):
                code = cli_main([*flags, *argv])
                captured = capsys.readouterr()
                assert code == 0, (argv, captured.err)
                outputs.append(captured.out)
            assert outputs[0] == outputs[1] and outputs[0], argv
    for name, H in corpus.fixtures().items():
        assert parse_hyp(format_hyp(H)) == H, name
    _passed(11, "command determinism and lossless round-trips")
