"""The closure-system routes against their brute-force oracles."""

import json
import random
from functools import lru_cache

import pytest

import generators
import oracles
from hyperkernel import core, corpus
from hyperkernel.cli import main
from hyperkernel.core import (
    ElementSet,
    HyperTable,
    closed_sets,
    direct_product,
    product_closure,
)
from hyperkernel.hypio import format_hyp
from hyperkernel.quotients import derived, heart, subhypergroups
from hyperkernel.relations import enumerate_strongly_regular


def _oracle_tables():
    """The corpus, the pair hypergroups (every subset closed) and h9 x z2."""
    out = dict(corpus.corpus())
    for n in range(1, 11):
        out[f"pair{n}"] = corpus.pair_hypergroup(n, name=f"pair{n}")
    out["h9xz2"] = direct_product(corpus.h9(), corpus.cyclic_group(2))
    return out


TABLES = _oracle_tables()


class TestClosedSets:
    def test_matches_brute_force_family(self):
        # Closure system of the down-sets of the divisibility order on 1..6.
        n = 6
        below = [
            sum(1 << (d - 1) for d in range(1, i + 2) if (i + 1) % d == 0)
            for i in range(n)
        ]

        def close(seed, forbidden):
            out = seed
            for i in range(n):
                if seed >> i & 1:
                    out |= below[i]
            return None if out & forbidden else out

        family = [
            m for m in range(1 << n)
            if all(m & below[i] == below[i] for i in range(n) if m >> i & 1)
        ]
        assert closed_sets(n, close) == family

    def test_product_closure_on_random_tables(self):
        # Any table, hypergroup or not: the closed sets are exactly the
        # subsets K with K*K inside K.
        rng = random.Random(5)
        for _ in range(300):
            n = rng.choice([3, 4, 5])
            rows = [[rng.randrange(1, 1 << n) for _ in range(n)] for _ in range(n)]
            H = HyperTable([str(i) for i in range(n)], rows)
            family = [m for m in range(1 << n) if H.mul_mask(m, m) | m == m]
            assert closed_sets(n, product_closure(H)) == family, rows


@pytest.mark.parametrize("name", sorted(TABLES))
def test_lattice_matches_powerset_scan(name):
    H = TABLES[name]
    assert subhypergroups(H).all == oracles.subhypergroup_entries(H)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_heart_and_derived_match_powerset_scan(name):
    H = TABLES[name]
    assert heart(H) == oracles.heart(H)
    assert derived(H) == oracles.derived(H)


@pytest.mark.parametrize("name", sorted(n for n, H in TABLES.items() if H.n <= 9))
def test_sr_relations_match_bell_scan(name):
    H = TABLES[name]
    assert enumerate_strongly_regular(H) == oracles.strongly_regular(H)


PREDICATES = ("is_subhypergroup", "is_closed", "is_normal")
# The oracles also define conjugability, which the lattice copies from closed.
FLAGS = PREDICATES + ("is_conjugable",)


def _predicate_cases():
    """Lists of (table, masks): every subset of each corpus table with
    n <= 9, of generated hypergroups and of random tables that are mostly
    not hypergroups, and for h9 x z2 the empty set, its lattice and seeded
    random masks."""
    out = {
        name: [(H, range(1 << H.n))] for name, H in corpus.small_corpus(9).items()
    }
    out["generated"] = [
        (H, range(1 << H.n)) for H in generators.random_hypergroups(7, 12, 4000)
    ]
    rng = random.Random(13)
    out["random"] = []
    for _ in range(200):
        n = rng.randint(2, 4)
        rows = [[rng.randrange(1, 1 << n) for _ in range(n)] for _ in range(n)]
        out["random"].append((HyperTable([str(i) for i in range(n)], rows), range(1 << n)))
    H = TABLES["h9xz2"]
    lattice = [K.mask for K in subhypergroups(H).sets()]
    out["h9xz2"] = [(H, [0, *lattice, *(rng.getrandbits(H.n) for _ in range(300))])]
    return out


PREDICATE_CASES = _predicate_cases()


@pytest.mark.parametrize("name", sorted(PREDICATE_CASES))
def test_subset_predicates_match_bit_loops(name):
    # Each core predicate, read from the memoised record and from one built
    # directly as the lattice builds it, against the bit-loop definition in
    # the oracles, on subhypergroups and not.
    for H, masks in PREDICATE_CASES[name]:
        assert 0 in masks
        for mask in masks:
            K = ElementSet(H.n, mask)
            record = core.build_cosets(H, mask)
            for pred in PREDICATES:
                expected = getattr(oracles, pred)(H, K)
                assert getattr(core, pred)(H, K) == expected, (pred, H.rows, mask)
                assert getattr(record, pred) == expected, (pred, H.rows, mask)


def test_predicate_cases_separate_every_flag():
    # Each flag comes out both ways on subhypergroups and on other sets, and
    # some closed set is not conjugable: a member hit with no x'.
    seen = set()
    for cases in PREDICATE_CASES.values():
        for H, masks in cases:
            for mask in masks:
                K = ElementSet(H.n, mask)
                flags = [getattr(oracles, pred)(H, K) for pred in FLAGS]
                seen.update(zip(FLAGS, [flags[0]] * 4, flags))
                if flags[1] and not flags[3]:
                    seen.add("closed, not conjugable")
    for pred in FLAGS[1:]:
        assert {(pred, sub, v) for sub in (False, True) for v in (False, True)} <= seen
    assert "closed, not conjugable" in seen


RUNG_FACTORS = {
    "h9xz2": corpus.cyclic_group(2),
    "h9xz3": corpus.cyclic_group(3),
    "h9xv4": corpus.klein_four(),
    "h9xs3": corpus.symmetric_group_3(),
    "h9xh9": corpus.h9(),
}


@lru_cache(maxsize=None)
def _table(name):
    """A corpus table, or the ladder rung h9 x factor."""
    if name in RUNG_FACTORS:
        return direct_product(corpus.h9(), RUNG_FACTORS[name], name=name)
    return corpus.corpus()[name]


@lru_cache(maxsize=None)
def _lattice(name):
    return subhypergroups(_table(name))


@pytest.mark.parametrize("name", sorted(corpus.corpus()) + list(RUNG_FACTORS))
def test_conjugable_equals_closed_on_the_lattice(name):
    # The oracle's is_conjugable, which searches an x' for every hit x,
    # agrees with closed on product-closed sets, so the lattice copies it.
    H = _table(name)
    for entry in _lattice(name).all:
        assert entry.conjugable == entry.closed
        assert oracles.is_conjugable(H, entry.members) == entry.closed, entry.members


def test_h9xh9_lattice_and_sr_counts(tmp_path, capsys):
    # Above the reach of the powerset and Bell oracles: counts of both routes.
    H = _table("h9xh9")
    assert len(_lattice("h9xh9").all) == 257
    assert len(enumerate_strongly_regular(H)) == 67
    path = tmp_path / "h9xh9.hyp"
    path.write_text(format_hyp(H), encoding="utf-8")
    assert main(["--json", "sr-enum", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 67
    assert doc["correspondence_counts_match"] is True
