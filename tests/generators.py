"""Structured generators of small hypergroups for the test sweeps.

`corpus` is the desk-scale corpus the invariant checks run over: the
command line's fixtures plus a few more small tables, built once per
process.
"""

import random
from functools import lru_cache

from hyperkernel.core import (
    HyperTable,
    bits,
    direct_product,
    from_group,
    is_hypergroup,
    total_hypergroup,
)
from hyperkernel.corpus import cyclic_group, fixtures
from hyperkernel.quotients import quotient_hypergroup


def pair_hypergroup(n: int, name: str | None = None) -> HyperTable:
    """x*y = {x, y}: every nonempty subset is a subhypergroup, none of
    the proper ones closed."""
    rows = [[(1 << i) | (1 << j) for j in range(n)] for i in range(n)]
    return HyperTable([str(i) for i in range(n)], rows, name)


@lru_cache(maxsize=1)
def corpus() -> dict[str, HyperTable]:
    """The full desk-scale corpus the invariant checks run over."""
    out = dict(fixtures())
    out["z1"] = cyclic_group(1)
    out["z5"] = cyclic_group(5)
    out["z6"] = cyclic_group(6)
    out["total5"] = total_hypergroup(5, name="total5")
    out["pair3"] = pair_hypergroup(3, name="pair3")
    out["pair4"] = pair_hypergroup(4, name="pair4")
    t2 = out["total2"]
    z2 = out["z2"]
    out["t2xz2"] = direct_product(t2, z2, name="t2xz2")
    out["t2xt2"] = direct_product(t2, t2, name="t2xt2")
    H = out["h9"]
    out["h9-mod-heart"] = quotient_hypergroup(H, H.subset(["e", "a", "b", "c"]))
    Q = out["h9-quotient"]
    out["h9q-mod-kernel"] = quotient_hypergroup(Q, Q.subset(["K", "bK"]))
    return out


def small_corpus(max_n: int) -> dict[str, HyperTable]:
    return {name: H for name, H in corpus().items() if H.n <= max_n}


def random_hypergroups(seed, count, max_tries):
    """Distinct hypergroups with n <= 4: group tables with cells widened.

    Each candidate is z2, z3, z4 or v4 in a shuffled element order, with
    some cells a*b widened to the coset abK of a random subgroup K.
    Uniformly random cells, or a group's cells widened by random subsets,
    almost never associate once n >= 3.
    """
    rng = random.Random(seed)
    groups = [fixtures()[name] for name in ("z2", "z3", "z4", "v4")]
    found = {}
    tries = 0
    while len(found) < count and tries < max_tries:
        tries += 1
        G = rng.choice(groups)
        n = G.n
        order = list(range(n))
        rng.shuffle(order)
        mul = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                mul[order[a]][order[b]] = order[G.rows[a][b].bit_length() - 1]
        subgroups = [
            m for m in range(1, 1 << n) if all(1 << mul[a][b] & m for a in bits(m) for b in bits(m))
        ]
        K = rng.choice(subgroups)
        p = rng.choice([0.3, 0.6, 1.0])
        rows = [
            [
                sum(1 << mul[ab][k] for k in bits(K)) if rng.random() < p else 1 << ab
                for ab in line
            ]
            for line in mul
        ]
        H = HyperTable([str(i) for i in range(n)], rows)
        if H.rows not in found and is_hypergroup(H):
            found[H.rows] = H
    return list(found.values())


def permutation_group(gens, name=None):
    """Closure of the permutations gens (tuples, p[i] the image of i) under
    composition, p*q = p after q, as a group table with the identity first.

    Returns the table and the permutation of each element."""
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    for p in elems:  # grows while it is read: a breadth-first closure
        for g in gens:
            q = tuple(p[g[i]] for i in range(len(g)))
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    rows = [[index[tuple(p[q[i]] for i in range(len(q)))] for q in elems] for p in elems]
    return from_group(rows, name=name), elems


def double_coset_table(G, K, name=None):
    """G//K for a subgroup K of the group table G: the double cosets KgK,
    with KgK * KhK = {KgkhK : k in K}, labelled by least representative.

    Cells are ORed, not summed: one class can arise from several k."""
    mul = [[cell.bit_length() - 1 for cell in row] for row in G.rows]
    ks = list(bits(K))
    class_of = [-1] * G.n
    reps = []
    for g in range(G.n):
        if class_of[g] < 0:
            for k1 in ks:
                for k2 in ks:
                    class_of[mul[mul[k1][g]][k2]] = len(reps)
            reps.append(g)
    rows = []
    for g in reps:
        row = []
        for h in reps:
            cell = 0
            for k in ks:
                cell |= 1 << class_of[mul[mul[g][k]][h]]
            row.append(cell)
        rows.append(row)
    return HyperTable([G.names[r] for r in reps], rows, name)


def s4_mod_double_transposition():
    """S4//<(01)(23)>: n=8, multi-valued, non-commutative polygroup whose
    fundamental group is S3."""
    S4, perms = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)], name="s4")
    K = 1 << 0 | 1 << perms.index((1, 0, 3, 2))
    return double_coset_table(S4, K, name="s4//<(1, 0, 3, 2)>")


def double_coset_tables():
    """Double-coset hypergroups of S3, D4, A4 and S4 by subgroups of order 2."""
    out = {}
    for group, gens, k in (
        ("s3", [(1, 0, 2), (1, 2, 0)], (1, 0, 2)),
        ("d4", [(1, 2, 3, 0), (3, 2, 1, 0)], (3, 2, 1, 0)),
        ("a4", [(1, 2, 0, 3), (1, 0, 3, 2)], (1, 0, 3, 2)),
        ("s4", [(1, 0, 2, 3), (1, 2, 3, 0)], (1, 0, 2, 3)),
    ):
        G, perms = permutation_group(gens)
        name = f"{group}//<{k}>"
        out[name] = double_coset_table(G, 1 | 1 << perms.index(k), name=name)
    out["s4//<(1, 0, 3, 2)>"] = s4_mod_double_transposition()
    return out
