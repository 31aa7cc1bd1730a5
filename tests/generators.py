"""Structured generators of small hypergroups for the test sweeps."""

import random

from hyperkernel import corpus
from hyperkernel.core import HyperTable, bits, is_hypergroup


def random_hypergroups(seed, count, max_tries):
    """Distinct hypergroups with n <= 4: group tables with cells widened.

    Each candidate is z2, z3, z4 or v4 in a shuffled element order, with
    some cells a*b widened to the coset abK of a random subgroup K.
    Uniformly random cells, or a group's cells widened by random subsets,
    almost never associate once n >= 3.
    """
    rng = random.Random(seed)
    groups = [corpus.fixtures()[name] for name in ("z2", "z3", "z4", "v4")]
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
