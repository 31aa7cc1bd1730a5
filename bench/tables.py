"""Seeded input tables for the benchmark.

Every table the benchmark feeds to the command line is built here from
the library's fixtures with `core.direct_product`, then relabelled: the
seed permutes the element order while every label stays the same.  Census
order, lectic order and least-index representatives all follow index
order, so the permutation moves the work around without changing any
label-level answer.
"""

from __future__ import annotations

import random
from pathlib import Path

from hyperkernel import core, corpus, hypio

# Identity label of each ladder factor, used to spell the subhypergroup
# {e,a} x {identity} that `quotient --sub` takes on every rung.
FACTOR_IDENTITY = {"z2": "0", "z3": "0", "v4": "e", "s3": "e", "h9": "e"}

# Rungs of the size ladder: name -> second factor (None for h9 alone).
RUNGS = {
    "h9": None,
    "h9xz2": "z2",
    "h9xz3": "z3",
    "h9xv4": "v4",
    "h9xs3": "s3",
    "h9xh9": "h9",
}


def permuted(H: core.HyperTable, rng: random.Random) -> core.HyperTable:
    """H with its element order shuffled; labels and operation unchanged."""
    order = list(range(H.n))
    rng.shuffle(order)
    new_index = [0] * H.n
    for new, old in enumerate(order):
        new_index[old] = new

    def remap(mask: int) -> int:
        out = 0
        for old in core.bits(mask):
            out |= 1 << new_index[old]
        return out

    rows = [[remap(H.rows[a][b]) for b in order] for a in order]
    return core.HyperTable([H.names[i] for i in order], rows, name=H.name)


def base_table(name: str) -> core.HyperTable:
    """A fixture, or a ladder rung built as h9 times a fixture."""
    fixtures = corpus.fixtures()
    if name in fixtures:
        return fixtures[name]
    second = RUNGS[name]
    return core.direct_product(fixtures["h9"], fixtures[second], name=name)


def write_tables(files: dict[str, str], rng: random.Random, directory: Path) -> dict[str, Path]:
    """Write a permuted copy of a table per file; file stem -> path.

    `files` maps each file stem to the name of the table it holds.  Two
    stems that hold the same table get two independent element orders.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, name in files.items():
        path = directory / f"{stem}.hyp"
        path.write_text(hypio.format_hyp(permuted(base_table(name), rng)), encoding="utf-8")
        paths[stem] = path
    return paths


def quotient_sub(rung: str) -> str:
    """Labels of {e,a} x {identity} on a rung."""
    second = RUNGS[rung]
    if second is None:
        return "e,a"
    ident = FACTOR_IDENTITY[second]
    return f"e.{ident},a.{ident}"
