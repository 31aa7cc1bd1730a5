"""The named fixtures that the command line accepts in place of files.

h9 is the 9-element canonical hypergroup whose fundamental-group
classes are {e,a,b,c}, {x,y}, {z,u}, {v}; h9-quotient is its quotient
by the subhypergroup {e,a}, spelled out as a literal golden table.
The wider corpus that the tests sweep is built from these in
tests/generators.py.
"""

from __future__ import annotations

from functools import lru_cache

from hyperkernel.core import HyperTable, from_group, total_hypergroup

# Carrier order e a b c x y z u v -> 0..8.
_H9_NAMES = ["e", "a", "b", "c", "x", "y", "z", "u", "v"]
_H9_GRID = [
    [[0], [1], [2], [3], [4], [5], [6], [7], [8]],
    [[1], [0], [3], [2], [4], [5], [7], [6], [8]],
    [[2], [3], [0], [1], [5], [4], [6], [7], [8]],
    [[3], [2], [1], [0], [5], [4], [7], [6], [8]],
    [[4], [4], [5], [5], [2, 3], [0, 1], [8], [8], [6, 7]],
    [[5], [5], [4], [4], [0, 1], [2, 3], [8], [8], [6, 7]],
    [[6], [7], [6], [7], [8], [8], [1, 3], [0, 2], [4, 5]],
    [[7], [6], [7], [6], [8], [8], [0, 2], [1, 3], [4, 5]],
    [[8], [8], [8], [8], [6, 7], [6, 7], [4, 5], [4, 5], [0, 1, 2, 3]],
]

# Carrier order K bK xK yK zK vK -> 0..5 (cosets of {e,a} in h9).
_H9Q_NAMES = ["K", "bK", "xK", "yK", "zK", "vK"]
_H9Q_GRID = [
    [[0], [1], [2], [3], [4], [5]],
    [[1], [0], [3], [2], [4], [5]],
    [[2], [3], [1], [0], [5], [4]],
    [[3], [2], [0], [1], [5], [4]],
    [[4], [4], [5], [5], [0, 1], [2, 3]],
    [[5], [5], [4], [4], [2, 3], [0, 1]],
]

_V4_ROWS = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def _cyclic_rows(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _s3_rows() -> tuple[list[str], list[list[int]]]:
    # Permutations as tuples p with p[i] the image of i; composition p after q.
    e = (0, 1, 2)
    r = (1, 2, 0)
    s = (1, 0, 2)

    def mul(p, q):
        return tuple(p[q[i]] for i in range(3))

    elems = [e, r, mul(r, r), s, mul(r, s), mul(mul(r, r), s)]
    names = ["e", "r", "rr", "s", "rs", "rrs"]
    rows = [[elems.index(mul(p, q)) for q in elems] for p in elems]
    return names, rows


def h9() -> HyperTable:
    return HyperTable.from_sets(_H9_NAMES, _H9_GRID, name="h9")


def h9_quotient() -> HyperTable:
    return HyperTable.from_sets(_H9Q_NAMES, _H9Q_GRID, name="h9-quotient")


def cyclic_group(n: int) -> HyperTable:
    return from_group(_cyclic_rows(n), name=f"z{n}")


def klein_four() -> HyperTable:
    return from_group(_V4_ROWS, names=["e", "a", "b", "c"], name="v4")


def symmetric_group_3() -> HyperTable:
    names, rows = _s3_rows()
    return from_group(rows, names=names, name="s3")


_FIXTURES = {
    "h9": h9,
    "h9-quotient": h9_quotient,
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "z4": lambda: cyclic_group(4),
    "v4": klein_four,
    "s3": symmetric_group_3,
    "total2": lambda: total_hypergroup(2, name="total2"),
    "total3": lambda: total_hypergroup(3, name="total3"),
    "total4": lambda: total_hypergroup(4, name="total4"),
}

# The names the command line accepts in place of files.
FIXTURE_NAMES = frozenset(_FIXTURES)


def fixture(name: str) -> HyperTable:
    """The named fixture, a new table on every call.

    The command line builds a fixture inside the command that loads it,
    so the table takes that command's memo (see core.shared_memos).
    """
    return _FIXTURES[name]()


@lru_cache(maxsize=1)
def fixtures() -> dict[str, HyperTable]:
    """Every named fixture, built once per process and shared afterwards.

    Each table equals what `fixture` builds for its name.  Built outside
    any command, each keeps a memo of its own.
    """
    return {name: fixture(name) for name in _FIXTURES}
