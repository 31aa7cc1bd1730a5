"""Carriers, bitmask set algebra, Cayley-table hypergroupoids, predicates.

Elements are integers 0..n-1 indexing a label list; subsets of the
carrier are bitmasks wrapped in ElementSet.  A HyperTable is an n x n
grid of nonempty subsets: rows[a][b] is the value of a*b.  Everything is
immutable after construction and all operations are pure functions.

Each structural class (hypergroup, regular, strongly regular, polygroup,
canonical) has one witness function: None when the class holds, else
the witness `check` prints.  The is_* predicates and structure_report
only read them.

The lists K*x and x*K over every x make one Cosets record per subset K,
built by build_cosets and memoised per (rows, K) by cosets.  Whether K
is a subhypergroup, closed or normal is a property of that record.
"""

from __future__ import annotations

import contextlib
import functools
import re
from operator import or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from hyperkernel import errors, kernels


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _check_elements(n: int, *xs: int) -> None:
    """Refuse an element index outside 0..n-1, where Python would wrap it."""
    for x in xs:
        if not 0 <= x < n:
            raise errors.InvalidTable(f"element {x} out of range for carrier {n}")


class ElementSet:
    """Subset of a fixed carrier of size n, canonical bitmask form.

    Iteration and serialization list members by ascending index.  The
    empty set is representable (intersections need it) but operations
    that require nonempty operands reject it.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0 or mask < 0 or mask >> n:
            raise errors.InvalidTable(f"mask {mask:#x} out of range for carrier {n}")
        self.n = n
        self.mask = mask

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "ElementSet":
        indices = tuple(indices)
        _check_elements(n, *indices)
        return cls(n, mask_of(indices))

    def indices(self) -> tuple[int, ...]:
        return tuple(bits(self.mask))

    def labels(self, names: Sequence[str]) -> tuple[str, ...]:
        return tuple(names[i] for i in bits(self.mask))

    def __iter__(self) -> Iterator[int]:
        return bits(self.mask)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.n and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check(self, other: "ElementSet") -> None:
        if self.n != other.n:
            raise errors.ShapeMismatch("sets over different carriers")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check(other)
        return ElementSet(self.n, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._check(other)
        return self.mask | other.mask == other.mask

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"ElementSet({self.n}, {{{','.join(map(str, self.indices()))}}})"


class Partition:
    """Equivalence relation on 0..n-1 as a canonical partition.

    Class ids are assigned in order of least member, so equal relations
    compare equal structurally.
    """

    __slots__ = ("n", "class_of", "classes")

    def __init__(self, n: int, class_of: Sequence[int]):
        if len(class_of) != n:
            raise errors.ShapeMismatch("class_of length differs from carrier")
        relabel: dict[int, int] = {}
        canon = []
        for c in class_of:
            if c not in relabel:
                relabel[c] = len(relabel)
            canon.append(relabel[c])
        self.n = n
        self.class_of = tuple(canon)
        masks = [0] * len(relabel)
        for i, c in enumerate(canon):
            masks[c] |= 1 << i
        self.classes = tuple(ElementSet(n, m) for m in masks)

    @classmethod
    def from_classes(cls, n: int, classes: Iterable[Iterable[int]]) -> "Partition":
        class_of = [-1] * n
        for cid, members in enumerate(classes):
            for i in members:
                if not 0 <= i < n:
                    raise errors.ShapeMismatch(f"element {i} outside 0..{n - 1}")
                if class_of[i] != -1:
                    raise errors.ShapeMismatch(f"element {i} in two classes")
                class_of[i] = cid
        if -1 in class_of:
            raise errors.ShapeMismatch("classes do not cover the carrier")
        return cls(n, class_of)

    def sort_key(self) -> tuple:
        return (len(self.classes), tuple(c.mask for c in self.classes))

    def __len__(self) -> int:
        return len(self.classes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Partition)
            and self.n == other.n
            and self.class_of == other.class_of
        )

    def __hash__(self) -> int:
        return hash((self.n, self.class_of))

    def __repr__(self) -> str:
        blocks = "|".join(",".join(map(str, c.indices())) for c in self.classes)
        return f"Partition({self.n}, {blocks})"


_LABEL = re.compile(r"[^\s{},:#@*\"']+")


def is_label(lab: str) -> bool:
    """Nonempty, with no whitespace and none of the characters {},:#@*"'."""
    return _LABEL.fullmatch(lab) is not None


def _check_names(names: Sequence[str]) -> tuple[str, ...]:
    out = tuple(names)
    seen = set()
    for lab in out:
        if not is_label(lab):
            raise errors.InvalidTable(f"bad element label {lab!r}")
        if lab in seen:
            raise errors.InvalidTable(f"duplicate element label {lab!r}")
        seen.add(lab)
    return out


# rows -> memo dict of the command in progress (see shared_memos), or None.
_shared_memos: dict | None = None


@contextlib.contextmanager
def shared_memos():
    """Tables with equal rows built inside this scope share one memo."""
    global _shared_memos
    outer, _shared_memos = _shared_memos, {}
    try:
        yield
    finally:
        _shared_memos = outer


class HyperTable:
    """Finite hypergroupoid: labels plus an n x n grid of nonempty subsets.

    memo holds the results of the per_table functions on this table; it
    takes no part in equality or hashing.  Inside shared_memos, every
    table with the same rows holds the same memo dict.
    """

    __slots__ = ("n", "names", "rows", "name", "_index", "memo")

    def __init__(
        self,
        names: Sequence[str],
        rows: Sequence[Sequence[int]],
        name: str | None = None,
    ):
        self.names = _check_names(names)
        n = len(self.names)
        if n == 0:
            raise errors.InvalidTable("empty carrier")
        if len(rows) != n or any(len(r) != n for r in rows):
            raise errors.InvalidTable("table is not n x n")
        full = (1 << n) - 1
        for a, row in enumerate(rows):
            if min(row) > 0 and max(row) <= full:
                continue  # every cell nonempty and inside the carrier
            for b, cell in enumerate(row):
                if cell == 0:
                    raise errors.InvalidTable(f"empty cell at ({a},{b})")
                if cell & ~full:
                    raise errors.InvalidTable(f"cell ({a},{b}) references absent elements")
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)
        self.name = name
        self._index = {lab: i for i, lab in enumerate(self.names)}
        self.memo: dict = (
            {} if _shared_memos is None else _shared_memos.setdefault(self.rows, {})
        )

    @classmethod
    def from_sets(
        cls,
        names: Sequence[str],
        grid: Sequence[Sequence[Iterable[int]]],
        name: str | None = None,
    ) -> "HyperTable":
        return cls(names, [[mask_of(cell) for cell in row] for row in grid], name)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise errors.UnknownLabel(f"unknown element {label!r}") from None

    def subset(self, labels: Iterable[str]) -> ElementSet:
        return ElementSet(self.n, mask_of(self.index(lab) for lab in labels))

    def set_of(self, indices: Iterable[int]) -> ElementSet:
        return ElementSet.from_indices(self.n, indices)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def carrier(self) -> ElementSet:
        return ElementSet(self.n, self.full_mask)

    def cell(self, a: int, b: int) -> ElementSet:
        _check_elements(self.n, a, b)
        return ElementSet(self.n, self.rows[a][b])

    def mul_mask(self, amask: int, bmask: int) -> int:
        """Union of the cells a*b over (a, b) in amask x bmask."""
        rows = self.rows
        out = 0
        m = amask
        while m:
            low = m & -m
            row = rows[low.bit_length() - 1]
            m ^= low
            mb = bmask
            while mb:
                lb = mb & -mb
                out |= row[lb.bit_length() - 1]
                mb ^= lb
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, HyperTable)
            and self.names == other.names
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.names, self.rows))

    def __repr__(self) -> str:
        tag = self.name or f"{self.n} elements"
        return f"HyperTable({tag})"


def per_table(fn: Callable | None = None, *, labelled: bool = False) -> Callable:
    """Memoise fn(H, *args) on the rows of the table H, which is immutable.

    Tables with equal rows may share a memo (see shared_memos), so a
    result that carries H's labels needs @per_table(labelled=True),
    which keys it on H.names too.

    The key is (fn, args), so every argument is passed positionally.  A
    default would key one fact twice, as fn(H) and fn(H, d), so
    decorating a function that has one raises TypeError.  A bad call
    raises TypeError and leaves no entry; an exception is never cached.
    Only functions with hashable arguments and immutable results (or,
    like the lists of Cosets, read-only ones) qualify.
    """
    if fn is None:
        return functools.partial(per_table, labelled=labelled)
    if fn.__defaults__:
        raise TypeError(f"per_table: {fn.__qualname__}() has defaults")

    @functools.wraps(fn)
    def memoised(H: HyperTable, *args):
        key = (fn, args, H.names) if labelled else (fn, args)
        memo = H.memo
        if key in memo:
            return memo[key]
        result = memo[key] = fn(H, *args)
        return result

    return memoised


class StructureReport(NamedTuple):
    """Axiom flags plus a witness for every flag that came out false."""

    is_semihypergroup: bool
    is_quasihypergroup: bool
    is_hypergroup: bool
    is_commutative: bool
    is_canonical: bool
    is_regular_hg: bool
    is_strongly_regular_hg: bool
    is_polygroup: bool
    identities: ElementSet
    witnesses: dict


def hyperproduct(H: HyperTable, A: ElementSet, B: ElementSet) -> ElementSet:
    """Union of all cells a*b over (a, b) in A x B."""
    if not A or not B:
        raise errors.EmptyOperand("hyperproduct needs nonempty operands")
    return ElementSet(H.n, H.mul_mask(A.mask, B.mask))


def right_division(H: HyperTable, b: int, c: int) -> ElementSet:
    """b/c: all w with b in w*c."""
    _check_elements(H.n, b, c)
    bit = 1 << b
    return ElementSet(H.n, mask_of(w for w in range(H.n) if H.rows[w][c] & bit))


def left_division(H: HyperTable, b: int, c: int) -> ElementSet:
    """c\\b: all w with b in c*w."""
    _check_elements(H.n, b, c)
    bit = 1 << b
    row = H.rows[c]
    return ElementSet(H.n, mask_of(w for w in range(H.n) if row[w] & bit))


@per_table
def _columns(H: HyperTable) -> tuple[tuple[int, ...], ...]:
    """_columns(H)[b][a] is the cell a*b."""
    return tuple(zip(*H.rows))


@per_table
def is_semihypergroup(H: HyperTable) -> tuple[bool, tuple[int, int, int] | None]:
    """Associativity over all triples; returns the least failing one."""
    packed = kernels.assoc_witness(H.rows, H.n)
    if packed < 0:
        return True, None
    ab, c = divmod(packed, H.n)
    a, b = divmod(ab, H.n)
    return False, (a, b, c)


@per_table
def is_quasihypergroup(H: HyperTable) -> tuple[bool, int | None]:
    """Reproduction law a*H = H*a = H; returns the least failing element."""
    full = H.full_mask
    for a, (row, col) in enumerate(zip(H.rows, _columns(H))):
        if functools.reduce(or_, row) != full or functools.reduce(or_, col) != full:
            return False, a
    return True, None


@per_table
def hypergroup_witness(H: HyperTable) -> tuple | None:
    """None on an associative, reproductive table; else the least
    failing triple of associativity, or (a,) for the least a that breaks
    reproduction."""
    semi, triple = is_semihypergroup(H)
    if not semi:
        return triple
    quasi, a = is_quasihypergroup(H)
    return None if quasi else (a,)


def is_hypergroup(H: HyperTable) -> bool:
    return hypergroup_witness(H) is None


def commutativity_witness(H: HyperTable) -> tuple[int, int] | None:
    for a, (row, col) in enumerate(zip(H.rows, _columns(H))):
        if row != col:
            return (a, next(b for b in range(a + 1, H.n) if row[b] != col[b]))
    return None


def is_commutative(H: HyperTable) -> bool:
    return commutativity_witness(H) is None


@per_table
def identities(H: HyperTable) -> ElementSet:
    """Two-sided identities: e with x in e*x and x in x*e for all x."""
    out = 0
    for e in range(H.n):
        if all(
            H.rows[e][x] >> x & 1 and H.rows[x][e] >> x & 1 for x in range(H.n)
        ):
            out |= 1 << e
    return ElementSet(H.n, out)


def scalar_identity(H: HyperTable) -> int | None:
    """The e with e*x = x*e = {x} for every x, if it exists."""
    singletons = tuple(1 << x for x in range(H.n))
    lines = enumerate(zip(H.rows, _columns(H)))
    return next((e for e, (row, col) in lines if row == singletons == col), None)


def inverse_candidates(H: HyperTable, x: int) -> tuple[ElementSet, ElementSet, ElementSet]:
    """(C_L, C_R, C): elements whose product with x meets the identities.

    C_L collects y with identities meeting y*x, C_R with identities
    meeting x*y, and C is their intersection.  Membership is symmetric
    across sides: y in C_L(x) iff x in C_R(y).
    """
    emask = identities(H).mask
    cl = mask_of(y for y in range(H.n) if H.rows[y][x] & emask)
    cr = mask_of(y for y in range(H.n) if H.rows[x][y] & emask)
    return ElementSet(H.n, cl), ElementSet(H.n, cr), ElementSet(H.n, cl & cr)


@per_table
def _inverse_sets(H: HyperTable) -> tuple[int, ...]:
    """The mask of C(x) for every x."""
    return tuple(inverse_candidates(H, x)[2].mask for x in range(H.n))


def _lacking_inverse(H: HyperTable, unique: bool) -> int | None:
    """The least x whose C(x) is empty or, with unique, not a singleton."""
    bad = (x for x, c in enumerate(_inverse_sets(H)) if not c or unique and c & (c - 1))
    return next(bad, None)


@per_table
def unique_inverses(H: HyperTable) -> tuple[int, ...] | None:
    """Map x -> its unique inverse, or None if any C(x) is not a singleton."""
    if _lacking_inverse(H, True) is None:
        return tuple(c.bit_length() - 1 for c in _inverse_sets(H))
    return None


def _require_hypergroup(H: HyperTable, what: str) -> None:
    if not is_hypergroup(H):
        raise errors.NotAHypergroup(f"{what} requires a hypergroup")


def _inverse_witness(H: HyperTable, unique: bool) -> tuple | None:
    w = hypergroup_witness(H)
    if w is not None:
        return w
    if not identities(H):
        return ("no identities",)
    x = _lacking_inverse(H, unique)
    return None if x is None else (x,)


@per_table
def regular_witness(H: HyperTable) -> tuple | None:
    """None on a hypergroup with identities and every C(x) nonempty;
    else the hypergroup witness, ("no identities",) or (x,) for the
    least x without an inverse."""
    return _inverse_witness(H, False)


@per_table
def strongly_regular_witness(H: HyperTable) -> tuple | None:
    """As regular_witness, with every C(x) a singleton."""
    return _inverse_witness(H, True)


@per_table
def polygroup_witness(H: HyperTable) -> tuple | None:
    """None on a hypergroup with a scalar identity, unique inverses and
    reversibility; else the hypergroup witness, ("no scalar identity",),
    ("non-unique inverse", x), or ("reversibility", x, y, z) for the
    least (y, z), then x, with x in y*z but z not in inv(y)*x or y not
    in x*inv(z)."""
    w = hypergroup_witness(H)
    if w is not None:
        return w
    if scalar_identity(H) is None:
        return ("no scalar identity",)
    inv = unique_inverses(H)
    if inv is None:
        return ("non-unique inverse", _lacking_inverse(H, True))
    rows = H.rows
    for y in range(H.n):
        for z in range(H.n):
            for x in bits(rows[y][z]):
                if not rows[inv[y]][x] >> z & 1 or not rows[x][inv[z]] >> y & 1:
                    return ("reversibility", x, y, z)
    return None


def canonical_witness(H: HyperTable) -> tuple | None:
    """None on a commutative polygroup; else the commutativity witness
    or the polygroup witness."""
    return commutativity_witness(H) or polygroup_witness(H)


def is_regular_hg(H: HyperTable) -> bool:
    """Identities exist and every element has at least one inverse."""
    _require_hypergroup(H, "operation")
    return regular_witness(H) is None


def is_strongly_regular_hg(H: HyperTable) -> bool:
    """Identities exist and every element has exactly one inverse."""
    _require_hypergroup(H, "operation")
    return strongly_regular_witness(H) is None


def is_polygroup(H: HyperTable) -> bool:
    """Hypergroup with scalar identity, unique inverses, and reversibility."""
    return polygroup_witness(H) is None


def is_canonical(H: HyperTable) -> bool:
    """Commutative polygroup."""
    return canonical_witness(H) is None


class Cosets(NamedTuple):
    """The set K with mask `mask` and its cosets: kx[x] is K*x and xk[x]
    is x*K, over every x.  Every subhypergroup flag is read from them.
    The lists are read-only: the per-table memo shares them."""

    mask: int
    kx: list[int]
    xk: list[int]

    @property
    def is_subhypergroup(self) -> bool:
        """K is nonempty and k*K = K*k = K for every k in K.

        This is the reproduction law inside K.  It gives K*K = K, so on a
        hypergroup H, K under H's product is a hypergroup.  K*k is kx[k] and
        k*K is xk[k], so the check reads one entry of each list per k.
        """
        km = self.mask
        return km != 0 and all(self.kx[k] == km == self.xk[k] for k in bits(km))

    @property
    def is_closed(self) -> bool:
        """K is nonempty and no x outside K solves b in a*x or b in x*a
        with a, b in K.

        Such an x has b in K*x, so K*x meets K; conversely a b of K in
        K*x lies in some a*x with a in K.  The same holds for x*a and
        x*K.  So K is closed exactly when every x with kx[x] or xk[x]
        meeting K lies in K.
        """
        km = self.mask
        hits = mask_of(x for x, m in enumerate(map(or_, self.kx, self.xk)) if m & km)
        return km != 0 and hits | km == km

    @property
    def is_normal(self) -> bool:
        """x*K = K*x for every x, which is the two lists being equal."""
        return self.kx == self.xk


def build_cosets(H: HyperTable, mask: int) -> Cosets:
    """The Cosets of the set with this mask: K*x is the OR of the rows
    of the members of K, and x*K the OR of their columns."""
    kx = xk = [0] * H.n
    cols = _columns(H)
    for k in bits(mask):
        kx = list(map(or_, kx, H.rows[k]))
        xk = list(map(or_, xk, cols[k]))
    return Cosets(mask, kx, xk)


@per_table
def cosets(H: HyperTable, K: ElementSet) -> Cosets:
    """build_cosets memoised on (rows, K), for a K on H's carrier."""
    if K.n != H.n:
        raise errors.ShapeMismatch("sets over different carriers")
    return build_cosets(H, K.mask)


def is_subhypergroup(H: HyperTable, K: ElementSet) -> bool:
    """k*K = K*k = K for every k in K."""
    return cosets(H, K).is_subhypergroup


# A closed-set family on n points has at most 2^n members, so this budget
# reaches every carrier the powerset scans of earlier versions reached.
DEFAULT_CLOSED_SET_BUDGET = 1 << 20


def closed_sets(
    n: int,
    close: Callable[[int, int], int | None],
    budget: int = DEFAULT_CLOSED_SET_BUDGET,
    phase: str = "closed-set enumeration",
) -> list[int]:
    """Every closed set of a closure system on 0..n-1, in ascending mask order.

    Ganter's NextClosure ("Two basic algorithms in concept analysis",
    1984), with bit n-1 the most significant element, so lectic order is
    ascending integer order.  close(seed, forbidden) returns the closure
    of seed, or None as soon as it would add a bit of forbidden: the
    canonicity test of NextClosure is folded into the closure that way.
    budget bounds the number of closed sets visited.
    """
    full = (1 << n) - 1
    current = close(0, 0)
    out = [current]
    while current != full:
        for i in range(n):
            bit = 1 << i
            if current & bit:
                continue
            above = full & -(bit << 1)
            nxt = close(current & above | bit, above & ~current)
            if nxt is not None:
                break
        current = nxt
        out.append(current)
        if len(out) > budget:
            raise errors.BudgetExceeded(
                f"{phase}: visited {len(out)} closed sets, over the budget of {budget}"
            )
    return out


def product_closure(H: HyperTable) -> Callable[[int, int], int | None]:
    """Closure operator of the product-closed subsets K*K <= K, for closed_sets.

    Semi-naive: each round multiplies only the elements added by the
    previous one.
    """
    rows = H.rows

    def close(seed: int, forbidden: int) -> int | None:
        closed = 0
        new = seed
        while new:
            old = closed
            closed |= new
            grow = 0
            m = new
            while m:
                low = m & -m
                x = low.bit_length() - 1
                m ^= low
                row = rows[x]
                k = closed
                while k:
                    lb = k & -k
                    grow |= row[lb.bit_length() - 1]
                    k ^= lb
                k = old
                while k:
                    lb = k & -k
                    grow |= rows[lb.bit_length() - 1][x]
                    k ^= lb
                if grow & forbidden:
                    return None
            new = grow & ~closed
        return closed

    return close


def is_closed(H: HyperTable, K: ElementSet) -> bool:
    """No solution x outside K of b in a*x or b in x*a with a, b inside."""
    return cosets(H, K).is_closed


def is_normal(H: HyperTable, K: ElementSet) -> bool:
    """x*K = K*x for every x."""
    return cosets(H, K).is_normal


def from_group(table: Sequence[Sequence[int]], names: Sequence[str] | None = None,
               name: str | None = None) -> HyperTable:
    """Lift a single-valued group table to singleton hyperoperation cells."""
    from hyperkernel.groups import validate_group

    G = validate_group(table, names)
    # G is a new object, and its name takes no part in equality or memo.
    G.name = name
    return G


def total_hypergroup(n: int, names: Sequence[str] | None = None,
                     name: str | None = None) -> HyperTable:
    """Every cell is the whole carrier."""
    if n < 1:
        raise errors.InvalidTable("carrier must be nonempty")
    if names is None:
        names = [str(i) for i in range(n)]
    full = (1 << n) - 1
    return HyperTable(names, [[full] * n for _ in range(n)], name)


def direct_product(H1: HyperTable, H2: HyperTable, name: str | None = None) -> HyperTable:
    """Componentwise product on pairs, row-major pairing (i1*n2 + i2): the
    sum of 2**(c1*n2) over c1 in m1, times m2 < 2**n2, is m1 x m2."""
    n2 = H2.n
    spread = {m: sum(1 << c * n2 for c in bits(m)) for row in H1.rows for m in row}
    rows = [
        [s * m2 for s in map(spread.__getitem__, row1) for m2 in row2]
        for row1 in H1.rows
        for row2 in H2.rows
    ]
    names = [f"{a}.{b}" for a in H1.names for b in H2.names]
    return HyperTable(names, rows, name)


def structure_report(H: HyperTable) -> StructureReport:
    """Every flag with its witness, read from the witness functions."""
    quasi, a = is_quasihypergroup(H)
    found = {
        "is_semihypergroup": is_semihypergroup(H)[1],
        "is_quasihypergroup": None if quasi else (a,),
        "is_hypergroup": hypergroup_witness(H),
        "is_commutative": commutativity_witness(H),
        "is_canonical": canonical_witness(H),
        "is_regular_hg": regular_witness(H),
        "is_strongly_regular_hg": strongly_regular_witness(H),
        "is_polygroup": polygroup_witness(H),
    }
    return StructureReport(
        **{flag: w is None for flag, w in found.items()},
        identities=identities(H),
        witnesses={flag: w for flag, w in found.items() if w is not None},
    )
