"""The hot kernels: scans of a Cayley table held as bitmask rows.

Every function takes the table as a nested sequence of bitmasks (rows[a][b]
is the cell a*b) and speaks plain ints and lists.  The module imports
nothing from the package, so core and relations can build on it.

The scans multiply each distinct set by the table once and then only
compare or merge the resulting lines, with the per-element work left
to C.  assoc_witness keeps one interned tuple per distinct cell and,
for each middle element b, compares a list of those tuples with one
zip transpose of them.  On a commutative table the second matrix is
the transpose of the first, and the least failing triple (a, b, c)
has a <= b, so only the rows a <= b are compared.  congruence_closure
merges the products of whole classes, round by round (_Products).
oracle_merge ORs whole lists of blocks, one length at a time, from the
blocks one letter shorter; at its last length it merges the products
of those blocks and links them by comparing matrices of roots with
their transposes.
"""

from itertools import islice
from operator import or_


class UnionFind:
    """Union-find with path compression; roots stay the least member."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra

    def roots(self) -> list[int]:
        """The root of each element: the least member of its class."""
        return [self.find(i) for i in range(len(self.parent))]


def _line(rows, s):
    """The list of S*c over every column c, for the mask S = s.

    S*c is the union of the cells x*c over the members x of S.
    """
    low = s & -s
    line = list(rows[low.bit_length() - 1])
    s ^= low
    while s:
        low = s & -s
        line = list(map(or_, line, rows[low.bit_length() - 1]))
        s ^= low
    return line


class _Products(dict):
    """Mask S -> _line(rows, S), built on first lookup.

    Each distinct S is multiplied by the table once however often it is
    met.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, s):
        line = self[s] = _line(self.rows, s)
        return line


def _merge(uf, masks):
    """Merge the members of each mask into one class."""
    for m in masks:
        anchor = (m & -m).bit_length() - 1
        m &= m - 1
        while m:
            low = m & -m
            uf.union(anchor, low.bit_length() - 1)
            m ^= low


def assoc_witness(rows, n):
    """Least triple (packed a*n*n + b*n + c) breaking associativity, or -1.

    The distinct cells S_0, S_1, ... are interned: sym[a][b] is the id of
    the cell a*b, right[i] is the tuple of S_i*c over every c, and
    left[i] the tuple of a*S_i over every a.  For one middle element b,
    row a of the matrix (a*b)*c is right[sym[a][b]], and row a of the
    matrix a*(b*c) is row a of the transpose (zip) of the lines
    left[sym[b][c]] over c.  So each b costs one C-level transpose and
    one list comparison.  All masks are interned in one dict, so that
    comparison mostly stops at identity.  When the rows equal the
    columns, S*c == c*S for every S and c, and right serves as left.

    The middle elements go in ascending order and `least` is the least
    a of a failing triple found so far.  A triple with a larger a, or
    the same a and a later b, is not smaller, so for each b only the
    first `least` rows are compared; on a mismatch the first unequal
    row gives the new a and its first unequal entry the c.

    When the rows equal the columns, only the rows a <= b are compared
    as well.  Write F(x, y; z) = (x*y)*z, which is symmetric in x and y.
    Then a*(b*c) = (b*c)*a = F(b, c; a), so the matrix a*(b*c) is the
    transpose of (a*b)*c, and the triple (a, b, c) fails exactly when
    the multiset {a, b, c} gives F(.; a) != F(.; c), each outer element
    taken last and the other two first.  If a failing (a, b, c) had
    b < a, then F(.; b) would differ from F(.; a) or from F(.; c), so
    (b, c, a) or (b, a, c) would fail, and either is smaller.  So the
    least failing triple has a <= b, and the witness stays the least.
    """
    ids = {}
    sym = [[ids.setdefault(cell, len(ids)) for cell in row] for row in rows]
    canon = {}

    def lines(table):
        out = []
        for s in ids:
            line = _line(table, s)
            out.append(tuple(map(canon.setdefault, line, line)))
        return out

    right = lines(rows)
    columns = list(zip(*rows))
    symmetric = columns == list(map(tuple, rows))
    left = right if symmetric else lines(columns)
    least, witness = n, -1
    for b, (column_b, sym_b) in enumerate(zip(zip(*sym), sym)):
        limit = min(least, b + 1) if symmetric else least
        ab_c = list(map(right.__getitem__, column_b[:limit]))
        a_bc = list(islice(zip(*map(left.__getitem__, sym_b)), limit))
        if ab_c != a_bc:
            a = next(a for a in range(limit) if ab_c[a] != a_bc[a])
            c = next(c for c in range(n) if ab_c[a][c] != a_bc[a][c])
            least, witness = a, (a * n + b) * n + c
            if not a:
                break
    return witness


def congruence_closure(rows, n):
    """Union-find roots of the smallest strongly regular relation.

    An equivalence is strongly regular exactly when, for every class C
    and every z, the sets C*z and z*C each lie inside one class: for x,
    x' in C and y, y' in D, x*y and x'*y lie in C*y, x'*y and x'*y' in
    x'*D, and the nonempty x'*y joins the two.  So, from the singleton
    classes (whose sets are the cells), merge each distinct set not yet
    merged, then collect C*z and z*C for every class C (one _Products
    list each, over the rows and over the columns), until all are
    merged.  Each merge is forced in every strongly regular relation
    holding the classes so far, so the fixpoint is the least one.  The
    root of each element is the least member of its class.
    """
    uf = UnionFind(n)
    right, left = _Products(rows), _Products(list(zip(*rows)))
    merged = set()
    new = {cell for row in rows for cell in row}
    while new:
        _merge(uf, new)
        merged |= new
        classes = {}
        for i, r in enumerate(uf.roots()):
            classes[r] = classes.get(r, 0) | 1 << i
        new = {s for c in classes.values() for s in right[c] + left[c]} - merged
    return uf.roots()


def census(rows, n, cap):
    """All product sets of length >= 2 as masks, in first-discovery order.

    Breadth-first closure of the singletons under right multiplication by
    each generator, generators taken in index order.  Returns None when
    more than `cap` distinct sets appear.  The library no longer calls
    it: tests/oracles.py keeps it as the reference route for beta and
    for complete parts.
    """
    out = []
    products = set()
    extended = set()
    queue = [1 << i for i in range(n)]
    qi = 0
    while qi < len(queue):
        s = queue[qi]
        qi += 1
        if s in extended:
            continue
        extended.add(s)
        for x in range(n):
            t = 0
            m = s
            while m:
                low = m & -m
                t |= rows[low.bit_length() - 1][x]
                m ^= low
            if t not in products:
                products.add(t)
                out.append(t)
                if len(out) > cap:
                    return None
            if t not in extended:
                queue.append(t)
    return out


def met_sets(rows, class_of):
    """met[a][x] = bitmask of the class ids that the cell a*x meets."""
    cls_mask = [1 << c for c in class_of]
    cache = {}
    met = []
    for ra in rows:
        line = []
        for cell in ra:
            v = cache.get(cell)
            if v is None:
                v = 0
                m = cell
                while m:
                    low = m & -m
                    v |= cls_mask[low.bit_length() - 1]
                    m ^= low
                cache[cell] = v
            line.append(v)
        met.append(line)
    return met


def regular(met, class_of):
    """True iff related elements meet the same classes cell by cell, in
    their rows and in their columns of the met-sets `met`."""
    first = {}
    for a, c in enumerate(class_of):
        b = first.setdefault(c, a)
        if b != a and (met[a] != met[b] or any(line[a] != line[b] for line in met)):
            return False
    return True


def sr_check(rows, n, class_of):
    """True iff the partition given by class_of is strongly regular.

    Both quantified conditions reduce to: every cell lands inside one
    class, and related elements meet the same classes on both sides.
    """
    met = met_sets(rows, class_of)
    return all(v & (v - 1) == 0 for line in met for v in line) and regular(met, class_of)


def _block_layers(n, products):
    """Yield (line, blocks) for the multisets of length k = 1, 2, ...

    block(M) is the union of the products of all orderings of M;
    line[p][t] is block(p + (t,)) for every sorted p of length k - 1 and
    every t, and blocks lists the distinct blocks of length k.  Products
    distribute over unions and every ordering ends in one of its letters,
    so block(q + (t,)) is block(q)*t joined with block((q - u) + (t,))*u
    for each distinct letter u of q: for all t at once, one map of or_
    per (q, u) over line[q - u], reading block*u from a dict per u.
    """
    line = {(): [1 << t for t in range(n)]}
    while True:
        blocks = list({block for row in line.values() for block in row})
        yield line, blocks
        # times[u][block] is block*u, for the blocks of this length
        times = [dict(zip(blocks, col)) for col in zip(*map(products.__getitem__, blocks))]
        nxt = {}
        for p, row in line.items():
            for last in range(p[-1] if p else 0, n):
                q = p + (last,)
                new = products[row[last]]
                u = -1
                for i, letter in enumerate(q):
                    if letter != u:
                        u = letter
                        src = line[q[:i] + q[i + 1 :]]
                        new = list(map(or_, new, map(times[u].__getitem__, src)))
                nxt[q] = new
        line = nxt


def oracle_merge(rows, n, nmax):
    """Union-find roots after merging block(M) for every multiset M of
    length <= nmax (see _block_layers), the least member of each class.

    The blocks of lengths below k = nmax are merged as _block_layers
    yields them.  Length k builds none.  (1) Every ordering of M ends in
    some letter t, so block(M) is the union of its pieces block(M - t)*t,
    nonempty as cells are.  (2) Merging a union of nonempty sets is
    merging each set and linking the sets; the pieces are exactly X*t
    for every distinct block X of length k - 1 and every t, so each
    distinct X*t is merged once.  (3) Then two pieces of M that end in
    t != t' are block(P + t')*t and block(P + t)*t' with P = M - t - t',
    so the links are one condition per multiset P of length k - 2: the
    matrix F[c][d] = root(block(P + c)*d) equals its transpose up to the
    relation.  Its rows are shared per-block root tuples, zip(*F) is the
    transpose, and only unequal rows give pairs to union.  At nmax 2, P
    is empty and the links are c*d ~ d*c.
    """
    if nmax < 2:
        return list(range(n))
    uf = UnionFind(n)
    products = _Products(rows)
    for _, (line, blocks) in zip(range(1, nmax), _block_layers(n, products)):
        _merge(uf, blocks)
    pieces = {piece for block in blocks for piece in products[block]}
    _merge(uf, pieces)
    roots = uf.roots()
    root_of = {piece: roots[(piece & -piece).bit_length() - 1] for piece in pieces}
    root_row = {block: tuple(map(root_of.__getitem__, products[block])) for block in blocks}
    links = set()
    for row in line.values():
        F = list(map(root_row.__getitem__, row))
        for by_row, by_col in zip(F, zip(*F)):
            if by_row != by_col:
                links.update(zip(by_row, by_col))
    for a, b in links:
        uf.union(a, b)
    return uf.roots()
