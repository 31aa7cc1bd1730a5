"""The hot kernels: scans of a Cayley table held as bitmask rows.

Every function takes the table as a nested sequence of bitmasks (rows[a][b]
is the cell a*b) and speaks plain ints and lists.  The module imports
nothing from the package, so core and relations can build on it.

The two scans that multiply sets by the table, assoc_witness and
oracle_merge, multiply each distinct set once (_Products) and then only
compare or merge the lists it returns, with the per-element work left
to C: assoc_witness gathers each row with an itemgetter over the
interned cells and compares tuples, and oracle_merge ORs whole lists of
blocks, one length at a time, from the blocks one letter shorter.
"""

from operator import itemgetter, or_


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


class _Products(dict):
    """Mask S -> the list of S*c over every column c, built on first lookup.

    S*c is the union of the cells x*c over the members x of S, so each
    distinct S is multiplied by the table once however often it is met.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        super().__init__()
        self.rows = rows

    def __missing__(self, s):
        rows = self.rows
        m = s
        low = m & -m
        line = list(rows[low.bit_length() - 1])
        m ^= low
        while m:
            low = m & -m
            line = [x | y for x, y in zip(line, rows[low.bit_length() - 1])]
            m ^= low
        self[s] = line
        return line


def assoc_witness(rows, n):
    """Least triple (packed a*n*n + b*n + c) breaking associativity, or -1.

    The distinct cells S_0, S_1, ... are interned: sym[a][b] is the id of
    the cell a*b, right[i] is the tuple of S_i*c over c, and left[a] is
    the tuple of a*S_i over i.  Then (a*b)*c == a*(b*c) for every c
    exactly when right[sym[a][b]] equals left[a] gathered along the ids
    sym[b], so each pair (a, b) costs one itemgetter call and one tuple
    comparison.  Equal masks in right and left are one interned object,
    so that comparison mostly stops at identity.  Pairs go in (a, b)
    order and the first unequal one yields its least c.
    """
    ids = {}
    sym = [[ids.setdefault(cell, len(ids)) for cell in row] for row in rows]
    canon = {}

    def interned(line):
        return tuple(map(canon.setdefault, line, line))

    right = list(map(interned, map(_Products(rows).__getitem__, ids)))
    by_column = _Products(list(zip(*rows)))
    left = list(map(interned, zip(*map(by_column.__getitem__, ids))))
    if n == 1:
        # a one-index itemgetter returns the item, not a 1-tuple
        gathers = [lambda line: (line[0],)]
    else:
        gathers = [itemgetter(*ids_b) for ids_b in sym]
    for a, left_a in enumerate(left):
        sym_a = sym[a]
        for b, gather in enumerate(gathers):
            ab_c = right[sym_a[b]]
            a_bc = gather(left_a)
            if ab_c != a_bc:
                c = next(c for c in range(n) if ab_c[c] != a_bc[c])
                return (a * n + b) * n + c
    return -1


def congruence_closure(rows, n):
    """Union-find roots of the smallest strongly regular relation.

    Congruence closure (Downey, Sethi and Tarjan, 1980): first the
    members of every cell are merged; then, for each new parent link
    (a, b), the least elements of a*z and b*z, and of z*a and z*b, are
    merged for every z.  Each cell lies inside one class, so merging its
    least element merges all of it.  At most n - 1 links form, so this
    is O(n^2) union steps.  The root of each element is the least member
    of its class.
    """
    uf = UnionFind(n)
    parent = uf.parent
    find = uf.find
    links = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
            links.append((ra, rb))

    for row in rows:
        for cell in row:
            anchor = (cell & -cell).bit_length() - 1
            cell &= cell - 1
            while cell:
                low = cell & -cell
                union(anchor, low.bit_length() - 1)
                cell ^= low
    least = [[(cell & -cell).bit_length() - 1 for cell in row] for row in rows]
    while links:
        a, b = links.pop()
        la, lb = least[a], least[b]
        for z in range(n):
            union(la[z], lb[z])
            lz = least[z]
            union(lz[a], lz[b])
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


def oracle_merge(rows, n, nmax):
    """Union-find roots after relating all permuted-product overlaps.

    For every multiset of length <= nmax, every element of the products
    of all its orderings is merged into one block.  Set products
    distribute over unions and every ordering ends in one of the
    multiset's letters, so block(M) is the union, over the distinct
    letters t of M, of block(M - t)*t.  The blocks are built one length
    at a time and only the last length is kept, as a dict from each
    sorted prefix q to the blocks of q + (t,) for every t >= q[-1].  For
    all those t at once, block(q + (t,)) is block(q)*t joined with
    block((q - u) + (t,))*u for each distinct letter u of q: one map of
    operator.or_ per (q, u), reading block*u from a dict per letter u
    over the distinct blocks of the layer.  Each distinct block is
    merged once.  Returns the root of each element, the least member of
    its block.
    """
    uf = UnionFind(n)
    products = _Products(rows)
    merged = set()
    # layer[p][t - p[-1]] is block(p + (t,)); the empty prefix starts at 0
    layer = {(): [1 << t for t in range(n)]}
    for k in range(2, nmax + 1):
        blocks = list({block for line in layer.values() for block in line})
        # times[u][block] is block*u, for the blocks of this layer
        times = [
            dict(zip(blocks, column))
            for column in zip(*map(products.__getitem__, blocks))
        ]
        found = set()
        nxt = {}
        for p, line in layer.items():
            first = p[-1] if p else 0
            for last, block in enumerate(line, first):
                q = p + (last,)
                new = products[block][last:]
                u = -1
                for i, letter in enumerate(q):
                    if letter == u:
                        continue
                    u = letter
                    r = q[:i] + q[i + 1 :]
                    src = layer[r][last - r[-1] if r else last :]
                    new = list(map(or_, new, map(times[u].__getitem__, src)))
                found.update(new)
                if k < nmax:
                    nxt[q] = new
        layer = nxt
        for block in found - merged:
            anchor = (block & -block).bit_length() - 1
            block &= block - 1
            while block:
                low = block & -block
                uf.union(anchor, low.bit_length() - 1)
                block ^= low
        merged |= found
    return uf.roots()
