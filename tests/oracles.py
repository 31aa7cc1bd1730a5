"""Brute-force oracles for the library's fast routes.

The library enumerates subhypergroups and strongly regular relations
through closure systems.  These are the independent exhaustive routes
they are checked against: a scan over all 2^n subsets and a scan over
all Bell(n) partitions, which tests each partition against the
definitions of regular and strongly regular relations, not through
hyperkernel.kernels.

The library reads the subhypergroup predicates (subhypergroup, closed,
normal) from one record of the two lists K*x and x*K over every x
(core.Cosets); is_subhypergroup, is_closed and is_normal here multiply
K by each element, bit by bit, and feed the powerset scan.
is_conjugable is the definition of conjugability, which the lattice
copies from closed.

The library decides the regular, strongly regular and polygroup classes
by one witness function each, from the inverse sets C(x), computed once
per table.  is_hypergroup, identities, inverse_sets, is_regular_hg,
is_strongly_regular_hg and is_polygroup here go cell by cell: C(x)
straight from the identities, and reversibility as a loop over every
triple (x, y, z).

The library computes beta by congruence closure, complete parts as
unions of beta classes, and the heart and the derived subhypergroup as
the identity classes of beta and gamma.  Here beta, complete parts, the
heart and the derived subhypergroup come from their definitions instead:
the census of all product sets (kernels.census), and intersections of
complete-part subhypergroups over the powerset scan.

The library checks the quotient identities through the canonical map
each one names; the backtracking isomorphism search here is the
independent route that asks only whether some isomorphism exists.

The library runs a group as a hypergroup with singleton cells: the
subgroup generated by a set is its product closure, cosets are a
congruence, and the abelianization is the quotient by gamma.
GroupView, subgroup_generated, commutator_subgroup, cosets and
quotient_group here are the direct routes on an integer Cayley table
read off the cells: closure under products and inverses, left cosets
of a checked normal subgroup, and least-index coset representatives.

The library scans associativity one middle element at a time, over
interned lines of the distinct cells and their transposes, keeping the
least failing triple found so far and, on a commutative table,
comparing only the rows a <= b (group tables too, on their singleton
cells); it builds the permuted-product blocks of gamma_oracle length by
length and multiplies direct-product cells by spreading the first
factor's masks.  assoc_witness, group_table_error, blocks, oracle_merge
and direct_product here are the direct routes: a loop over every triple
in (a, b, c) order that stops at the first failure, a product of every
distinct ordering of every multiset, and one bit per pair of members.

The library walks the letterwise images of the base words of a free
product layer by layer, over integer ids of the target's words, and
counts only the base words whose image holds the empty word; it takes
the covered words to be the target's words, each the image of its
letterwise lift, and sums the direct-sum images of the quotient words
per (last factor, sum) state.  image_counts here keeps every (last
factor, image) state with its images as frozensets of ReducedWord, and
quotient_conjecture_report lists every base word, projects each one
and collects the images, and maps every quotient word through
psi_support.

The library reads psi from the gamma* classes of each factor table.
psi_support here is the composite route: phi onto the free product of
the fundamental groups, then the cosets of their commutator subgroups.
word_inverse_unique, polygroup_closure_check and support are the
sampling checks of the free-product acceptance criteria, which no
command runs; nor does inverse_word, the expected inverse they compare
with, nor refines, the order on partitions that the relation tests
read.

The library writes canonical JSON with its own writer, which renders a
shared table cell once; emit_report here is json.dumps itself.
Test use only.
"""

import json
import random
from functools import lru_cache
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from typing import NamedTuple

from hyperkernel import errors, freeprod, kernels, relations
from hyperkernel.core import (
    ElementSet,
    HyperTable,
    Partition,
    bits,
    hyperproduct,
    left_division,
    right_division,
)
from hyperkernel.freeprod import (
    EMPTY_WORD,
    FactorRegistry,
    Letter,
    QuotientConjectureReport,
    ReducedWord,
    _counts_by_length,
    embed,
    enumerate_words,
    multiply,
    multiply_sets,
    phi,
    project,
)
from hyperkernel.groups import isomorphic
from hyperkernel.quotients import SubEntry, quotient_hypergroup
from hyperkernel.relations import congruence_mod, gamma, kernel_S

# Most product sets the census may find; far above any table tested.
CENSUS_CAP = 100_000


def assoc_witness(rows, n):
    """Least triple (packed a*n*n + b*n + c) breaking associativity, or -1."""
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            ab = ra[b]
            for c in range(n):
                left = 0
                m = ab
                while m:
                    low = m & -m
                    left |= rows[low.bit_length() - 1][c]
                    m ^= low
                right = 0
                m = rows[b][c]
                while m:
                    low = m & -m
                    right |= ra[low.bit_length() - 1]
                    m ^= low
                if left != right:
                    return (a * n + b) * n + c
    return -1


def emit_report(doc):
    """Canonical JSON by json.dumps: sorted keys, two-space indent."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def blocks(rows, n, k):
    """The distinct blocks of length k: for each multiset of k letters,
    the union of the products of every distinct ordering of it."""
    out = set()
    for combo in combinations_with_replacement(range(n), k):
        block = 0
        for tup in set(permutations(combo)):
            mask = 1 << tup[0]
            for t in tup[1:]:
                nxt = 0
                m = mask
                while m:
                    low = m & -m
                    nxt |= rows[low.bit_length() - 1][t]
                    m ^= low
                mask = nxt
            block |= mask
        out.add(block)
    return out


def oracle_merge(rows, n, nmax):
    """Union-find roots after relating all permuted-product overlaps.

    For every tuple of length <= nmax, every element of every product of
    a reordering of that tuple is merged into one block (tuples with the
    same multiset are exactly each other's reorderings).  Returns the
    root of each element, the least member of its block.
    """
    uf = kernels.UnionFind(n)
    for k in range(1, nmax + 1):
        for block in blocks(rows, n, k):
            members = list(bits(block))
            for m in members[1:]:
                uf.union(members[0], m)
    return uf.roots()


def group_table_error(rows):
    """The (error type, message) that a single-valued table fails group
    validation with, or None: the least non-associative triple, then the
    identity, then the least element with no two-sided inverse, each by
    a direct loop."""
    n = len(rows)
    for a, b, c in product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            return errors.NotAssociative, f"witness {(a, b, c)}"
    ident = next(
        (e for e in range(n) if all(rows[e][x] == x and rows[x][e] == x for x in range(n))), None
    )
    if ident is None:
        return errors.NoIdentity, "no two-sided identity"
    for a in range(n):
        if not any(rows[a][b] == ident and rows[b][a] == ident for b in range(n)):
            return errors.NoInverse, f"witness {a}"
    return None


def direct_product(H1: HyperTable, H2: HyperTable, name: str | None = None) -> HyperTable:
    """Componentwise product on pairs, row-major pairing (i1*n2 + i2),
    one bit per pair of members."""
    n1, n2 = H1.n, H2.n
    names = [f"{a}.{b}" for a in H1.names for b in H2.names]
    rows = []
    for a1 in range(n1):
        for a2 in range(n2):
            row = []
            for b1 in range(n1):
                for b2 in range(n2):
                    m = 0
                    for c1 in bits(H1.rows[a1][b1]):
                        base = c1 * n2
                        for c2 in bits(H2.rows[a2][b2]):
                            m |= 1 << (base + c2)
                    row.append(m)
            rows.append(row)
    return HyperTable(names, rows, name)


def all_class_assignments(n: int):
    """Restricted growth strings in lexicographic order: one per partition."""
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0) if n > 1 else iter([tuple(a)])


def is_subhypergroup(H: HyperTable, K: ElementSet) -> bool:
    """k*K = K*k = K for every k in K."""
    if not K:
        return False
    km = K.mask
    return all(
        H.mul_mask(1 << k, km) == km and H.mul_mask(km, 1 << k) == km for k in bits(km)
    )


def is_closed(H: HyperTable, K: ElementSet) -> bool:
    """No solution x outside K of b in a*x or b in x*a with a, b inside."""
    km = K.mask
    if not km:
        return False
    for x in range(H.n):
        if km >> x & 1:
            continue
        for a in bits(km):
            if H.rows[a][x] & km or H.rows[x][a] & km:
                return False
    return True


def is_normal(H: HyperTable, K: ElementSet) -> bool:
    """x*K = K*x for every x."""
    km = K.mask
    return all(H.mul_mask(1 << x, km) == H.mul_mask(km, 1 << x) for x in range(H.n))


def is_conjugable(H: HyperTable, K: ElementSet) -> bool:
    """Whenever a member of K appears in k*x or x*k for some k in K, x must
    lie in K and some x' must satisfy x'*x inside K."""
    km = K.mask
    if not km:
        return False
    for x in range(H.n):
        hit = any(H.rows[k][x] & km or H.rows[x][k] & km for k in bits(km))
        if not hit:
            continue
        if not km >> x & 1:
            return False
        if not any(H.rows[xp][x] | km == km for xp in range(H.n)):
            return False
    return True


def is_hypergroup(H: HyperTable) -> bool:
    """Associative, and a*H = H*a = H for every a."""
    n, rows = H.n, H.rows
    for a in range(n):
        left = right = 0
        for x in range(n):
            left |= rows[a][x]
            right |= rows[x][a]
        if left != H.full_mask or right != H.full_mask:
            return False
    return assoc_witness(rows, n) < 0


def identities(H: HyperTable) -> list[int]:
    """Every e with x in e*x and x in x*e for all x."""
    n, rows = H.n, H.rows
    return [e for e in range(n) if all(rows[e][x] >> x & 1 and rows[x][e] >> x & 1 for x in range(n))]


def inverse_sets(H: HyperTable) -> list[set[int]]:
    """C(x) for every x: the y with an identity in x*y and one in y*x."""
    n, rows = H.n, H.rows
    E = identities(H)
    return [
        {y for y in range(n)
         if any(rows[x][y] >> e & 1 for e in E) and any(rows[y][x] >> e & 1 for e in E)}
        for x in range(n)
    ]


def is_regular_hg(H: HyperTable) -> bool:
    """A hypergroup with identities in which every x has an inverse."""
    return is_hypergroup(H) and bool(identities(H)) and all(inverse_sets(H))


def is_strongly_regular_hg(H: HyperTable) -> bool:
    """A hypergroup with identities in which every x has exactly one inverse."""
    sets = inverse_sets(H)
    return is_hypergroup(H) and bool(identities(H)) and all(len(c) == 1 for c in sets)


def is_polygroup(H: HyperTable) -> bool:
    """A hypergroup with a scalar identity e, e*x = x*e = {x}, in which
    every x has exactly one inverse x', and x in y*z gives z in y'*x and
    y in x*z'."""
    n, rows = H.n, H.rows
    scalar = any(all(rows[e][x] == 1 << x == rows[x][e] for x in range(n)) for e in range(n))
    sets = inverse_sets(H)
    return (
        is_hypergroup(H)
        and scalar
        and all(len(c) == 1 for c in sets)
        and reversibility_witness(H) is None
    )


def reversibility_witness(H: HyperTable) -> tuple[int, int, int] | None:
    """The first (x, y, z), by y, then z, then x, with x in y*z but z not
    in y'*x or y not in x*z'; every C(x) must be a singleton {x'}."""
    n, rows = H.n, H.rows
    inv = [min(c) for c in inverse_sets(H)]
    for y in range(n):
        for z in range(n):
            for x in range(n):
                if rows[y][z] >> x & 1:
                    if not rows[inv[y]][x] >> z & 1 or not rows[x][inv[z]] >> y & 1:
                        return (x, y, z)
    return None


@lru_cache(maxsize=None)
def powerset_subhypergroups(H: HyperTable) -> tuple[int, ...]:
    """Masks of all subhypergroups, by testing every nonempty subset."""
    return tuple(
        mask for mask in range(1, 1 << H.n) if is_subhypergroup(H, ElementSet(H.n, mask))
    )


@lru_cache(maxsize=None)
def product_sets(H: HyperTable) -> tuple[int, ...]:
    """Every product set of two or more elements, as masks.

    kernels.census reaches the left-nested products, which on an
    associative table are all of them.
    """
    masks = kernels.census(H.rows, H.n, CENSUS_CAP)
    assert masks is not None, f"{H} has more than {CENSUS_CAP} product sets"
    return tuple(masks)


def beta(H: HyperTable) -> Partition:
    """Elements sharing a product set, transitively closed: beta*."""
    uf = kernels.UnionFind(H.n)
    for mask in product_sets(H):
        first, *rest = bits(mask)
        for e in rest:
            uf.union(first, e)
    return Partition(H.n, uf.roots())


def is_complete_part(H: HyperTable, C: ElementSet) -> bool:
    """C swallows every product set it meets."""
    cm = C.mask
    return all(not p & cm or p | cm == cm for p in product_sets(H))


def subhypergroup_entries(H: HyperTable) -> tuple[SubEntry, ...]:
    """The lattice entries with flags, straight from the predicates here."""
    s_beta = relations.kernel_S(H, relations.beta(H)).mask
    s_gamma = relations.kernel_S(H, relations.gamma(H)).mask
    out = []
    for mask in powerset_subhypergroups(H):
        K = ElementSet(H.n, mask)
        out.append(
            SubEntry(
                members=K,
                closed=is_closed(H, K),
                normal=is_normal(H, K),
                complete_part=is_complete_part(H, K),
                conjugable=is_conjugable(H, K),
                contains_S_beta=mask | s_beta == mask,
                contains_S_gamma=mask | s_gamma == mask,
            )
        )
    return tuple(out)


def _complete_part_masks(H: HyperTable) -> list[int]:
    return [
        mask
        for mask in powerset_subhypergroups(H)
        if is_complete_part(H, ElementSet(H.n, mask))
    ]


def heart(H: HyperTable) -> ElementSet:
    """Intersection of all complete-part subhypergroups."""
    acc = H.full_mask
    for mask in _complete_part_masks(H):
        acc &= mask
    return ElementSet(H.n, acc)


def division_set(H: HyperTable) -> int:
    """Mask of D, which the derived subhypergroup contains.

    D gathers, over all pairs (x, y), the right divisions z/w and left
    divisions z\\w taken elementwise across the two product sets x*y and
    y*x.  Each distinct (z, w) is divided once.
    """
    pairs = set()
    for x in range(H.n):
        for y in range(H.n):
            yx = tuple(bits(H.rows[y][x]))
            pairs.update((z, w) for z in bits(H.rows[x][y]) for w in yx)
    d = 0
    for z, w in pairs:
        d |= right_division(H, z, w).mask | left_division(H, w, z).mask
    return d


def derived(H: HyperTable) -> ElementSet:
    """Intersection of the complete-part subhypergroups containing D."""
    d = division_set(H)
    acc = H.full_mask
    for mask in _complete_part_masks(H):
        if mask | d == mask:
            acc &= mask
    return ElementSet(H.n, acc)


def refines(R: Partition, other: Partition) -> bool:
    """True iff every pair related by R is related in other."""
    if R.n != other.n:
        raise errors.ShapeMismatch("partitions over different carriers")
    return all(
        len({other.class_of[i] for i in block}) == 1 for block in R.classes
    )


def _related_cells(H: HyperTable, R: Partition):
    """(a*x, b*x) and (x*a, x*b) as index lists, for all a R b and all x."""
    for a in range(H.n):
        for b in range(H.n):
            if R.class_of[a] == R.class_of[b]:
                for x in range(H.n):
                    yield H.cell(a, x).indices(), H.cell(b, x).indices()
                    yield H.cell(x, a).indices(), H.cell(x, b).indices()


def is_regular(H: HyperTable, R: Partition) -> bool:
    """a R b implies that each element of a*x is related to some element of
    b*x and each element of b*x to some element of a*x, and the same for
    x*a and x*b, for every x."""

    def covered(A, B):
        return all(any(R.class_of[u] == R.class_of[v] for v in B) for u in A)

    return all(covered(A, B) and covered(B, A) for A, B in _related_cells(H, R))


def is_strongly_regular(H: HyperTable, R: Partition) -> bool:
    """a R b implies that every element of a*x is related to every element
    of b*x, and the same for x*a and x*b, for every x."""
    return all(
        R.class_of[u] == R.class_of[v] for A, B in _related_cells(H, R) for u in A for v in B
    )


def strongly_regular(H: HyperTable) -> list[Partition]:
    """Every strongly regular partition, by testing all Bell(n) of them."""
    partitions = (Partition(H.n, class_of) for class_of in all_class_assignments(H.n))
    found = [R for R in partitions if is_strongly_regular(H, R)]
    found.sort(key=Partition.sort_key)
    return found


class GroupView:
    """Integer Cayley table, identity and inverses of a singleton-cell
    group table, read off its cells by direct loops."""

    def __init__(self, G: HyperTable):
        n = self.n = G.n
        self.names = G.names
        rows = self.rows = [[cell.bit_length() - 1 for cell in row] for row in G.rows]
        self.identity = next(
            e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))
        )
        self.inverse = [
            next(b for b in range(n) if rows[a][b] == self.identity) for a in range(n)
        ]


def subgroup_generated(G: HyperTable, S) -> ElementSet:
    """Smallest subgroup containing S (closure under product and inverse)."""
    V = GroupView(G)
    members = {V.identity}
    frontier = [V.identity]
    for s in S:
        if s not in members:
            members.add(s)
            frontier.append(s)
    while frontier:
        a = frontier.pop()
        candidates = [V.inverse[a]]
        candidates.extend(V.rows[a][b] for b in list(members))
        candidates.extend(V.rows[b][a] for b in list(members))
        for c in candidates:
            if c not in members:
                members.add(c)
                frontier.append(c)
    return ElementSet.from_indices(V.n, members)


def commutator_subgroup(G: HyperTable) -> ElementSet:
    """Subgroup generated by all a*b*a^-1*b^-1."""
    V = GroupView(G)
    rows, inv = V.rows, V.inverse
    comms = {rows[rows[rows[a][b]][inv[a]]][inv[b]] for a in range(V.n) for b in range(V.n)}
    return subgroup_generated(G, comms)


def cosets(G: HyperTable, N: ElementSet) -> Partition:
    """Partition of G into the left cosets of the normal subgroup N."""
    V = GroupView(G)
    nm = N.mask
    closed = all(nm >> V.rows[a][b] & 1 and nm >> V.inverse[a] & 1 for a in N for b in N)
    if V.identity not in N or not closed:
        raise errors.NotNormal("not a subgroup")
    for g in range(V.n):
        for a in N:
            if not nm >> V.rows[V.rows[g][a]][V.inverse[g]] & 1:
                raise errors.NotNormal(f"conjugation by {g} escapes")
    coset_of: dict[frozenset, int] = {}
    class_of = [0] * V.n
    for a in range(V.n):
        coset = frozenset(V.rows[a][k] for k in N)
        class_of[a] = coset_of.setdefault(coset, len(coset_of))
    return Partition(V.n, class_of)


def quotient_group(G: HyperTable, N: ElementSet) -> HyperTable:
    """Coset group with least-index representatives as element names."""
    V = GroupView(G)
    part = cosets(G, N)
    reps = [c.indices()[0] for c in part.classes]
    rows = [[1 << part.class_of[V.rows[r][s]] for s in reps] for r in reps]
    return HyperTable([V.names[r] for r in reps], rows)


def _element_orders(V: GroupView) -> list[int]:
    orders = []
    for a in range(V.n):
        x, k = a, 1
        while x != V.identity:
            x, k = V.rows[x][a], k + 1
        orders.append(k)
    return orders


def find_isomorphism(T1: HyperTable, T2: HyperTable) -> tuple[int, ...] | None:
    """Some isomorphism between two groups as a tuple of images, or None.

    Backtracks over images of a greedy generating sequence of the first,
    each image of the same element order, and extends every assignment
    through fixed words in the generators.
    """
    if T1.n != T2.n:
        return None
    n = T1.n
    G1, G2 = GroupView(T1), GroupView(T2)
    ord1, ord2 = _element_orders(G1), _element_orders(G2)
    if sorted(ord1) != sorted(ord2):
        return None

    gens: list[int] = []
    closure = subgroup_generated(T1, ())
    while len(closure) < n:
        gens.append(next(a for a in range(n) if a not in closure))
        closure = subgroup_generated(T1, gens)

    # Words expressing every element of G1 through the generators, so a
    # generator assignment extends to at most one homomorphism.
    expr: dict[int, tuple[int, ...]] = {G1.identity: ()}
    frontier = [G1.identity]
    while frontier:
        a = frontier.pop(0)
        for gi, g in enumerate(gens):
            b = G1.rows[a][g]
            if b not in expr:
                expr[b] = expr[a] + (gi,)
                frontier.append(b)

    def extend(images: list[int]) -> tuple[int, ...] | None:
        phi = [0] * n
        for a in range(n):
            v = G2.identity
            for gi in expr[a]:
                v = G2.rows[v][images[gi]]
            phi[a] = v
        if len(set(phi)) != n:
            return None
        for a in range(n):
            for b in range(n):
                if phi[G1.rows[a][b]] != G2.rows[phi[a]][phi[b]]:
                    return None
        return tuple(phi)

    def backtrack(images: list[int]) -> tuple[int, ...] | None:
        if len(images) == len(gens):
            return extend(images)
        want = ord1[gens[len(images)]]
        for cand in range(n):
            if ord2[cand] == want:
                found = backtrack(images + [cand])
                if found is not None:
                    return found
        return None

    return backtrack([])


def _word_lengths(words):
    return (len(w.letters) for w in words)


def image_counts(base, target, class_maps, max_len: int) -> dict:
    """freeprod.kernel_count by state: each (last base factor, image) the
    base words of length <= max_len reach, with their number.

    The image is the frozenset of `ReducedWord`s that `project` gives;
    the empty word's state has last factor -1.  Letters of a factor that
    share a class are taken once with their multiplicity, and each image
    times a letter is multiplied out once through `multiply_sets`.
    """
    letters = []
    for i, H in enumerate(base.factors):
        mult = Counter(class_maps[i][x] for x in range(H.n) if x != base.identities[i])
        letters.append([(embed(target, i, c), m) for c, m in mult.items()])
    step = {}
    layer = {(-1, frozenset([EMPTY_WORD])): 1}
    states = dict(layer)
    for _ in range(max_len):
        nxt = {}
        for (last, image), count in layer.items():
            for i, choices in enumerate(letters):
                if i == last:
                    continue
                for w, m in choices:
                    if (image, w) not in step:
                        step[image, w] = multiply_sets(target, image, [w])
                    state = (i, step[image, w])
                    nxt[state] = nxt.get(state, 0) + count * m
        for state, count in nxt.items():
            states[state] = states.get(state, 0) + count
        layer = nxt
    return states


def quotient_conjecture_report(
    factors, subs, max_len: int = 2
) -> QuotientConjectureReport:
    """freeprod.quotient_conjecture_report by one projection per base word."""
    if len(factors) != len(subs):
        raise errors.ShapeMismatch("one subhypergroup per factor required")
    budget = freeprod.DEFAULT_WORD_BUDGET
    base = FactorRegistry(factors)
    quots = [quotient_hypergroup(H, K) for H, K in zip(factors, subs)]
    qreg = FactorRegistry(quots)
    base_words = enumerate_words(base, max_len, budget)
    q_words = enumerate_words(qreg, max_len, budget)
    coset_maps = [
        congruence_mod(H, K).class_of for H, K in zip(factors, subs)
    ]

    # Words over the quotient factors vs coset images of base words.
    images = [project(qreg, w, coset_maps) for w in base_words]
    covered = set().union(*images)
    kernel_images = sum(EMPTY_WORD in ws for ws in images)
    sub_words = sum(
        all(l.elem in subs[l.factor] for l in w.letters) for w in base_words
    )
    formula_product = {
        "quotient_word_counts": _counts_by_length(_word_lengths(q_words), max_len),
        "covered_image_counts": _counts_by_length(_word_lengths(covered), max_len),
        "all_quotient_words_covered": set(q_words) <= covered,
        "base_words_with_identity_image": kernel_images,
        "sub_product_words": sub_words,
    }

    # Fundamental side: factors H_i/(S_i K_i) against the fundamental
    # groups of the quotient factors, then word counts of both targets.
    lifted = [
        hyperproduct(H, relations.kernel_S(H, relations.beta(H)), K)
        for H, K in zip(factors, subs)
    ]
    fund_targets = [
        quotient_hypergroup(H, L) for H, L in zip(factors, lifted)
    ]
    treg = FactorRegistry(fund_targets)
    fund_maps = [
        congruence_mod(H, L).class_of for H, L in zip(factors, lifted)
    ]
    # The canonical map sends the fundamental class of x's coset modulo
    # K_i to the class of x's coset modulo S_i K_i.
    per_factor_iso = all(
        isomorphic(
            relations.fundamental_group(Q, "operation"),
            relations.fundamental_group(T, "operation"),
            [relations.beta(Q).class_of[c] for c in q_map],
            [relations.beta(T).class_of[c] for c in t_map],
        )
        for Q, T, q_map, t_map in zip(quots, fund_targets, coset_maps, fund_maps)
    )
    distinct_fund = {
        min(project(treg, w, fund_maps), key=ReducedWord.sort_key)
        for w in base_words
    }
    t_words = enumerate_words(treg, max_len, budget)
    formula_fund = {
        "per_factor_quotients_isomorphic": per_factor_iso,
        "target_word_counts": _counts_by_length(_word_lengths(t_words), max_len),
        "image_word_counts": _counts_by_length(_word_lengths(distinct_fund), max_len),
        "images_cover_targets": set(t_words) <= distinct_fund,
    }

    # Commutative side: distinct summed images of quotient words against
    # reduced words over the factors H_i/(S_gamma_i K_i).
    gamma_lifts = [
        hyperproduct(H, kernel_S(H, gamma(H)), K)
        for H, K in zip(factors, subs)
    ]
    gamma_targets = [
        quotient_hypergroup(H, L) for H, L in zip(factors, gamma_lifts)
    ]
    greg = FactorRegistry(gamma_targets)
    sum_images = {psi_support(qreg, w) for w in q_words}
    g_words = enumerate_words(greg, max_len, budget)
    by_support = _counts_by_length(map(len, sum_images), max_len)
    claimed = _counts_by_length(_word_lengths(g_words), max_len)
    formula_comm = {
        "summed_image_counts_by_support": by_support,
        "claimed_word_counts_by_length": claimed,
        "counts_agree": by_support == claimed,
    }

    return QuotientConjectureReport(
        max_len, formula_product, formula_fund, formula_comm
    )


@lru_cache(maxsize=None)
def _abelianization(G: HyperTable) -> tuple[GroupView, tuple[int, ...]]:
    return GroupView(G), cosets(G, commutator_subgroup(G)).class_of


def psi_support(registry: FactorRegistry, w: ReducedWord) -> tuple[tuple[int, int], ...]:
    """Support of freeprod.psi_image the composite way: phi onto the free
    product of the fundamental groups, then, for each factor, the coset
    modulo the commutator subgroup of the product of its letters."""
    groups = [relations.fundamental_group(H, "operation") for H in registry.factors]
    abelian = [_abelianization(G) for G in groups]
    prods = [V.identity for V, _ in abelian]
    for l in phi(registry, w).letters:
        prods[l.factor] = abelian[l.factor][0].rows[prods[l.factor]][l.elem]
    return tuple(
        (i, class_of[p])
        for i, ((V, class_of), p) in enumerate(zip(abelian, prods))
        if class_of[p] != class_of[V.identity]
    )


def inverse_word(registry: FactorRegistry, w: ReducedWord) -> ReducedWord:
    """Reversed word with each letter replaced by its unique inverse."""
    return ReducedWord(
        tuple(Letter(l.factor, registry.inverses[l.factor][l.elem]) for l in reversed(w.letters))
    )


def support(w: ReducedWord) -> frozenset[Letter]:
    return frozenset(w.letters)


def word_inverse_unique(
    registry: FactorRegistry,
    w: ReducedWord,
    max_len: int,
    pool=None,
) -> bool:
    """Exactly one enumerated word is a two-sided inverse, the expected one.

    A candidate can only multiply to the empty word through the
    cancellation case, so candidates whose first letter is not the
    inverse of w's last letter (the expected word's first letter) are
    skipped without multiplying.
    """
    if pool is None:
        pool = enumerate_words(registry, max_len)
    expected = inverse_word(registry, w)
    hits = [
        v
        for v in pool
        if v.letters[:1] == expected.letters[:1]
        and EMPTY_WORD in multiply(registry, w, v)
        and EMPTY_WORD in multiply(registry, v, w)
    ]
    return hits == [expected]


class ClosureReport(NamedTuple):
    triples_checked: int
    failures: tuple[tuple[ReducedWord, ReducedWord, ReducedWord], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def polygroup_closure_check(
    registry: FactorRegistry, max_len: int, samples: int, seed: int = 0
) -> ClosureReport:
    """Sampled reversibility: w1 in w2.w3 forces the two memberships back."""
    for i, H in enumerate(registry.factors):
        if not is_polygroup(H):
            raise ValueError(f"factor {i} is not a polygroup")
    rng = random.Random(seed)
    pool = enumerate_words(registry, max_len)
    failures = []
    checked = 0
    for _ in range(samples):
        w2 = pool[rng.randrange(len(pool))]
        w3 = pool[rng.randrange(len(pool))]
        prod = sorted(multiply(registry, w2, w3), key=ReducedWord.sort_key)
        w1 = prod[rng.randrange(len(prod))]
        back2 = multiply(registry, w1, inverse_word(registry, w3))
        back3 = multiply(registry, inverse_word(registry, w2), w1)
        checked += 1
        if w2 not in back2 or w3 not in back3:
            failures.append((w1, w2, w3))
    return ClosureReport(checked, tuple(failures))
