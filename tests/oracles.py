"""Brute-force oracles for the library's fast routes.

The library enumerates subhypergroups and strongly regular relations
through closure systems.  These are the independent exhaustive routes
they are checked against: a scan over all 2^n subsets and a scan over
all Bell(n) partitions, which tests each partition against the
definitions of regular and strongly regular relations, not through
hyperkernel.kernels.

The library reads the subhypergroup predicates (subhypergroup, closed,
normal, conjugable) from the two lists K*x and x*K over every x;
is_subhypergroup, is_closed, is_normal and is_conjugable here multiply
K by each element, bit by bit, and feed the powerset scan.

The library computes beta by congruence closure, complete parts as
unions of beta classes, and the heart and the derived subhypergroup as
the identity classes of beta and gamma.  Here beta, complete parts, the
heart and the derived subhypergroup come from their definitions instead:
the census of all product sets (kernels.census), and intersections of
complete-part subhypergroups over the powerset scan.

The library checks the quotient identities through the canonical map
each one names; the backtracking isomorphism search here is the
independent route that asks only whether some isomorphism exists.

The library scans associativity over interned cells (group tables
too, on their singleton cells), builds the permuted-product blocks of
gamma_oracle length by length and multiplies direct-product cells by
spreading the first factor's masks; assoc_witness, group_table_error,
blocks, oracle_merge and direct_product here are the direct routes: a
loop over every triple, a product of every distinct ordering of every
multiset, and one bit per pair of members.

The library counts the letterwise images of the base words of a free
product per distinct state, and sums the direct-sum images of the
quotient words per (last factor, sum) state; quotient_conjecture_report
here lists every base word and projects each one, and maps every
quotient word through psi_image.
Test use only.
"""

from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

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
    QuotientConjectureReport,
    ReducedWord,
    _counts_by_length,
    _word_lengths,
    enumerate_words,
    project,
    psi_image,
)
from hyperkernel.groups import GroupTable, isomorphic, subgroup_generated
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


def _related_cells(H: HyperTable, R: Partition):
    """(a*x, b*x) and (x*a, x*b) as index lists, for all a R b and all x."""
    for a in range(H.n):
        for b in range(H.n):
            if R.relates(a, b):
                for x in range(H.n):
                    yield H.cell(a, x).indices(), H.cell(b, x).indices()
                    yield H.cell(x, a).indices(), H.cell(x, b).indices()


def is_regular(H: HyperTable, R: Partition) -> bool:
    """a R b implies that each element of a*x is related to some element of
    b*x and each element of b*x to some element of a*x, and the same for
    x*a and x*b, for every x."""

    def covered(A, B):
        return all(any(R.relates(u, v) for v in B) for u in A)

    return all(covered(A, B) and covered(B, A) for A, B in _related_cells(H, R))


def is_strongly_regular(H: HyperTable, R: Partition) -> bool:
    """a R b implies that every element of a*x is related to every element
    of b*x, and the same for x*a and x*b, for every x."""
    return all(
        R.relates(u, v) for A, B in _related_cells(H, R) for u in A for v in B
    )


def strongly_regular(H: HyperTable) -> list[Partition]:
    """Every strongly regular partition, by testing all Bell(n) of them."""
    partitions = (Partition(H.n, class_of) for class_of in all_class_assignments(H.n))
    found = [R for R in partitions if is_strongly_regular(H, R)]
    found.sort(key=Partition.sort_key)
    return found


def _element_orders(G: GroupTable) -> list[int]:
    orders = []
    for a in range(G.n):
        x, k = a, 1
        while x != G.identity:
            x, k = G.rows[x][a], k + 1
        orders.append(k)
    return orders


def find_isomorphism(G1: GroupTable, G2: GroupTable) -> tuple[int, ...] | None:
    """Some isomorphism G1 -> G2 as a tuple of images, or None.

    Backtracks over images of a greedy generating sequence of G1, each
    image of the same element order, and extends every assignment
    through fixed words in the generators.
    """
    if G1.n != G2.n:
        return None
    n = G1.n
    ord1, ord2 = _element_orders(G1), _element_orders(G2)
    if sorted(ord1) != sorted(ord2):
        return None

    gens: list[int] = []
    closure = subgroup_generated(G1, ())
    while len(closure) < n:
        gens.append(next(a for a in range(n) if a not in closure))
        closure = subgroup_generated(G1, gens)

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
        hyperproduct(H, base.kernels[i], K)
        for i, (H, K) in enumerate(zip(factors, subs))
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
            qreg.fundamental_groups[i],
            treg.fundamental_groups[i],
            [qreg.betas[i].class_of[c] for c in coset_maps[i]],
            [treg.betas[i].class_of[c] for c in fund_maps[i]],
        )
        for i in range(len(factors))
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
    sum_images = {psi_image(qreg, w).support for w in q_words}
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
