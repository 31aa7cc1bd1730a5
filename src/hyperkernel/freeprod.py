"""Reduced-word arithmetic in free products of strongly regular factors.

The free product is infinite, so it lives here intensionally: words
carry (factor, element) letters, multiplication resolves same-factor
boundaries through the factor's hyperoperation with recursive
cancellation of mutually inverse letters, and the global statements are
exercised on bounded-length enumerations and seeded samples.

No word ever carries an identity letter: identities can only appear in
a boundary product a*b when b is the unique inverse of a, and there
they are exactly the cancelled continuation.  That uniqueness is
asserted on every multiplication rather than assumed.

A set of words is a plain frozenset.  The canonical order of words
(`ReducedWord.sort_key`: length, then factors, then elements) is applied
only where order shows: printed word lists.

The conjecture report lists no words.  `word_counts` counts words by
length, which is also what the images cover; `kernel_count` walks the
base words' images layer by layer over integer word ids, counting those
that hold the empty word.  psi is a homomorphism into the direct sum, so
`psi_supports` adds letter images over (last factor, direct-sum element)
states.

The direct sum of the abelian groups H_i/gamma*(H_i) (`DirectSumFamily`)
lives here, next to `psi`, its only user; the quotient and its
projection are those of `relations.gamma` on each factor.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, NamedTuple, Sequence

from hyperkernel import errors
from hyperkernel.core import (
    HyperTable,
    bits,
    hyperproduct,
    identities,
    is_strongly_regular_hg,
    scalar_identity,
    unique_inverses,
)
from hyperkernel.groups import inverses, isomorphic, products
from hyperkernel.quotients import derived, heart, quotient_hypergroup
from hyperkernel.relations import (
    beta,
    congruence_mod,
    fundamental_group,
    gamma,
    quotient_by,
)

DEFAULT_WORD_BUDGET = 1_000_000
IMAGE_BUDGET = 4_000_000


class Letter(NamedTuple):
    factor: int
    elem: int


class ReducedWord(NamedTuple):
    """Letters of a reduced word; its length is len(w.letters), not len(w)."""

    letters: tuple[Letter, ...] = ()

    def is_empty(self) -> bool:
        return not self.letters

    def sort_key(self) -> tuple:
        return (
            len(self.letters),
            tuple(l.factor for l in self.letters),
            tuple(l.elem for l in self.letters),
        )

    def __repr__(self) -> str:
        if not self.letters:
            return "ReducedWord(1)"
        body = " ".join(f"{l.elem}@{l.factor}" for l in self.letters)
        return f"ReducedWord({body})"


EMPTY_WORD = ReducedWord()


class FactorRegistry:
    """Validated family of strongly regular factors.

    Letters are tagged with their factor index, which keeps the factors
    disjoint regardless of their labels.  The registry keeps what the
    word arithmetic reads per letter: each factor's identity and
    unique-inverse map.  Each factor's beta, heart and fundamental group
    are read from the per-table memo where they are needed.
    """

    def __init__(self, factors: Sequence[HyperTable]):
        self.factors = tuple(factors)
        if not self.factors:
            raise errors.ShapeMismatch("registry needs at least one factor")
        for i, H in enumerate(self.factors):
            if not is_strongly_regular_hg(H):
                raise errors.NotStronglyRegular(
                    f"factor {i} is not a strongly regular hypergroup"
                )
        # Strong regularity makes both unique: two identities would each
        # lie in the other's inverse set C(x).
        self.identities = tuple(identities(H).indices()[0] for H in self.factors)
        self.inverses = tuple(unique_inverses(H) for H in self.factors)
        self._fundamental_registry: "FactorRegistry | None" = None
        self._direct_sum_family: DirectSumFamily | None = None

    def letter(self, factor: int, elem: int) -> Letter:
        if not 0 <= factor < len(self.factors):
            raise errors.ShapeMismatch(f"no factor {factor} in registry")
        if not 0 <= elem < self.factors[factor].n:
            raise errors.UnknownLabel(f"element {elem} outside factor {factor}")
        return Letter(factor, elem)

    def fundamental_registry(self) -> "FactorRegistry":
        """Registry of the fundamental groups."""
        if self._fundamental_registry is None:
            groups = [fundamental_group(H, "operation") for H in self.factors]
            self._fundamental_registry = FactorRegistry(groups)
        return self._fundamental_registry

    def direct_sum_family(self) -> DirectSumFamily:
        if self._direct_sum_family is None:
            self._direct_sum_family = DirectSumFamily(self.factors)
        return self._direct_sum_family


class DirectSumFamily:
    """Indexed family of hypergroups with their abelian quotients.

    The abelian quotient of a hypergroup H is H/gamma*(H), and the
    projection onto it is gamma(H).  On a group, gamma* is the coset
    congruence of the commutator subgroup and H/gamma* its
    abelianization.  Supports finitely supported sums over the quotients;
    the stored component of a factor is an element index of its
    quotient, never its identity.

    On a hypergroup, H/gamma* is the abelianization of the fundamental
    group G = H/beta*, by the paper's decomposition gamma = delta * beta.
    gamma* has a group quotient, so it contains beta*, the least such
    relation, and the projection onto H/gamma* factors through G.  Its
    image is abelian, so the kernel of G -> H/gamma* contains [G, G];
    and the pullback of the cosets of [G, G] through beta* has the
    abelian quotient G/[G, G], so it contains gamma*.  So gamma* is that
    pullback, which is how `relations.gamma` computes it:
    gamma(H).class_of[x] is the coset of beta(H).class_of[x] modulo
    [G, G], and each class of either quotient is named by its least
    member.
    """

    __slots__ = ("abelianizations", "projections", "identities")

    def __init__(self, factors: Sequence[HyperTable]):
        gammas = [gamma(H) for H in factors]
        self.abelianizations = tuple(
            quotient_by(H, g).table for H, g in zip(factors, gammas)
        )
        self.projections = tuple(g.class_of for g in gammas)
        self.identities = tuple(scalar_identity(A) for A in self.abelianizations)

    def zero(self) -> "DirectSumElement":
        return DirectSumElement(self, ())

    def inject(self, factor: int, elem: int) -> "DirectSumElement":
        """Image of one factor element under projection into the sum."""
        if not 0 <= factor < len(self.projections):
            raise errors.FamilyMismatch(f"no factor {factor}")
        if not 0 <= elem < len(self.projections[factor]):
            raise errors.FamilyMismatch(f"element {elem} outside factor {factor}")
        cls = self.projections[factor][elem]
        if cls == self.identities[factor]:
            return self.zero()
        return DirectSumElement(self, ((factor, cls),))


class DirectSumElement:
    """Finitely supported element of the direct sum of abelianizations."""

    __slots__ = ("family", "support")

    def __init__(self, family: DirectSumFamily, support: Iterable[tuple[int, int]]):
        self.family = family
        self.support = tuple(sorted(support))

    def is_zero(self) -> bool:
        return not self.support

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DirectSumElement)
            and self.family is other.family
            and self.support == other.support
        )

    def __hash__(self) -> int:
        return hash((id(self.family), self.support))

    def __repr__(self) -> str:
        if not self.support:
            return "DirectSumElement(0)"
        parts = ", ".join(
            f"{i}->{self.family.abelianizations[i].names[c]}" for i, c in self.support
        )
        return f"DirectSumElement({parts})"

    def __neg__(self) -> "DirectSumElement":
        abelians = self.family.abelianizations
        return DirectSumElement(
            self.family, [(i, inverses(abelians[i])[c]) for i, c in self.support]
        )


def direct_sum_add(
    family: DirectSumFamily, a: DirectSumElement, b: DirectSumElement
) -> DirectSumElement:
    """Componentwise sum; identity components drop out of the support."""
    if a.family is not family or b.family is not family:
        raise errors.FamilyMismatch("operands belong to a different family")
    acc = dict(a.support)
    for i, c in b.support:
        if i in acc:
            v = products(family.abelianizations[i])[acc[i]][c]
            if v == family.identities[i]:
                del acc[i]
            else:
                acc[i] = v
        else:
            acc[i] = c
    return DirectSumElement(family, acc.items())


def make_word(registry: FactorRegistry, letters: Iterable[Letter]) -> ReducedWord:
    """Validate the reduced-word conditions; no silent auto-reduction."""
    letters = tuple(letters)
    prev = -1
    for l in letters:
        registry.letter(l.factor, l.elem)
        if l.elem == registry.identities[l.factor]:
            label = registry.factors[l.factor].names[l.elem]
            raise errors.IdentityLetter(f"letter {label}@{l.factor} is an identity")
        if l.factor == prev:
            raise errors.AdjacentSameFactor(
                f"adjacent letters from factor {l.factor}"
            )
        prev = l.factor
    return ReducedWord(letters)


def inverse_word(registry: FactorRegistry, w: ReducedWord) -> ReducedWord:
    """Reversed word with each letter replaced by its unique inverse."""
    return ReducedWord(
        tuple(Letter(l.factor, registry.inverses[l.factor][l.elem]) for l in reversed(w.letters))
    )


def multiply(
    registry: FactorRegistry, w1: ReducedWord, w2: ReducedWord
) -> frozenset[ReducedWord]:
    """Boundary-rule product of two reduced words.

    Different boundary factors concatenate.  Equal boundary factors
    multiply through the factor: the non-identity members of the
    boundary product each yield a word, and when the boundary letters
    are mutually inverse the product additionally cancels them and
    recurses (cascades included).  Folding the boundary product into the
    cancelling case is the associative completion of the plain
    cancel-only rule, which loses associativity whenever some factor has
    a product x*y containing x with y not the identity.
    """
    results: set[ReducedWord] = set()
    stack = [(w1.letters, w2.letters)]
    while stack:
        left, right = stack.pop()
        if not left:
            results.add(ReducedWord(right))
            continue
        if not right:
            results.add(ReducedWord(left))
            continue
        a = left[-1]
        b = right[0]
        if a.factor != b.factor:
            results.add(ReducedWord(left + right))
            continue
        ident = registry.identities[a.factor]
        cell = registry.factors[a.factor].rows[a.elem][b.elem]
        cancelling = b.elem == registry.inverses[a.factor][a.elem]
        if cancelling:
            stack.append((left[:-1], right[1:]))
        for t in bits(cell):
            if t == ident:
                if cancelling:
                    continue
                raise errors.NotStronglyRegular(
                    f"identity appeared in a non-cancelling product in factor {a.factor}"
                )
            results.add(ReducedWord(left[:-1] + (Letter(a.factor, t),) + right[1:]))
    return frozenset(results)


def multiply_sets(registry: FactorRegistry, A: Iterable[ReducedWord],
                  B: Iterable[ReducedWord]) -> frozenset[ReducedWord]:
    out: set[ReducedWord] = set()
    bs = list(B)
    for wa in A:
        for wb in bs:
            out.update(multiply(registry, wa, wb))
    return frozenset(out)


def word_product(registry: FactorRegistry, words: Sequence[ReducedWord]) -> frozenset[ReducedWord]:
    acc = frozenset([EMPTY_WORD])
    for w in words:
        acc = multiply_sets(registry, acc, [w])
    return acc


def embed(registry: FactorRegistry, factor: int, elem: int) -> ReducedWord:
    """One-letter image of a factor element; identities map to the empty word."""
    l = registry.letter(factor, elem)
    if elem == registry.identities[factor]:
        return EMPTY_WORD
    return ReducedWord((l,))


def project(target: FactorRegistry, w: ReducedWord,
            class_maps: Sequence[Sequence[int]]) -> frozenset[ReducedWord]:
    """Letterwise image of w over target.

    Letter x@i maps to the embedded class class_maps[i][x] of target's
    factor i, and the images multiply out over target.
    """
    images = [embed(target, l.factor, class_maps[l.factor][l.elem]) for l in w.letters]
    return word_product(target, images)


def phi(registry: FactorRegistry, w: ReducedWord) -> ReducedWord:
    """Letterwise projection into the free product of fundamental groups.

    Each letter maps to its fundamental class; kernel letters vanish and
    adjacent same-factor classes multiply out, so the image is a single
    reduced word over the fundamental-group registry.
    """
    class_maps = [beta(H).class_of for H in registry.factors]
    image = project(registry.fundamental_registry(), w, class_maps)
    if len(image) != 1:
        raise errors.NotStronglyRegular(
            f"fundamental-group product gave {len(image)} words, not one"
        )
    (word,) = image
    return word


def psi(family: DirectSumFamily, w: ReducedWord) -> DirectSumElement:
    """Sum of the abelianized letter images, componentwise."""
    acc = family.zero()
    for l in w.letters:
        acc = direct_sum_add(family, acc, family.inject(l.factor, l.elem))
    return acc


def psi_image(registry: FactorRegistry, w: ReducedWord) -> DirectSumElement:
    """Image of w in the direct sum of its factors' gamma* quotients."""
    return psi(registry.direct_sum_family(), w)


def enumerate_words(
    registry: FactorRegistry, max_len: int, budget: int = DEFAULT_WORD_BUDGET
) -> list[ReducedWord]:
    """All reduced words of length <= max_len, by length and then letter
    by letter (factor, then element): the `ReducedWord.sort_key` order on
    two factors, but not on three, where 1@1 1@2 precedes 2@1 1@0 here."""
    nonident = [
        [x for x in range(H.n) if x != registry.identities[i]]
        for i, H in enumerate(registry.factors)
    ]
    out = [EMPTY_WORD]
    layer = [EMPTY_WORD]
    for _ in range(max_len):
        nxt = []
        for w in layer:
            last = w.letters[-1].factor if w.letters else -1
            for i in range(len(registry.factors)):
                if i == last:
                    continue
                for x in nonident[i]:
                    nxt.append(ReducedWord(w.letters + (Letter(i, x),)))
                    if len(out) + len(nxt) > budget:
                        raise errors.BudgetExceeded(
                            f"more than {budget} words below length {max_len}"
                        )
        out.extend(nxt)
        layer = nxt
    return out


def word_counts(sizes: Sequence[int], max_len: int) -> list[int]:
    """Number of reduced words of each length <= max_len.

    Factor i supplies sizes[i] letters.  A word of length k+1 ending in
    factor i extends any word of length k that does not end in i.
    """
    counts = [1]
    ending = [0] * len(sizes)
    for _ in range(max_len):
        ending = [m * (counts[-1] - e) for m, e in zip(sizes, ending)]
        counts.append(sum(ending))
    return counts


def kernel_count(base: FactorRegistry, target: FactorRegistry,
                 class_maps: Sequence[Sequence[int]], max_len: int) -> int:
    """Number of base words of length <= max_len whose image holds the
    empty word.

    A base word's image is what `project` gives for it.  Each layer maps
    each image, per last base factor, to the number of base words of its
    length reaching it, taking the letters of a factor that share a class
    once with their multiplicity, and is dropped once the next is built.
    An image is an id if it holds one word, else a frozenset of ids.
    Id 0 is the empty word, and a word's id is its parent's id shifted
    left by `shift` bits, ORed with one plus its last letter's index in
    `letters`.  Boundary products are `multiply`'s, one per letter pair.

    The walk is charged k per layer k, up front, and one per id each
    layer stores, which bounds one-letter factors too, whose ids grow as
    their layers stay small; past `IMAGE_BUDGET` it raises `BudgetExceeded`.
    """
    letters = tuple(Letter(i, x) for i, Q in enumerate(target.factors) for x in range(Q.n))
    code = {ReducedWord((l,)): c for c, l in enumerate(letters, 1)}
    shift = len(letters).bit_length()
    mask = (1 << shift) - 1
    factor_of = (-1,) + tuple(l.factor for l in letters)
    boundary: dict[tuple[int, int], list[int]] = {}

    def times(image, b: int):
        if type(image) is int and factor_of[image & mask] != factor_of[b]:
            return image << shift | b
        out = set()
        for w in image if type(image) is frozenset else (image,):
            a, p = w & mask, w >> shift
            if factor_of[a] != factor_of[b]:
                out.add(w << shift | b)
                continue
            if (a, b) not in boundary:
                pair = multiply(target, *(ReducedWord((letters[c - 1],)) for c in (a, b)))
                boundary[a, b] = [code.get(v, 0) for v in pair]
            out.update(p << shift | c if c else p for c in boundary[a, b])
        return out.pop() if len(out) == 1 else frozenset(out)

    steps = []
    for i, H in enumerate(base.factors):
        mult = Counter(class_maps[i][x] for x in range(H.n) if x != base.identities[i])
        steps.append([(code.get(embed(target, i, c), 0), m) for c, m in mult.items()])
    layer, kernel = {-1: {0: 1}}, 1
    spent = _charged(max_len * (max_len + 1) // 2, max_len)
    for k in range(1, max_len + 1):
        nxt: dict[int, dict] = {i: {} for i in range(len(steps))}
        for last, states in layer.items():
            for i, into in nxt.items():
                for image, count in states.items() if i != last else ():
                    for b, m in steps[i]:
                        out = times(image, b) if b else image
                        if out not in into:
                            spent = _charged(spent + (1 if type(out) is int else len(out)), k)
                        into[out] = into.get(out, 0) + count * m
        for states in nxt.values():
            kernel += sum(c for ids, c in states.items()
                          if ids == 0 or type(ids) is frozenset and 0 in ids)
        layer = nxt
    return kernel


def _charged(spent: int, k: int) -> int:
    """spent, or `BudgetExceeded` once it passes `IMAGE_BUDGET` by length k."""
    if spent > IMAGE_BUDGET:
        raise errors.BudgetExceeded(f"conjecture images: charged {spent} word ids by length {k}, "
                                    f"over the budget of {IMAGE_BUDGET}")
    return spent


def psi_supports(registry: FactorRegistry, max_len: int) -> set[tuple[tuple[int, int], ...]]:
    """Distinct `psi_image` supports of the words of length <= max_len.

    psi is a homomorphism into the direct sum: gamma(H) projects each
    member of a*b onto the sum of the images of a and b, and a
    cancelling pair onto zero.  So a word's image is the sum of its
    letters' images projections[i][x].
    States (last factor, componentwise sum) grow layer by layer, each
    distinct letter image once; a state reached at a shorter length is
    not grown again, since all it reaches was reached from there.
    """
    family = registry.direct_sum_family()
    zero = family.identities
    steps = [(products(A), {proj[x] for x in range(len(proj)) if x != e})
             for e, proj, A in zip(registry.identities, family.projections, family.abelianizations)]
    layer = {(-1, zero)}
    seen = set(layer)
    for _ in range(max_len):
        nxt = set()
        for last, acc in layer:
            for i, (rows, images) in enumerate(steps):
                if i != last:
                    row = rows[acc[i]]
                    nxt.update((i, acc[:i] + (row[c],) + acc[i + 1:]) for c in images)
        layer = nxt - seen
        seen |= layer
    return {tuple((i, c) for i, c in enumerate(acc) if c != zero[i]) for _, acc in seen}


def _counts_by_length(lengths: Iterable[int], max_len: int) -> list[int]:
    counts = Counter(lengths)
    return [counts[k] for k in range(max_len + 1)]


class QuotientConjectureReport(NamedTuple):
    """Bounded-length evidence on the claimed quotient formulas.

    Nothing here is asserted; each block pairs counts computed on the
    two sides of one claimed identity so a reader can compare them.
    """

    max_len: int
    free_product_of_quotients: dict
    fundamental_formula: dict
    commutative_formula: dict


def _quotient_registry(factors: Sequence[HyperTable],
                       subs: Sequence) -> tuple[FactorRegistry, list[tuple[int, ...]]]:
    """Registry of the quotient factors H_i/K_i, and each factor's coset map."""
    reg = FactorRegistry([quotient_hypergroup(H, K) for H, K in zip(factors, subs)])
    return reg, [congruence_mod(H, K).class_of for H, K in zip(factors, subs)]


def quotient_conjecture_report(
    factors: Sequence[HyperTable], subs: Sequence, max_len: int = 2
) -> QuotientConjectureReport:
    """Compare both sides of each quotient formula on words of length <= max_len.

    No word list is built, and only what is not fixed in advance is
    walked: the base words whose image holds the empty word, counted by
    `kernel_count` over the quotient target.  Each target is counted by
    `word_counts`: its factors are strongly regular (FactorRegistry
    checks it), so each has exactly one identity and n - 1 letters.

    Every image word is a reduced word over its target registry, of
    length <= max_len.  `project` multiplies one embedded letter (or the
    empty word) per base letter, and each `multiply` step adds at most
    one letter and returns reduced words: a boundary product keeps one
    non-identity letter between letters of other factors, and an
    identity member is dropped only when the letters cancel.  So the
    images lie among the target's words.  Conversely a reduced target
    word c1@i1 ... ck@ik is the image of its letterwise lift x1@i1 ...
    xk@ik, with xj in the class cj: no xj is an identity, because no cj
    is the identity class, and adjacent letters of different factors
    just concatenate.  So the images cover exactly the target's words,
    and their counts are the target's word counts.

    beta(x) = x*S_beta (Corsini, Prolegomena, 1993), so S_beta K_i is a
    union of beta classes, and T_i = H_i/(S_beta K_i), a quotient of the
    fundamental group, is a group.  A target that is not a group raises
    `NotStronglyRegular`, naming its factor.  T_i is also a group image
    of Q_i = H_i/K_i, so a base word's image over the T_i is a function
    of its image over the Q_i: a walk over the T_i would store no more
    states per layer than the walk over the Q_i, and the budget that
    admits one admits both.

    The budget is `kernel_count`'s.  `word_counts` is arithmetic, and
    `psi_supports` keeps states bounded by the direct sum.
    """
    if len(factors) != len(subs):
        raise errors.ShapeMismatch("one subhypergroup per factor required")
    if max_len < 0:
        raise errors.HyperError(f"max_len must be at least 0, got {max_len}")
    base = FactorRegistry(factors)
    qreg, coset_maps = _quotient_registry(factors, subs)

    # Words over the quotient factors vs coset images of base words.  The
    # walk goes first: its budget also bounds the max_len of the counts.
    kernel = kernel_count(base, qreg, coset_maps, max_len)
    sub_sizes = [sum(x != e for x in K) for e, K in zip(base.identities, subs)]
    sub_words = sum(word_counts(sub_sizes, max_len))
    q_counts = word_counts([Q.n - 1 for Q in qreg.factors], max_len)
    formula_product = {
        "quotient_word_counts": q_counts,
        "covered_image_counts": q_counts,
        "all_quotient_words_covered": True,
        "base_words_with_identity_image": kernel,
        "sub_product_words": sub_words,
    }

    # Fundamental side: factors H_i/(S_i K_i) against the fundamental
    # groups of the quotient factors, then word counts of both targets.
    lifted = [hyperproduct(H, heart(H), K) for H, K in zip(factors, subs)]
    treg, fund_maps = _quotient_registry(factors, lifted)
    for i, (H, L) in enumerate(zip(factors, lifted)):
        if not quotient_by(H, congruence_mod(H, L)).is_group:
            raise errors.NotStronglyRegular(f"factor {i}: H/(S_beta K) is not a group")
    # The canonical map sends the fundamental class of x's coset modulo
    # K_i to the class of x's coset modulo S_i K_i.
    per_factor_iso = all(
        isomorphic(
            fundamental_group(Q, "operation"),
            fundamental_group(T, "operation"),
            [beta(Q).class_of[c] for c in qmap],
            [beta(T).class_of[c] for c in tmap],
        )
        for Q, T, qmap, tmap in zip(qreg.factors, treg.factors, coset_maps, fund_maps)
    )
    t_counts = word_counts([Q.n - 1 for Q in treg.factors], max_len)
    formula_fund = {
        "per_factor_quotients_isomorphic": per_factor_iso,
        "target_word_counts": t_counts,
        "image_word_counts": t_counts,
        "images_cover_targets": True,
    }

    # Commutative side: distinct summed images of quotient words against
    # reduced words over the factors H_i/(S_gamma_i K_i).
    gamma_lifts = [hyperproduct(H, derived(H), K) for H, K in zip(factors, subs)]
    greg, _ = _quotient_registry(factors, gamma_lifts)
    by_support = _counts_by_length(map(len, psi_supports(qreg, max_len)), max_len)
    claimed = word_counts([Q.n - 1 for Q in greg.factors], max_len)
    formula_comm = {
        "summed_image_counts_by_support": by_support,
        "claimed_word_counts_by_length": claimed,
        "counts_agree": by_support == claimed,
    }

    return QuotientConjectureReport(max_len, formula_product, formula_fund, formula_comm)
