"""Brute-force oracles for the closure-system routes.

The library enumerates subhypergroups, complete-part subhypergroups and
strongly regular relations through closure systems.  These are the
independent exhaustive routes they are checked against: a scan over all
2^n subsets and a scan over all Bell(n) partitions, which tests each
partition against the definitions of regular and strongly regular
relations, not through hyperkernel.kernels.  Test use only.
"""

from functools import lru_cache

from hyperkernel.core import (
    ElementSet,
    HyperTable,
    Partition,
    is_closed,
    is_conjugable,
    is_normal,
    is_subhypergroup,
)
from hyperkernel.quotients import SubEntry, _division_set, is_complete_part
from hyperkernel.relations import beta, gamma, kernel_S


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


@lru_cache(maxsize=None)
def powerset_subhypergroups(H: HyperTable) -> tuple[int, ...]:
    """Masks of all subhypergroups, by testing every nonempty subset."""
    return tuple(
        mask for mask in range(1, 1 << H.n) if is_subhypergroup(H, ElementSet(H.n, mask))
    )


def subhypergroup_entries(H: HyperTable) -> tuple[SubEntry, ...]:
    """The lattice entries with flags, straight from the predicates."""
    s_beta = kernel_S(H, beta(H)).mask
    s_gamma = kernel_S(H, gamma(H)).mask
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


def derived(H: HyperTable) -> ElementSet:
    """Intersection of the complete-part subhypergroups containing D."""
    d = _division_set(H)
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
