"""Brute-force oracles for the closure-system routes.

The library enumerates subhypergroups, complete-part subhypergroups and
strongly regular relations through closure systems.  These are the
independent exhaustive routes they are checked against: a scan over all
2^n subsets and a scan over all Bell(n) partitions.  Test use only.
"""

from functools import lru_cache

from hyperkernel import kernels
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


def strongly_regular(H: HyperTable) -> list[Partition]:
    """Every strongly regular partition, by testing all Bell(n) of them."""
    found = [
        Partition(H.n, class_of)
        for class_of in all_class_assignments(H.n)
        if kernels.sr_check(H.rows, H.n, list(class_of))
    ]
    found.sort(key=Partition.sort_key)
    return found
