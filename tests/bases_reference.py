"""
Scan reference for the bases of a positroid, used only by the tests.

It tests every k-subset against the rank cap of every proper cyclic
interval, with the caps read from the family by ``rank_from_family``.
``geometry.bases`` reaches the same subsets, in the same lexicographic
order, by a pruned search over the interval-rank table of the family's
permutation, and is checked against it.
"""

from __future__ import annotations

from itertools import combinations

from positroids.core import CyclicInterval
from positroids.essential import RankedEssentialFamily, rank_from_family


def bases_by_scan(
    family: RankedEssentialFamily, first: int | None = None
) -> list[tuple[int, ...]]:
    """The k-subsets meeting every cap, sorted lexicographically; with
    first given (and k >= 1), only those whose least element it is."""
    n, k = family.n, family.k
    caps = []
    for start in range(1, n + 1):
        for ln in range(1, n):
            iv = CyclicInterval(n, start, ln)
            caps.append((iv.mask(), rank_from_family(family, iv)))
    if first is None:
        subsets = combinations(range(1, n + 1), k)
    else:
        subsets = (
            (first, *rest) for rest in combinations(range(first + 1, n + 1), k - 1)
        )
    out = []
    for subset in subsets:
        mask = 0
        for e in subset:
            mask |= 1 << (e - 1)
        if all((mask & imask).bit_count() <= cap for imask, cap in caps):
            out.append(subset)
    return out
