"""
Enumeration reference for the codimension-one boundary count, used only
by the tests.

It follows the definition literally: scan every bounded affine
permutation of the same size and rank, and keep those one inversion
longer whose interval ranks are dominated by p's everywhere and whose
loops are exactly p's.  ``geometry.codim1_boundary_count`` reads the
same cells off p's window as Bruhat covers and is checked against it.
"""

from __future__ import annotations

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
)
from positroids.geometry import length


def boundary_count_by_enumeration(p: BoundedAffinePermutation) -> int:
    n = p.n
    target = length(p) + 1
    intervals = [CyclicInterval.full(n)] + [
        CyclicInterval(n, start, ln)
        for start in range(1, n + 1)
        for ln in range(1, n)
    ]
    caps = [p.rank_interval(iv) for iv in intervals]
    loops = p.loops()
    return sum(
        1
        for q in enumerate_permutations(n, k=p.rank())
        if length(q) == target
        and q.loops() == loops
        and all(q.rank_interval(iv) <= cap for iv, cap in zip(intervals, caps))
    )
