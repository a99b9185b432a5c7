"""
References for the enumerator, used only by the tests: an independent
count of the bounded affine permutations of size n, and the recursive
walk that ``enumerate_windows``'s iterative one replaced.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from positroids.core import BoundedAffinePermutation


def count_permutations(n: int) -> int:
    """Independent count of bounded affine permutations of size n.

    They correspond to permutations of [n] with each fixed point marked
    loop or coloop, so the count is sum over f of C(n,f) * 2^f * D(n-f)
    with D the derangement numbers.
    """
    derangements = [1, 0]
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[m - 1] + derangements[m - 2]))
    return sum(comb(n, f) * 2**f * derangements[n - f] for f in range(n + 1))


def windows_by_recursion(n: int, k: int | None = None) -> Iterator[tuple[int, ...]]:
    """The windows of ``enumerate_windows(n, k)``, in the same order,
    from one recursive generator per position, ranked by
    ``BoundedAffinePermutation.rank``."""
    if n < 1:
        raise ValueError("n must be positive")
    return (p.window for p in _extend(n, k, [], [False] * n, 1))


def _extend(
    n: int, k: int | None, window: list[int], used: list[bool], i: int
) -> Iterator[BoundedAffinePermutation]:
    """The completions of the window prefix at position i."""
    if i > n:
        p = BoundedAffinePermutation(n, tuple(window))
        if k is None or p.rank() == k:
            yield p
        return
    for v in range(i, i + n + 1):
        r = v % n
        if used[r]:
            continue
        used[r] = True
        window.append(v)
        yield from _extend(n, k, window, used, i + 1)
        window.pop()
        used[r] = False
