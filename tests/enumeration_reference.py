"""
An independent count of the bounded affine permutations of size n, used
only by the tests as the reference for ``enumerate_permutations``.
"""

from __future__ import annotations

from math import comb


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
