"""
The dual positroid, used only by the tests.

The dual of the positroid of a bounded affine permutation pi on [n] has
the window pi*(i) = pi^{-1}(i) + n.  Its rank is n - k, and every subset
S has rank*(S) = |S| - k + rank(S^c).  No library route needs the dual
yet, so it stays here, where the tests check it against the permutation's
own row sets.
"""

from __future__ import annotations

from positroids.core import BoundedAffinePermutation


def dual(p: BoundedAffinePermutation) -> BoundedAffinePermutation:
    """The bounded affine permutation of the dual positroid.

    >>> p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
    >>> dual(p).window
    (6, 7, 9, 10, 8, 13, 12, 11)
    >>> dual(dual(p)) == p
    True
    """
    return BoundedAffinePermutation.from_window(
        [p.inverse_at(i) + p.n for i in range(1, p.n + 1)]
    )
