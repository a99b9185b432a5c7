"""
The n x (n+1) periodic dotted array of a bounded affine permutation.

Rows live on the infinite strip: row r and row r + n are the same square.
A square is addressed as (row, col) with col in [1, n+1]; the square
(i, j - i + 1) corresponds to the cyclic interval [i, j].  The permutation
places one dot per row residue, at (i, pi(i) - i + 1).

Two region families drive every rank computation:

- T(i, m): the triangle of squares (i + t, c) with 0 <= t <= m - 1 and
  c <= m - t.  It contains the square (i, m) itself and its
  sub-antidiagonal, so that T and P partition the row band.
- P(i, m): the complementary wedge, (i + t, c) with c > m - t.

Dots in P(i, m) count the rank of the interval [i, i + m - 1]; dots in
T(i, m) count its dependencies.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import BoundedAffinePermutation
from .essential import RankedEssentialFamily

Square = tuple[int, int]


def dots(p: BoundedAffinePermutation) -> tuple[Square, ...]:
    """One dot per row i in [1, n], at column pi(i) - i + 1."""
    return tuple([(i, p.eval(i) - i + 1) for i in range(1, p.n + 1)])


def is_white(p: BoundedAffinePermutation, row: int, col: int) -> bool:
    """White test for a single square, on lifts (no set construction).

    Each dot shades the squares strictly to its left in its own row and
    the squares on its sub-antidiagonal.  The square (row, col) sits on
    the antidiagonal holding exactly one dot; it is white iff its own
    row's dot is not strictly to its right and the antidiagonal's dot is
    not strictly above it.
    """
    v = row + col - 1
    return p.eval(row) <= v and p.inverse_at(v) >= row


def corners(p: BoundedAffinePermutation) -> list[Square]:
    """Corner squares of the diagram, by the arithmetic characterization.

    (i, j - i + 1) is a corner iff, on integer lifts,

        pi(i) <= j,  pi^{-1}(j) >= i,  pi^{-1}(j + 1) < i,  pi(i - 1) > j.

    The first two say (i, j) is white; the last two say the squares above
    and to the right are shaded.  Comparing lifts rather than cyclic
    orders keeps the corner test exact next to loops and coloops.
    """
    return [(i, m) for i, m, _ in _ranked_corners(p)]


def _ranked_corners(p: BoundedAffinePermutation) -> list[tuple[int, int, int]]:
    """Each corner (i, m) with the rank of [i, i + m - 1], by one walk per
    row: as in ``ranks_from``, the rank of [i, j] counts the j' <= j with
    pi^{-1}(j') < i, which the walk reads off the inverse table."""
    n, inv = p.n, p._inv
    out = []
    for i in range(1, n + 1):
        lo = max(i, p.eval(i))
        hi = min(i + n - 1, p.eval(i - 1) - 1)
        if lo > hi:
            continue
        rank = below = 0  # below: whether pi^{-1}(j - 1) < i
        for j in range(i, hi + 2):
            pos, val = inv[j % n]
            now = val - pos > j - i  # pi^{-1}(j) < i
            if now and not below and lo < j:
                out.append((i, j - i, rank))
            rank += now
            below = now
    return out


def ranked_essential_family(p: BoundedAffinePermutation) -> RankedEssentialFamily:
    """The ranked corners as the family's triples, plus the full set's.

    ``_ranked_corners`` yields them in canonical order, and no corner has
    length n: that would need pi^{-1}(i + n) < i, against pi(l) <= l + n.
    So (1, n, k) goes in after the corners at start 1, without ``build``'s checks.
    """
    n = p.n
    found = _ranked_corners(p)
    k = p.rank()
    found.insert(bisect_left(found, (2,)), (1, n, k))
    return RankedEssentialFamily(n, k, tuple(found))


def render(p: BoundedAffinePermutation) -> str:
    """Text rendering: '.' white, '#' shaded, 'o' dot, with headers."""
    n = p.n
    dot_cols = {i: c for i, c in dots(p)}
    width = len(str(n + 1))
    lines = [" " * (width + 1) + " ".join(f"{c:>{width}}" for c in range(1, n + 2))]
    for i in range(1, n + 1):
        cells = []
        for j in range(1, n + 2):
            if dot_cols[i] == j:
                cells.append("o")
            elif not is_white(p, i, j):
                cells.append("#")
            else:
                cells.append(".")
        lines.append(
            f"{i:>{width}} " + " ".join(f"{c:>{width}}" for c in cells)
        )
    return "\n".join(lines)
