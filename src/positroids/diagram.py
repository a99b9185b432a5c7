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
    """Each corner (i, m) with the rank of [i, i + m - 1], off row i's set
    S_i in ``p.row_sets``.

    In ``corners``' terms, [i, j] is a corner iff j is not in S_i, j + 1
    is, and pi(i) <= j < pi(i - 1): a rising edge of S_i at bit
    m = j + 1 - i, with pi(i) - i < m <= pi(i - 1) - i.  As in
    ``rank_at``, the rank of [i, j] counts S_i up to j, the bits below
    the edge.  So it is O(n + E) int operations for E corners.
    """
    out = []
    prev = p.window[-1] - p.n  # pi(i - 1)
    for i, (v, row) in enumerate(zip(p.window, p.row_sets), 1):
        if v < prev:
            edges = row & ~(row << 1) & (1 << prev - i + 1) - (1 << v - i + 1)
            while edges:
                low = edges & -edges
                out.append((i, low.bit_length() - 1, (row & low - 1).bit_count()))
                edges ^= low
        prev = v
    return out


def ranked_essential_family(p: BoundedAffinePermutation) -> RankedEssentialFamily:
    """The ranked corners as the family's triples, plus the full set's:
    O(n + E) int operations for E entries.

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
    """Text rendering: '.' white, '#' shaded, 'o' dot, with headers.

    Row i's dot is in column pi(i) - i + 1.  The square (i, c) is white
    iff it is not left of the dot and c - 1 + i is not in S_i: its
    antidiagonal's dot is not above it.
    """
    n = p.n
    width = len(str(n + 1))
    lines = [" " * (width + 1) + " ".join(f"{c:>{width}}" for c in range(1, n + 2))]
    for i, (v, row) in enumerate(zip(p.window, p.row_sets), 1):
        dot = v - i  # the dot's column, 0-based like c
        cells = [
            "o" if c == dot else "#" if c < dot or row >> c & 1 else "."
            for c in range(n + 1)
        ]
        lines.append(
            f"{i:>{width}} " + " ".join(f"{c:>{width}}" for c in cells)
        )
    return "\n".join(lines)
