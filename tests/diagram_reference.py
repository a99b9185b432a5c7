"""
Geometric reference constructions for the dotted array, used only by the
tests.

They follow the definitions literally (regions as membership predicates,
shading as a set of squares) and are the references that the package's
arithmetic is checked against: ``diagram.corners``, ``ProperDotting.d``
and ``BoundedAffinePermutation.rank_interval``.  Between the two sit the
square-by-square white test ``is_white`` and the per-row corner walk
``ranked_corners_by_walk``, which ``diagram.render`` and
``diagram._ranked_corners`` are checked against.
"""

from __future__ import annotations

import random
from typing import Callable

from positroids.core import BoundedAffinePermutation, residue
from positroids.diagram import Square, dots


def random_permutation(rng, n: int) -> BoundedAffinePermutation:
    """A random bounded affine permutation, as acceptance criterion 08 draws
    them: a shuffled permutation lifted into [i, i+n], with each fixed
    point made a loop or a coloop by a coin flip."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    window = []
    for i in range(1, n + 1):
        v = i + (sigma[i - 1] - i) % n
        if v == i and rng.random() < 0.5:
            v = i + n
        window.append(v)
    return BoundedAffinePermutation.from_window(window)


# sizes of the seeded windows that the sweeps are checked on
SEEDED_SIZES = (16, 24, 40, 64, 128, 256)


def seeded_permutations(n: int) -> list[BoundedAffinePermutation]:
    """Criterion-08 permutations of size n, seeded by n: 50 up to n = 64,
    8 above."""
    rng = random.Random(500 + n)
    return [random_permutation(rng, n) for _ in range(50 if n <= 64 else 8)]


def _band_offsets(n: int, row: int, anchor_row: int, height: int):
    """Offsets t with anchor_row + t = row mod n and 0 <= t <= height - 1."""
    t = (row - anchor_row) % n
    while t <= height - 1:
        yield t
        t += n


def region_P(n: int, sq: Square) -> Callable[[Square], bool]:
    """Membership predicate for the wedge P at ``sq`` (rows taken mod n)."""
    i, m = sq

    def member(other: Square) -> bool:
        row, col = other
        if not 1 <= col <= n + 1:
            return False
        return any(col > m - t for t in _band_offsets(n, row, i, m))

    return member


def region_T(n: int, sq: Square) -> Callable[[Square], bool]:
    """Membership predicate for the triangle T at ``sq`` (rows taken mod n)."""
    i, m = sq

    def member(other: Square) -> bool:
        row, col = other
        if not 1 <= col <= n + 1:
            return False
        return any(col <= m - t for t in _band_offsets(n, row, i, m))

    return member


def sub_antidiagonal(n: int, sq: Square) -> set[Square]:
    """The squares (i + l, j - l) for 0 < l < j, rows reduced mod n."""
    i, j = sq
    return {(residue(i + l, n), j - l) for l in range(1, j)}


def count_dots_in_P(p: BoundedAffinePermutation, sq: Square) -> int:
    member = region_P(p.n, sq)
    return sum(1 for d in dots(p) if member(d))


def count_dots_in_T(p: BoundedAffinePermutation, sq: Square) -> int:
    member = region_T(p.n, sq)
    return sum(1 for d in dots(p) if member(d))


def shaded_set(p: BoundedAffinePermutation) -> set[Square]:
    """All shaded squares, by the shading rule applied to every dot.

    Each dot shades the squares strictly to its left in its own row and
    the squares on its sub-antidiagonal.  This follows the geometric
    construction literally; it is the cross-check for corners(), which
    uses arithmetic instead.
    """
    n = p.n
    shaded: set[Square] = set()
    for i, c in dots(p):
        shaded.update((i, c2) for c2 in range(1, c))
        shaded.update(sub_antidiagonal(n, (i, c)))
    return shaded


def geometric_corners(p: BoundedAffinePermutation) -> list[Square]:
    """Corners read off the shaded diagram: white squares whose upper,
    right, and upper-right neighbours are all non-white (rows periodic,
    squares beyond column n+1 nonexistent)."""
    n = p.n
    shaded = shaded_set(p)

    def white(row: int, col: int) -> bool:
        return col <= n + 1 and (residue(row, n), col) not in shaded

    found = []
    for i in range(1, n + 1):
        for j in range(1, n + 2):
            if (
                white(i, j)
                and not white(i - 1, j)
                and not white(i, j + 1)
                and not white(i - 1, j + 1)
            ):
                found.append((i, j))
    return found


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


def ranked_corners_by_walk(p: BoundedAffinePermutation) -> list[tuple[int, int, int]]:
    """Each corner (i, m) with the rank of [i, i + m - 1], by one walk
    over every candidate of every row: as in ``rank_at``, the rank of
    [i, j] counts the j' <= j with pi^{-1}(j') < i, which the walk reads
    off the inverse table."""
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


def render_by_squares(p: BoundedAffinePermutation) -> str:
    """``diagram.render`` by one ``is_white`` test per square."""
    n = p.n
    dot_cols = dict(dots(p))
    width = len(str(n + 1))
    lines = [" " * (width + 1) + " ".join(f"{c:>{width}}" for c in range(1, n + 2))]
    for i in range(1, n + 1):
        cells = [
            "o" if dot_cols[i] == j else "." if is_white(p, i, j) else "#"
            for j in range(1, n + 2)
        ]
        lines.append(f"{i:>{width}} " + " ".join(f"{c:>{width}}" for c in cells))
    return "\n".join(lines)
