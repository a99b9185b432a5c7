"""
Geometric reference constructions for the dotted array, used only by the
tests.

They follow the definitions literally (regions as membership predicates,
shading as a set of squares) and are the references that the package's
arithmetic is checked against: ``diagram.corners``, ``diagram.is_white``,
``ProperDotting.d`` and ``BoundedAffinePermutation.rank_interval``.
"""

from __future__ import annotations

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
