"""
Exact-rational realization oracle: from a matrix over Q to its matroid,
positivity verdict, and bounded affine permutation.

Everything here is exact: columns are scaled to integers and one
fraction-free elimination gives ranks, spans and the signs of minors;
sign-of-minor decisions are the whole point, so no floating point
appears anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator

from .core import BoundedAffinePermutation, json_int
from .geometry import TooLarge


class NotFullRank(ValueError):
    pass


class NotNonNegative(ValueError):
    pass


@dataclass(frozen=True)
class RationalMatrix:
    """A k x n matrix of exact rationals, k <= n, columns indexed by [n]."""

    k: int
    n: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.k > self.n:
            raise ValueError(f"need k <= n, got k={self.k}, n={self.n}")
        if len(self.entries) != self.k or any(
            len(row) != self.n for row in self.entries
        ):
            raise ValueError("entry grid does not match declared shape")

    def column(self, j: int) -> tuple[Fraction, ...]:
        """Column j for j in [1, n]."""
        return tuple(row[j - 1] for row in self.entries)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        entries = tuple(tuple(Fraction(x) for x in row) for row in rows)
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        entries = tuple(
            tuple(Fraction(str(x)) for x in row) for row in obj["entries"]
        )
        return cls(json_int(obj["k"]), json_int(obj["n"]), entries)


def _integer_columns(matrix: RationalMatrix) -> list[list[int]]:
    """Each column times the positive lcm of its denominators, which keeps
    every span and the sign of every minor."""
    out = []
    for j in range(1, matrix.n + 1):
        col = matrix.column(j)
        scale = lcm(*(x.denominator for x in col))
        out.append([x.numerator * (scale // x.denominator) for x in col])
    return out


def _eliminate(vectors: Iterable[list[int]]) -> Iterator[tuple[int, int] | None]:
    """Fraction-free integer elimination, one vector at a time.

    Yields None for a vector in the span of the ones before it, and
    otherwise (pivot, sign): each vector v is reduced to w = c*v plus a
    combination of earlier vectors, with zeros at the earlier pivots and
    before its own; sign is that of c times w[pivot].  A minor of
    independent columns therefore has the sign of the pivot permutation
    times the product of the signs.
    """
    rows: list[tuple[int, list[int]]] = []
    for vec in vectors:
        sign = 1
        for piv, row in rows:
            factor = vec[piv]
            if factor:
                lead = row[piv]
                if lead < 0:
                    sign = -sign
                vec = [lead * a - factor * b for a, b in zip(vec, row)]
        piv = next((c for c, x in enumerate(vec) if x), None)
        if piv is None:
            yield None
            continue
        g = gcd(*vec)
        vec = [x // g for x in vec]
        rows.append((piv, vec))
        yield piv, sign if vec[piv] > 0 else -sign


def _full_rank_columns(matrix: RationalMatrix) -> list[list[int]]:
    cols = _integer_columns(matrix)
    if sum(step is not None for step in _eliminate(cols)) < matrix.k:
        raise NotFullRank("matrix does not have full row rank")
    return cols


def _minor_sign(cols: list[list[int]], subset: tuple[int, ...]) -> int:
    """Sign (-1, 0 or 1) of the maximal minor on the columns in subset."""
    pivots, sign = [], 1
    for step in _eliminate(cols[j - 1] for j in subset):
        if step is None:
            return 0
        pivots.append(step[0])
        sign *= step[1]
    inversions = sum(a > b for a, b in combinations(pivots, 2))
    return -sign if inversions % 2 else sign


def matroid_bases(matrix: RationalMatrix, bound: int = 12) -> list[tuple[int, ...]]:
    """Column sets with nonzero maximal minor, sorted lexicographically."""
    TooLarge.check(matrix.n, bound)
    cols = _full_rank_columns(matrix)
    return [
        subset
        for subset in combinations(range(1, matrix.n + 1), matrix.k)
        if _minor_sign(cols, subset)
    ]


def is_positively_realizing(matrix: RationalMatrix) -> bool:
    """True iff every maximal minor (columns in increasing order) is >= 0."""
    cols = _integer_columns(matrix)
    return all(
        _minor_sign(cols, subset) >= 0
        for subset in combinations(range(1, matrix.n + 1), matrix.k)
    )


def permutation_from_matrix(matrix: RationalMatrix) -> BoundedAffinePermutation:
    """The bounded affine permutation of the positroid realized by the matrix.

    pi(i) is the least j >= i with rank [i, j] = rank [i+1, j], i.e. with
    column i in the span of columns i+1, ..., j (indices mod n); a zero
    column is a loop with pi(i) = i and a column outside the span of all
    others is a coloop.
    """
    n, k = matrix.n, matrix.k
    cols = _full_rank_columns(matrix)
    if not is_positively_realizing(matrix):
        raise NotNonNegative("matrix has a negative maximal minor")
    # prefix[s][t]: rank of the t + 1 columns s + 1, ..., s + t + 1 (cyclically)
    prefix = []
    for s in range(n):
        ranks, r = [], 0
        for step in _eliminate(cols[(s + t) % n] for t in range(n)):
            r += step is not None
            ranks.append(r)
        prefix.append(ranks)

    def rank_arc(start: int, end: int) -> int:
        if end < start:
            return 0
        if end - start + 1 >= n:
            return k
        return prefix[(start - 1) % n][end - start]

    window = [
        next(j for j in range(i, i + n + 1) if rank_arc(i, j) == rank_arc(i + 1, j))
        for i in range(1, n + 1)
    ]
    return BoundedAffinePermutation.from_window(window)
