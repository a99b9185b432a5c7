"""
Exact-rational realization oracle: from a matrix over Q to its
positivity verdict and the bounded affine permutation of its positroid.

Everything here is exact: columns are scaled to integers and one
fraction-free elimination, run from each column in turn, gives the
Grassmann necklace and the signs of minors; so no floating point
appears anywhere in this module.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Iterator

from .core import BoundedAffinePermutation, json_array, json_int
from .geometry import BASES_BOUND, TooLarge


# Largest decimal exponent a matrix entry may carry, in magnitude: an
# entry is expanded to an exact integer, and 4300 is also Python's default
# limit on the digits of an integer string, which longer mantissas meet.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


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
        return tuple([row[j - 1] for row in self.entries])

    @functools.cached_property
    def integer_columns(self) -> list[list[int]]:
        """Each column times the positive lcm of its denominators, which
        keeps every span and the sign of every minor; scaled once per
        matrix, for the necklace and the minor signs alike."""
        out = []
        for j in range(1, self.n + 1):
            col = self.column(j)
            scale = lcm(*(x.denominator for x in col))
            out.append([x.numerator * (scale // x.denominator) for x in col])
        return out

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "entries": [[str(x) for x in row] for row in self.entries],
        }

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        entries = tuple([tuple([Fraction(x) for x in row]) for row in rows])
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def from_json(cls, obj: dict) -> "RationalMatrix":
        rows = json_array(obj["entries"])
        entries = tuple([tuple([_entry(str(x)) for x in json_array(row)]) for row in rows])
        return cls(json_int(obj["k"]), json_int(obj["n"]), entries)


def _entry(text: str) -> Fraction:
    """An exact matrix entry, refusing a decimal exponent beyond
    MAX_DECIMAL_EXPONENT before it is expanded."""
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
        raise ValueError(
            f"decimal exponent of {text!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude"
        )
    return Fraction(text)


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


def is_positively_realizing(matrix: RationalMatrix) -> bool:
    """True iff every maximal minor (columns in increasing order) is >= 0."""
    cols = matrix.integer_columns
    return all(
        _minor_sign(cols, subset) >= 0
        for subset in combinations(range(1, matrix.n + 1), matrix.k)
    )


def permutation_from_matrix(matrix: RationalMatrix) -> BoundedAffinePermutation:
    """The bounded affine permutation of the positroid realized by the matrix.

    pi is read off the Grassmann necklace, where I_s is the columns one
    elimination keeps over s, s+1, ..., s-1 (mod n): pi(i) is i for a zero
    column, i + n for a coloop (I_{i+1} = I_i), else the column I_{i+1}
    gains, lifted into (i, i + n).  The rank is the size of each I_s.  All
    C(n, k) minor signs are checked, so n is bounded as for bases.

    >>> permutation_from_matrix(RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1]])).window
    (2, 4, 6)
    """
    n, k = matrix.n, matrix.k
    TooLarge.check(n, BASES_BOUND)
    cols = matrix.integer_columns
    necklace = [  # necklace[s] is I_{s+1}
        {(s + t) % n + 1 for t, step in enumerate(_eliminate(cols[s:] + cols[:s]))
         if step is not None}
        for s in range(n)
    ]
    if any(len(basis) < k for basis in necklace):
        raise NotFullRank("matrix does not have full row rank")
    if not is_positively_realizing(matrix):
        raise NotNonNegative("matrix has a negative maximal minor")
    window = []
    for i, basis in enumerate(necklace, start=1):
        gained = necklace[i % n] - basis  # I_{i+1} minus I_i
        if i not in basis:  # a zero column: a loop
            window.append(i)
        else:  # a coloop gains nothing and goes to i + n
            window.append(i + (gained.pop() - i) % n if gained else i + n)
    return BoundedAffinePermutation.from_window(window)
