"""
References for the realization oracle, used only by the tests and the
CLI corpus.

``permutation_by_ranks`` reads pi off interval ranks: pi(i) is the least
j >= i with rank [i, j] = rank [i+1, j], each rank taken by
``_eliminate`` on the cyclic run of columns.  ``realize.permutation_from_matrix``
reads the same pi off the Grassmann necklace and is checked against it.
``tnn_matrices`` draws seeded totally nonnegative matrices.
"""

from __future__ import annotations

import random
from fractions import Fraction

from positroids.core import BoundedAffinePermutation
from positroids.realize import (
    RationalMatrix,
    _eliminate,
    is_positively_realizing,
)


def permutation_by_ranks(matrix: RationalMatrix) -> BoundedAffinePermutation:
    """pi by the rank rule, for a full-rank matrix."""
    n = matrix.n
    cols = matrix.integer_columns

    def rank(start: int, end: int) -> int:  # columns start, ..., end (mod n)
        run = [cols[c % n] for c in range(start - 1, min(end, start + n - 1))]
        return sum(step is not None for step in _eliminate(run))

    return BoundedAffinePermutation.from_window(
        next(j for j in range(i, i + n + 1) if rank(i, j) == rank(i + 1, j))
        for i in range(1, n + 1)
    )


def tnn_rows(rng: random.Random, k: int, n: int) -> list[list[Fraction]]:
    """Vandermonde columns (1, x, ..., x^(k-1)) at increasing positive
    nodes, some repeated from the column before (parallel elements) and
    some zeroed (loops), with at least k distinct nonzero columns: every
    maximal minor in increasing column order is then >= 0."""
    while True:
        node, columns = Fraction(0), []
        for j in range(n):
            roll = rng.random()
            if j and roll < 0.2:
                columns.append(columns[-1])
            elif roll < 0.3:
                columns.append([Fraction(0)] * k)
            else:
                node += Fraction(rng.randint(1, 5), rng.randint(1, 3))
                columns.append([node**p for p in range(k)])
        if len({tuple(c) for c in columns if any(c)}) >= k:
            return [[columns[j][i] for j in range(n)] for i in range(k)]


def tnn_matrices(per_shape: int = 6) -> list[RationalMatrix]:
    """``per_shape`` seeded draws for each n = 1..10 and k = 1..min(n, 4),
    kept when ``is_positively_realizing`` accepts them."""
    rng = random.Random("tnn-matrices")
    drawn = [
        RationalMatrix.from_rows(tnn_rows(rng, k, n))
        for n in range(1, 11)
        for k in range(1, min(n, 4) + 1)
        for _ in range(per_shape)
    ]
    return [m for m in drawn if is_positively_realizing(m)]
