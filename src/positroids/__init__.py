"""Positroid calculus via ranked essential sets.

The package is organized around one pivot object, the bounded affine
permutation, and the ranked essential family extracted from its diagram:

- core: cyclic intervals, cyclic orders, permutations, direct ranks
- diagram: the periodic dotted array, corners, family extraction
- essential: rank reconstruction, connectedness, excess/core, axioms,
  family-to-permutation
- retrieval: the rank-condition retrieval algorithm with trace support
- geometry: cell codimension, polytope facets (= variety conditions), bases
- smallrank: rank-2 flats and the cyclic-interval positroid criterion
- realize: exact-rational realization oracle
"""

from .core import (
    BoundedAffinePermutation,
    BoundViolation,
    CyclicInterval,
    CyclicOrder,
    NotBijective,
    count_permutations,
    enumerate_permutations,
)
from .essential import RankedEssentialFamily, NotValidated

__all__ = [
    "BoundedAffinePermutation",
    "BoundViolation",
    "CyclicInterval",
    "CyclicOrder",
    "NotBijective",
    "NotValidated",
    "RankedEssentialFamily",
    "count_permutations",
    "enumerate_permutations",
]
