"""
References for the bases of a positroid, used only by the tests.

``bases_by_scan`` tests every k-subset against the rank cap of every
proper cyclic interval, with the caps read from the family by
``rank_from_family``.  ``geometry.bases`` reaches the same subsets, in
the same lexicographic order, by a level-by-level search that checks
only one cap per entry of the family, and is checked against it.  The two
others read the bases another way: ``matroid_bases`` from the nonzero
maximal minors of a realizing matrix, and ``binary_lattice_points`` as
the 0/1 points of the positroid polytope's facet system.

``bases_output`` is the ``bases`` subcommand's output built the plain
way, the bases as lists through ``json.dumps`` or joined by spaces;
``cli`` writes the same bytes straight from the basis masks, and is
checked byte for byte against it.
"""

from __future__ import annotations

import json
from itertools import combinations

from positroids.core import CyclicInterval
from positroids.essential import RankedEssentialFamily, rank_from_family
from positroids.geometry import FacetSystem, TooLarge, _bases
from positroids.realize import (
    NotFullRank,
    RationalMatrix,
    _eliminate,
    _minor_sign,
)


def bases_by_scan(family: RankedEssentialFamily) -> list[tuple[int, ...]]:
    """The k-subsets meeting every cap, sorted lexicographically."""
    n, k = family.n, family.k
    caps = []
    for start in range(1, n + 1):
        for ln in range(1, n):
            iv = CyclicInterval(n, start, ln)
            caps.append((iv.mask(), rank_from_family(family, iv)))
    out = []
    for subset in combinations(range(1, n + 1), k):
        mask = 0
        for e in subset:
            mask |= 1 << (e - 1)
        if all((mask & imask).bit_count() <= cap for imask, cap in caps):
            out.append(subset)
    return out


def bases_output(family: RankedEssentialFamily, fmt: str) -> str:
    """Everything ``bases`` prints for a certified family."""
    found = _bases(family)
    if fmt == "json":
        return json.dumps([list(b) for b in found]) + "\n"
    return "".join([" ".join(str(e) for e in b) + "\n" for b in found])


def matroid_bases(matrix: RationalMatrix, bound: int = 12) -> list[tuple[int, ...]]:
    """Column sets with nonzero maximal minor, sorted lexicographically."""
    TooLarge.check(matrix.n, bound)
    cols = matrix.integer_columns
    if sum(step is not None for step in _eliminate(cols)) < matrix.k:
        raise NotFullRank("matrix does not have full row rank")
    return [
        subset
        for subset in combinations(range(1, matrix.n + 1), matrix.k)
        if _minor_sign(cols, subset)
    ]


def binary_lattice_points(system: FacetSystem) -> set[tuple[int, ...]]:
    """The 0/1 points of the system (level sum = k)."""
    points = set()
    for subset in combinations(range(system.n), system.k):
        vec = [0] * system.n
        for i in subset:
            vec[i] = 1
        if all(
            sum(vec[e - 1] for e in iv.residues()) <= r
            for iv, r in system.inequalities
        ):
            points.add(tuple(vec))
    return points
