"""
Geometric quantities of a positroid: cell codimension, polytope facets
(which are also the variety's rank conditions) and basis enumeration.

The codimension of a positroid cell equals the inversion length of its
bounded affine permutation; it can also be assembled from the family as
sum of (k - r) * excess over the entries.  Connected entries give the
facet inequalities of the positroid polytope and the defining rank
conditions of the positroid variety.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .core import BoundedAffinePermutation, CyclicInterval
from .essential import (
    RankedEssentialFamily,
    connected_entries,
    excess,
    rank_from_family,
)


class TooLarge(ValueError):
    """Enumeration refused beyond the configured desk-scale bound."""

    @classmethod
    def check(cls, n: int, bound: int) -> None:
        if n > bound:
            raise cls(f"n={n} exceeds bound {bound}")


BASES_BOUND = 16


def length(p: BoundedAffinePermutation) -> int:
    """Inversion count: pairs i in [n], i < j <= i + n with pi(i) > pi(j)."""
    return sum(
        1
        for i in range(1, p.n + 1)
        for j in range(i + 1, i + p.n + 1)
        if p.eval(i) > p.eval(j)
    )


def codim_from_family(family: RankedEssentialFamily) -> int:
    """Cell codimension as sum of (k - r) times the excess of each entry."""
    table = excess(family)
    return sum((family.k - r) * table[iv] for r, iv in family.entries)


@dataclass(frozen=True)
class FacetSystem:
    """H-representation of a positroid polytope.

    Box bounds 0 <= x_i <= 1 for all i, the rank equality sum(x) = k, and
    one inequality sum_{l in I} x_l <= r per proper connected entry.
    """

    n: int
    k: int
    inequalities: tuple[tuple[CyclicInterval, int], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "box": {"lower": 0, "upper": 1},
            "equality": {"coefficients": [1] * self.n, "rhs": self.k},
            "inequalities": [
                {"start": iv.start, "len": iv.length, "rhs": r}
                for iv, r in self.inequalities
            ],
        }

    def h_rep_text(self) -> str:
        """One row per constraint: coefficients, relation, right-hand side."""
        rows = [" ".join(["1"] * self.n) + f" = {self.k}"]
        for i in range(self.n):
            coeffs = ["0"] * self.n
            coeffs[i] = "1"
            rows.append(" ".join(coeffs) + " >= 0")
            rows.append(" ".join(coeffs) + " <= 1")
        for iv, r in self.inequalities:
            coeffs = ["0"] * self.n
            for e in iv.residues():
                coeffs[e - 1] = "1"
            rows.append(" ".join(coeffs) + f" <= {r}")
        return "\n".join(rows)

    def binary_lattice_points(self) -> set[tuple[int, ...]]:
        """The 0/1 points of the system (level sum = k)."""
        points = set()
        for subset in combinations(range(self.n), self.k):
            vec = [0] * self.n
            for i in subset:
                vec[i] = 1
            if all(
                sum(vec[e - 1] for e in iv.residues()) <= r
                for iv, r in self.inequalities
            ):
                points.add(tuple(vec))
        return points


def facet_system(family: RankedEssentialFamily) -> FacetSystem:
    """The polytope's facets; read as rank(I) <= r, its inequalities are
    also the rank conditions defining the positroid variety."""
    ineqs = tuple(
        (iv, r) for r, iv in connected_entries(family) if not iv.is_full
    )
    return FacetSystem(family.n, family.k, ineqs)


def _all_intervals(n: int) -> list[CyclicInterval]:
    out = [CyclicInterval.full(n)]
    for start in range(1, n + 1):
        for ln in range(1, n):
            out.append(CyclicInterval(n, start, ln))
    return out


def bases(
    family: RankedEssentialFamily, bound: int = BASES_BOUND, first: int | None = None
) -> list[tuple[int, ...]]:
    """All bases of the positroid: k-subsets meeting every interval rank cap.

    Returned sorted lexicographically as tuples of elements of [n].  With
    first given (and k >= 1), only the bases whose least element it is:
    the lex shards used for parallel enumeration.
    """
    n, k = family.n, family.k
    TooLarge.check(n, bound)
    caps = [
        (iv.mask(), rank_from_family(family, iv))
        for iv in _all_intervals(n)
        if not iv.is_full
    ]
    if first is None:
        subsets = combinations(range(1, n + 1), k)
    else:
        subsets = (
            (first, *rest) for rest in combinations(range(first + 1, n + 1), k - 1)
        )
    out = []
    for subset in subsets:
        mask = 0
        for e in subset:
            mask |= 1 << (e - 1)
        if all((mask & imask).bit_count() <= cap for imask, cap in caps):
            out.append(subset)
    return out


def codim1_boundary_count(p: BoundedAffinePermutation, bound: int = 9) -> int:
    """Loop-preserving cells one dimension down in the closure (experimental).

    Counts permutations of the same size and rank whose length exceeds
    p's by one, whose interval ranks are dominated by p's everywhere,
    and whose loops are exactly p's.  Interval dominance alone counts
    every cell of the closure boundary (it agrees with the affine Bruhat
    covers), but that includes degenerations sending an element to zero;
    the published tables of codimension-one boundaries that this count
    is calibrated against draw each cell as a point-line configuration
    and list only the cells keeping every element a nonzero vector, so
    new-loop cells are excluded here.  For rank 1 every boundary cell
    creates a loop and the count is 0.
    """
    from .core import enumerate_permutations

    n = p.n
    TooLarge.check(n, bound)
    k = p.rank()
    target = length(p) + 1
    intervals = _all_intervals(n)
    p_ranks = [p.rank_interval(iv) for iv in intervals]
    loops = p.loops()
    count = 0
    for q in enumerate_permutations(n, k=k):
        if length(q) != target or q.loops() != loops:
            continue
        if all(
            q.rank_interval(iv) <= cap for iv, cap in zip(intervals, p_ranks)
        ):
            count += 1
    return count
