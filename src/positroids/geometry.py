"""
Geometric quantities of a positroid: cell codimension, polytope facets
(which are also the variety's rank conditions), basis enumeration and
the codimension-one boundary cells.

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
        [(iv, r) for r, iv in connected_entries(family) if not iv.is_full]
    )
    return FacetSystem(family.n, family.k, ineqs)


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
    caps = []
    for start in range(1, n + 1):
        for ln in range(1, n):
            iv = CyclicInterval(n, start, ln)
            caps.append((iv.mask(), rank_from_family(family, iv)))
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


def codim1_boundary_count(p: BoundedAffinePermutation) -> int:
    """Loop-preserving cells one dimension down in the closure of p's cell.

    Closure of positroid cells is affine Bruhat order on bounded affine
    permutations (Knutson, Lam and Speyer, *Positroid varieties: juggling
    and geometry*, 2013), so the boundary cells of codimension one are
    the covers of p.  Swapping the values at a < b < a + n (and at every
    translate) is one when b < pi(a) < pi(b) <= a + n and no c between a
    and b has pi(a) < pi(c) < pi(b): the result stays bounded and has
    exactly one more inversion.  The strict b < pi(a) leaves out the
    covers that send b to a new loop: the published tables of
    codimension-one boundaries that this count is calibrated against
    draw each cell as a point-line configuration and list only the cells
    keeping every element a nonzero vector.  For rank 1 every boundary
    cell creates a loop and the count is 0.  O(n^2): for each a, the b
    are scanned upwards with the least pi(b) above pi(a) seen so far.
    """
    n = p.n
    count = 0
    for a in range(1, n + 1):
        pa = p.eval(a)
        ceiling = a + n + 1  # least pi(c) > pi(a) over a < c < b, capped by the bound
        for b in range(a + 1, pa):
            pb = p.eval(b)
            if pa < pb < ceiling:
                count += 1
                ceiling = pb
    return count
