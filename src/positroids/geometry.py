"""
Geometric quantities of a positroid: cell codimension, polytope facets
(which are also the variety's rank conditions), basis enumeration by one
serial level-by-level search, and the codimension-one boundary cells.

The codimension of a positroid cell equals the inversion length of its
bounded affine permutation; it can also be assembled from the family as
sum of (k - r) * excess over the entries.  Connected entries give the
facet inequalities of the positroid polytope and the defining rank
conditions of the positroid variety.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BoundedAffinePermutation, CyclicInterval
from .diagram import ranked_essential_family
from .essential import RankedEssentialFamily, connected_entries, excess


class TooLarge(ValueError):
    """Enumeration refused beyond the configured desk-scale bound."""

    @classmethod
    def check(cls, n: int, bound: int) -> None:
        if n > bound:
            raise cls(f"n={n} exceeds bound {bound}")


BASES_BOUND = 16


def _byte_table(first: int) -> tuple[tuple[int, ...], ...]:
    """The elements of each byte value b, bit 0 being element ``first``.
    Entry b + 2^i is entry b with first + i added, for b < 2^i."""
    table: list[tuple[int, ...]] = [()]
    for i in range(8):
        table += [t + (first + i,) for t in table]
    return tuple(table)


# the elements of a mask's bits 0-7 and 8-15, by byte value
_LOW, _HIGH = _byte_table(1), _byte_table(9)


def length(p: BoundedAffinePermutation) -> int:
    """Inversion count: pairs i in [n], i < j <= i + n with pi(i) > pi(j).

    Shifted by multiples of n, these are the pairs with j in [n] and
    j - n <= i < j.  For each j the values pi(i) of those i that exceed
    pi(j) are the members of row j's set S_j in ``p.row_sets`` above
    pi(j).  So it is O(n) int operations, with no ``eval`` call.
    """
    return sum([(row >> v - j + 1).bit_count()
                for j, (v, row) in enumerate(zip(p.window, p.row_sets), 1)])


def codim_from_family(family: RankedEssentialFamily) -> int:
    """Cell codimension as sum of (k - r) times the excess of each entry."""
    return sum([(family.k - r) * e for (_, _, r), e in zip(family.triples, excess(family))])


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


def facet_system(family: RankedEssentialFamily) -> FacetSystem:
    """The polytope's facets; read as rank(I) <= r, its inequalities are
    also the rank conditions defining the positroid variety."""
    ineqs = tuple(
        [(iv, r) for r, iv in connected_entries(family) if not iv.is_full]
    )
    return FacetSystem(family.n, family.k, ineqs)


def bases(
    p: BoundedAffinePermutation, bound: int = BASES_BOUND
) -> list[tuple[int, ...]]:
    """All bases of the positroid: k-subsets meeting the cap of every
    entry of its essential family.

    Returned sorted lexicographically as tuples of elements of [n].

    A k-subset S is a basis exactly when |S & J| <= r for every entry
    (r, J) of the family: every interval rank is min(|I|, r + |I \\ J|)
    over the entries, and |S & I| <= |S & J| + |I \\ J|.  A linear entry
    J = [c, d] is the cap |S & [c, d]| <= r.  A wrapped entry's
    complement is a linear [c, d], and as |S| = k its cap reads
    |S & [c, d]| >= k - r.  Entries that every k-subset meets
    (r >= min(|J|, k)) give no cap.
    """
    TooLarge.check(p.n, bound)
    return _bases(ranked_essential_family(p))


def _bases(family: RankedEssentialFamily) -> list[tuple[int, ...]]:
    """``bases`` off a positroid's own family: ``_basis_masks`` as tuples."""
    masks = _basis_masks(family)
    if family.n > 16:  # beyond the two byte tables
        return [tuple([e + 1 for e in range(family.n) if m >> e & 1]) for m in masks]
    return [_LOW[m & 255] + _HIGH[m >> 8] for m in masks]


def _basis_masks(family: RankedEssentialFamily) -> list[int]:
    """The bases of ``bases`` as masks (bit e - 1 for e), in lex order.

    The search decides e = n down to 1, level by level.  The states that
    take e go before those that leave it out, and e is the first decided
    element a lex comparison meets, so the states stay in lex order.  A
    state takes e only below k elements, and leaves it out only if the
    e - 1 elements left can still make up k; then every cap with c = e
    filters the states.
    """
    n, k = family.n, family.k
    caps: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for start, length, r in family.triples:
        if r >= min(length, k):
            continue
        if start + length <= n + 1:
            caps[start].append((((1 << length) - 1) << start - 1, 0, r))
        else:  # the complement [start + length - n, start - 1]
            c = start + length - n
            caps[c].append((((1 << n - length) - 1) << c - 1, k - r, k))
    states = [0]
    for e in range(n, 0, -1):
        bit = 1 << e - 1
        states = [s | bit for s in states if s.bit_count() < k] + [
            s for s in states if s.bit_count() > k - e
        ]
        for mask, lo, hi in caps[e]:
            states = [m for m in states if lo <= (m & mask).bit_count() <= hi]
    return states


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
