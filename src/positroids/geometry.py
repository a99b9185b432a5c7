"""
Geometric quantities of a positroid: cell codimension, polytope facets
(which are also the variety's rank conditions), basis enumeration by one
serial pruned search, and the codimension-one boundary cells.

The codimension of a positroid cell equals the inversion length of its
bounded affine permutation; it can also be assembled from the family as
sum of (k - r) * excess over the entries.  Connected entries give the
facet inequalities of the positroid polytope and the defining rank
conditions of the positroid variety.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BoundedAffinePermutation, CyclicInterval
from .essential import RankedEssentialFamily, connected_entries, excess


class TooLarge(ValueError):
    """Enumeration refused beyond the configured desk-scale bound."""

    @classmethod
    def check(cls, n: int, bound: int) -> None:
        if n > bound:
            raise cls(f"n={n} exceeds bound {bound}")


BASES_BOUND = 16


def length(p: BoundedAffinePermutation) -> int:
    """Inversion count: pairs i in [n], i < j <= i + n with pi(i) > pi(j).

    pi(j) for j in (i, i + n] is read off the window and its copy lifted
    by n, so the count makes no ``eval`` call.
    """
    n, window = p.n, p.window
    lifted = window + tuple([v + n for v in window])
    count = 0
    for a, v in enumerate(window):
        for u in lifted[a + 1 : a + n + 1]:
            if v > u:
                count += 1
    return count


def codim_from_family(family: RankedEssentialFamily) -> int:
    """Cell codimension as sum of (k - r) times the excess of each entry."""
    values = excess(family).values()
    return sum([(family.k - r) * e for (r, _), e in zip(family.entries, values)])


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
    """All bases of the positroid: k-subsets meeting every interval rank cap.

    Returned sorted lexicographically as tuples of elements of [n].

    A k-subset S is a basis exactly when |S & I| <= rank(I) for every
    proper cyclic interval I.  Each such I is a linear interval [c, d] or
    the complement of one, whose cap reads |S & [c, d]| >= k - rank(I).
    So with P(e) = |S & [1, e]|, every proper [c, d] must have
    lo <= P(d) - P(c - 1) <= hi.  A depth-first search decides e = 1..n
    in turn, taking e before leaving it out (which yields lex order), and
    checks the caps ending at e as soon as e is decided.  Caps that every
    k-subset meets are dropped, so its cost follows the number of bases,
    not C(n, k).  The ranks come from one interval-rank table.
    """
    n = p.n
    TooLarge.check(n, bound)
    table = p.interval_ranks()
    k = table[0][n]
    caps: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for c in range(1, d + 1):
            ln = d - c + 1
            if ln == n:
                continue
            hi = table[c - 1][ln]
            lo = k - table[d % n][n - ln]  # the complement starts at d + 1
            if hi < min(ln, k) or lo > max(0, k - (n - ln)):
                caps[d].append((c - 1, lo, hi))
    out: list[tuple[int, ...]] = []
    _search(1, n, k, caps, [0] * (n + 1), [], out)
    return out


def _search(
    e: int,
    n: int,
    k: int,
    caps: list[list[tuple[int, int, int]]],
    prefix: list[int],
    chosen: list[int],
    out: list[tuple[int, ...]],
) -> None:
    """Append to out every basis extending the decided elements before e,
    of which prefix counts the chosen ones.  It recurses on itself, not
    through a nested closure, which would leave a reference cycle on
    every call."""
    if e > n:
        out.append(tuple(chosen))
        return
    before = prefix[e - 1]
    for take in (1, 0):
        count = before + take
        if count > k or count + n - e < k:
            continue
        for c, lo, hi in caps[e]:
            if not lo <= count - prefix[c] <= hi:
                break
        else:
            prefix[e] = count
            if take:
                chosen.append(e)
            _search(e + 1, n, k, caps, prefix, chosen, out)
            if take:
                chosen.pop()


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
