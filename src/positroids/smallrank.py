"""
Rank-2 specialization: deficient-rank flats and the cyclic-interval
positroid criterion.

For a loopless rank-2 positroid the deficient flats (closed sets whose
rank falls short of their size) are exactly the ranked essential sets;
a loopless rank-2 matroid, described by its partition into parallel
classes, is a positroid iff every class is a cyclic interval.  In rank 3
and up the two families genuinely differ.  Because the classes are cyclic
intervals, a rank-2 positroid's classes are read from interval ranks
alone; only the deficient flats enumerate bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CyclicInterval, mask_to_interval
from .essential import (
    RankedEssentialFamily,
    permutation_from_family,
    rank_from_family,
)
from .geometry import TooLarge, bases


class NotRank2(ValueError):
    pass


class HasLoop(ValueError):
    pass


@dataclass(frozen=True)
class DeficientFlatFamily:
    """Flats F with rank(F) < |F|, as (rank, frozenset) pairs."""

    n: int
    entries: tuple[tuple[int, frozenset[int]], ...]

    def as_set(self) -> set[tuple[int, frozenset[int]]]:
        return set(self.entries)


def _subset_rank_table(n: int, basis_masks: list[int]) -> list[int]:
    """rank(S) for every subset mask, in O(2^n·n).

    The independent sets are the subsets of bases: marking the bases and
    then, going down by mask, every set one element short of a marked
    one marks them all.  An independent S has rank |S|.  Any other S has
    the rank of S less an element of a circuit inside it: its lowest
    element when the rest is independent, else the one found for the rest.
    """
    independent = bytearray(1 << n)
    for B in basis_masks:
        independent[B] = 1
    for S in range((1 << n) - 1, 0, -1):
        if independent[S]:
            for x in range(n):
                if S >> x & 1:
                    independent[S ^ 1 << x] = 1
    rank = [0] * (1 << n)
    in_circuit = [0] * (1 << n)  # for a dependent S, one element of a circuit in S
    for S in range(1, 1 << n):
        if independent[S]:
            rank[S] = S.bit_count()
        else:
            rest = S & S - 1  # S less its lowest element
            in_circuit[S] = S & -S if independent[rest] else in_circuit[rest]
            rank[S] = rank[S ^ in_circuit[S]]
    return rank


def deficient_flats(
    family: RankedEssentialFamily, bound: int = 12
) -> DeficientFlatFamily:
    """All deficient flats of the positroid, computed from its bases.

    The bases come from the family's certified permutation, so a family
    that fails validation raises NotValidated."""
    n = family.n
    TooLarge.check(n, bound)
    basis_masks = []
    for b in bases(permutation_from_family(family), bound=bound):
        m = 0
        for e in b:
            m |= 1 << (e - 1)
        basis_masks.append(m)
    rank = _subset_rank_table(n, basis_masks)
    entries = []
    for S in range(1 << n):
        r = rank[S]
        closed = all(
            S >> x & 1 or rank[S | 1 << x] > r for x in range(n)
        )
        if closed and r < S.bit_count():
            entries.append(
                (r, frozenset(e + 1 for e in range(n) if S >> e & 1))
            )
    entries.sort(key=lambda e: (len(e[1]), sorted(e[1]), e[0]))
    return DeficientFlatFamily(n, tuple(entries))


def family_as_flat_entries(
    family: RankedEssentialFamily,
) -> set[tuple[int, frozenset[int]]]:
    """The family's deficient pairs with intervals flattened to element sets.

    Deficient-flat families only ever contain pairs with r < |F|, so the
    full-set entry drops out exactly when the positroid is free.
    """
    return {
        (r, frozenset(iv.residues()))
        for r, iv in family.entries
        if r < iv.length
    }


def is_positroid_rank2(
    n: int, classes: list[list[int]], loops: list[int] | None = None
) -> bool:
    """Positroid test for a loopless rank-2 matroid given by parallel classes.

    >>> is_positroid_rank2(5, [[1, 2], [3], [4, 5]])
    True
    >>> is_positroid_rank2(4, [[1, 3], [2], [4]])
    False
    """
    if loops:
        raise HasLoop(f"loops {sorted(loops)} not allowed: statements assume looplessness")
    seen: set[int] = set()
    for cls in classes:
        for e in cls:
            if not 1 <= e <= n or e in seen:
                raise ValueError(f"classes do not partition [1, {n}]")
            seen.add(e)
    if len(seen) != n:
        raise ValueError(f"classes do not partition [1, {n}]")
    if len(classes) < 2:
        raise NotRank2("fewer than two parallel classes gives rank below 2")
    for cls in classes:
        mask = 0
        for e in cls:
            mask |= 1 << (e - 1)
        if mask_to_interval(n, mask) is None:
            return False
    return True


def parallel_classes(family: RankedEssentialFamily) -> list[frozenset[int]] | None:
    """Parallel classes of a loopless rank-2 positroid, or None if not one.

    Elements are parallel when their two-element set has rank 1; in rank 2
    this is an equivalence partitioning the ground set.  The classes of a
    positroid are cyclic intervals, so e and a are parallel exactly when
    one of the two arcs [a, e] and [e, a] has rank 1.
    """
    n = family.n
    if family.k != 2:
        return None
    if any(
        rank_from_family(family, CyclicInterval(n, e, 1)) == 0
        for e in range(1, n + 1)
    ):
        return None  # has a loop
    classes: list[set[int]] = []
    for e in range(1, n + 1):
        for cls in classes:
            a = min(cls)
            arcs = (
                CyclicInterval.from_endpoints(n, a, e),
                CyclicInterval.from_endpoints(n, e, a),
            )
            if min(rank_from_family(family, arc) for arc in arcs) == 1:
                cls.add(e)
                break
        else:
            classes.append({e})
    return [frozenset(c) for c in classes]
