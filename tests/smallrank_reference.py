"""
Reference for the rank-2 criterion, used only by the tests: the parallel
classes of a loopless rank-2 positroid read from its family's interval
ranks, which ``is_positroid_rank2`` is checked against.
"""

from __future__ import annotations

from positroids.core import CyclicInterval
from positroids.essential import RankedEssentialFamily, rank_from_family


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
