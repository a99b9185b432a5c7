"""
The axiom checker as it stood before it read the containment index, used
only by the tests.

It works out containment by rescanning the entries' masks on every pair:
E2 tests every ordered pair of entries, and each E3 pair rebuilds its
covering and contained entries and minimises them quadratically.  It is
the reference that ``essential.validate_chess`` is checked against, down
to the order of the violations and their duplicates.  It splits the
meet of two entries into its maximal cyclic runs with ``mask_arcs``.
"""

from __future__ import annotations

from positroids.core import CyclicInterval, residue
from positroids.essential import (
    Entry,
    RankedEssentialFamily,
    Violation,
    rank_from_family,
)


def mask_arcs(n: int, mask: int) -> list[CyclicInterval]:
    """The maximal cyclic runs of an element mask, in order of their start.

    >>> mask_arcs(6, 0b110011)  # {1, 2, 5, 6} is the one run [5, 2]
    [CyclicInterval(n=6, start=5, length=4)]
    >>> mask_arcs(6, 0b011011)
    [CyclicInterval(n=6, start=1, length=2), CyclicInterval(n=6, start=4, length=2)]
    """
    full = (1 << n) - 1
    if mask == full:
        return [CyclicInterval.full(n)]
    # a run starts at e when e is in the mask and its cyclic predecessor is not
    starts = mask & ~(mask << 1 | mask >> (n - 1))
    arcs = []
    while starts:
        start = (starts & -starts).bit_length()
        turned = (mask >> (start - 1) | mask << (n - start + 1)) & full
        length = (~turned & (turned + 1)).bit_length() - 1  # trailing ones
        arcs.append(CyclicInterval(n, start, length))
        starts &= starts - 1
    return arcs


def _gap_between(n: int, a: CyclicInterval, b: CyclicInterval) -> CyclicInterval | None:
    """Interval strictly between a's end and b's start, None when adjacent."""
    gap_len = (b.start - a.end - 1) % n
    if gap_len == 0:
        return None
    return CyclicInterval(n, residue(a.end + 1, n), gap_len)


def validate_chess(family: RankedEssentialFamily) -> list[Violation]:
    """Check the three essential-set axioms; empty list means valid.

    It agrees with the faster round trip of permutation_from_family and
    runs only to list the violations of a family that fails it.

    E1  k <= n, and every proper entry has 0 <= r < |I| and
        0 < k - r <= n - |I|.
    E2  nested entries have strictly increasing rank, with the increase
        strictly below the size difference (non-strict against [1, n]).
    E3  the cyclic submodular inequalities for disjoint and overlapping
        pairs, taking minimal covering and maximal contained entries.

    All violations are reported, not just the first.
    """
    n, k = family.n, family.k
    violations: list[Violation] = []
    entries = family.entries
    masks = [iv.mask() for _, iv in entries]  # once per family, read by every pair

    # E1
    for r, iv in entries:
        if iv.is_full:
            if r > n:
                violations.append(
                    Violation("E1", ((r, iv),), f"k <= n fails: {r} > {n}")
                )
            continue
        if r >= iv.length:
            violations.append(
                Violation("E1", ((r, iv),), f"|I| > r fails: {iv.length} <= {r}")
            )
        if r >= k:
            violations.append(
                Violation("E1", ((r, iv),), f"k - r > 0 fails with k={k}")
            )
        if k - r > n - iv.length:
            violations.append(
                Violation(
                    "E1", ((r, iv),), f"complement too small for k - r = {k - r}"
                )
            )

    # E2 over nested pairs; the full set participates as the outer
    # interval with the lower bound only (its upper bound is E1's).
    for a, (r1, iv1) in enumerate(entries):
        if iv1.is_full:
            continue
        for b, (r2, iv2) in enumerate(entries):
            if a == b or masks[a] & ~masks[b]:
                continue
            if r2 - r1 <= 0:
                violations.append(
                    Violation(
                        "E2", ((r1, iv1), (r2, iv2)),
                        f"nested ranks not strictly increasing: {r1} -> {r2}",
                    )
                )
            if not iv2.is_full and r2 - r1 >= (masks[b] & ~masks[a]).bit_count():
                violations.append(
                    Violation(
                        "E2", ((r1, iv1), (r2, iv2)),
                        "rank increase not below size difference",
                    )
                )

    # E3
    proper = [(e, m) for e, m in zip(entries, masks) if not e[1].is_full]
    for x in range(len(proper)):
        for y in range(len(proper)):
            if x == y:
                continue
            (e1, m1), (e2, m2) = proper[x], proper[y]
            inter = m1 & m2
            if inter == m1 or inter == m2:
                continue  # nested: E2 territory
            if inter == 0:
                if x > y:
                    continue  # handle each unordered disjoint pair once, both ways below
                violations.extend(_check_e3_disjoint(family, masks, e1, e2))
                violations.extend(_check_e3_disjoint(family, masks, e2, e1))
            else:
                arcs = mask_arcs(n, inter)
                if len(arcs) > 1:
                    if x < y:
                        violations.extend(_check_e3_two_arc(family, masks, e1, e2, arcs))
                    continue
                overlap = arcs[0]
                if not (e1[1].contains(e2[1].start) and e2[1].contains(residue(e1[1].end, n))):
                    continue  # handled from the orientation where e2 starts inside e1
                violations.extend(_check_e3_overlap(family, masks, e1, e2, overlap))
    return violations


def _covering_minimal(
    family: RankedEssentialFamily, masks: list[int], arc: CyclicInterval
) -> list[Entry]:
    amask = arc.mask()
    covering = [(e, m) for e, m in zip(family.entries, masks) if amask & ~m == 0]
    return [
        e
        for e, m in covering
        if not any(m2 != m and m2 & ~m == 0 for _, m2 in covering)
    ]


def _contained_maximal(
    family: RankedEssentialFamily, masks: list[int], region: CyclicInterval | None
) -> list[tuple[int, CyclicInterval | None]]:
    if region is None:
        return [(0, None)]
    rmask = region.mask()
    inside = [(e, m) for e, m in zip(family.entries, masks) if m & ~rmask == 0]
    maximal = [
        e for e, m in inside if not any(m2 != m and m & ~m2 == 0 for _, m2 in inside)
    ]
    return maximal if maximal else [(0, None)]


def _uncovered(region: CyclicInterval | None, sub: CyclicInterval | None) -> int:
    if region is None:
        return 0
    if sub is None:
        return region.length
    return (region.mask() & ~sub.mask()).bit_count()


def _check_e3_disjoint(
    family: RankedEssentialFamily, masks: list[int], e1: Entry, e2: Entry
) -> list[Violation]:
    """Case of disjoint intervals, oriented e1 then gap then e2."""
    n = family.n
    (r1, iv1), (r2, iv2) = e1, e2
    arc = CyclicInterval.from_endpoints(n, iv1.start, iv2.end)
    gap = _gap_between(n, iv1, iv2)
    covers = _covering_minimal(family, masks, arc)
    if not covers:
        return [Violation("E3-cover", (e1, e2), f"no entry contains the arc {arc}")]
    out = []
    for r3, iv3 in covers:
        for r4, iv4 in _contained_maximal(family, masks, gap):
            if r1 + r2 < r3 - r4 - _uncovered(gap, iv4):
                out.append(
                    Violation(
                        "E3", (e1, e2, (r3, iv3)),
                        "disjoint-pair inequality fails",
                    )
                )
    return out


def _check_e3_two_arc(
    family: RankedEssentialFamily, masks: list[int], e1: Entry, e2: Entry,
    arcs: list[CyclicInterval],
) -> list[Violation]:
    """Pair intersecting in two arcs: the union is the whole circle and
    the intersection rank implied by submodularity must not undercut the
    rank either arc already carries."""
    k = family.k
    (r1, _), (r2, _) = e1, e2
    term = r1 + r2 - k
    estimate = sum(
        min(r + _uncovered(arc, iv) for r, iv in _contained_maximal(family, masks, arc))
        for arc in arcs
    )
    implied = min(term, estimate)
    if any(implied < rank_from_family(family, arc) for arc in arcs):
        return [Violation("E3", (e1, e2), "two-arc intersection rank inconsistent")]
    return []


def _check_e3_overlap(
    family: RankedEssentialFamily, masks: list[int], e1: Entry, e2: Entry,
    overlap: CyclicInterval,
) -> list[Violation]:
    """Case of one-sided overlap: e2 starts inside e1 and ends outside."""
    n = family.n
    (r1, iv1), (r2, iv2) = e1, e2
    union_arc = CyclicInterval.from_endpoints(n, iv1.start, iv2.end)
    covers = _covering_minimal(family, masks, union_arc)
    if not covers:
        return [
            Violation("E3-cover", (e1, e2), f"no entry contains the arc {union_arc}")
        ]
    out = []
    for r3, iv3 in covers:
        for r4, iv4 in _contained_maximal(family, masks, overlap):
            if r1 + r2 < r3 + r4 + _uncovered(overlap, iv4):
                out.append(
                    Violation(
                        "E3", (e1, e2, (r3, iv3)),
                        "overlapping-pair inequality fails",
                    )
                )
    return out
