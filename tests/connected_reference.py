"""
Brute-force references for connectedness, excess and the rank formula
from connected entries, used only by the tests.

They follow the definitions literally: connectedness by a search over
every set of pairwise-disjoint entries inside an interval, excess by
rescanning the family for containment, and the rank of an interval by a
search over every disjoint union of connected entries.  They are
exponential or quadratic per entry, and are the references that
``essential.connected_entries``, ``essential.excess`` and the paper's
rank-from-connected theorem are checked against.
"""

from __future__ import annotations

from typing import Sequence

from positroids.core import CyclicInterval
from positroids.essential import Entry, RankedEssentialFamily, connected_entries


def disjoint_decompositions_exist(
    target: int, nullities: Sequence[int], masks: Sequence[int],
    idx: int = 0, used_mask: int = 0, parts: int = 0,
) -> bool:
    """True if >= 2 pairwise-disjoint parts have nullities summing to target."""
    if target == 0 and parts >= 2:
        return True
    if target <= 0 or idx == len(nullities):
        return False
    if masks[idx] & used_mask == 0 and disjoint_decompositions_exist(
        target - nullities[idx], nullities, masks, idx + 1, used_mask | masks[idx], parts + 1
    ):
        return True
    return disjoint_decompositions_exist(target, nullities, masks, idx + 1, used_mask, parts)


def connected_by_search(family: RankedEssentialFamily) -> set[Entry]:
    """Entries whose nullity |I| - r is not the sum of the nullities of two
    or more pairwise-disjoint other entries inside I."""
    out = set()
    for r, iv in family.entries:
        mask = iv.mask()
        inside = [
            (rr, jv.mask()) for rr, jv in family.entries
            if jv != iv and jv.mask() & ~mask == 0
        ]
        nullities = [mm.bit_count() - rr for rr, mm in inside]
        masks = [mm for _, mm in inside]
        if not disjoint_decompositions_exist(iv.length - r, nullities, masks):
            out.add((r, iv))
    return out


def excess_by_rescan(family: RankedEssentialFamily) -> dict[CyclicInterval, int]:
    """|I| - r minus the excesses of the entries strictly inside I; for
    the full set, minus those of the inclusion-maximal proper entries."""
    masks = {iv: iv.mask() for _, iv in family.entries}
    proper = [iv for _, iv in family.entries if not iv.is_full]
    table: dict[CyclicInterval, int] = {}
    for r, iv in sorted(family.entries, key=lambda e: e[1].length):
        if iv.is_full:
            inside = [
                jv for jv in proper
                if not any(jv != uv and masks[jv] & ~masks[uv] == 0 for uv in proper)
            ]
        else:
            inside = [
                jv for _, jv in family.entries
                if jv != iv and masks[jv] & ~masks[iv] == 0
            ]
        table[iv] = iv.length - r - sum(table[jv] for jv in inside)
    return table


def _least_rank(
    imask: int, parts: list[tuple[int, int]], idx: int, ranksum: int, union: int
) -> int:
    """Least ranksum + |I \\ union| over disjoint unions extending ``union``
    by parts from ``idx`` on.  It recurses on itself, not through a nested
    closure, which would leave a reference cycle on every call."""
    best = ranksum + (imask & ~union).bit_count()
    for nxt in range(idx, len(parts)):
        r, mask = parts[nxt]
        if mask & union == 0:
            best = min(best, _least_rank(imask, parts, nxt + 1, ranksum + r, union | mask))
    return best


def rank_from_connected(
    family: RankedEssentialFamily,
    interval: CyclicInterval,
    connected: tuple[Entry, ...] | None = None,
) -> int:
    """Rank of an interval from disjoint unions of connected entries only."""
    if connected is None:
        connected = connected_entries(family)
    imask = interval.mask()
    parts = [(r, iv.mask()) for r, iv in connected if iv.mask() & imask]
    return min(interval.length, _least_rank(imask, parts, 0, 0, 0))
