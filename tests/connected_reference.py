"""
Brute-force references for connectedness, excess and the rank formula
from connected entries, used only by the tests.

They follow the definitions literally: connectedness by a search over
every set of pairwise-disjoint entries inside an interval, excess by
rescanning the family for containment, and the rank of an interval by a
search over every disjoint union of connected entries.  They are
exponential or quadratic per entry, and are the references that
``essential.connected_entries``, ``essential.excess`` and the paper's
rank-from-connected theorem are checked against.  Beside them,
``connected_by_sweeps`` decides connectedness by one bitset sweep per
start over the entries inside its longest entry, polynomial and so
usable at n = 256.
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


def _sweep(
    parts: dict[int, list[tuple[int, int]]], first: int, stop: int, target: int
) -> tuple[list[int], list[int]]:
    """Nullity sums of pairwise-disjoint parts on the line [first, stop).

    ``parts`` maps a position to the (end, nullity) of each part covering
    [position, end).  The sweep returns two lists indexed by q - first for
    q from first to stop: the bitsets of the sums reachable with exactly
    one part, and with two or more, using the parts inside [first, q).
    Sums above ``target`` are dropped.
    """
    size = stop - first
    cap = (1 << target + 1) - 1
    ones = [0] * (size + 1)
    more = [0] * (size + 1)
    for p in range(size):
        single, several = ones[p], more[p]
        for end, nullity in parts.get(first + p, ()):
            q = end - first
            if q <= size:
                ones[q] |= 1 << nullity
                more[q] |= (single | several) << nullity & cap
        ones[p + 1] |= single
        more[p + 1] |= several
    return ones, more


def connected_by_sweeps(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """Entries whose rank condition is not additively implied by two or
    more pairwise-disjoint smaller entries inside the interval, in the
    family's entry order: the nullity |I| - r is not the sum of their
    nullities.  Its sweeps are separate, one per question's line, where
    ``essential.connected_entries`` answers every question in one.

    The entries inside a proper I are linear intervals on the arc I, so a
    sweep along the arc (``_sweep``) decides I; the sweep along the
    longest entry from a start decides every entry from that start at
    once.  For the full set, either no part holds element 1, and the
    parts lie on the line [2, n], or one part J0 does, and the others lie
    on the line from J0's end to its start, which one sweep per end of
    such a J0 covers.  Each sweep is O(n + E) bitset operations for E
    entries, so the whole is O(E·(n + E)).

    Precondition: the family passes the certificate (every CLI route
    gives one), so every proper entry has positive nullity.  Invalid
    families can carry zero or negative nullities; the answer on them is
    unspecified.
    """
    n = family.n
    entries = family.entries
    masks = [iv.mask() for _, iv in entries]
    inside = [  # for each entry, the others inside it
        [b for b, mb in enumerate(masks) if b != a and not mb & ~ma]
        for a, ma in enumerate(masks)
    ]
    starts = [iv.start - 1 for _, iv in entries]  # 0-based positions
    lengths = [iv.length for _, iv in entries]
    nullities = [iv.length - r for r, iv in entries]
    flags = [True] * len(entries)
    full = None
    by_start: dict[int, list[int]] = {}
    for a, length in enumerate(lengths):
        if length == n:
            full = a
        else:
            by_start.setdefault(starts[a], []).append(a)

    for start, group in by_start.items():
        target = max([nullities[a] for a in group])
        if target <= 0:
            continue
        longest = max(group, key=lengths.__getitem__)
        parts: dict[int, list[tuple[int, int]]] = {}
        for b in inside[longest]:
            if 0 <= nullities[b] <= target:
                offset = (starts[b] - start) % n
                parts.setdefault(offset, []).append((offset + lengths[b], nullities[b]))
        _, more = _sweep(parts, 0, lengths[longest], target)
        for a in group:
            if nullities[a] > 0 and more[lengths[a]] >> nullities[a] & 1:
                flags[a] = False

    if full is not None and nullities[full] > 0:
        target = nullities[full]
        line: dict[int, list[tuple[int, int]]] = {}  # the parts without element 1
        holders: dict[int, list[int]] = {}  # parts with element 1, by the position after them
        for b in inside[full]:
            if not 0 <= nullities[b] <= target:
                continue
            if -starts[b] % n < lengths[b]:
                holders.setdefault((starts[b] + lengths[b]) % n, []).append(b)
            else:
                line.setdefault(starts[b], []).append((starts[b] + lengths[b], nullities[b]))
        _, more = _sweep(line, 1, n, target)
        split = more[-1] >> target & 1
        for after, group in holders.items():
            if split:
                break
            # the others lie between J0's end and its start (or n, for J0 from 1)
            stops = [starts[j] or n for j in group]
            ones, more = _sweep(line, after, max(stops), target)
            split = any([
                (ones[stop - after] | more[stop - after]) >> (target - nullities[j]) & 1
                for j, stop in zip(group, stops)
            ])
        flags[full] = not split
    return tuple([e for e, connected in zip(entries, flags) if connected])


def excess_by_rescan(family: RankedEssentialFamily) -> tuple[int, ...]:
    """|I| - r minus the excesses of the entries strictly inside I; for
    the full set, minus those of the inclusion-maximal proper entries.
    In the family's entry order, as ``essential.excess`` gives them."""
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
    return tuple([table[iv] for _, iv in family.entries])


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
