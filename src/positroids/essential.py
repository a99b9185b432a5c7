"""
Ranked essential families: rank reconstruction, connectedness, excess,
core, axiomatic validation, and recovery of the permutation.

A ranked essential family on [n] is a set of (rank, cyclic interval)
pairs with pairwise distinct intervals, always including the pair
(k, [1, n]).  A candidate family is valid exactly when it is the family
of some positroid, and the retrieval round trip decides that: retrieve a
permutation from the family's rank conditions, re-extract its family,
and compare.  permutation_from_family returns that permutation as the
certificate.  The three compatibility axioms (E1 through E3 below) hold
exactly on the valid families too; validate_chess checks them, and runs
only to explain a rejected family by its violations.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .core import (
    BoundedAffinePermutation,
    CyclicInterval,
    json_int,
    residue,
)
from .retrieval import InvalidInput, conditions_from_family, retrieve

Entry = tuple[int, CyclicInterval]


class NotValidated(ValueError):
    """Raised when an operation requiring a valid family receives one that
    fails the round trip; carries the chess-axiom violations explaining it."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(
            "family fails validation: " + "; ".join(str(v) for v in violations)
        )


@dataclass(frozen=True)
class Violation:
    rule: str  # "E1", "E2" or "E3"
    entries: tuple[Entry, ...]
    message: str

    def __str__(self):
        shown = ", ".join(
            f"({r},[{iv.start},{residue(iv.end, iv.n)}])" for r, iv in self.entries
        )
        return f"{self.rule}: {self.message} [{shown}]"


def _canonical(entries: Iterable[Entry]) -> tuple[Entry, ...]:
    return tuple(sorted(entries, key=lambda e: (e[1].start, e[1].length, e[0])))


@dataclass(frozen=True)
class RankedEssentialFamily:
    """A family of ranked cyclic intervals including the full-set pair.

    >>> F = RankedEssentialFamily.from_json(
    ...     {"n": 8, "k": 3, "sets": [
    ...         {"rank": 1, "start": 5, "len": 2},
    ...         {"rank": 2, "start": 1, "len": 4},
    ...         {"rank": 2, "start": 4, "len": 4}]})
    >>> len(F.entries)  # the (3, [1,8]) pair is synthesized
    4

    Beside the entries it keeps their element masks, and builds on first
    use the containment index (``inside``): for each entry, the indices
    of the other entries inside it.  Connectedness and excess read it;
    the certificate, which builds a family on every validation, never
    pays for it.
    """

    n: int
    k: int
    entries: tuple[Entry, ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())
    _inside: tuple[tuple[int, ...], ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_masks", tuple([iv.mask() for _, iv in self.entries])
        )

    def inside(self) -> tuple[tuple[int, ...], ...]:
        """For each entry a, the indices b != a with masks[b] inside masks[a].

        Walking the proper entries from one start in length order, each
        holds what the one before it holds, that one, and the entries
        ending after it that start no earlier than they do.  So the index
        costs O(n) per start plus its own size.
        """
        if self._inside is None:
            n = self.n
            size = len(self.entries)
            ending: dict[int, list[tuple[int, int]]] = {}  # end -> [(length, index)]
            starting: dict[int, list[tuple[int, int]]] = {}
            index: list[tuple[int, ...]] = [()] * size
            for a, (_, iv) in enumerate(self.entries):
                if iv.is_full:
                    index[a] = tuple([b for b in range(size) if b != a])
                else:
                    ending.setdefault((iv.end - 1) % n, []).append((iv.length, a))
                    starting.setdefault(iv.start - 1, []).append((iv.length, a))
            for run in ending.values():
                run.sort()
            for start, group in starting.items():
                held: list[int] = []
                reached = 0
                for length, a in sorted(group):
                    for t in range(reached, length):
                        for other, b in ending.get((start + t) % n, ()):
                            if other > t + 1:
                                break
                            held.append(b)
                    reached = length
                    index[a] = tuple(held[:-1])  # a itself is the last one held
            object.__setattr__(self, "_inside", tuple(index))
        return self._inside

    @classmethod
    def build(cls, n: int, k: int, entries: Iterable[Entry]) -> "RankedEssentialFamily":
        entries = _canonical(entries)
        seen: set[CyclicInterval] = set()
        full_rank = None
        for r, iv in entries:
            if iv.n != n:
                raise ValueError("entry ground set does not match family")
            if r < 0:
                raise ValueError(f"negative rank label {r}")
            if iv in seen:
                raise ValueError(f"duplicate interval {iv}")
            seen.add(iv)
            if iv.is_full:
                full_rank = r
        if full_rank is None:
            raise ValueError("family must contain the full-set pair")
        if full_rank != k:
            raise ValueError(f"full-set rank {full_rank} does not match k={k}")
        return cls(n, k, entries)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "sets": [
                {"rank": r, "start": iv.start, "len": iv.length}
                for r, iv in self.entries
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RankedEssentialFamily":
        n = json_int(obj["n"])
        k = json_int(obj["k"])
        entries = [
            (json_int(s["rank"]), CyclicInterval.from_json(n, s))
            for s in obj["sets"]
        ]
        if not any(iv.is_full for _, iv in entries):
            entries.append((k, CyclicInterval.full(n)))
        return cls.build(n, k, entries)


def rank_from_family(family: RankedEssentialFamily, interval: CyclicInterval) -> int:
    """Rank of any cyclic interval from the family alone.

    The rank of [i, j] is the minimum of r + |[i, j] \\ I| over family
    entries (r, I), together with |[i, j]| itself (the empty-set term).
    """
    if interval.n != family.n:
        raise ValueError("interval ground set does not match family")
    imask = interval.mask()
    best = interval.length
    for (r, _), emask in zip(family.entries, family._masks):
        best = min(best, r + (imask & ~emask).bit_count())
    return best


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


def connected_entries(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """Entries whose rank condition is not additively implied by two or
    more pairwise-disjoint smaller entries inside the interval: the
    nullity |I| - r is not the sum of their nullities.

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
    masks = family._masks
    inside = family.inside()
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
            if masks[b] & 1:
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
    return _canonical([e for e, connected in zip(entries, flags) if connected])


def excess(family: RankedEssentialFamily) -> dict[CyclicInterval, int]:
    """Excess of every entry: new dependencies the interval introduces.

    For a proper entry I the excess is |I| - r minus the excesses of all
    entries strictly inside I.  For the full set, proper entries can
    overlap and strict-containment summation would double-count, so only
    the inclusion-maximal proper entries are subtracted: those inside no
    other proper entry.  Entries are taken in length order, so every
    entry inside I is done before I.
    """
    entries = family.entries
    inside = family.inside()
    values = [0] * len(entries)
    for a in sorted(range(len(entries)), key=lambda a: entries[a][1].length):
        r, iv = entries[a]
        subtracted = _maximal(inside, inside[a]) if iv.is_full else inside[a]
        values[a] = iv.length - r - sum([values[b] for b in subtracted])
    return dict(zip([iv for _, iv in entries], values))


def core(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """Entries with positive excess: a minimal set of defining rank conditions."""
    table = excess(family)
    return _canonical([e for e in family.entries if table[e[1]] > 0])


def _minimal(inside: tuple[tuple[int, ...], ...], group: list[int]) -> list[int]:
    """The members of group holding no other member, in group's order."""
    members = set(group)
    return [a for a in group if members.isdisjoint(inside[a])]


def _maximal(inside: tuple[tuple[int, ...], ...], group: list[int]) -> list[int]:
    """The members of group inside no other member, in group's order."""
    held: set[int] = set()
    for a in group:
        held.update(inside[a])
    return [a for a in group if a not in held]


def validate_chess(family: RankedEssentialFamily) -> list[Violation]:
    """Check the three essential-set axioms; empty list means valid.

    It agrees with the faster round trip of permutation_from_family and
    runs only to list the violations of a family that fails it.

    E1  k <= n, and every proper entry has 0 <= r < |I| and
        0 < k - r <= n - |I|.
    E2  nested entries have strictly increasing rank, with the increase
        strictly below the size difference (non-strict against [1, n]).
    E3  the cyclic submodular inequalities for disjoint and overlapping
        pairs of proper entries, against the minimal entries covering
        their union arc and the maximal entries inside the gap or the
        overlap; a pair meeting in two arcs must leave each arc its rank.

    E2's nested pairs are the containment index's lists.  Each E3 pair is
    classified by the offsets of its starts, and reads its union, gap and
    overlap from a per-arc index built within the call: for each arc
    asked about, the minimal entries covering it and the sorted bounds
    its maximal contents put on its rank.  An arc costs an O(E) scan plus
    the containment lists of the entries it finds, so the checker is
    O(E^2) for the pairs plus that for each of the A <= min(E^2, n^2)
    distinct arcs, plus the size of its output.  All violations are
    reported, not just the first.
    """
    n, k = family.n, family.k
    violations: list[Violation] = []
    entries = family.entries
    inside = family.inside()
    everyone = range(len(entries))
    ranks = [r for r, _ in entries]
    starts = [iv.start - 1 for _, iv in entries]  # 0-based positions
    lengths = [iv.length for _, iv in entries]

    @functools.cache
    def covers(start: int, length: int) -> list[int]:
        """Minimal entries holding the arc, in index order."""
        return _minimal(inside, [
            c for c in everyone
            if lengths[c] == n or (start - starts[c]) % n + length <= lengths[c]
        ])

    @functools.cache
    def contents(start: int, length: int) -> list[int]:
        """Sorted bounds on the arc's rank, one per maximal entry inside
        it: its rank plus the arc's elements outside it.  With no entry
        inside, the arc's size."""
        group = [b for b in everyone if (starts[b] - start) % n + lengths[b] <= length]
        maximal = _maximal(inside, group)
        return sorted([ranks[b] + length - lengths[b] for b in maximal]) or [length]

    @functools.cache
    def arc_rank(start: int, length: int) -> int:
        return rank_from_family(family, CyclicInterval(n, start + 1, length))

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
    for a, b in sorted((a, b) for b, held in enumerate(inside) for a in held):
        (r1, iv1), (r2, iv2) = pair = entries[a], entries[b]
        if r2 - r1 <= 0:
            violations.append(Violation(
                "E2", pair, f"nested ranks not strictly increasing: {r1} -> {r2}"
            ))
        if not iv2.is_full and r2 - r1 >= lengths[b] - lengths[a]:
            violations.append(Violation(
                "E2", pair, "rank increase not below size difference"
            ))

    # E3 over ordered pairs of proper entries that are not nested (E2's)
    held = [set(group) for group in inside]
    proper = [a for a in everyone if lengths[a] < n]
    for x in proper:
        sx, lx = starts[x], lengths[x]
        for y in proper:
            if x == y or y in held[x] or x in held[y]:
                continue
            sy, ly = starts[y], lengths[y]
            ox, oy = (sy - sx) % n, (sx - sy) % n  # where each starts from the other
            if ox >= lx and oy >= ly:
                if x > y:
                    continue  # each unordered disjoint pair once, both ways
                for p, q, offset in ((x, y, ox), (y, x, oy)):  # p, the gap, then q
                    gap = contents((starts[p] + lengths[p]) % n, offset - lengths[p])
                    for c in covers(starts[p], offset + lengths[q]):
                        # the bounds below rank c - rank p - rank q fail
                        failing = bisect_left(gap, ranks[c] - ranks[p] - ranks[q])
                        if failing:
                            violations += [Violation(
                                "E3", (entries[p], entries[q], entries[c]),
                                "disjoint-pair inequality fails",
                            )] * failing
            elif ox < lx and oy < ly:
                # the union is the whole circle: the intersection rank
                # implied by submodularity must not undercut either arc's
                if x < y:
                    arcs = ((sx, ly - oy), (sy, lx - ox))
                    estimate = sum([contents(*arc)[0] for arc in arcs])
                    implied = min(ranks[x] + ranks[y] - k, estimate)
                    if any(  # a rank never exceeds its arc's size
                        implied < length and implied < arc_rank(start, length)
                        for start, length in arcs
                    ):
                        violations.append(Violation(
                            "E3", (entries[x], entries[y]),
                            "two-arc intersection rank inconsistent",
                        ))
            elif ox < lx:  # y starts inside x and ends past it; else (y, x) does
                overlap, room = contents(sy, lx - ox), ranks[x] + ranks[y]
                for c in covers(sx, ox + ly):
                    # the bounds above rank x + rank y - rank c fail
                    failing = len(overlap) - bisect_right(overlap, room - ranks[c])
                    if failing:
                        violations += [Violation(
                            "E3", (entries[x], entries[y], entries[c]),
                            "overlapping-pair inequality fails",
                        )] * failing
    return violations


def validated(family: RankedEssentialFamily) -> RankedEssentialFamily:
    """The family itself if the round trip of permutation_from_family
    certifies it, else NotValidated with the axiom violations."""
    permutation_from_family(family)
    return family


def rank_function_from_axioms(
    family: RankedEssentialFamily,
) -> Callable[[CyclicInterval], int]:
    """The rank function induced by a family passing the chess axioms."""
    validated(family)
    return lambda interval: rank_from_family(family, interval)


def permutation_from_family(
    family: RankedEssentialFamily,
) -> BoundedAffinePermutation:
    """The bounded affine permutation of the unique positroid with this family.

    It is retrieved from the family's rank conditions, and it satisfies:
    pi(i) is the least j >= i with rank [i, j] = rank [i+1, j], where the
    right side is 0 at j = i and intervals of n or more elements read as
    the full set.  The family is valid exactly when that retrieval
    succeeds and the permutation's own family is the given one; otherwise
    NotValidated carries validate_chess's violations.
    """
    from .diagram import ranked_essential_family  # diagram imports this module

    try:
        perm = retrieve(conditions_from_family(family))
    except InvalidInput:
        perm = None
    if perm is None or ranked_essential_family(perm) != family:
        raise NotValidated(validate_chess(family))
    return perm
