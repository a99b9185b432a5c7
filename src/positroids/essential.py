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
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterable

from .core import (
    BoundedAffinePermutation,
    CyclicInterval,
    interval_start,
    json_array,
    json_int,
    residue,
)
from .retrieval import InvalidInput, _dotted

Entry = tuple[int, CyclicInterval]


class NotValidated(ValueError):
    """Raised when an operation requiring a valid family receives one that
    fails the round trip; carries the chess-axiom violations explaining it."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(violations)

    def __str__(self):
        # built when asked: the CLI prints each violation, not this
        return "family fails validation: " + "; ".join([str(v) for v in self.violations])


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


@dataclass(frozen=True)
class RankedEssentialFamily:
    """A family of ranked cyclic intervals including the full-set pair.

    >>> F = RankedEssentialFamily.from_json(
    ...     {"n": 8, "k": 3, "sets": [
    ...         {"rank": 1, "start": 5, "len": 2},
    ...         {"rank": 2, "start": 1, "len": 4},
    ...         {"rank": 2, "start": 4, "len": 4}]})
    >>> F.triples  # (start, length, rank), the (1, 8, 3) synthesized
    ((1, 4, 2), (1, 8, 3), (4, 4, 2), (5, 2, 1))

    It stores one sorted int triple per entry, which is canonical order;
    equality and the hash read n, k and the triples.  The (rank,
    CyclicInterval) ``entries`` the API returns are built on first use;
    every computation here reads the triples, so the certificate, which
    builds a family on every validation, builds no interval.
    """

    n: int
    k: int
    triples: tuple[tuple[int, int, int], ...]

    @functools.cached_property
    def entries(self) -> tuple[Entry, ...]:
        """The (rank, CyclicInterval) pairs, in canonical order."""
        n = self.n
        return tuple([(r, CyclicInterval(n, s, length)) for s, length, r in self.triples])

    @classmethod
    def build(cls, n: int, k: int, entries: Iterable[Entry]) -> "RankedEssentialFamily":
        entries = sorted(entries, key=lambda e: (e[1].start, e[1].length, e[0]))
        triples = [(iv.start, iv.length, r) for r, iv in entries]
        return cls._checked(n, k, triples, [iv.n for _, iv in entries])

    @classmethod
    def _checked(cls, n: int, k: int, triples: list, grounds: list | None = None):
        """The family of these triples, checked in canonical order; for
        ``build``, ``grounds`` holds each entry's ground set."""
        triples.sort()
        full_rank = None
        last_start = last_length = 0
        for a, (start, length, r) in enumerate(triples):
            if grounds and grounds[a] != n:
                raise ValueError("entry ground set does not match family")
            if r < 0:
                raise ValueError(f"negative rank label {r}")
            if start == last_start and length == last_length:
                raise ValueError(f"duplicate interval {CyclicInterval(n, start, length)}")
            last_start, last_length = start, length
            if length == n:
                full_rank = r
        if full_rank is None:
            raise ValueError("family must contain the full-set pair")
        if full_rank != k:
            raise ValueError(f"full-set rank {full_rank} does not match k={k}")
        return cls(n, k, tuple(triples))

    def to_json(self) -> dict:
        sets = [{"rank": r, "start": start, "len": length} for start, length, r in self.triples]
        return {"n": self.n, "k": self.k, "sets": sets}

    @classmethod
    def from_json(cls, obj: dict) -> "RankedEssentialFamily":
        n, k = json_int(obj["n"]), json_int(obj["k"])
        triples = []
        for s in json_array(obj["sets"]):
            r = json_int(s["rank"])
            start, length = json_int(s["start"]), json_int(s["len"])
            triples.append((interval_start(n, start, length), length, r))
        if not any([length == n for _, length, _ in triples]):
            triples.append((interval_start(n, 1, n), n, k))
        return cls._checked(n, k, triples)


def rank_from_family(family: RankedEssentialFamily, interval: CyclicInterval) -> int:
    """Rank of any cyclic interval from the family alone.

    The rank of [i, j] is the minimum of r + |[i, j] \\ I| over family
    entries (r, I), together with |[i, j]| itself (the empty-set term).
    On the query's mask doubled onto [0, 2n), each entry is one run of
    bits from its start: an O(E) scan for E entries, with nothing cached.
    """
    if interval.n != family.n:
        raise ValueError("interval ground set does not match family")
    q = interval.mask()
    q |= q << family.n
    m = interval.length
    return min([m] + [
        r + m - (q & ((1 << length) - 1) << start - 1).bit_count()
        for start, length, r in family.triples
    ])


def connected_entries(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """The entries that ``connected_flags`` marks, in the family's entry
    order, which ``build`` and ``ranked_essential_family`` make canonical.

    >>> from positroids.diagram import ranked_essential_family
    >>> p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
    >>> F = ranked_essential_family(p)
    >>> [(r, iv.start, iv.length) for r, iv in connected_entries(F)]
    [(2, 1, 4), (3, 1, 8), (2, 4, 4), (1, 5, 2)]
    """
    return tuple([e for e, connected in zip(family.entries, connected_flags(family)) if connected])


def connected_flags(family: RankedEssentialFamily) -> tuple[bool, ...]:
    """Whether each entry is connected, aligned with the family's
    ``triples``: its rank condition is not additively implied by two or
    more pairwise-disjoint smaller entries inside the interval (the
    nullity |I| - r is not the sum of theirs).  It reads the triples
    only, so no ``CyclicInterval`` is built.

    >>> from positroids.diagram import ranked_essential_family
    >>> p = BoundedAffinePermutation.from_window([2, 3, 7, 5, 6, 10])
    >>> F = ranked_essential_family(p)
    >>> F.triples, connected_flags(F)  # the full set's nullity 4 is 2 + 2
    (((1, 3, 1), (1, 6, 2), (4, 3, 1)), (True, False, True))

    Each entry asks whether two or more pairwise-disjoint parts inside a
    stretch [o, q) of the doubled line [0, 2n) reach its nullity.  A part
    is a proper entry's copy [s, s + |I|), s in [0, n), or its copy n
    on, and the origins o are those starts s.  A proper entry asks from
    its own start s, up to q = s + |I|.  The full set asks from every
    origin, up to q = o + n: pairwise-disjoint arcs on the circle lie
    inside one turn [o, o + n) from the start o of any of them, since
    only that arc covers o.  One sweep, up to the last origin's o + n,
    answers every question.  Each origin owns a lane of 2·width bits in
    one int (width: the largest nullity plus 1), where ``ones[q]`` holds
    the sums of one part inside [o, q) and ``more[q]`` of two or more; a
    sum shifted past a lane's lower half lands in its upper half, a guard
    that ``cap`` clears.  So it is O(n + E) operations on ints of
    O(origins·(n - k)) bits for E entries.

    >>> p = BoundedAffinePermutation.from_window([2, 5, 4, 8, 6])
    >>> F = ranked_essential_family(p)
    >>> F.triples, connected_flags(F)  # the full set's 3 is 2 + 1: {5, 1, 2}, {3, 4}
    (((1, 5, 2), (3, 2, 1), (5, 3, 1)), (False, True, True))

    Precondition: every proper entry has positive nullity, as on every
    family that passes the certificate; otherwise the answer is
    unspecified.
    """
    n = family.n
    triples = family.triples
    width = max([length - r for _, length, r in triples]) + 1  # above every sum asked for
    parts: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # (length, nullity) by start
    for start, length, r in triples:
        if r <= length < n:
            parts[start - 1].append((length, length - r))  # 0-based, in length order
    origins = [s for s, group in enumerate(parts) if group]
    if width < 2 or not origins:
        return (True,) * len(triples)  # no entry has a nullity to split
    stride = 2 * width
    # lanes in the order of their origins, so the ints grow along the sweep
    shifts = {origin: stride * lane for lane, origin in enumerate(origins)}
    end = origins[-1] + n  # where the last origin's turn ends
    opens = {origin: 1 << shift for origin, shift in shifts.items()}
    cap = ((1 << stride * len(origins)) - 1) // ((1 << stride) - 1) * ((1 << width) - 1)
    ones, more = [0] * (end + 1), [0] * (end + 1)
    unit = 0  # bit 0 of each lane whose origin is at most p
    line = parts + parts  # each part from its start, and its copy n on
    for p in range(end):
        unit |= opens.get(p, 0)
        single, several = ones[p], more[p]
        either = single | several
        for length, nullity in line[p]:
            if p + length > end:
                break  # nothing reads past end, and the parts from p are in length order
            ones[p + length] |= unit << nullity
            more[p + length] |= either << nullity & cap
        ones[p + 1] |= single
        more[p + 1] |= several

    flags = [True] * len(triples)
    for a, (start, length, r) in enumerate(triples):
        if length == n > r:  # the full set, from every origin
            flags[a] = not any([more[o + n] >> shift + n - r & 1 for o, shift in shifts.items()])
        elif length > r:
            flags[a] = not more[start - 1 + length] >> shifts[start - 1] + length - r & 1
    return tuple(flags)


def excess(family: RankedEssentialFamily) -> tuple[int, ...]:
    """Excess of every entry: new dependencies the interval introduces.

    For a proper entry I the excess is |I| - r minus the excesses of all
    entries strictly inside I.  For the full set, proper entries can
    overlap and strict-containment summation would double-count, so only
    the inclusion-maximal proper entries are subtracted: those inside no
    other proper entry.  The values come as a tuple in the family's entry
    order, aligned with its ``triples`` and ``entries``.

    >>> from positroids.diagram import ranked_essential_family
    >>> p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
    >>> F = ranked_essential_family(p)
    >>> F.triples, excess(F)
    (((1, 4, 2), (1, 8, 3), (4, 4, 2), (5, 2, 1)), (2, 2, 1, 1))

    One sweep along the doubled line [0, 2n) computes them.  A proper
    entry is the copy [s, s + |I|) and its copy n on, and every entry
    inside I has a copy inside I's first.  One pass over the triples
    from the right buckets the first copies by end, each bucket's starts
    descending, and keeps each start's longest entry.  Walked by end,
    the second copies ending there before the first, each copy comes
    after the copies inside it.  A second copy starts at n or later, so
    it lies inside every first copy taken after it, and a running sum
    holds those; a Fenwick tree over the first copies' starts sums the
    excesses of those taken that start no earlier.  Walked by start, a
    start's longest copy that ends within the reach of those before it
    lies inside one of them, and so do the shorter ones from its start,
    so their entries are not maximal.  So it is O((n + E) log n) for E
    entries, and nothing is sorted.
    """
    n = family.n
    triples = family.triples
    values = [0] * len(triples)
    ending = [[] for _ in range(2 * n)]  # (index, slot, nullity) of the first copies by end
    longest = [None] * n  # (index, length) of each start's longest proper entry
    for a in range(len(triples) - 1, -1, -1):  # starts descending, longest first
        start, length, r = triples[a]
        if length == n:
            full = a
        else:
            ending[start - 1 + length].append((a, n + 1 - start, length - r))
            if longest[start - 1] is None:
                longest[start - 1] = (a, length)
    tree = [0] * (n + 1)  # a start s at n - s, so a prefix holds the starts from s on
    wrapped = 0  # the excesses of the second copies taken
    for end in range(1, 2 * n - 1):
        if end > n:  # the second copies ending here, n on from the first
            wrapped += sum([values[a] for a, _, _ in ending[end - n]])
        for a, slot, nullity in ending[end]:  # every copy inside it is taken
            held, i = wrapped, slot
            while i:
                held += tree[i]
                i &= i - 1
            values[a] = value = nullity - held
            i = slot
            while i <= n:
                tree[i] += value
                i += i & -i
    # the full set subtracts the entries inside no other proper entry
    inside, reach = set(), 0  # reach: the furthest end of a copy so far
    for start, top in enumerate(longest + longest):
        if top is not None:
            a, length = top
            if start + length <= reach:
                inside.add(a)
            else:
                reach = start + length
    values[full] = n - triples[full][2] - sum([
        values[top[0]] for top in longest if top is not None and top[0] not in inside
    ])
    return tuple(values)


def core(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """Entries with positive excess, in entry order: a minimal set of
    defining rank conditions."""
    return tuple([e for e, value in zip(family.entries, excess(family)) if value > 0])


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

    Each unordered pair is read once and classified by the offsets of
    its starts: y lies inside a proper x exactly when
    (s_y - s_x) mod n + |y| <= |x|, which gives E2's nested pairs.  Its
    violations carry the ordered pair they belong to and are sorted back
    into ordered-pair order at the end.  Each E3 pair is first bounded by
    lengths alone, from three tables built in O(n + E): the top rank of
    the entries of length L or more, and the largest and smallest nullity
    |I| - r of the proper entries of length L or less, 0 among them.
    Every entry covering the union is at least as long as it; every bound
    from the gap or the overlap is r_m + |arc| - |m| with |m| <= |arc|,
    and an arc with nothing inside is bounded by its size.  A two-arc
    pair whose r_x + r_y - k meets the largest bound the longer arc
    allows implies no rank below either arc's bounds, all of which are
    at least 0.  So a pair skipped by length has no violation.  The rest
    read their union, gap and overlap from a per-arc index built within
    the call: for each arc asked about, the minimal entries covering it
    and the sorted bounds its maximal contents put on its rank, each
    found by a walk over the positions before or along the arc.  So the
    checker is O(E^2) for the pairs plus O(n) bisections for each of the
    A <= min(E^2, n^2) distinct arcs, plus the size of its output.  A
    pair whose bounds cannot fail skips its covering entries, and an
    arc's rank (an O(E) scan) is taken only when its contents' bounds
    leave room for a failure.  All violations are reported, not just the
    first.
    """
    n, k = family.n, family.k
    e1: list[Violation] = []
    triples, entries = family.triples, family.entries  # entries name the violations
    ranks = [r for _, _, r in triples]
    starts = [start - 1 for start, _, _ in triples]  # 0-based positions
    lengths = [length for _, length, _ in triples]
    full, proper = lengths.index(n), [a for a, length in enumerate(lengths) if length < n]
    # the proper entries from each position, in length order as canonical order has them
    starting: list[list[int]] = [[] for _ in range(n)]
    for a in proper:
        starting[starts[a]].append(a)
    sizes = [[lengths[a] for a in group] for group in starting]
    # by length: the top rank of the entries of length L or more, and the
    # extreme nullities of the proper entries of length L or less, 0 among them
    top_from, most_null, least_null = [0] * (n + 1), [0] * n, [0] * n
    for length, r in zip(lengths, ranks):
        top_from[length] = max(top_from[length], r)
        if length < n:
            most_null[length] = max(most_null[length], length - r)
            least_null[length] = min(least_null[length], length - r)
    top_from = list(accumulate(top_from[::-1], max))[::-1]
    most_null, least_null = list(accumulate(most_null, max)), list(accumulate(least_null, min))

    @functools.cache
    def covers(start: int, length: int) -> tuple[list[int], int]:
        """Minimal entries holding the arc, unsorted, and their top rank.
        From each position before the arc, the shortest entry reaching
        its end is minimal if it ends before those from nearer."""
        found, top, end = [], 0, n  # end: where the last one found ends, from start
        for d in range(n - length):
            if end == length:
                break  # nothing from further back ends earlier
            at = (start - d) % n
            i = bisect_left(sizes[at], d + length)
            if i < len(sizes[at]) and sizes[at][i] - d < end:
                end = sizes[at][i] - d
                found.append(c := starting[at][i])
                top = max(top, ranks[c])
        return (found, top) if found else ([full], ranks[full])

    @functools.cache
    def contents(start: int, length: int) -> list[int]:
        """Sorted bounds on the arc's rank, one per maximal entry inside
        it: its rank plus the arc's elements outside it.  With no entry
        inside, the arc's size.  From each offset, the longest entry that
        fits is maximal if it ends past those found before it."""
        bounds, end = [], 0
        for t in range(length):
            if end == length:
                break  # nothing from further on ends later
            at = (start + t) % n
            i = bisect_right(sizes[at], length - t) - 1
            if i >= 0 and t + sizes[at][i] > end:
                end = t + sizes[at][i]
                bounds.append(ranks[starting[at][i]] + length - sizes[at][i])
        return sorted(bounds) or [length]

    @functools.cache
    def arc_rank(start: int, length: int) -> int:
        return rank_from_family(family, CyclicInterval(n, start + 1, length))

    # E1
    for entry, length, r in zip(entries, lengths, ranks):
        if length == n:
            if r > n:
                e1.append(Violation("E1", (entry,), f"k <= n fails: {r} > {n}"))
            continue
        if r >= length:
            e1.append(Violation("E1", (entry,), f"|I| > r fails: {length} <= {r}"))
        if r >= k:
            e1.append(Violation("E1", (entry,), f"k - r > 0 fails with k={k}"))
        if k - r > n - length:
            e1.append(Violation(
                "E1", (entry,), f"complement too small for k - r = {k - r}"
            ))

    # E2 over nested pairs (a inside b), the full set as an outer interval
    # with the lower bound only (its upper bound is E1's); E3 over pairs of
    # proper entries nested neither way.  Each violation is kept with its
    # ordered pair, by which the output is sorted.
    e2: list[tuple[int, int, Violation]] = []
    e3: list[tuple[int, int, Violation]] = []
    for i, x in enumerate(proper):
        sx, lx = starts[x], lengths[x]
        for y in proper[i + 1:] + [full]:
            sy, ly = starts[y], lengths[y]
            ox, oy = (sy - sx) % n, (sx - sy) % n  # where each starts from the other
            if ox + ly <= lx or ly == n or oy + lx <= ly:
                a, b = (y, x) if ox + ly <= lx else (x, y)  # a inside b
                r1, r2 = ranks[a], ranks[b]
                if r2 - r1 <= 0:
                    e2.append((a, b, Violation(
                        "E2", (entries[a], entries[b]),
                        f"nested ranks not strictly increasing: {r1} -> {r2}",
                    )))
                if b != full and r2 - r1 >= lengths[b] - lengths[a]:
                    e2.append((a, b, Violation(
                        "E2", (entries[a], entries[b]),
                        "rank increase not below size difference",
                    )))
            elif ox >= lx and oy >= ly:
                for p, q, offset in ((x, y, ox), (y, x, oy)):  # p, the gap, then q
                    room, between = ranks[p] + ranks[q], offset - lengths[p]
                    if top_from[offset + lengths[q]] - room <= between - most_null[between]:
                        continue  # no bound fails, by length alone
                    gap = contents((starts[p] + lengths[p]) % n, between)
                    cover, top = covers(starts[p], offset + lengths[q])
                    if top - room <= gap[0]:
                        continue  # no bound fails
                    for c in sorted(cover):
                        # the bounds below rank c - rank p - rank q fail
                        failing = bisect_left(gap, ranks[c] - room)
                        if failing:
                            e3 += [(x, y, Violation(
                                "E3", (entries[p], entries[q], entries[c]),
                                "disjoint-pair inequality fails",
                            ))] * failing
            elif ox < lx and oy < ly:
                # the union is the whole circle: the intersection rank
                # implied by submodularity must not undercut either arc's
                longer = max(ly - oy, lx - ox)
                if ranks[x] + ranks[y] - k >= longer - least_null[longer]:
                    continue  # it meets every bound, by length alone
                arcs = ((sx, ly - oy), (sy, lx - ox))
                bounds = [contents(*arc)[0] for arc in arcs]
                implied = min(ranks[x] + ranks[y] - k, sum(bounds))
                if any(  # an arc's rank never exceeds its lowest bound
                    implied < bound and implied < arc_rank(*arc)
                    for arc, bound in zip(arcs, bounds)
                ):
                    e3.append((x, y, Violation(
                        "E3", (entries[x], entries[y]),
                        "two-arc intersection rank inconsistent",
                    )))
            else:  # q starts inside p and ends past it
                p, q, offset = (x, y, ox) if ox < lx else (y, x, oy)
                room, shared = ranks[x] + ranks[y], lengths[p] - offset
                if top_from[offset + lengths[q]] <= room - shared + least_null[shared]:
                    continue  # no bound fails, by length alone
                overlap = contents(starts[q], shared)
                cover, top = covers(starts[p], offset + lengths[q])
                if top <= room - overlap[-1]:
                    continue  # no bound fails
                for c in sorted(cover):
                    # the bounds above rank x + rank y - rank c fail
                    failing = len(overlap) - bisect_right(overlap, room - ranks[c])
                    if failing:
                        e3 += [(p, q, Violation(
                            "E3", (entries[p], entries[q], entries[c]),
                            "overlapping-pair inequality fails",
                        ))] * failing
    by_pair = itemgetter(0, 1)
    return e1 + [v for *_, v in sorted(e2, key=by_pair)] + [v for *_, v in sorted(e3, key=by_pair)]


def permutation_from_family(
    family: RankedEssentialFamily,
) -> BoundedAffinePermutation:
    """The bounded affine permutation of the unique positroid with this family.

    It is retrieved from the family's rank conditions, and it satisfies:
    pi(i) is the least j >= i with rank [i, j] = rank [i+1, j], where the
    right side is 0 at j = i and intervals of n or more elements read as
    the full set.  The family is valid exactly when that retrieval
    succeeds and the permutation's own family is the given one; otherwise
    NotValidated carries validate_chess's violations.  The retrieval is
    ``retrieve`` without its rank check: a rank the permutation misses
    would make the two families differ.
    """
    from .diagram import ranked_essential_family  # diagram imports this module

    try:
        ordered = sorted([(r, (start, length)) for start, length, r in family.triples])
        perm = _dotted(family.n, family.k, ordered)
    except InvalidInput:
        perm = None
    if perm is None or ranked_essential_family(perm) != family:
        raise NotValidated(validate_chess(family))
    return perm
