"""
Ranked essential families: rank reconstruction, connectedness, excess,
core, axiomatic validation, and recovery of the permutation.

A ranked essential family on [n] is a set of (rank, cyclic interval)
pairs with pairwise distinct intervals, always including the pair
(k, [1, n]).  Families extracted from a permutation satisfy three
compatibility axioms (E1 through E3 below); validate_chess checks a
candidate family against them and the axioms characterize exactly the
families of positroids, which is what makes permutation_from_family
total on validated input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .core import (
    BoundedAffinePermutation,
    CyclicInterval,
    json_int,
    mask_to_interval,
    residue,
)
from .retrieval import conditions_from_family, retrieve

Entry = tuple[int, CyclicInterval]


class NotValidated(ValueError):
    """Raised when an operation requiring a valid family receives one that
    fails the chess axioms; carries the violation list."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        super().__init__(
            "family fails validation: " + "; ".join(str(v) for v in violations)
        )


@dataclass(frozen=True)
class Violation:
    rule: str  # "E1", "E2", "E3", or "E3-cover"
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
    """

    n: int
    k: int
    entries: tuple[Entry, ...]
    _masks: tuple[int, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        object.__setattr__(
            self, "_masks", tuple(iv.mask() for _, iv in self.entries)
        )

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

    @property
    def proper_entries(self) -> tuple[Entry, ...]:
        return tuple(e for e in self.entries if not e[1].is_full)

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


def _disjoint_decompositions_exist(
    target: int, nullities: Sequence[int], masks: Sequence[int]
) -> bool:
    """True if >= 2 pairwise-disjoint parts have nullities summing to target."""

    def search(idx: int, acc: int, used_mask: int, parts: int) -> bool:
        if acc == target and parts >= 2:
            return True
        if acc >= target or idx == len(nullities):
            return False
        if masks[idx] & used_mask == 0 and search(
            idx + 1, acc + nullities[idx], used_mask | masks[idx], parts + 1
        ):
            return True
        return search(idx + 1, acc, used_mask, parts)

    return search(0, 0, 0, 0)


def connected_entries(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """Entries whose rank condition is not additively implied by two or
    more pairwise-disjoint smaller entries inside the interval."""
    out = []
    for (r, iv), mask in zip(family.entries, family._masks):
        inside = [
            (rr, mm)
            for (rr, jv), mm in zip(family.entries, family._masks)
            if jv != iv and mm & ~mask == 0
        ]
        nullities = [mm.bit_count() - rr for rr, mm in inside]
        masks = [mm for _, mm in inside]
        if not _disjoint_decompositions_exist(iv.length - r, nullities, masks):
            out.append((r, iv))
    return _canonical(out)


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
    best = interval.length

    def search(idx: int, ranksum: int, union: int):
        nonlocal best
        best = min(best, ranksum + (imask & ~union).bit_count())
        for nxt in range(idx, len(parts)):
            r, mask = parts[nxt]
            if mask & union == 0:
                search(nxt + 1, ranksum + r, union | mask)

    search(0, 0, 0)
    return best


def excess(family: RankedEssentialFamily) -> dict[CyclicInterval, int]:
    """Excess of every entry: new dependencies the interval introduces.

    For a proper entry I the excess is |I| - r minus the excesses of all
    entries strictly inside I.  For the full set, proper entries can
    overlap and strict-containment summation would double-count, so only
    the inclusion-maximal proper entries are subtracted.
    """
    pairs = sorted(
        zip(family.entries, family._masks), key=lambda em: em[0][1].length
    )
    table: dict[CyclicInterval, int] = {}
    mask_of = {iv: m for (_, iv), m in pairs}
    for (r, iv), mask in pairs:
        if iv.is_full:
            proper = [jv for _, jv in family.proper_entries]
            maximal = [
                jv
                for jv in proper
                if not any(
                    jv != uv and mask_of[jv] & ~mask_of[uv] == 0 for uv in proper
                )
            ]
            table[iv] = iv.length - r - sum(table[jv] for jv in maximal)
        else:
            contained = [
                jv
                for (_, jv), m in pairs
                if jv != iv and m & ~mask == 0
            ]
            table[iv] = iv.length - r - sum(table[jv] for jv in contained)
    return table


def core(family: RankedEssentialFamily) -> tuple[Entry, ...]:
    """Entries with positive excess: a minimal set of defining rank conditions."""
    table = excess(family)
    return _canonical(e for e in family.entries if table[e[1]] > 0)


def _gap_between(n: int, a: CyclicInterval, b: CyclicInterval) -> CyclicInterval | None:
    """Interval strictly between a's end and b's start, None when adjacent."""
    gap_len = (b.start - a.end - 1) % n
    if gap_len == 0:
        return None
    return CyclicInterval(n, residue(a.end + 1, n), gap_len)


def validate_chess(family: RankedEssentialFamily) -> list[Violation]:
    """Check the three essential-set axioms; empty list means valid.

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
    masks = family._masks

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
    proper = list(family.proper_entries)
    for x in range(len(proper)):
        for y in range(len(proper)):
            if x == y:
                continue
            e1, e2 = proper[x], proper[y]
            m1, m2 = e1[1].mask(), e2[1].mask()
            inter = m1 & m2
            if inter == m1 or inter == m2:
                continue  # nested: E2 territory
            if inter == 0:
                if x > y:
                    continue  # handle each unordered disjoint pair once, both ways below
                violations.extend(_check_e3_disjoint(family, e1, e2))
                violations.extend(_check_e3_disjoint(family, e2, e1))
            else:
                overlap = mask_to_interval(n, inter)
                if overlap is None:
                    if x < y:
                        violations.extend(_check_e3_two_arc(family, e1, e2, inter))
                    continue
                if not (e1[1].contains(e2[1].start) and e2[1].contains(residue(e1[1].end, n))):
                    continue  # handled from the orientation where e2 starts inside e1
                violations.extend(_check_e3_overlap(family, e1, e2, overlap))
    return violations


def _covering_minimal(family: RankedEssentialFamily, arc: CyclicInterval) -> list[Entry]:
    amask = arc.mask()
    covering = [
        (e, m) for e, m in zip(family.entries, family._masks) if amask & ~m == 0
    ]
    return [
        e
        for e, m in covering
        if not any(m2 != m and m2 & ~m == 0 for _, m2 in covering)
    ]


def _contained_maximal(
    family: RankedEssentialFamily, region: CyclicInterval | None
) -> list[tuple[int, CyclicInterval | None]]:
    if region is None:
        return [(0, None)]
    rmask = region.mask()
    inside = [
        (e, m) for e, m in zip(family.entries, family._masks) if m & ~rmask == 0
    ]
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
    family: RankedEssentialFamily, e1: Entry, e2: Entry
) -> list[Violation]:
    """Case of disjoint intervals, oriented e1 then gap then e2."""
    n = family.n
    (r1, iv1), (r2, iv2) = e1, e2
    arc = CyclicInterval.from_endpoints(n, iv1.start, iv2.end)
    gap = _gap_between(n, iv1, iv2)
    covers = _covering_minimal(family, arc)
    if not covers:
        return [Violation("E3-cover", (e1, e2), f"no entry contains the arc {arc}")]
    out = []
    for r3, iv3 in covers:
        for r4, iv4 in _contained_maximal(family, gap):
            if r1 + r2 < r3 - r4 - _uncovered(gap, iv4):
                out.append(
                    Violation(
                        "E3", (e1, e2, (r3, iv3)),
                        "disjoint-pair inequality fails",
                    )
                )
    return out


def _mask_arcs(n: int, mask: int) -> list[CyclicInterval]:
    """Decompose a mask into its maximal cyclic runs."""
    single = mask_to_interval(n, mask)
    if single is not None:
        return [single]
    arcs = []
    rest = mask
    for start in range(1, n + 1):
        if rest >> (start - 1) & 1 and not mask >> (residue(start - 1, n) - 1) & 1:
            length = 0
            while rest >> (residue(start + length, n) - 1) & 1:
                length += 1
            arc = CyclicInterval(n, start, length)
            arcs.append(arc)
            rest &= ~arc.mask()
    return arcs


def _check_e3_two_arc(
    family: RankedEssentialFamily, e1: Entry, e2: Entry, inter: int
) -> list[Violation]:
    """Pair intersecting in two arcs: the union is the whole circle and
    the intersection rank implied by submodularity must not undercut the
    rank either arc already carries."""
    n, k = family.n, family.k
    (r1, _), (r2, _) = e1, e2
    arcs = _mask_arcs(n, inter)
    term = r1 + r2 - k
    estimate = sum(
        min(r + _uncovered(arc, iv) for r, iv in _contained_maximal(family, arc))
        for arc in arcs
    )
    implied = min(term, estimate)
    if any(implied < rank_from_family(family, arc) for arc in arcs):
        return [Violation("E3", (e1, e2), "two-arc intersection rank inconsistent")]
    return []


def _check_e3_overlap(
    family: RankedEssentialFamily, e1: Entry, e2: Entry, overlap: CyclicInterval
) -> list[Violation]:
    """Case of one-sided overlap: e2 starts inside e1 and ends outside."""
    n = family.n
    (r1, iv1), (r2, iv2) = e1, e2
    union_arc = CyclicInterval.from_endpoints(n, iv1.start, iv2.end)
    covers = _covering_minimal(family, union_arc)
    if not covers:
        return [
            Violation("E3-cover", (e1, e2), f"no entry contains the arc {union_arc}")
        ]
    out = []
    for r3, iv3 in covers:
        for r4, iv4 in _contained_maximal(family, overlap):
            if r1 + r2 < r3 + r4 + _uncovered(overlap, iv4):
                out.append(
                    Violation(
                        "E3", (e1, e2, (r3, iv3)),
                        "overlapping-pair inequality fails",
                    )
                )
    return out


def validated(family: RankedEssentialFamily) -> RankedEssentialFamily:
    """The family itself if it passes the axioms, else NotValidated."""
    violations = validate_chess(family)
    if violations:
        raise NotValidated(violations)
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
    the full set.
    """
    return retrieve(conditions_from_family(validated(family)))
