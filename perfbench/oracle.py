"""Computations the benchmark checks outputs against.

Everything here works from a window [pi(1), ..., pi(n)], a matrix, or
ranked intervals (rank, start, length) found from a window, with the
benchmark's own code; nothing calls into ``positroids``.  These are
deliberately the plainest formulas, not fast ones: they run only in the
check phase, outside every timed region.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb


def criterion08_window(rng: random.Random, n: int) -> list[int]:
    """A random bounded affine permutation: the generator of acceptance
    criterion 08 (a shuffled permutation lifted into [i, i+n], with each
    fixed point made a loop or a coloop by a coin flip)."""
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    window = []
    for i in range(1, n + 1):
        v = i + (sigma[i - 1] - i) % n
        if v == i and rng.random() < 0.5:
            v = i + n
        window.append(v)
    return window


def pi(window: list[int], l: int) -> int:
    """pi(l) on any integer, from pi(l + n) = pi(l) + n."""
    q, r = divmod(l - 1, len(window))
    return window[r] + q * len(window)


def interval_rank(window: list[int], start: int, length: int) -> int:
    """Rank of [start, start+length-1]: the l in it with pi(l) beyond its end."""
    end = start + length - 1
    return sum(1 for l in range(start, end + 1) if pi(window, l) > end)


def full_rank(window: list[int]) -> int:
    return interval_rank(window, 1, len(window))


def inversions(window: list[int]) -> int:
    """Affine inversion count: i in [n], j > i, pi(j) < pi(i).

    Since pi(j) >= j, only j < pi(i) can be inverted with i.
    """
    n = len(window)
    return sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, pi(window, i))
        if pi(window, j) < pi(window, i)
    )


def count_bounded_affine(n: int) -> int:
    """Bounded affine permutations of size n, in closed form: a permutation
    of [n] with each fixed point marked loop or coloop."""
    derangements = [1, 0]
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[-1] + derangements[-2]))
    return sum(comb(n, f) * 2**f * derangements[n - f] for f in range(n + 1))


def is_bounded_affine(window: list[int]) -> bool:
    n = len(window)
    return all(i <= v <= i + n for i, v in enumerate(window, 1)) and len(
        {v % n for v in window}
    ) == n


def essential_family(window: list[int]) -> set[tuple[int, int, int]]:
    """(rank, start, length) of every essential interval, from ranks alone.

    A proper [i, j] is essential when it is maximally dependent: dropping i
    or j keeps its rank, and adding i - 1 or j + 1 raises it.  The full set
    is always an entry, with rank k.
    """
    n = len(window)
    lifted = [pi(window, l) for l in range(0, 2 * n + 2)]

    def rank(a: int, b: int) -> int:  # [a, b] with 0 <= a, b <= 2n + 1
        return sum(1 for v in lifted[a : b + 1] if v > b)

    out = {(full_rank(window), 1, n)}
    for i in range(1, n + 1):
        for length in range(1, n):
            j = i + length - 1
            r = rank(i, j)
            if (rank(i + 1, j) == r == rank(i, j - 1)
                    and rank(i - 1, j) == r + 1 == rank(i, j + 1)):
                out.add((r, i, length))
    return out


def _arc_splits(n, entries, first, length, target, skip=None, taken=(0, 0)) -> bool:
    """Whether pairwise-disjoint entries inside the arc of ``length``
    elements from 0-based element ``first``, other than ``skip``, have
    nullities summing to ``target`` with two or more parts, counting the
    (nullity, parts) already ``taken``.  A sweep along the arc keeps the
    (nullity sum, parts capped at 2) pairs reachable at each position."""
    starting: dict[int, list[tuple[int, int]]] = {}
    for r, s, l in entries:
        offset = (s - 1 - first) % n
        if l < n and offset + l <= length and (r, s, l) != skip:
            starting.setdefault(offset, []).append((l, l - r))
    reach = [set() for _ in range(length + 1)]
    reach[0].add(taken)
    for p in range(length):
        for total, parts in reach[p]:
            reach[p + 1].add((total, parts))
            for l, nullity in starting.get(p, ()):
                if total + nullity <= target:
                    reach[p + l].add((total + nullity, min(parts + 1, 2)))
    return (target, 2) in reach[length]


def connected(n: int, entries) -> set[tuple[int, int, int]]:
    """The connected entries of a family of (rank, start, length): those
    whose nullity |I| - r is not the sum of the nullities of two or more
    pairwise-disjoint other entries inside I.

    Entries inside a proper I lie on the arc I.  For the full set, either
    no chosen entry holds element 1, and they all lie on the arc 2..n, or
    one entry A does, and the others lie on the arc outside A.
    """
    out = set()
    for entry in entries:
        r, s, l = entry
        if l < n:
            split = _arc_splits(n, entries, s - 1, l, l - r, skip=entry)
        else:
            split = _arc_splits(n, entries, 1, n - 1, n - r) or any(
                _arc_splits(n, entries, (sa - 1 + la) % n, n - la, n - r,
                            taken=(la - ra, 1))
                for ra, sa, la in entries
                if la < n and (1 - sa) % n < la
            )
        if not split:
            out.add(entry)
    return out


def excess(n: int, entries) -> dict[tuple[int, int], int]:
    """Excess of each entry, keyed by (start, length), by its definition:
    |I| - r minus the excesses of the entries strictly inside I; for the
    full set, minus those of the inclusion-maximal proper entries only."""

    def members(s, l):
        return frozenset((s - 1 + t) % n for t in range(l))

    sets = {(s, l): members(s, l) for _, s, l in entries}
    proper = [key for key in sets if key[1] < n]
    table: dict[tuple[int, int], int] = {}
    for r, s, l in sorted(entries, key=lambda e: e[2]):
        if l < n:
            inside = [key for key in proper if key != (s, l) and sets[key] < sets[(s, l)]]
        else:
            inside = [key for key in proper
                      if not any(sets[key] < sets[other] for other in proper)]
        table[(s, l)] = l - r - sum(table[key] for key in inside)
    return table


def brute_force_bases(window: list[int]) -> list[tuple[int, ...]]:
    """k-subsets of [n] meeting every cyclic interval's rank, taken from the window."""
    n, k = len(window), full_rank(window)
    caps = []
    for start in range(1, n + 1):
        for length in range(1, n):
            members = sum(1 << ((start + t - 1) % n) for t in range(length))
            caps.append((members, interval_rank(window, start, length)))
    out = []
    for subset in combinations(range(1, n + 1), k):
        mask = sum(1 << (e - 1) for e in subset)
        if all((mask & members).bit_count() <= cap for members, cap in caps):
            out.append(subset)
    return out


def determinant(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for c, lead in enumerate(rows[0]):
        if lead:
            minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
            total += (-1) ** c * lead * determinant(minor)
    return total


def nonzero_minor_sets(entries: list[list[Fraction]]) -> list[tuple[int, ...]]:
    """Column sets (1-based, increasing) whose maximal minor is nonzero."""
    k, n = len(entries), len(entries[0])
    return [
        cols
        for cols in combinations(range(1, n + 1), k)
        if determinant([[row[c - 1] for c in cols] for row in entries]) != 0
    ]


def rank2_window(classes: list[list[int]], n: int) -> list[int]:
    """Window of the loopless rank-2 positroid with these parallel classes.

    pi(i) is the least j > i with i in the span of i+1, ..., j: either j
    is parallel to i, or i+1..j already meets two classes (rank 2).
    """
    class_of = {e: c for c, cls in enumerate(classes) for e in cls}
    window = []
    for i in range(1, n + 1):
        seen = set()
        for j in range(i + 1, i + n + 1):
            e = (j - 1) % n + 1
            seen.add(class_of[e])
            if class_of[e] == class_of[i] or len(seen) >= 2:
                window.append(j)
                break
    return window


def rank2_deficient_flats(classes: list[list[int]], n: int) -> set:
    """Deficient flats of a loopless rank-2 matroid with >= 2 parallel
    classes: every class of two or more elements (rank 1), and the whole
    ground set when it has three or more elements (rank 2)."""
    flats = {(1, frozenset(cls)) for cls in classes if len(cls) >= 2}
    if n >= 3:
        flats.add((2, frozenset(range(1, n + 1))))
    return flats
