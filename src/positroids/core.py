"""
Ground-set arithmetic for positroid combinatorics.

Conventions used throughout the package:

- The ground set is [n] = {1, ..., n}, ordered cyclically.  Residues are
  always taken in [1, n]: ``residue(0) == n``.
- A cyclic interval is stored as (start, length), never as a pair of
  endpoints, so the full set (length n) is representable and there is no
  [i, i-1] ambiguity.  ``CyclicInterval(8, 7, 4)`` is {7, 8, 1, 2}.
- A bounded affine permutation of size n is a bijection pi of the integers
  with pi(i + n) = pi(i) + n and i <= pi(i) <= i + n.  It is stored by its
  window [pi(1), ..., pi(n)] and evaluated on arbitrary integer lifts.
  All rank computations compare lifts, never residues, to avoid
  wrap-around bugs.
- Tuples built on every call are built from lists, not generators.
  CPython grows ``tuple(generator)`` by resizing a fresh block, which
  bypasses the tuple free lists that freeing it then fills, so a caller
  that runs many operations in one process would hold a growing free
  list until the next full garbage collection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


class BoundViolation(ValueError):
    """Window value out of the [i, i+n] band at position ``index``."""

    def __init__(self, index: int, value: int, n: int):
        self.index = index
        self.value = value
        super().__init__(f"window[{index}] = {value} outside [{index}, {index + n}]")


class NotBijective(ValueError):
    """Two window positions share a residue, so the extension is not a bijection."""

    def __init__(self, i: int, j: int):
        self.positions = (i, j)
        super().__init__(f"window values at positions {i} and {j} collide mod n")


def json_int(value) -> int:
    """An integer read from parsed JSON; floats, bools and strings are
    refused rather than truncated or parsed."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"expected an integer, got {value!r}")
    return value.__index__()


def residue(x: int, n: int) -> int:
    """Representative of x mod n in [1, n]."""
    return (x - 1) % n + 1


@dataclass(frozen=True, order=True)
class CyclicInterval:
    """The cyclic interval [start, start+length-1] in [n], indices mod n.

    >>> I = CyclicInterval(8, 7, 4)
    >>> sorted(I.residues())
    [1, 2, 7, 8]
    >>> I.contains(1), I.contains(3)
    (True, False)

    The full interval compares equal regardless of its start:

    >>> CyclicInterval(5, 3, 5) == CyclicInterval(5, 1, 5)
    True
    """

    n: int
    start: int
    length: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ground set size must be positive, got {self.n}")
        if not 1 <= self.start <= self.n:
            raise ValueError(f"start {self.start} outside [1, {self.n}]")
        if not 1 <= self.length <= self.n:
            raise ValueError(f"length {self.length} outside [1, {self.n}]")
        if self.length == self.n and self.start != 1:
            object.__setattr__(self, "start", 1)

    @classmethod
    def from_endpoints(cls, n: int, i: int, j: int) -> "CyclicInterval":
        """The interval [i, j] running cyclically from i to j (inclusive)."""
        return cls(n, residue(i, n), (j - i) % n + 1)

    @classmethod
    def full(cls, n: int) -> "CyclicInterval":
        return cls(n, 1, n)

    @property
    def is_full(self) -> bool:
        return self.length == self.n

    @property
    def end(self) -> int:
        """Lifted right endpoint start + length - 1 (may exceed n)."""
        return self.start + self.length - 1

    def residues(self) -> Iterator[int]:
        n = self.n
        return (residue(self.start + t, n) for t in range(self.length))

    def contains(self, x: int) -> bool:
        return (x - self.start) % self.n < self.length

    def mask(self) -> int:
        """Bitmask with bit e-1 set for each element e of the interval: a
        run of ``length`` bits from bit start-1, folded back past bit n-1."""
        run = ((1 << self.length) - 1) << (self.start - 1)
        return (run | run >> self.n) & ((1 << self.n) - 1)

    def to_json(self) -> dict:
        return {"start": self.start, "len": self.length}

    @classmethod
    def from_json(cls, n: int, obj: dict) -> "CyclicInterval":
        return cls(n, json_int(obj["start"]), json_int(obj["len"]))


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


def mask_to_interval(n: int, mask: int) -> CyclicInterval | None:
    """The cyclic interval with the given element mask, or None if not one.

    >>> mask_to_interval(4, 0b1001)  # {1, 4} wraps: the interval [4, 1]
    CyclicInterval(n=4, start=4, length=2)
    >>> mask_to_interval(4, 0b0101) is None
    True
    """
    arcs = mask_arcs(n, mask)
    return arcs[0] if len(arcs) == 1 else None


@dataclass(frozen=True)
class CyclicOrder:
    """The total order <_base on [1, n] with base minimal, extended to Z by residue."""

    n: int
    base: int

    def key(self, x: int) -> int:
        return (x - self.base) % self.n

    def lt(self, a: int, b: int) -> bool:
        return self.key(a) < self.key(b)

    def min(self, items: Iterable[int]) -> int:
        return min(items, key=self.key)


@dataclass(frozen=True)
class BoundedAffinePermutation:
    """A bounded affine permutation stored by its window on [1, n].

    >>> p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
    >>> p.eval(9), p.inverse_at(6)
    (11, 5)
    >>> p.rank()
    3
    """

    n: int
    window: tuple[int, ...]
    _inv: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self):
        inv = [None] * self.n
        for i, v in enumerate(self.window, start=1):
            inv[v % self.n] = (i, v)
        object.__setattr__(self, "_inv", tuple(inv))

    @classmethod
    def from_window(cls, values: Iterable[int]) -> "BoundedAffinePermutation":
        """Validate and build; raises BoundViolation or NotBijective."""
        window = tuple([json_int(v) for v in values])
        n = len(window)
        if n == 0:
            raise ValueError("window must be non-empty")
        seen: dict[int, int] = {}
        for i, v in enumerate(window, start=1):
            if not i <= v <= i + n:
                raise BoundViolation(i, v, n)
            r = v % n
            if r in seen:
                raise NotBijective(seen[r], i)
            seen[r] = i
        return cls(n, window)

    @classmethod
    def uniform(cls, k: int, n: int) -> "BoundedAffinePermutation":
        """The permutation i -> i + k of the uniform matroid U_{k,n}."""
        if not 0 <= k <= n:
            raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
        return cls(n, tuple([i + k for i in range(1, n + 1)]))

    def eval(self, i: int) -> int:
        """pi(i) for any integer i, using pi(i + n) = pi(i) + n."""
        r = residue(i, self.n)
        return self.window[r - 1] + (i - r)

    def inverse_at(self, j: int) -> int:
        """The unique integer i with pi(i) = j."""
        pos, val = self._inv[j % self.n]
        return pos + (j - val)

    def rank_interval(self, interval: CyclicInterval) -> int:
        """Number of l in the interval with pi(l) beyond its right endpoint."""
        if interval.n != self.n:
            raise ValueError("interval ground set does not match permutation")
        end = interval.end
        return sum(
            1 for l in range(interval.start, end + 1) if self.eval(l) > end
        )

    def interval_ranks(self) -> tuple[tuple[int, ...], ...]:
        """Every interval rank in one O(n^2) table: entry [c - 1][ln] is
        the rank of the cyclic interval of length ln (0 to n) from c.

        Each row sweeps the end e of the interval from c.  Extending to e
        adds 1 when pi(e) > e and takes 1 away when inverse_at(e) lies in
        [c, e); together, it adds 1 exactly when inverse_at(e) < c.

        >>> p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
        >>> p.interval_ranks()[4]  # from 5: [5], [5, 6], ..., [5, 4]
        (0, 1, 1, 2, 3, 3, 3, 3, 3)
        >>> p.interval_ranks()[1][4] == p.rank_interval(CyclicInterval(8, 2, 4))
        True
        """
        n = self.n
        back = [0] * n  # back[e - 1] = e - inverse_at(e), by residue
        for i, v in enumerate(self.window, start=1):
            back[(v - 1) % n] = v - i
        table = []
        for c in range(n):
            row = [0]
            rank = 0
            for ln in range(1, n + 1):
                rank += back[(c + ln - 1) % n] >= ln  # inverse_at(e) <= c - 1
                row.append(rank)
            table.append(tuple(row))
        return tuple(table)

    def rank(self) -> int:
        return self.rank_interval(CyclicInterval.full(self.n))

    def loops(self) -> frozenset[int]:
        return frozenset(i for i in range(1, self.n + 1) if self.window[i - 1] == i)

    def coloops(self) -> frozenset[int]:
        n = self.n
        return frozenset(i for i in range(1, n + 1) if self.window[i - 1] == i + n)

    def to_json(self) -> dict:
        return {"n": self.n, "window": list(self.window)}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedAffinePermutation":
        window = obj["window"]
        if "n" in obj and json_int(obj["n"]) != len(window):
            raise ValueError("declared n does not match window length")
        return cls.from_window(window)


def enumerate_permutations(
    n: int, k: int | None = None, first: int | None = None
) -> Iterator[BoundedAffinePermutation]:
    """Yield every bounded affine permutation of size n in window-lex order.

    With k given, only permutations of rank k are yielded; with first
    given, only windows starting with that value (the lex shards used for
    parallel enumeration).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _extend(n, k, first, [], [False] * n, 1)


def _extend(
    n: int, k: int | None, first: int | None, window: list[int], used: list[bool], i: int
) -> Iterator[BoundedAffinePermutation]:
    """The completions of the window prefix at position i.  It recurses on
    itself, not through a nested closure: a generator closure that calls
    itself is a reference cycle, left on every call for the cyclic
    garbage collector to find."""
    if i > n:
        p = BoundedAffinePermutation(n, tuple(window))
        if k is None or p.rank() == k:
            yield p
        return
    values = range(i, i + n + 1) if i > 1 or first is None else (first,)
    for v in values:
        r = v % n
        if used[r]:
            continue
        used[r] = True
        window.append(v)
        yield from _extend(n, k, first, window, used, i + 1)
        window.pop()
        used[r] = False


def count_permutations(n: int) -> int:
    """Independent count of bounded affine permutations of size n.

    They correspond to permutations of [n] with each fixed point marked
    loop or coloop, so the count is sum over f of C(n,f) * 2^f * D(n-f)
    with D the derangement numbers.
    """
    from math import comb

    derangements = [1, 0]
    for m in range(2, n + 1):
        derangements.append((m - 1) * (derangements[m - 1] + derangements[m - 2]))
    return sum(comb(n, f) * 2**f * derangements[n - f] for f in range(n + 1))
