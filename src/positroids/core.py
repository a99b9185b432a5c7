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

import functools
from dataclasses import dataclass
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
    if type(value) is int:  # what json.loads gives; a subclass is checked below
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ValueError(f"expected an integer, got {value!r}")
    return value.__index__()


def json_array(value):
    """An array read from parsed JSON: a string or an object is refused, not iterated."""
    if isinstance(value, (str, dict)):
        raise ValueError(f"expected an array, got {value!r}")
    return value


def interval_start(n: int, start: int, length: int) -> int:
    """The start of the cyclic interval (start, length) on [n], once its
    ranges are checked: 1 for the full set, whatever its start."""
    if n < 1:
        raise ValueError(f"ground set size must be positive, got {n}")
    if not 1 <= start <= n:
        raise ValueError(f"start {start} outside [1, {n}]")
    if not 1 <= length <= n:
        raise ValueError(f"length {length} outside [1, {n}]")
    return 1 if length == n else start


def residue(x: int, n: int) -> int:
    """Representative of x mod n in [1, n]."""
    return (x - 1) % n + 1


@dataclass(frozen=True, order=True, slots=True)
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
        if not (1 <= self.length < self.n and 1 <= self.start <= self.n):
            object.__setattr__(self, "start", interval_start(self.n, self.start, self.length))

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

    @functools.cached_property
    def _inv(self) -> tuple[tuple[int, int], ...]:
        """(i, pi(i)) for each i in [1, n], at index pi(i) mod n."""
        inv = [None] * self.n
        for i, v in enumerate(self.window, start=1):
            inv[v % self.n] = (i, v)
        return tuple(inv)

    def inverse_at(self, j: int) -> int:
        """The unique integer i with pi(i) = j."""
        pos, val = self._inv[j % self.n]
        return pos + (j - val)

    @functools.cached_property
    def row_sets(self) -> tuple[int, ...]:
        """S_1, ..., S_n, each S_i = {j >= i : pi^{-1}(j) < i} as bit
        j - i of an int: the only table of interval ranks, as the rank of
        [i, j] counts S_i up to j.  Built on first use in one sweep.

        One int ``live`` holds bit pi(l) + n for every position l in
        [1 - n, i - 1], so S_i is ``live >> (i + n)``: each l < i with
        pi(l) >= i is at least i - n, as pi(l) <= l + n, and no member of
        S_i reaches i + n.  Going to row i + 1 sets one bit, pi(i) + n, on
        an int of about 3n bits.
        """
        n = self.n
        live = sum([1 << v for v in self.window])  # l in [1 - n, 0]: pi(l) + n = pi(l + n)
        rows = []
        for i, v in enumerate(self.window, 1):
            rows.append(live >> i + n)
            live |= 1 << v + n
        return tuple(rows)

    def rank_at(self, start: int, length: int) -> int:
        """The rank of the cyclic interval of ``length`` elements from
        ``start``, any integer read as its residue; a length of n or more
        is the full set's rank.

        >>> p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
        >>> [p.rank_at(5, ln) for ln in range(9)]  # [5], [5, 6], ..., [5, 4]
        [0, 1, 1, 2, 3, 3, 3, 3, 3]
        """
        return (self.row_sets[(start - 1) % self.n] & (1 << length) - 1).bit_count()

    def rank_interval(self, interval: CyclicInterval) -> int:
        """Number of l in the interval with pi(l) beyond its right endpoint."""
        if interval.n != self.n:
            raise ValueError("interval ground set does not match permutation")
        return self.rank_at(interval.start, interval.length)

    def rank(self) -> int:
        """The mean of pi(i) - i over the window, with no row set built."""
        n = self.n
        return (sum(self.window) - n * (n + 1) // 2) // n

    def loops(self) -> frozenset[int]:
        return frozenset(i for i in range(1, self.n + 1) if self.window[i - 1] == i)

    def coloops(self) -> frozenset[int]:
        n = self.n
        return frozenset(i for i in range(1, n + 1) if self.window[i - 1] == i + n)

    def to_json(self) -> dict:
        return {"n": self.n, "window": list(self.window)}

    @classmethod
    def from_json(cls, obj: dict) -> "BoundedAffinePermutation":
        window = json_array(obj["window"])
        if "n" in obj and json_int(obj["n"]) != len(window):
            raise ValueError("declared n does not match window length")
        return cls.from_window(window)


def enumerate_windows(n: int, k: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the window of every bounded affine permutation of size n, as a
    tuple, in window-lex order.

    With k given, only windows of rank k are yielded.  No permutation
    object is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _walk(n, k)


def _walk(n: int, k: int | None) -> Iterator[tuple[int, ...]]:
    """The window walk of ``enumerate_windows``: one explicit stack of
    candidate iterators, one per decided position, and no nested
    generator.

    A window's residues are a permutation of [n], so its sum is
    n(n+1)/2 mod n.  The sum of the first n - 1 values therefore fixes
    the residue of the last, whose candidates in [n, 2n] are n + that
    residue, or n and 2n for residue 0: the last position is read off,
    not searched.  The rank is exactly (sum - n(n+1)/2) / n, so the rank
    filter compares the sum with a target at the leaf.  With a target, a
    position past the first takes only the values that leave the rest of
    it between the least and greatest sums of the positions after it.
    """
    half = n * (n + 1) // 2
    target = None if k is None else k * n + half
    spans = [range(i + 1, i + n + 2) for i in range(n)]  # candidates per position
    # the least and the greatest sums of the values after each position
    least = [half - (i + 1) * (i + 2) // 2 for i in range(n)]
    most = [least[i] + n * (n - 1 - i) for i in range(n)]
    stack = [iter(spans[0])]
    if n == 1:  # the walk below decides positions 1 to n - 1
        yield from [(v,) for v in stack[0] if target is None or v == target]
        return
    window = [0] * n
    used = [False] * n
    last = n - 1
    i = total = 0  # the position being decided and the sum before it
    while True:
        for v in stack[i]:
            if not used[v % n]:
                break
        else:  # position i is exhausted: take back the value before it
            stack.pop()
            if i == 0:
                return
            i -= 1
            v = window[i]
            used[v % n] = False
            total -= v
            continue
        window[i] = v
        if i == last - 1:
            t = total + v
            top = n + (half - t) % n  # n + the last value's residue
            for w in (n, 2 * n) if top == n else (top,):
                if target is None or t + w == target:
                    window[last] = w
                    yield tuple(window)
            continue
        used[v % n] = True
        total += v
        i += 1
        if target is None:
            stack.append(iter(spans[i]))
        else:
            rest = target - total
            low, stop = max(i + 1, rest - most[i]), min(i + n + 2, rest - least[i] + 1)
            stack.append(iter(range(low, stop)))


def enumerate_permutations(
    n: int, k: int | None = None
) -> Iterator[BoundedAffinePermutation]:
    """Yield every bounded affine permutation of size n in window-lex order.

    With k given, only permutations of rank k are yielded.
    """
    return (BoundedAffinePermutation(n, w) for w in enumerate_windows(n, k))
