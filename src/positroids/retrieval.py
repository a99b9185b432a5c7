"""
Reconstruction of a bounded affine permutation from rank conditions on
cyclic intervals.

A rank condition (r, (i, j)) asks the square (i, j) of the n x (n+1)
array, i.e. the cyclic interval [i, i+j-1], to have rank exactly r.
Conditions are processed in ascending label order; each one forces dots
into its triangle T(i, j) until the dependency count is high enough, and
a final pass fills every remaining row at the full rank.  The run either
produces a maximal proper dotting, whose rows read off the permutation
via pi(i) = i + col - 1 and whose permutation meets every condition, or
fails with a typed InvalidInput.

If some positroid meets every condition and its core is among them, the
run succeeds and returns that positroid, whose interval ranks are then
pointwise maximal among all positroids meeting the conditions.  The
converse fails: the window [1, 2, 6] is retrieved from rank{1} = rank{2}
= 0 and full rank 1 without its core (0, {1, 2}), and the conditions
rank{1, 2} = rank{3, 1} = 1 and full rank 2, which the window [1, 5, 6]
alone meets, overflow a row.  Without such a core an output meets every
condition but need not be pointwise maximal.  verify_conditions
re-checks any permutation against a condition set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .core import BoundedAffinePermutation, CyclicInterval, json_array, json_int

Square = tuple[int, int]

# InvalidInput kinds
MISSING_FULL_LABEL = "MissingFullLabel"
NON_MAXIMAL_LABEL = "NonMaximalLabel"
NO_PROGRESS = "NoProgress"
ROW_OVERFLOW = "RowOverflow"
NOT_PROPER = "NotProper"
RANK_MISMATCH = "RankMismatch"


class InvalidInput(Exception):
    """The rank conditions admit no positroid; ``kind`` names the failure."""

    def __init__(self, kind: str, context: dict | None = None, trace=None):
        self.kind = kind
        self.context = context or {}
        self.trace = trace
        detail = f" {self.context}" if self.context else ""
        super().__init__(f"{kind}{detail}")


@dataclass(frozen=True)
class RankConditionSet:
    """Labeled squares of the array, i.e. rank conditions on cyclic intervals."""

    n: int
    conditions: tuple[tuple[int, Square], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ground set size must be positive, got {self.n}")
        seen: dict[Square, int] = {}
        for r, (i, j) in self.conditions:
            if r < 0:
                raise ValueError(f"negative rank label {r}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ValueError(f"square {(i, j)} outside [1,n] x [1,n]")
            if seen.get((i, j), r) != r:
                raise ValueError(f"square {(i, j)} labeled twice with different ranks")
            seen[(i, j)] = r

    @classmethod
    def from_intervals(
        cls, n: int, pairs: Iterable[tuple[int, CyclicInterval]]
    ) -> "RankConditionSet":
        return cls(
            n, tuple(sorted((r, (iv.start, iv.length)) for r, iv in pairs))
        )

    def full_label(self) -> int | None:
        for r, sq in self.conditions:
            if sq == (1, self.n):
                return r
        return None

    def intervals(self) -> list[tuple[int, CyclicInterval]]:
        return [(r, CyclicInterval(self.n, i, j)) for r, (i, j) in self.conditions]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "conditions": [
                {"rank": r, "start": i, "len": j}
                for r, (i, j) in sorted(self.conditions)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RankConditionSet":
        n = json_int(obj["n"])
        conds = tuple([
            (json_int(c["rank"]), (json_int(c["start"]), json_int(c["len"])))
            for c in json_array(obj["conditions"])
        ])
        return cls(n, conds)


@lru_cache(maxsize=16)
def _comb(n: int) -> int:
    """S(n): one bit every 2n bits, n bits in all."""
    return ((1 << 2 * n * n) - 1) // ((1 << 2 * n) - 1)


class ProperDotting:
    """Mutable dot placement on the periodic array; one dot per row at most.

    Beside ``cols`` it keeps n lanes in one int, lane i (an origin row,
    1 <= i <= n) being bits [(i-1)(2n+1), i(2n+1)): bit p of lane i is
    set by the dots with c + (row - i) % n = p, which lies in [1, 2n]
    for columns in [1, n+1].  The dot (row, c), of value v = row + c - 1,
    is bit 2n(i-1) + v of lane i <= row and bit 2n(i-1) + v + n of
    lane i > row; with S(x) the comb of bits 0, 2n, ..., 2n(x-1),
    ``place`` ORs in S(row) << v | (S(n) ^ S(row)) << (v + n), one bit
    per lane.  Bit h of ``free`` is set while row h is undotted.

    Two dots share a lane bit exactly when their values agree mod n:
    a dot's bit in lane i, c + (row - i) % n, is v - i + 1 mod n, and
    conversely, with rows r1 != r2 and delta = (r2 - r1) % n, their bits
    in lane i differ by e = c2 - c1 + delta, in [1 - n, 2n - 1], when
    (r1 - i) % n < n - delta and by e - n in the other lanes (both kinds
    exist), while agreeing values make e 0 or n.  So counts are exact
    while the dotting is proper, the OR loses a bit once it is not, and
    ``is_proper`` is one ``bit_count``, which sees any earlier collision
    as bits only grow.

    The column search leaves bit b of lane h clear at the chosen b, and
    bit 1 of lane h is row h's own, so a new dot can collide only with
    one at bit b + n of lane h, b <= n.  That this bit is clear has no
    proof from the ascending-label order and was never seen set; the
    final ``is_proper`` check keeps an improper dotting from being
    returned.

    ``place``, ``d`` and ``first_undotted`` are O(1) operations on ints
    of at most n(2n+1) bits, so a retrieval run with E conditions is
    O(n + E) of them, and O(n log n) more in its column searches.
    """

    __slots__ = ("n", "cols", "lanes", "free", "comb")

    def __init__(self, n: int, cols: dict[int, int] | None = None):
        self.n = n
        self.cols: dict[int, int] = {}  # row residue -> column
        self.lanes = 0
        self.free = (2 << n) - 2
        self.comb = _comb(n)
        for row, col in (cols or {}).items():
            self.place(row, col)

    def place(self, row: int, col: int) -> None:
        assert row not in self.cols, f"row {row} already dotted"
        self.cols[row] = col
        self.free ^= 1 << row
        n, comb = self.n, self.comb
        head = comb >> 2 * n * (n - row)  # S(row)
        v = row + col - 1
        self.lanes |= head << v | (comb ^ head) << v + n

    def first_undotted(self, i: int) -> int:
        """The first undotted row from row i on, cyclically; one must exist."""
        later = self.free >> i << i or self.free
        return (later & -later).bit_length() - 1

    def undotted_rows(self) -> list[int]:
        return [h for h in range(1, self.n + 1) if h not in self.cols]

    def is_proper(self) -> bool:
        """No two dots agree mod n: no lane bit was set twice."""
        return self.lanes.bit_count() == self.n * len(self.cols)

    def d(self, sq: Square) -> int:
        """Dots in the triangle T at ``sq`` = (i, m), 1 <= i <= n, 0 <= m <= 2n+1.

        The dot of row h at column c lies in T(i, m) exactly when
        c + (h - i) % n <= m.  A square belongs to T when some lift of
        its row meets the column bound of that lift; the lowest lift,
        t = (h - i) % n, gives the weakest bound, and as c >= 1 the
        predicate already forces t < min(m, n).  So, while the dotting
        is proper, d is the number of bits 0..m of lane i set: one shift,
        one mask and one ``bit_count``.
        """
        i, m = sq
        mask = (2 << m) - 1  # bit 2n + 1 is the next lane's bit 0, always clear
        return (self.lanes >> (i - 1) * (2 * self.n + 1) & mask).bit_count()

    def window(self) -> list[int]:
        return [h + self.cols[h] - 1 for h in range(1, self.n + 1)]


# Trace events: (kind, payload) pairs serialized one JSON object per line.
@dataclass(frozen=True)
class TraceEvent:
    kind: str  # condition_start | excess_computed | dot_placed | row_filled | error
    data: dict

    def to_json(self) -> dict:
        return {"event": self.kind, **self.data}


class RetrievalTrace(list):
    """Ordered event log; replaying the placement events rebuilds the dotting."""

    def emit(self, event: str, **data):
        self.append(TraceEvent(event, data))


def replay_trace(n: int, events: Iterable[TraceEvent]) -> BoundedAffinePermutation:
    dotting = ProperDotting(n)
    for ev in events:
        if ev.kind in ("dot_placed", "row_filled"):
            dotting.place(ev.data["row"], ev.data["col"])
    return BoundedAffinePermutation.from_window(dotting.window())


def _min_col_with_dependency(dotting: ProperDotting, h: int, r: int) -> int | None:
    """Least column b in [1, n+1] with b - 1 - d(h, b) = r, if any.

    While the dotting is proper, bits 1..b of lane h hold d(h, b) ones
    and b - d(h, b) zeros, so b - 1 - d(h, b) rises by 0 or 1 per column
    and b is the (r+1)-th zero of lane h in bits 1..n+1: a bisection on
    ``bit_count`` over the ones' count, O(log n) int operations.
    """
    n = dotting.n
    ones = dotting.lanes >> (h - 1) * (2 * n + 1) & (1 << n + 2) - 1  # bit 0 is clear
    want = r + 1
    if want <= 0:  # no zero before b: only b = 1 on a dot, for r = -1
        return 1 if want == 0 and ones & 2 else None
    lo, hi = want, want + ones.bit_count()  # the want-th zero lies in [lo, hi]
    if hi > n + 1:  # fewer than want zeros in bits 1..n+1
        return None
    while lo < hi:
        mid = (lo + hi) >> 1
        if mid - (ones & (2 << mid) - 1).bit_count() < want:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _fail(log, kind: str, **context):
    if log is not None:
        log.emit("error", kind=kind, **context)
    raise InvalidInput(kind, context, trace=log)


def _dotted(n: int, k: int, ordered: list, log=None) -> BoundedAffinePermutation:
    """``retrieve``'s dotting on sorted (rank, (row, column)) conditions, with
    k the full label: NonMaximalLabel, NoProgress, RowOverflow or NotProper,
    and no rank check."""
    top = ordered[-1][0]  # the largest label: they are sorted
    if top > k:
        _fail(log, NON_MAXIMAL_LABEL, full_label=k, max_label=top)
    dotting = ProperDotting(n)
    cols = dotting.cols
    for r, (i, j) in ordered:
        # the deficit is counted once; dots are never removed, so each
        # new dot lowers it by its own membership in T(i, j) alone
        a = j - r - dotting.d((i, j))
        if log is not None:
            log.emit("condition_start", rank=r, row=i, col=j)
            log.emit("excess_computed", value=a)
        while a > 0:
            if len(cols) < n:
                h = dotting.first_undotted(i)
                col = _min_col_with_dependency(dotting, h, r)
                if col is not None:
                    dotting.place(h, col)
                    if log is not None:
                        log.emit("dot_placed", row=h, col=col)
                    if col + (h - i) % n <= j:  # d's predicate
                        a -= 1
                        continue
            _fail(log, NO_PROGRESS, rank=r, row=i, col=j)

    for h in dotting.undotted_rows():
        col = _min_col_with_dependency(dotting, h, k)
        if col is None:
            _fail(log, ROW_OVERFLOW, row=h)
        dotting.place(h, col)
        if log is not None:
            log.emit("row_filled", row=h, col=col)

    if not dotting.is_proper():  # the fill dotted every row
        _fail(log, NOT_PROPER)
    # every column is in [1, n+1], so the window keeps the band, and
    # is_proper is its bijectivity test: no from_window checks are due
    return BoundedAffinePermutation(n, tuple(dotting.window()))


def retrieve(
    conditions: RankConditionSet, trace: bool = False
) -> BoundedAffinePermutation | tuple[BoundedAffinePermutation, RetrievalTrace]:
    """Run the retrieval algorithm; raises InvalidInput on failure.

    With trace=True, returns (permutation, trace); InvalidInput raised
    from a traced run carries the partial trace on its ``trace`` field.
    Without it no event is built at all.
    """
    log = RetrievalTrace() if trace else None
    k = conditions.full_label()
    if k is None:
        _fail(log, MISSING_FULL_LABEL)
    ordered = sorted(conditions.conditions)  # by label, then row, then column
    perm = _dotted(conditions.n, k, ordered, log)
    for r, (i, j) in ordered:
        got = perm.rank_at(i, j)
        if got != r:
            _fail(log, RANK_MISMATCH, row=i, col=j, expected=r, actual=got)
    return (perm, log) if trace else perm


def verify_conditions(
    p: BoundedAffinePermutation, conditions: RankConditionSet
) -> bool:
    """True iff the permutation satisfies every rank condition exactly."""
    if conditions.n != p.n:
        raise ValueError("interval ground set does not match permutation")
    return all(p.rank_at(i, j) == r for r, (i, j) in conditions.conditions)


def conditions_from_family(family) -> RankConditionSet:
    """Encode a ranked essential family as retrieval input, in the family's
    canonical order: ``retrieve`` sorts the conditions it processes."""
    return RankConditionSet(
        family.n, tuple([(r, (start, length)) for start, length, r in family.triples])
    )


def core_conditions(family) -> RankConditionSet:
    """The core entries as a well-formed condition set.

    The retrieval contract requires the square (1, n) to be labeled, so
    when the full-set entry has excess zero (and therefore sits outside
    the core) its label is still included.
    """
    from .essential import core

    entries = list(core(family))
    if not any(iv.is_full for _, iv in entries):
        entries.append((family.k, CyclicInterval.full(family.n)))
    return RankConditionSet.from_intervals(family.n, entries)
