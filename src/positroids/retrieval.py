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

Success is possible iff some positroid matches every condition exactly
and its core is contained in the supplied conditions; the output is then
the rank-maximal such positroid (rank = the label of the square (1, n)).
verify_conditions re-checks any permutation against a condition set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .core import (
    BoundedAffinePermutation,
    CyclicInterval,
    CyclicOrder,
    json_int,
    residue,
)

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
        conds = tuple(
            (json_int(c["rank"]), (json_int(c["start"]), json_int(c["len"])))
            for c in obj["conditions"]
        )
        return cls(n, conds)


@dataclass
class ProperDotting:
    """Mutable dot placement on the periodic array; one dot per row at most."""

    n: int
    cols: dict[int, int] = field(default_factory=dict)  # row residue -> column

    def place(self, row: int, col: int) -> None:
        assert row not in self.cols, f"row {row} already dotted"
        self.cols[row] = col

    def undotted_rows(self) -> list[int]:
        return [h for h in range(1, self.n + 1) if h not in self.cols]

    def is_maximal(self) -> bool:
        return len(self.cols) == self.n

    def is_proper(self) -> bool:
        diags = [(row + col) % self.n for row, col in self.cols.items()]
        return len(set(diags)) == len(diags)

    def d(self, sq: Square) -> int:
        """Dots in the triangle T at ``sq``.

        A square belongs to T when some lift of its row lands in the band
        with a column bound it meets; the lowest lift gives the weakest
        bound, so each dot is tested once there.
        """
        i, m = sq
        count = 0
        for t in range(min(m, self.n)):
            col = self.cols.get(residue(i + t, self.n))
            if col is not None and col <= m - t:
                count += 1
        return count

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
    """Least column b in [1, n+1] with b - 1 - d(h, b) = r, if any."""
    for b in range(1, dotting.n + 2):
        if b - 1 - dotting.d((h, b)) == r:
            return b
    return None


def retrieve(
    conditions: RankConditionSet, trace: bool = False
) -> BoundedAffinePermutation | tuple[BoundedAffinePermutation, RetrievalTrace]:
    """Run the retrieval algorithm; raises InvalidInput on failure.

    With trace=True, returns (permutation, trace); InvalidInput raised
    from a traced run carries the partial trace on its ``trace`` field.
    """
    n = conditions.n
    log = RetrievalTrace()

    def fail(kind: str, **context):
        log.emit("error", kind=kind, **context)
        raise InvalidInput(kind, context, trace=log if trace else None)

    k = conditions.full_label()
    if k is None:
        fail(MISSING_FULL_LABEL)
    top = max((r for r, _ in conditions.conditions), default=0)
    if top > k:
        fail(NON_MAXIMAL_LABEL, full_label=k, max_label=top)

    dotting = ProperDotting(n)
    ordered = sorted(conditions.conditions, key=lambda c: (c[0], c[1][0], c[1][1]))

    for r, (i, j) in ordered:
        a = j - r - dotting.d((i, j))
        log.emit("condition_start", rank=r, row=i, col=j)
        log.emit("excess_computed", value=a)
        order = CyclicOrder(n, i)
        while a > 0:
            free = dotting.undotted_rows()
            if free:
                h = order.min(free)
                col = _min_col_with_dependency(dotting, h, r)
                if col is not None:
                    dotting.place(h, col)
                    log.emit("dot_placed", row=h, col=col)
            b = j - r - dotting.d((i, j))
            if b == a:
                fail(NO_PROGRESS, rank=r, row=i, col=j)
            a = b

    for h in dotting.undotted_rows():
        col = _min_col_with_dependency(dotting, h, k)
        if col is None:
            fail(ROW_OVERFLOW, row=h)
        dotting.place(h, col)
        log.emit("row_filled", row=h, col=col)

    if not (dotting.is_maximal() and dotting.is_proper()):
        fail(NOT_PROPER)
    perm = BoundedAffinePermutation.from_window(dotting.window())
    for r, (i, j) in ordered:
        got = perm.rank_interval(CyclicInterval(n, i, j))
        if got != r:
            fail(RANK_MISMATCH, row=i, col=j, expected=r, actual=got)
    return (perm, log) if trace else perm


def verify_conditions(
    p: BoundedAffinePermutation, conditions: RankConditionSet
) -> bool:
    """True iff the permutation satisfies every rank condition exactly."""
    return all(
        p.rank_interval(CyclicInterval(p.n, i, j)) == r
        for r, (i, j) in conditions.conditions
    )


def conditions_from_family(family) -> RankConditionSet:
    """Encode a ranked essential family as retrieval input."""
    return RankConditionSet.from_intervals(family.n, family.entries)


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
