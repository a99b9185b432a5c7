"""
The scan version of retrieval's dotting, used only by the tests.

``ScanDotting.d`` counts a triangle by scanning every dot placed so far,
``min_col_by_tally`` finds a row's column by an O(n) tally of those dots,
and ``retrieve`` runs the retrieval algorithm on them, with the walk
over dotted rows for the first undotted one.  They are the references
that ``ProperDotting``'s bit-parallel lanes, ``_min_col_with_dependency``
and ``retrieval.retrieve`` are checked against.
"""

from __future__ import annotations

from positroids.core import BoundedAffinePermutation
from positroids.retrieval import (
    MISSING_FULL_LABEL,
    NO_PROGRESS,
    NON_MAXIMAL_LABEL,
    NOT_PROPER,
    RANK_MISMATCH,
    ROW_OVERFLOW,
    RankConditionSet,
    RetrievalTrace,
    Square,
    _fail,
)


class ScanDotting:
    """Dots as a dict of row residue -> column, and nothing else."""

    def __init__(self, n: int, cols: dict[int, int] | None = None):
        self.n = n
        self.cols = dict(cols or {})

    def place(self, row: int, col: int) -> None:
        assert row not in self.cols, f"row {row} already dotted"
        self.cols[row] = col

    def d(self, sq: Square) -> int:
        """Dots in the triangle T at ``sq``, by a scan of every dot: the dot
        of row h at column c lies in T(i, m) exactly when c + (h - i) % n <= m."""
        i, m = sq
        n = self.n
        return sum([col + (row - i) % n <= m for row, col in self.cols.items()])

    def is_proper(self) -> bool:
        diags = [(row + col) % self.n for row, col in self.cols.items()]
        return len(set(diags)) == len(diags)

    def window(self) -> list[int]:
        return [h + self.cols[h] - 1 for h in range(1, self.n + 1)]


def min_col_by_tally(dotting, h: int, r: int) -> int | None:
    """Least column b in [1, n+1] with b - 1 - d(h, b) = r, if any, from a
    tally of the least b = col + (row - h) % n at which each dot of the
    dotting's ``cols`` counts in d(h, b)."""
    n = dotting.n
    reach = [0] * (n + 2)
    for row, col in dotting.cols.items():
        b = col + (row - h) % n
        if b <= n + 1:
            reach[b] += 1
    deps = 0
    for b in range(1, n + 2):
        deps += reach[b]
        if b - 1 - deps == r:
            return b
    return None


def dotted(n: int, k: int, ordered: list, log=None) -> BoundedAffinePermutation:
    """``retrieval._dotted`` on a ``ScanDotting``."""
    top = ordered[-1][0]
    if top > k:
        _fail(log, NON_MAXIMAL_LABEL, full_label=k, max_label=top)
    dotting = ScanDotting(n)
    cols = dotting.cols
    for r, (i, j) in ordered:
        a = j - r - dotting.d((i, j))
        if log is not None:
            log.emit("condition_start", rank=r, row=i, col=j)
            log.emit("excess_computed", value=a)
        while a > 0:
            if len(cols) < n:
                h = i
                while h in cols:
                    h = h % n + 1
                col = min_col_by_tally(dotting, h, r)
                if col is not None:
                    dotting.place(h, col)
                    if log is not None:
                        log.emit("dot_placed", row=h, col=col)
                    if col + (h - i) % n <= j:
                        a -= 1
                        continue
            _fail(log, NO_PROGRESS, rank=r, row=i, col=j)

    for h in [h for h in range(1, n + 1) if h not in cols]:
        col = min_col_by_tally(dotting, h, k)
        if col is None:
            _fail(log, ROW_OVERFLOW, row=h)
        dotting.place(h, col)
        if log is not None:
            log.emit("row_filled", row=h, col=col)

    if not dotting.is_proper():
        _fail(log, NOT_PROPER)
    return BoundedAffinePermutation(n, tuple(dotting.window()))


def retrieve(conditions: RankConditionSet, trace: bool = False):
    """``retrieval.retrieve`` with the scan dotting."""
    log = RetrievalTrace() if trace else None
    k = conditions.full_label()
    if k is None:
        _fail(log, MISSING_FULL_LABEL)
    ordered = sorted(conditions.conditions)
    perm = dotted(conditions.n, k, ordered, log)
    for r, (i, j) in ordered:
        got = perm.rank_at(i, j)
        if got != r:
            _fail(log, RANK_MISMATCH, row=i, col=j, expected=r, actual=got)
    return (perm, log) if trace else perm
