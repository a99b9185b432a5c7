import random
from itertools import product
from operator import ge

import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
)
from positroids import diagram, retrieval
from positroids.retrieval import (
    InvalidInput,
    ProperDotting,
    RankConditionSet,
    conditions_from_family,
    core_conditions,
    replay_trace,
    retrieve,
    verify_conditions,
)

import diagram_reference as reference
import retrieval_reference

PAPER_INPUT = RankConditionSet(5, ((1, (3, 2)), (3, (1, 5))))
KINDS = {
    retrieval.MISSING_FULL_LABEL,
    retrieval.NON_MAXIMAL_LABEL,
    retrieval.NO_PROGRESS,
    retrieval.ROW_OVERFLOW,
    retrieval.NOT_PROPER,
    retrieval.RANK_MISMATCH,
}


def random_condition_sets(seed=99, count=3000):
    """Seeded condition sets at n <= 6: the full square and up to three
    more, any label in [0, n]."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        conds = {(1, n): rng.randint(0, n)}
        for _ in range(rng.randint(0, 3)):
            conds[(rng.randint(1, n), rng.randint(1, n))] = rng.randint(0, n)
        yield RankConditionSet(n, tuple((r, sq) for sq, r in sorted(conds.items())))


def all_labelings(n):
    """Every condition set on [n] with the full square labeled: each other
    square unlabeled or labeled in [0, n]."""
    squares = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    choices = [range(n + 1) if sq == (1, n) else range(-1, n + 1) for sq in squares]
    for labels in product(*choices):
        yield RankConditionSet(
            n, tuple((r, sq) for sq, r in zip(squares, labels) if r >= 0)
        )


class TestDottingCounters:
    def test_mid_run_dependency(self):
        dotting = ProperDotting(5, {3: 2})
        assert dotting.d((1, 5)) == 1

    def test_empty_dotting(self):
        dotting = ProperDotting(6)
        assert all(
            dotting.d((i, m)) == 0
            for i in range(1, 7)
            for m in range(1, 8)
        )

    def test_complete_dotting_rank(self):
        # retrieval reads a complete dotting's ranks off its permutation
        p = BoundedAffinePermutation.from_window([5, 6, 4, 7, 8])
        dotting = ProperDotting(5, {i: c for i, c in diagram.dots(p)})
        q = BoundedAffinePermutation.from_window(dotting.window())
        assert q.rank_interval(CyclicInterval(5, 1, 5)) == 3

    def test_min_col_matches_d_scan(self):
        # _min_col_with_dependency against the reference tally of the dots,
        # and d against a count over the lifts of the rows of T(h, b)
        def d_by_lifts(dotting, i, m):
            return sum(
                1 for t in range(min(m, n))
                if dotting.cols.get((i + t - 1) % n + 1, m + 1) <= m - t
            )

        rng = random.Random(11)
        for _ in range(3000):
            n = rng.randint(1, 10)
            rows = rng.sample(range(1, n + 1), rng.randint(0, n))
            # a proper partial dotting: values row + c - 1 on distinct residues,
            # c in [1, n+1], column n + 1 in place of column 1 half the time
            cols = {}
            for row, v in zip(rows, rng.sample(range(n), len(rows))):
                c = (v - row) % n + 1
                cols[row] = c + n if c == 1 and rng.random() < 0.5 else c
            dotting = ProperDotting(n, cols)
            assert dotting.is_proper()
            h = rng.randint(1, n)
            for b in range(0, n + 2):
                assert dotting.d((h, b)) == d_by_lifts(dotting, h, b)
            for r in range(-1, n + 2):
                expected = retrieval_reference.min_col_by_tally(dotting, h, r)
                assert retrieval._min_col_with_dependency(dotting, h, r) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counters_match_region_counts(self, n):
        for p in enumerate_permutations(n):
            dotting = ProperDotting(n, {i: c for i, c in diagram.dots(p)})
            q = BoundedAffinePermutation.from_window(dotting.window())
            for i in range(1, n + 1):
                for m in range(1, n + 1):
                    assert q.rank_interval(
                        CyclicInterval(n, i, m)
                    ) == reference.count_dots_in_P(p, (i, m))
                    assert dotting.d((i, m)) == reference.count_dots_in_T(p, (i, m))


class TestLanesAgainstScan:
    """``ProperDotting``'s bit-parallel lanes and ``retrieve`` against the
    scan reference: properness, every count and column of a proper
    dotting, and every outcome agree."""

    @staticmethod
    def improper_dottings(seed=24, count=400):
        """Seeded partial dottings with n <= 40 whose values repeat a few
        residues, so that most become improper part way; each comes with
        the dots in placement order."""
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(1, 40)
            residues = rng.sample(range(n), rng.randint(1, min(n, 3)))
            rows = rng.sample(range(1, n + 1), rng.randint(0, n))
            # value row + c - 1 on a chosen residue, c in [1, n+1]
            dots = [(row, (rng.choice(residues) - row) % n + 1) for row in rows]
            if rng.random() < 0.3 and dots:  # column n + 1: the wrapped lift
                row, col = dots[0]
                dots[0] = (row, col + n if col == 1 else col)
            yield n, dots

    def test_improper_dottings_counted_exactly(self):
        # is_proper's popcount against the scan's residue check after every
        # dot; while proper, every count and column against the scan's
        rng = random.Random(40)
        improper = 0
        for n, dots in self.improper_dottings():
            placed = ProperDotting(n)
            scan = retrieval_reference.ScanDotting(n)
            for row, col in dots:
                placed.place(row, col)
                scan.place(row, col)
                assert placed.is_proper() == scan.is_proper(), (n, dots, row)
                if not scan.is_proper():
                    continue
                for h in rng.sample(range(1, n + 1), min(n, 3)):
                    for m in range(0, 2 * n + 2):
                        assert placed.d((h, m)) == scan.d((h, m)), (n, dots, h, m)
                    for r in range(-1, n + 2):
                        assert retrieval._min_col_with_dependency(
                            placed, h, r
                        ) == retrieval_reference.min_col_by_tally(scan, h, r), (n, dots, h, r)
            assert placed.cols == scan.cols
            assert ProperDotting(n, dict(dots)).is_proper() == scan.is_proper()
            improper += not scan.is_proper()
        assert improper == 333  # of 400: the detector fires on most of them

    @staticmethod
    def outcome(retrieve_fn, C):
        try:
            perm, trace = retrieve_fn(C, trace=True)
            result = perm.window
        except InvalidInput as e:
            trace, result = e.trace, (e.kind, e.context)
        return result, [ev.to_json() for ev in trace]

    def assert_same(self, C):
        got = self.outcome(retrieve, C)
        assert got == self.outcome(retrieval_reference.retrieve, C), C
        return got

    def test_every_labeling_up_to_two(self):
        for n in (1, 2):
            for C in all_labelings(n):
                self.assert_same(C)

    def test_seeded_condition_sets(self):
        # a random positroid's ranks on up to 2n squares, often one label off by one
        rng = random.Random(30)
        for _ in range(1500):
            n = rng.randint(5, 30)
            p = reference.random_permutation(rng, n)
            conds = {(1, n): p.rank()}
            for _ in range(rng.randint(0, 2 * n)):
                i, j = rng.randint(1, n), rng.randint(1, n)
                conds[i, j] = p.rank_at(i, j)
            if rng.random() < 0.6:
                sq = rng.choice(sorted(conds))
                conds[sq] = max(0, conds[sq] + rng.choice((-1, 1)))
            self.assert_same(
                RankConditionSet(n, tuple((r, sq) for sq, r in sorted(conds.items())))
            )

    def test_dense_labelings(self):
        # up to n^2 squares at n = 3-6, any label in [0, n]: where two dots
        # on one diagonal, if any run placed them, would be likeliest
        rng = random.Random(26)
        kinds = set()
        for _ in range(40000):
            n = rng.randint(3, 6)
            conds = {(1, n): rng.randint(0, n)}
            for _ in range(rng.randint(0, n * n)):
                conds[rng.randint(1, n), rng.randint(1, n)] = rng.randint(0, n)
            result, _ = self.assert_same(
                RankConditionSet(n, tuple((r, sq) for sq, r in sorted(conds.items())))
            )
            kinds.add(result[0] if isinstance(result[0], str) else "success")
        assert kinds == {
            "success", retrieval.NON_MAXIMAL_LABEL, retrieval.ROW_OVERFLOW,
            retrieval.RANK_MISMATCH,
        }

    @pytest.mark.parametrize("n", [64, 128])
    def test_criterion_08_families(self, n):
        # each family as it is, and a copy with one label raised
        rng = random.Random(n)
        for _ in range(2):
            p = reference.random_permutation(rng, n)
            conditions = conditions_from_family(diagram.ranked_essential_family(p))
            self.assert_same(conditions)
            spoiled = list(conditions.conditions)
            a = rng.randrange(len(spoiled))
            r, sq = spoiled[a]
            spoiled[a] = (r + 1, sq)
            self.assert_same(RankConditionSet(n, tuple(spoiled)))


class TestRetrieve:
    def test_paper_example(self):
        assert retrieve(PAPER_INPUT).window == (5, 6, 4, 7, 8)

    def test_trace_replays_to_same_permutation(self):
        perm, trace = retrieve(PAPER_INPUT, trace=True)
        assert replay_trace(5, trace) == perm
        kinds = [ev.kind for ev in trace]
        assert kinds.count("condition_start") == 2
        assert kinds.count("dot_placed") + kinds.count("row_filled") == 5

    def test_rank_zero_full_gives_identity(self):
        for n in (2, 4):
            out = retrieve(RankConditionSet(n, ((0, (1, n)),)))
            assert out.window == tuple(range(1, n + 1))

    def test_redundant_zero_condition_still_identity(self):
        out = retrieve(RankConditionSet(3, ((0, (1, 1)), (0, (1, 3)))))
        assert out.window == (1, 2, 3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_roundtrip(self, n):
        for p in enumerate_permutations(n):
            family = diagram.ranked_essential_family(p)
            conditions = conditions_from_family(family)
            assert sorted(conditions.conditions) == list(
                RankConditionSet.from_intervals(n, family.entries).conditions
            )
            assert retrieve(conditions).window == p.window

    def test_at_most_n_dots_placed(self):
        _, trace = retrieve(PAPER_INPUT, trace=True)
        placed = [ev for ev in trace if ev.kind in ("dot_placed", "row_filled")]
        assert len(placed) <= 5


class TestUntraced:
    """Without trace=True, retrieval builds no event yet decides alike."""

    @staticmethod
    def outcome(C, trace):
        try:
            out = retrieve(C, trace=trace)
        except InvalidInput as e:
            return None, e.kind, e.context
        perm = out[0] if trace else out
        return perm.window, None, None

    def test_agrees_with_traced(self):
        sets = [C for n in (1, 2) for C in all_labelings(n)]
        for C in [*sets, *random_condition_sets()]:
            assert self.outcome(C, False) == self.outcome(C, True)

    def test_builds_no_trace_event(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trace event was built")

        monkeypatch.setattr(retrieval, "TraceEvent", refuse)
        kinds = set()
        for C in random_condition_sets(count=500):
            try:
                retrieve(C)
                kinds.add("ok")
            except InvalidInput as e:
                assert e.trace is None
                kinds.add(e.kind)
        assert "ok" in kinds and len(kinds) > 2
        with pytest.raises(AssertionError, match="trace event"):
            retrieve(PAPER_INPUT, trace=True)


class TestErrors:
    def test_missing_full_label(self):
        with pytest.raises(InvalidInput) as exc:
            retrieve(RankConditionSet(5, ((1, (3, 2)),)))
        assert exc.value.kind == "MissingFullLabel"

    def test_non_maximal_label(self):
        with pytest.raises(InvalidInput) as exc:
            retrieve(RankConditionSet(3, ((1, (1, 1)), (0, (1, 3)))))
        assert exc.value.kind == "NonMaximalLabel"

    def test_row_overflow(self):
        with pytest.raises(InvalidInput) as exc:
            retrieve(RankConditionSet(5, ((1, (2, 5)), (5, (1, 5)))))
        assert exc.value.kind == "RowOverflow"

    def test_rank_mismatch(self):
        # both proper intervals of rank 0 force two loops, against rank 1
        with pytest.raises(InvalidInput) as exc:
            retrieve(
                RankConditionSet(2, ((0, (2, 1)), (0, (2, 2)), (1, (1, 2))))
            )
        assert exc.value.kind == "RankMismatch"

    def test_not_proper(self, monkeypatch):
        # no known input places two dots on one diagonal, so a column
        # search that does stands in for one: rows 1 and 2 both get the
        # value 2, and the final check must refuse the window [2, 2]
        monkeypatch.setattr(retrieval, "_min_col_with_dependency",
                            lambda dotting, h, r: {1: 2, 2: 1}[h])
        with pytest.raises(InvalidInput) as exc:
            retrieve(RankConditionSet(2, ((1, (1, 2)),)), trace=True)
        assert exc.value.kind == retrieval.NOT_PROPER
        assert [event.to_json() for event in exc.value.trace][-3:] == [
            {"event": "dot_placed", "row": 1, "col": 2},
            {"event": "row_filled", "row": 2, "col": 1},
            {"event": "error", "kind": "NotProper"},
        ]

    def test_error_carries_trace(self):
        with pytest.raises(InvalidInput) as exc:
            retrieve(RankConditionSet(5, ((1, (3, 2)),)), trace=True)
        assert exc.value.trace is not None
        assert exc.value.trace[-1].kind == "error"

    def test_duplicate_square_rejected_at_construction(self):
        with pytest.raises(ValueError):
            RankConditionSet(4, ((1, (2, 2)), (2, (2, 2))))

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_ground_set_rejected_at_construction(self, n):
        with pytest.raises(ValueError):
            RankConditionSet(n, ())

    def test_termination_on_random_inputs(self):
        outcomes = set()
        for C in random_condition_sets():
            try:
                retrieve(C)
                outcomes.add("ok")
            except InvalidInput as e:
                outcomes.add(e.kind)
        assert "ok" in outcomes and len(outcomes) > 2


class TestDeficitCount:
    """Retrieval counts each condition's deficit once and lowers it by one
    per dot placed in the condition's triangle; a recount of d from a
    replay of the trace must agree."""

    @staticmethod
    def replay(C):
        try:
            perm, trace = retrieve(C, trace=True)
            error = None
        except InvalidInput as e:
            perm, trace, error = None, e.trace, e
        dotting = ProperDotting(C.n)
        for ev, after in zip(trace, [*trace[1:], None]):
            data = ev.data
            if ev.kind == "condition_start":
                r, sq = data["rank"], (data["row"], data["col"])
            elif ev.kind == "excess_computed":
                first = data["value"]
                assert first == sq[1] - r - dotting.d(sq)
            elif ev.kind == "dot_placed":
                before = dotting.d(sq)
                dotting.place(data["row"], data["col"])
                if dotting.d(sq) == before:  # outside the triangle
                    assert after.kind == "error"
                    assert after.data["kind"] == retrieval.NO_PROGRESS
                else:
                    assert dotting.d(sq) == before + 1
            elif ev.kind == "row_filled":
                dotting.place(data["row"], data["col"])
            if ev.kind in ("excess_computed", "dot_placed") and (
                after is None or after.kind != "dot_placed"
            ):  # the condition's last event: its deficit is used up or stuck
                left = sq[1] - r - dotting.d(sq)
                if after is not None and after.data.get("kind") == retrieval.NO_PROGRESS:
                    assert left > 0
                else:
                    assert left == min(first, 0)
        if error is None:
            assert verify_conditions(perm, C)
            assert dotting.window() == list(perm.window)
        else:
            assert error.kind in KINDS
            assert trace[-1].kind == "error" and trace[-1].data["kind"] == error.kind

    def test_every_labeling_up_to_two(self):
        sets = [C for n in (1, 2) for C in all_labelings(n)]
        assert len(sets) == 194
        for C in sets:
            self.replay(C)

    def test_random_condition_sets(self):
        for C in random_condition_sets():
            self.replay(C)


class TestVerifyConditions:
    def test_success_implies_verified(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randint(1, 6)
            conds = {(1, n): rng.randint(0, n)}
            for _ in range(rng.randint(0, 3)):
                j = rng.randint(1, n)
                conds[(rng.randint(1, n), j)] = rng.randint(0, j)
            C = RankConditionSet(
                n, tuple((r, sq) for sq, r in sorted(conds.items()))
            )
            try:
                out = retrieve(C)
            except InvalidInput:
                continue
            assert verify_conditions(out, C)

    @pytest.mark.parametrize("m", [3, 7])
    def test_ground_set_must_match(self, m):
        # a condition set on a smaller or a larger ground set is refused
        p = BoundedAffinePermutation.uniform(2, 5)
        with pytest.raises(ValueError, match="^interval ground set does not match"):
            verify_conditions(p, RankConditionSet(m, ((2, (1, 3)),)))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_output_is_rank_maximal(self, n):
        perms = list(enumerate_permutations(n))
        for p in perms:
            C = conditions_from_family(diagram.ranked_essential_family(p))
            out = retrieve(C)
            best = max(
                (q.rank() for q in perms if verify_conditions(q, C)), default=-1
            )
            assert out.rank() == best

    @pytest.mark.parametrize("n", range(1, 5))
    def test_core_conditions_recover_permutation(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            assert retrieve(core_conditions(F)).window == p.window

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dropping_noncore_entries_is_harmless(self, n):
        from positroids.core import CyclicInterval
        from positroids.essential import core

        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            core_set = set(core(F))
            for dropped in F.entries:
                if dropped in core_set:
                    continue
                rest = [e for e in F.entries if e != dropped]
                if not any(iv.is_full for _, iv in rest):
                    rest.append((F.k, CyclicInterval.full(n)))
                conditions = RankConditionSet.from_intervals(n, rest)
                assert retrieve(conditions).window == p.window


class Positroids:
    """Every positroid on [n], with its rank on each square of the array
    and its core conditions; ``having[s, r]`` is the bitset of those of
    rank r on square s."""

    def __init__(self, n):
        self.n = n
        self.perms = list(enumerate_permutations(n))
        self.squares = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        self.full = self.squares.index((1, n))
        self.tables = [
            tuple([p.rank_at(i, j) for i, j in self.squares]) for p in self.perms
        ]
        self.cores = [
            set(core_conditions(diagram.ranked_essential_family(p)).conditions)
            for p in self.perms
        ]
        self.having = {}
        for b, table in enumerate(self.tables):
            for s, r in enumerate(table):
                self.having[s, r] = self.having.get((s, r), 0) | 1 << b

    def check(self, b, chosen):
        """Check the contract on the conditions that positroid b meets on
        the squares indexed by ``chosen`` and on the full square.  Returns
        whether retrieval succeeded, whether the core of a positroid
        meeting them lies among them, and whether the output's ranks are
        pointwise maximal among those positroids."""
        table = self.tables[b]
        indices = set(chosen) | {self.full}
        conditions = {(table[s], self.squares[s]) for s in indices}
        meeting = -1
        for s in indices:
            meeting &= self.having[s, table[s]]
        members = [q for q in range(len(self.perms)) if meeting >> q & 1]
        inside = [q for q in members if self.cores[q] <= conditions]
        try:
            out = retrieve(RankConditionSet(self.n, tuple(sorted(conditions))))
        except InvalidInput:
            assert not inside, (b, conditions)
            return False, False, False
        top = [out.rank_at(i, j) for i, j in self.squares]
        maximal = all([all(map(ge, top, self.tables[m])) for m in members])
        if inside:
            (q,) = inside  # a core pins its positroid among those meeting it
            assert out.window == self.perms[q].window and maximal, (b, conditions)
        return True, bool(inside), maximal


class TestContract:
    """If some positroid meeting every condition has its core among them,
    ``retrieve`` succeeds and returns that positroid, and its interval
    ranks are pointwise maximal among all positroids meeting the
    conditions.  The converse fails, and so does maximality without a
    core among the conditions."""

    @pytest.mark.parametrize("n, sets, coreless", [(1, 2, 0), (2, 40, 0), (3, 4096, 96)])
    def test_exhaustive(self, n, sets, coreless):
        # every positroid with every subset of the other squares
        positroids = Positroids(n)
        others = [s for s in range(n * n) if s != positroids.full]
        outcomes = [
            positroids.check(b, [s for a, s in enumerate(others) if subset >> a & 1])
            for b in range(len(positroids.perms))
            for subset in range(1 << len(others))
        ]
        assert len(outcomes) == sets
        assert sum([ok and not inside for ok, inside, _ in outcomes]) == coreless

    def test_sampled_at_four(self):
        positroids = Positroids(4)
        rng = random.Random(4)
        outcomes = [
            positroids.check(
                rng.randrange(len(positroids.perms)),
                [s for s in range(16) if rng.random() < 0.5],
            )
            for _ in range(2600)
        ]
        assert sum([inside for _, inside, _ in outcomes]) > 1000
        coreless = [maximal for ok, inside, maximal in outcomes if ok and not inside]
        # with no core among the conditions the output can fall below
        # another positroid that meets them, so maximality is not claimed
        assert len(coreless) > 50 and not all(coreless)

    def test_success_without_the_core(self):
        # window [1, 2, 6]: rank{1} = rank{2} = 0 and full rank 1; its
        # core (0, {1, 2}) is implied but not among the conditions
        C = RankConditionSet(3, ((0, (1, 1)), (0, (2, 1)), (1, (1, 3))))
        assert retrieve(C).window == (1, 2, 6)
        F = diagram.ranked_essential_family(BoundedAffinePermutation.from_window([1, 2, 6]))
        assert core_conditions(F).conditions == ((0, (1, 2)), (1, (1, 3)))

    def test_failure_on_a_pinned_positroid(self):
        # window [1, 5, 6] alone meets rank{1, 2} = 1, rank{3, 1} = 1 and
        # full rank 2, yet retrieval overflows a row
        C = RankConditionSet(3, ((1, (1, 2)), (1, (3, 2)), (2, (1, 3))))
        assert [p.window for p in enumerate_permutations(3) if verify_conditions(p, C)] == [
            (1, 5, 6)
        ]
        with pytest.raises(InvalidInput) as exc:
            retrieve(C)
        assert exc.value.kind == "RowOverflow"


def test_condition_set_json_roundtrip():
    obj = PAPER_INPUT.to_json()
    assert RankConditionSet.from_json(obj) == PAPER_INPUT
    assert obj["conditions"][0] == {"rank": 1, "start": 3, "len": 2}
