import random

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

PAPER_INPUT = RankConditionSet(5, ((1, (3, 2)), (3, (1, 5))))


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
            conditions = conditions_from_family(diagram.ranked_essential_family(p))
            assert retrieve(conditions).window == p.window

    def test_at_most_n_dots_placed(self):
        _, trace = retrieve(PAPER_INPUT, trace=True)
        placed = [ev for ev in trace if ev.kind in ("dot_placed", "row_filled")]
        assert len(placed) <= 5


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
        rng = random.Random(99)
        outcomes = set()
        for _ in range(3000):
            n = rng.randint(1, 6)
            conds = {(1, n): rng.randint(0, n)}
            for _ in range(rng.randint(0, 3)):
                conds[(rng.randint(1, n), rng.randint(1, n))] = rng.randint(0, n)
            C = RankConditionSet(
                n, tuple((r, sq) for sq, r in sorted(conds.items()))
            )
            try:
                retrieve(C)
                outcomes.add("ok")
            except InvalidInput as e:
                outcomes.add(e.kind)
        assert "ok" in outcomes and len(outcomes) > 2


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


def test_condition_set_json_roundtrip():
    obj = PAPER_INPUT.to_json()
    assert RankConditionSet.from_json(obj) == PAPER_INPUT
    assert obj["conditions"][0] == {"rank": 1, "start": 3, "len": 2}
