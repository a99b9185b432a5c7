import gc

import pytest
from hypothesis import given, strategies as st

from positroids.core import (
    BoundedAffinePermutation,
    BoundViolation,
    CyclicInterval,
    CyclicOrder,
    NotBijective,
    count_permutations,
    enumerate_permutations,
    mask_arcs,
    mask_to_interval,
    residue,
)


def windows(max_n=8):
    """Hypothesis strategy for valid bounded affine permutation windows."""

    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        sigma = draw(st.permutations(list(range(1, n + 1))))
        lifts = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        window = []
        for i in range(1, n + 1):
            v = i + (sigma[i - 1] - i) % n
            if v == i and lifts[i - 1]:
                v = i + n
            window.append(v)
        return window

    return build()


class TestCyclicInterval:
    def test_residues_wrap(self):
        assert sorted(CyclicInterval(8, 7, 4).residues()) == [1, 2, 7, 8]

    def test_membership_count(self):
        iv = CyclicInterval(5, 4, 3)
        assert sum(iv.contains(x) for x in range(1, 6)) == 3

    def test_full_interval_equality_ignores_start(self):
        assert CyclicInterval(5, 3, 5) == CyclicInterval(5, 1, 5)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            CyclicInterval(5, 0, 2)
        with pytest.raises(ValueError):
            CyclicInterval(5, 1, 6)

    def test_from_endpoints(self):
        iv = CyclicInterval.from_endpoints(8, 7, 10)
        assert (iv.start, iv.length) == (7, 4)

    def test_mask_roundtrip(self):
        iv = CyclicInterval(6, 5, 3)
        assert mask_to_interval(6, iv.mask()) == iv
        assert mask_to_interval(4, 0b0101) is None

    def test_mask_arcs_are_the_maximal_runs(self):
        # disjoint runs in order of start, covering the mask, each bounded
        # by non-members on both sides; mask_to_interval is the one-run case
        for n in range(1, 10):
            full = (1 << n) - 1
            for mask in range(1 << n):
                arcs = mask_arcs(n, mask)
                assert [a.start for a in arcs] == sorted(a.start for a in arcs)
                union = 0
                for arc in arcs:
                    assert union & arc.mask() == 0
                    union |= arc.mask()
                    if mask != full:
                        before = residue(arc.start - 1, n)
                        after = residue(arc.end + 1, n)
                        assert not mask >> (before - 1) & 1
                        assert not mask >> (after - 1) & 1
                assert union == mask
                single = mask_to_interval(n, mask)
                assert single == (arcs[0] if len(arcs) == 1 else None)

    def test_mask_matches_residue_loop(self):
        for n in range(1, 13):
            for start in range(1, n + 1):
                for length in range(1, n + 1):
                    expected = 0
                    for t in range(length):
                        expected |= 1 << (start + t - 1) % n
                    assert CyclicInterval(n, start, length).mask() == expected


class TestCyclicOrder:
    def test_base_is_minimal(self):
        order = CyclicOrder(6, 4)
        assert order.min(range(1, 7)) == 4
        assert order.lt(5, 2) and not order.lt(2, 5)

    def test_extends_by_residue(self):
        order = CyclicOrder(5, 3)
        assert order.key(8) == order.key(3) == 0


class TestFromWindow:
    def test_paper_window_valid(self):
        p = BoundedAffinePermutation.from_window([3, 4, 8, 7, 6, 9, 10, 13])
        assert p.n == 8

    def test_identity_all_loops(self):
        p = BoundedAffinePermutation.from_window([1, 2, 3, 4])
        assert p.loops() == frozenset({1, 2, 3, 4})

    def test_residue_collision(self):
        with pytest.raises(NotBijective) as exc:
            BoundedAffinePermutation.from_window([3, 3, 6])
        assert exc.value.positions == (1, 2)

    def test_bound_violation(self):
        with pytest.raises(BoundViolation):
            BoundedAffinePermutation.from_window([2, 1, 4])


class TestEval:
    def test_periodic_shift(self, perm_a):
        assert perm_a.eval(9) == 11

    def test_uniform(self):
        p = BoundedAffinePermutation.uniform(3, 7)
        assert all(p.eval(i) == i + 3 for i in range(-10, 20))

    def test_identity(self):
        p = BoundedAffinePermutation.from_window([1, 2, 3])
        assert p.eval(1) == 1

    def test_inverse_examples(self, perm_a):
        assert perm_a.inverse_at(6) == 5
        assert perm_a.inverse_at(14) == 13  # periodicity from j = 6

    def test_identity_inverse(self):
        p = BoundedAffinePermutation.from_window([1, 2, 3, 4, 5])
        assert all(p.inverse_at(j) == j for j in range(-5, 12))


class TestRank:
    def test_interval_examples(self, perm_a):
        assert perm_a.rank_interval(CyclicInterval(8, 4, 4)) == 2
        assert perm_a.rank_interval(CyclicInterval(8, 2, 4)) == 3

    def test_identity_rank_zero(self):
        p = BoundedAffinePermutation.from_window([1, 2, 3, 4])
        assert all(
            p.rank_interval(CyclicInterval(4, s, l)) == 0
            for s in range(1, 5)
            for l in range(1, 5)
        )

    def test_full_rank_examples(self, perm_a):
        assert perm_a.rank() == 3
        assert BoundedAffinePermutation.uniform(2, 6).rank() == 2
        assert BoundedAffinePermutation.from_window([1, 2, 3]).rank() == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_interval_rank_table(self, n):
        for p in enumerate_permutations(n):
            table = p.interval_ranks()
            assert len(table) == n
            for start, row in enumerate(table, start=1):
                assert row == tuple(
                    [0] + [p.rank_interval(CyclicInterval(n, start, ln))
                           for ln in range(1, n + 1)]
                ), (p, start)

    def test_loops_coloops(self):
        p = BoundedAffinePermutation.from_window([5, 6, 4, 7, 8])
        assert p.loops() == frozenset() and p.coloops() == frozenset()
        q = BoundedAffinePermutation.from_window([4, 5, 6])
        assert q.coloops() == frozenset({1, 2, 3})


@given(windows())
def test_rank_bounds_and_complement_count(window):
    p = BoundedAffinePermutation.from_window(window)
    k = p.rank()
    n = p.n
    for start in range(1, n + 1):
        for length in range(1, n + 1):
            iv = CyclicInterval(n, start, length)
            r = p.rank_interval(iv)
            assert 0 <= r <= min(length, k)
            end = iv.end
            inside = sum(
                1 for l in range(iv.start, end + 1) if p.eval(l) <= end
            )
            assert r == length - inside


@given(windows())
def test_unit_monotonicity(window):
    p = BoundedAffinePermutation.from_window(window)
    n = p.n
    for start in range(1, n + 1):
        for length in range(1, n):
            iv = CyclicInterval(n, start, length)
            r = p.rank_interval(iv)
            left = p.rank_interval(CyclicInterval(n, (start - 2) % n + 1, length + 1))
            right = p.rank_interval(CyclicInterval(n, start, length + 1))
            assert r <= left <= r + 1
            assert r <= right <= r + 1


@given(windows())
def test_eval_inverse_identity(window):
    p = BoundedAffinePermutation.from_window(window)
    for j in range(-2 * p.n, 2 * p.n + 1):
        assert p.eval(p.inverse_at(j)) == j


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_count_and_order(n):
    seen = [p.window for p in enumerate_permutations(n)]
    assert len(seen) == count_permutations(n)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_enumeration_rank_filter():
    by_rank = sum(
        len(list(enumerate_permutations(4, k=k))) for k in range(5)
    )
    assert by_rank == count_permutations(4)


def test_enumeration_leaves_no_reference_cycles():
    # a drained enumeration should be freed by reference counting alone,
    # with nothing left for the cyclic collector
    gc.collect()
    gc.disable()
    try:
        assert len(list(enumerate_permutations(3))) == count_permutations(3)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", [7, 8])
def test_enumeration_count_at_scale(n):
    assert sum(1 for _ in enumerate_permutations(n)) == count_permutations(n)


def test_json_roundtrip(perm_a):
    assert BoundedAffinePermutation.from_json(perm_a.to_json()) == perm_a
    iv = CyclicInterval(8, 4, 4)
    assert CyclicInterval.from_json(8, iv.to_json()) == iv
