import gc
import random
import re

import pytest
from hypothesis import given, strategies as st

from positroids import geometry
from positroids.core import (
    BoundedAffinePermutation,
    BoundViolation,
    CyclicInterval,
    NotBijective,
    enumerate_permutations,
    enumerate_windows,
    json_int,
    residue,
)

from chess_reference import mask_arcs
from duality import dual
from enumeration_reference import count_permutations, windows_by_recursion


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
        assert mask_arcs(6, iv.mask()) == [iv]
        assert len(mask_arcs(4, 0b0101)) == 2

    def test_mask_arcs_are_the_maximal_runs(self):
        # disjoint runs in order of start, covering the mask, each bounded
        # by non-members on both sides
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

    def test_mask_matches_residue_loop(self):
        for n in range(1, 13):
            for start in range(1, n + 1):
                for length in range(1, n + 1):
                    expected = 0
                    for t in range(length):
                        expected |= 1 << (start + t - 1) % n
                    assert CyclicInterval(n, start, length).mask() == expected


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


class TestJsonInt:
    @pytest.mark.parametrize("value", [True, False, 1.5, 2.0, "3", None, [1]])
    def test_refused(self, value):
        with pytest.raises(ValueError, match=re.escape(f"expected an integer, got {value!r}")):
            json_int(value)

    def test_int_returned_as_is(self):
        big = 10**30
        assert json_int(big) is big

    def test_subclass_and_index_read_through_index(self):
        class Small(int):
            pass

        class Seven:
            def __index__(self):
                return 7

        value = json_int(Small(5))
        assert value == 5 and type(value) is int
        assert json_int(Seven()) == 7


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
        # the direct count of the definition is the reference
        def counted(p, start, end):
            return sum(1 for l in range(start, end + 1) if p.eval(l) > end)

        rng = random.Random(n)
        for p in enumerate_permutations(n):
            # each row set is S_i = {j >= i : pi^{-1}(j) < i}, read off the inverse
            assert len(p.row_sets) == n
            for i, row in enumerate(p.row_sets, start=1):
                assert row == sum(
                    [1 << j - i for j in range(i, i + 2 * n) if p.inverse_at(j) < i]
                ), (p, i)
            table = [
                tuple([p.rank_at(c, ln) for ln in range(n + 1)]) for c in range(1, n + 1)
            ]
            for start, row in enumerate(table, start=1):
                assert row == tuple(
                    [counted(p, start, start + ln - 1) for ln in range(n + 1)]
                ), (p, start)
            assert p.rank() == sum(1 for i in range(1, n + 1) if p.eval(i) > n)
            # a start is read as its residue: 0, n + 1 and -n as n, 1 and n
            for lift, start in ((0, n), (n + 1, 1), (-n, n)):
                assert [p.rank_at(lift, ln) for ln in range(n + 1)] == list(table[start - 1])
            # a length above n reads the full set
            assert p.rank_at(rng.randint(1, n), n + rng.randint(1, 2 * n)) == p.rank()
            with pytest.raises(ValueError):
                p.rank_at(1, -1)
            # ranks read in any start order are the ranks of a fresh copy
            fresh = BoundedAffinePermutation(n, p.window)
            starts = list(range(1, n + 1))
            rng.shuffle(starts)
            for start in starts:
                length = rng.randint(0, n)
                assert fresh.rank_at(start, length) == table[start - 1][length]
                length = rng.randint(1, n)
                assert fresh.rank_interval(CyclicInterval(n, start, length)) == (
                    counted(p, start, start + length - 1)
                )
            assert fresh.row_sets == p.row_sets

    def test_interval_of_another_ground_set(self, perm_a):
        with pytest.raises(ValueError, match="ground set"):
            perm_a.rank_interval(CyclicInterval(7, 2, 3))

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
        for enumerator in (enumerate_permutations, enumerate_windows):
            assert len(list(enumerator(3))) == count_permutations(3)
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("n", range(1, 8))
def test_windows_match_the_recursive_reference(n):
    for k in [None, *range(-1, n + 2)]:
        assert list(enumerate_windows(n, k)) == list(windows_by_recursion(n, k))


def test_yielded_windows_are_kept_tuples():
    walk = enumerate_windows(4)
    kept = [next(walk) for _ in range(3)]
    copies = [list(w) for w in kept]
    rest = list(walk)
    assert all(type(w) is tuple for w in kept + rest)
    assert [list(w) for w in kept] == copies
    assert len(kept) + len(rest) == count_permutations(4)


def test_permutations_wrap_the_windows():
    perms = list(enumerate_permutations(5, k=2))
    assert [p.window for p in perms] == list(enumerate_windows(5, 2))
    assert all(p.rank() == 2 and p.inverse_at(p.eval(3)) == 3 for p in perms)


@pytest.mark.parametrize("n", [0, -3])
def test_enumeration_refuses_nonpositive_n_on_call(n):
    for enumerator in (enumerate_windows, enumerate_permutations):
        with pytest.raises(ValueError, match="n must be positive"):
            enumerator(n)


@pytest.mark.parametrize("n", [7, 8])
def test_enumeration_count_at_scale(n):
    assert sum(1 for _ in enumerate_permutations(n)) == count_permutations(n)


def test_json_roundtrip(perm_a):
    assert BoundedAffinePermutation.from_json(perm_a.to_json()) == perm_a


@pytest.mark.parametrize("n", range(1, 7))
def test_dual_ranks_are_complementary(n):
    # the dual read through its own row sets against the complements'
    # ranks in the permutation's: rank*(S) = |S| - k + rank(S^c) on every
    # cyclic interval S, the empty set and the full set included
    for window in enumerate_windows(n):
        p = BoundedAffinePermutation(n, window)
        k, d = p.rank(), dual(p)
        assert d.rank() == n - k
        assert dual(d) == p
        assert geometry.length(d) == geometry.length(p)
        for start in range(1, n + 1):
            for length in range(n + 1):
                rest = p.rank_at(residue(start + length, n), n - length)
                assert d.rank_at(start, length) == length - k + rest
