import random

import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
)
from positroids import diagram
from positroids.essential import RankedEssentialFamily

import diagram_reference as reference

ALG_EXAMPLE = BoundedAffinePermutation.from_window([5, 6, 4, 7, 8])


def test_dots(perm_a):
    assert diagram.dots(perm_a) == (
        (1, 3), (2, 3), (3, 6), (4, 4), (5, 2), (6, 4), (7, 4), (8, 6),
    )


class TestRegions:
    def test_p_region_counts(self, perm_a):
        assert reference.count_dots_in_P(perm_a, (4, 4)) == 2
        assert reference.count_dots_in_P(ALG_EXAMPLE, (1, 5)) == 3

    def test_p_of_height_one_is_rest_of_row(self):
        member = reference.region_P(6, (3, 1))
        assert all(member((3, c)) for c in range(2, 8))
        assert not member((3, 1))
        assert not member((4, 5))

    def test_t_region_counts(self, perm_a):
        assert reference.count_dots_in_T(ALG_EXAMPLE, (1, 5)) == 2
        assert reference.count_dots_in_T(perm_a, (4, 4)) == 2

    def test_t_members_of_alg_example(self):
        member = reference.region_T(5, (1, 5))
        hits = [d for d in diagram.dots(ALG_EXAMPLE) if member(d)]
        assert sorted(hits) == [(1, 5), (3, 2)]

    @pytest.mark.parametrize("n", [3, 5])
    def test_t_and_p_partition_band(self, n):
        for i in range(1, n + 1):
            for m in range(1, n + 1):
                in_t = reference.region_T(n, (i, m))
                in_p = reference.region_P(n, (i, m))
                band = [
                    ((i + t - 1) % n + 1, c)
                    for t in range(m)
                    for c in range(1, n + 2)
                ]
                for sq in band:
                    assert in_t(sq) != in_p(sq)


class TestSubAntidiagonal:
    def test_empty_in_first_column(self):
        assert reference.sub_antidiagonal(5, (3, 1)) == set()

    def test_direct_formula(self):
        assert reference.sub_antidiagonal(4, (1, 3)) == {(2, 2), (3, 1)}

    @pytest.mark.parametrize("m", range(1, 7))
    def test_size(self, m):
        assert len(reference.sub_antidiagonal(6, (2, m))) == m - 1


class TestShading:
    def test_example_white_corners(self, perm_a):
        shaded = reference.shaded_set(perm_a)
        for corner in [(1, 4), (4, 4), (5, 2)]:
            assert corner not in shaded

    def test_example_shaded_rows(self, perm_a):
        shaded = reference.shaded_set(perm_a)
        by_row = {
            i: {c for r, c in shaded if r == i} for i in range(1, 9)
        }
        assert by_row[1] == {1, 2, 5}
        assert by_row[5] == {1, 3, 4}
        assert by_row[8] == {1, 2, 3, 4, 5}

    def test_dot_squares_stay_white(self):
        for p in enumerate_permutations(5):
            shaded = reference.shaded_set(p)
            assert not any(d in shaded for d in diagram.dots(p))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_is_white_matches_shaded_set(self, n):
        for p in enumerate_permutations(n):
            shaded = reference.shaded_set(p)
            for i in range(1, n + 1):
                for j in range(1, n + 2):
                    assert reference.is_white(p, i, j) == ((i, j) not in shaded)

    def test_uniform_has_no_corner(self):
        uniform = BoundedAffinePermutation.uniform(2, 6)
        assert reference.geometric_corners(uniform) == []


class TestCorners:
    def test_example(self, perm_a):
        assert sorted(diagram.corners(perm_a)) == [(1, 4), (4, 4), (5, 2)]

    def test_uniform_empty(self):
        assert diagram.corners(BoundedAffinePermutation.uniform(3, 8)) == []

    def test_single_corner_clauses(self, perm_a):
        # the corner at (5, 2) is the interval [5, 6]: all four clauses hold
        p, i, j = perm_a, 5, 6
        assert p.eval(i) <= j
        assert p.inverse_at(j) >= i
        assert p.inverse_at(j + 1) < i
        assert p.eval(i - 1) > j

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_geometric_definition_exhaustively(self, n):
        for p in enumerate_permutations(n):
            assert sorted(diagram.corners(p)) == sorted(reference.geometric_corners(p))


class TestRowSweep:
    """The sliding row sets against the per-row walk and the per-square
    white test they replace."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ranked_corners_match_the_walk_exhaustively(self, n):
        for p in enumerate_permutations(n):
            assert diagram._ranked_corners(p) == reference.ranked_corners_by_walk(p)

    @pytest.mark.parametrize("n", reference.SEEDED_SIZES)
    def test_ranked_corners_match_the_walk_seeded(self, n):
        perms = reference.seeded_permutations(n)
        # the windows hold loops and coloops, where lifts matter most
        assert any(p.loops() for p in perms) and any(p.coloops() for p in perms)
        for p in perms:
            assert diagram._ranked_corners(p) == reference.ranked_corners_by_walk(p)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_render_matches_the_squares_exhaustively(self, n):
        for p in enumerate_permutations(n):
            assert diagram.render(p) == reference.render_by_squares(p)

    @pytest.mark.parametrize("n", [16, 40, 128])
    def test_render_matches_the_squares_seeded(self, n):
        for p in reference.seeded_permutations(n)[:8]:
            assert diagram.render(p) == reference.render_by_squares(p)


class TestRankDotAgreement:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_dots_in_p_equal_interval_rank(self, n):
        for p in enumerate_permutations(n):
            for i in range(1, n + 1):
                for m in range(1, n + 1):
                    assert reference.count_dots_in_P(p, (i, m)) == p.rank_interval(
                        CyclicInterval(n, i, m)
                    )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_band_partition_count(self, n):
        for p in enumerate_permutations(n):
            for i in range(1, n + 1):
                for m in range(1, n + 1):
                    total = reference.count_dots_in_P(
                        p, (i, m)
                    ) + reference.count_dots_in_T(p, (i, m))
                    assert total == m


class TestFamilyExtraction:
    def test_example_family(self, family_a):
        assert {(r, (iv.start, iv.length)) for r, iv in family_a.entries} == {
            (1, (5, 2)), (2, (1, 4)), (2, (4, 4)), (3, (1, 8)),
        }

    def test_uniform_family(self):
        F = diagram.ranked_essential_family(BoundedAffinePermutation.uniform(2, 5))
        assert F.entries == ((2, CyclicInterval(5, 1, 5)),)

    def test_parallel_connection_family(self, bonin_perm):
        F = diagram.ranked_essential_family(bonin_perm)
        assert {(r, (iv.start, iv.length)) for r, iv in F.entries} == {
            (2, (1, 3)), (2, (4, 3)), (2, (7, 3)),
            (4, (3, 7)), (4, (6, 7)), (4, (9, 7)), (5, (1, 9)),
        }

    @staticmethod
    def assert_canonical(p):
        F = diagram.ranked_essential_family(p)
        assert F.entries == RankedEssentialFamily.build(F.n, F.k, F.entries).entries

    @pytest.mark.parametrize("n", range(1, 7))
    def test_built_as_build_would(self, n):
        # the extraction skips build's checks; its entries must still be
        # exactly what build returns for them
        for p in enumerate_permutations(n):
            self.assert_canonical(p)

    @pytest.mark.parametrize("n", [16, 24, 40, 64])
    def test_built_as_build_would_randomized(self, n):
        rng = random.Random(700 + n)
        for _ in range(200):
            self.assert_canonical(reference.random_permutation(rng, n))


class TestEssentialRankCharacterization:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_five_rank_equalities(self, n):
        # an entry is essential iff shrinking keeps the rank and growing
        # raises it, on either side
        for p in enumerate_permutations(n):
            family = {
                iv for _, iv in diagram.ranked_essential_family(p).entries
                if not iv.is_full
            }
            for i in range(1, n + 1):
                for m in range(1, n):
                    iv = CyclicInterval(n, i, m)
                    r = p.rank_interval(iv)
                    grow_l = p.rank_interval(CyclicInterval(n, (i - 2) % n + 1, m + 1))
                    grow_r = p.rank_interval(CyclicInterval(n, i, m + 1))
                    if m == 1:
                        is_essential = r == 0 and grow_l == 1 and grow_r == 1
                    else:
                        shrink_l = p.rank_interval(CyclicInterval(n, i % n + 1, m - 1))
                        shrink_r = p.rank_interval(CyclicInterval(n, i, m - 1))
                        is_essential = (
                            r == shrink_l == shrink_r
                            and grow_l == r + 1
                            and grow_r == r + 1
                        )
                    assert (iv in family) == is_essential, (p.window, iv)


def test_render_example(perm_a):
    expected = "\n".join([
        "  1 2 3 4 5 6 7 8 9",
        "1 # # o . # . . . .",
        "2 # # o # . . . . .",
        "3 # # # # # o . . .",
        "4 # # # o # . . . .",
        "5 # o # # . . . . .",
        "6 # # # o . . . . .",
        "7 # # # o . . . . .",
        "8 # # # # # o . . .",
    ])
    assert diagram.render(perm_a) == expected
