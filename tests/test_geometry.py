import json
import random
from operator import le
from pathlib import Path

import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
    enumerate_windows,
)
from positroids import diagram, essential, geometry
from positroids.geometry import (
    TooLarge,
    bases,
    codim1_boundary_count,
    codim_from_family,
    facet_system,
    length,
)

import diagram_reference as reference
from bases_reference import bases_by_scan, binary_lattice_points
from boundary_reference import boundary_count_by_enumeration
from connected_reference import rank_from_connected

# the n = 7 counts stored with the benchmark, read as a second reference
BOUNDARY_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "boundary_table.json"


def length_by_eval(p):
    """The inversion count by its definition, two ``eval`` calls per pair."""
    return sum(
        1
        for i in range(1, p.n + 1)
        for j in range(i + 1, i + p.n + 1)
        if p.eval(i) > p.eval(j)
    )


class TestLength:
    def test_example(self, perm_a):
        assert length(perm_a) == 5

    def test_uniform_is_top_cell(self):
        assert length(BoundedAffinePermutation.uniform(3, 8)) == 0

    def test_identity(self):
        assert length(BoundedAffinePermutation.from_window([1, 2, 3, 4])) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_dimension_bound(self, n):
        for p in enumerate_permutations(n):
            k = p.rank()
            assert 0 <= length(p) <= k * (n - k)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_length_equals_dots_in_triangles(self, n):
        # inversions counted dot by dot: other dots in each dot's triangle
        for p in enumerate_permutations(n):
            dots = diagram.dots(p)
            total = 0
            for i, c in dots:
                member = reference.region_T(n, (i, c))
                total += sum(1 for d in dots if d != (i, c) and member(d))
            assert total == length(p)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_window_count_matches_eval_count(self, n):
        for p in enumerate_permutations(n):
            assert length(p) == length_by_eval(p)

    @pytest.mark.parametrize("n", reference.SEEDED_SIZES)
    def test_window_count_matches_eval_count_randomized(self, n):
        for p in reference.seeded_permutations(n):
            assert length(p) == length_by_eval(p)


class TestCodimFromFamily:
    def test_example_decomposition(self, family_a):
        # (3-1)*1 + (3-2)*2 + (3-2)*1 + (3-3)*e_full = 5
        assert codim_from_family(family_a) == 5

    def test_uniform_zero(self):
        F = diagram.ranked_essential_family(BoundedAffinePermutation.uniform(2, 7))
        assert codim_from_family(F) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_length_exhaustive(self, n):
        for p in enumerate_permutations(n):
            assert codim_from_family(diagram.ranked_essential_family(p)) == length(p)

    @pytest.mark.parametrize("n", [10, 12])
    def test_equals_length_randomized(self, n):
        rng = random.Random(1000 + n)
        for _ in range(10_000):
            p = reference.random_permutation(rng, n)
            assert codim_from_family(diagram.ranked_essential_family(p)) == length(p)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_core_entries_carry_the_sum(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            table = {iv: e for (_, iv), e in zip(F.entries, essential.excess(F))}
            full = sum((F.k - r) * table[iv] for r, iv in F.entries)
            over_core = sum((F.k - r) * table[iv] for r, iv in essential.core(F))
            assert full == over_core


class TestFacetSystem:
    def test_uniform_is_hypersimplex(self):
        F = diagram.ranked_essential_family(BoundedAffinePermutation.uniform(2, 5))
        system = facet_system(F)
        assert system.inequalities == ()
        assert len(binary_lattice_points(system)) == 10

    def test_example_has_three_inequalities(self, family_a):
        system = facet_system(family_a)
        assert len(system.inequalities) == 3
        assert all(r < iv.length for iv, r in system.inequalities)

    def test_lattice_points_are_basis_indicators(self, perm_a, family_a):
        pts = binary_lattice_points(facet_system(family_a))
        indicators = {
            tuple(1 if e in b else 0 for e in range(1, 9))
            for b in bases(perm_a)
        }
        assert pts == indicators

    @pytest.mark.parametrize("n", [9, 10])
    def test_double_enumeration_at_larger_sizes(self, n):
        rng = random.Random(n)
        for _ in range(200):
            p = reference.random_permutation(rng, n)
            F = diagram.ranked_essential_family(p)
            indicators = {
                tuple(1 if e in b else 0 for e in range(1, n + 1))
                for b in bases(p)
            }
            assert binary_lattice_points(facet_system(F)) == indicators

    def test_h_rep_shape(self, family_a):
        rows = facet_system(family_a).h_rep_text().splitlines()
        assert rows[0] == "1 1 1 1 1 1 1 1 = 3"
        assert len(rows) == 1 + 16 + 3


class TestBases:
    def test_uniform_all_subsets(self):
        assert len(bases(BoundedAffinePermutation.uniform(2, 6))) == 15

    def test_example_excludes_parallel_pair(self, perm_a):
        found = bases(perm_a)
        assert found
        assert all(not (5 in b and 6 in b) for b in found)

    def test_exchange_axiom_spot(self, perm_a):
        found = [frozenset(b) for b in bases(perm_a)]
        universe = set(found)
        for A in found[:10]:
            for B in found[:10]:
                for a in A - B:
                    assert any(
                        (A - {a}) | {b} in universe for b in B - A
                    )

    def test_too_large(self, perm_a):
        with pytest.raises(TooLarge):
            bases(perm_a, bound=4)

    def test_caps_come_from_the_family(self, perm_a, monkeypatch):
        # the caps are the essential family's entries: no interval rank
        # of the permutation is queried
        rng = random.Random("bases:rows")
        perms = (perm_a, reference.random_permutation(rng, 14))
        expected = [bases_by_scan(diagram.ranked_essential_family(p)) for p in perms]
        queried = []
        rank_at = BoundedAffinePermutation.rank_at
        monkeypatch.setattr(BoundedAffinePermutation, "rank_at",
                            lambda p, *args: queried.append(args) or rank_at(p, *args))
        for p, found in zip(perms, expected):
            assert bases(BoundedAffinePermutation(p.n, p.window)) == found
        assert queried == []


def _assert_matches_scan(p):
    """bases equals the k-subset scan."""
    assert bases(p) == bases_by_scan(diagram.ranked_essential_family(p)), p


class TestBasesAgainstScan:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_permutation(self, n):
        for p in enumerate_permutations(n):
            _assert_matches_scan(p)

    @pytest.mark.parametrize("n", range(10, 17))
    def test_seeded_permutations(self, n):
        rng = random.Random(f"bases:{n}")
        for _ in range(3):
            _assert_matches_scan(reference.random_permutation(rng, n))

    @pytest.mark.parametrize("k", range(17))
    def test_uniform(self, k):
        # the uniform matroids have no binding cap: every k-subset is a basis
        _assert_matches_scan(BoundedAffinePermutation.uniform(k, 16))

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_all_loops_and_all_coloops(self, n):
        for window in (range(1, n + 1), range(n + 1, 2 * n + 1)):
            _assert_matches_scan(BoundedAffinePermutation.from_window(window))

    def test_beyond_the_byte_tables(self):
        # n = 17 with a raised bound: past n = 16 the masks are read bit
        # by bit, not through the byte tables.  Swaps that keep the window
        # bounded keep rank 3.
        rng = random.Random("bases:17")
        window = [i + 3 for i in range(1, 18)]
        for _ in range(40):
            a, b = sorted(rng.sample(range(1, 18), 2))
            if window[a - 1] >= b and window[b - 1] <= a + 17:
                window[a - 1], window[b - 1] = window[b - 1], window[a - 1]
        p = BoundedAffinePermutation.from_window(window)
        found = bases(p, bound=17)
        assert found == bases_by_scan(diagram.ranked_essential_family(p))
        assert any(17 in b for b in found) and len(found) < 680


class TestVarietyConditions:
    def test_uniform_empty(self):
        F = diagram.ranked_essential_family(BoundedAffinePermutation.uniform(2, 5))
        assert facet_system(F).inequalities == ()

    def test_example_three_conditions(self, family_a):
        conds = facet_system(family_a).inequalities
        assert len(conds) == 3

    def test_conditions_imply_all_interval_ranks(self, family_a):
        connected = essential.connected_entries(family_a)
        for start in range(1, 9):
            for l in range(1, 9):
                iv = CyclicInterval(8, start, l)
                assert rank_from_connected(
                    family_a, iv, connected
                ) == essential.rank_from_family(family_a, iv)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conditions_cut_out_the_closure(self, n):
        # the variety claim, set-theoretically: q meets p's conditions
        # exactly when every interval rank of q is at most p's, that is,
        # when q's cell lies in the closure of p's
        intervals = [(s, l) for s in range(1, n + 1) for l in range(1, n)]
        for k in range(n + 1):
            perms = [BoundedAffinePermutation.from_window(w) for w in enumerate_windows(n, k)]
            ranks = [tuple([p.rank_at(s, l) for s, l in intervals]) for p in perms]
            for p, p_ranks in zip(perms, ranks):
                conditions = [
                    (intervals.index((iv.start, iv.length)), r)
                    for iv, r in facet_system(diagram.ranked_essential_family(p)).inequalities
                ]
                for q, q_ranks in zip(perms, ranks):
                    meets = all([q_ranks[i] <= r for i, r in conditions])
                    assert meets == all(map(le, q_ranks, p_ranks)), (p.window, q.window)


class TestBoundaryCount:
    def test_example_has_nine(self, perm_a):
        assert codim1_boundary_count(perm_a) == 9

    @pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (3, 5)])
    def test_top_cell_has_boundaries(self, k, n):
        assert codim1_boundary_count(BoundedAffinePermutation.uniform(k, n)) > 0

    def test_point_cell_has_none(self):
        # zero-dimensional cells at n = 2: a loop plus a coloop
        for window in ([3, 2], [1, 4]):
            p = BoundedAffinePermutation.from_window(window)
            assert length(p) == p.rank() * (2 - p.rank())
            assert codim1_boundary_count(p) == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_enumeration_reference(self, n):
        for p in enumerate_permutations(n):
            assert codim1_boundary_count(p) == boundary_count_by_enumeration(p), p

    def test_matches_stored_n7_counts(self):
        table = json.loads(BOUNDARY_TABLE.read_text())["counts"]
        assert len(table) == 240
        for key, count in table.items():
            window = [int(v) for v in key.split(",")]
            assert len(window) == 7
            p = BoundedAffinePermutation.from_window(window)
            assert codim1_boundary_count(p) == count, key

    def test_uniform_closed_form(self):
        # U(k, n) has n boundary cells for 2 <= k <= n - 1 and none otherwise
        for n in range(1, 65):
            for k in range(n + 1):
                expected = n if 2 <= k <= n - 1 else 0
                u = BoundedAffinePermutation.uniform(k, n)
                assert codim1_boundary_count(u) == expected, (k, n)
