import json
import random
from pathlib import Path

import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
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
from bases_reference import bases_by_scan
from boundary_reference import boundary_count_by_enumeration
from connected_reference import rank_from_connected

# the n = 7 counts stored with the benchmark, read as a second reference
BOUNDARY_TABLE = Path(__file__).resolve().parent.parent / "perfbench" / "boundary_table.json"


def random_permutation(rng, n):
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    window = []
    for i in range(1, n + 1):
        v = i + (sigma[i - 1] - i) % n
        if v == i and rng.random() < 0.5:
            v = i + n
        window.append(v)
    return BoundedAffinePermutation.from_window(window)


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
            p = random_permutation(rng, n)
            assert codim_from_family(diagram.ranked_essential_family(p)) == length(p)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_core_entries_carry_the_sum(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            table = essential.excess(F)
            full = sum((F.k - r) * table[iv] for r, iv in F.entries)
            over_core = sum((F.k - r) * table[iv] for r, iv in essential.core(F))
            assert full == over_core


class TestFacetSystem:
    def test_uniform_is_hypersimplex(self):
        F = diagram.ranked_essential_family(BoundedAffinePermutation.uniform(2, 5))
        system = facet_system(F)
        assert system.inequalities == ()
        assert len(system.binary_lattice_points()) == 10

    def test_example_has_three_inequalities(self, family_a):
        system = facet_system(family_a)
        assert len(system.inequalities) == 3
        assert all(r < iv.length for iv, r in system.inequalities)

    def test_lattice_points_are_basis_indicators(self, perm_a, family_a):
        pts = facet_system(family_a).binary_lattice_points()
        indicators = {
            tuple(1 if e in b else 0 for e in range(1, 9))
            for b in bases(perm_a)
        }
        assert pts == indicators

    @pytest.mark.parametrize("n", [9, 10])
    def test_double_enumeration_at_larger_sizes(self, n):
        rng = random.Random(n)
        for _ in range(200):
            p = random_permutation(rng, n)
            F = diagram.ranked_essential_family(p)
            indicators = {
                tuple(1 if e in b else 0 for e in range(1, n + 1))
                for b in bases(p)
            }
            assert facet_system(F).binary_lattice_points() == indicators

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
        with pytest.raises(TooLarge):
            bases(perm_a, bound=4, first=1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_shards_partition_the_bases(self, n):
        for p in enumerate_permutations(n):
            k = p.rank()
            if k == 0:
                continue
            shards = [bases(p, first=f) for f in range(1, n - k + 2)]
            assert [b for shard in shards for b in shard] == bases(p)
            assert all(b[0] == f for f, s in enumerate(shards, 1) for b in s)


def _assert_matches_scan(p):
    """bases equals the k-subset scan, in full and shard by shard."""
    F = diagram.ranked_essential_family(p)
    assert bases(p) == bases_by_scan(F), p
    for f in range(1, p.n - F.k + 2) if F.k else ():
        assert bases(p, first=f) == bases_by_scan(F, first=f), (p, f)


class TestBasesAgainstScan:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_permutation(self, n):
        for p in enumerate_permutations(n):
            _assert_matches_scan(p)

    @pytest.mark.parametrize("n", range(10, 17))
    def test_seeded_permutations(self, n):
        rng = random.Random(f"bases:{n}")
        for _ in range(3):
            _assert_matches_scan(random_permutation(rng, n))

    @pytest.mark.parametrize("k", range(17))
    def test_uniform(self, k):
        # the uniform matroids have no binding cap: every k-subset is a basis
        _assert_matches_scan(BoundedAffinePermutation.uniform(k, 16))

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_all_loops_and_all_coloops(self, n):
        for window in (range(1, n + 1), range(n + 1, 2 * n + 1)):
            _assert_matches_scan(BoundedAffinePermutation.from_window(window))


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
