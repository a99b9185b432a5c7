"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
alongside the verdicts).  Exhaustive sweeps share one permutation cache.
"""

import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
)
from positroids import diagram, essential, geometry, realize, retrieval

from connected_reference import rank_from_connected
from enumeration_reference import count_permutations

WINDOW_A = (3, 4, 8, 7, 6, 9, 10, 13)
WINDOW_BONIN = (3, 10, 8, 6, 13, 11, 9, 16, 14)


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num:2}: PASS - {description}")


def best_time(func, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


_PERM_CACHE: dict[int, list[BoundedAffinePermutation]] = {}


def perms(n):
    if n not in _PERM_CACHE:
        _PERM_CACHE[n] = list(enumerate_permutations(n))
    return _PERM_CACHE[n]


def all_intervals(n):
    return [CyclicInterval.full(n)] + [
        CyclicInterval(n, s, l) for s in range(1, n + 1) for l in range(1, n)
    ]


def entry_set(entries):
    return {(r, (iv.start, iv.length)) for r, iv in entries}


def test_criterion_01_paper_fixture_essential_family():
    with criterion(1, "essential family of the running example, < 1 ms"):
        p = BoundedAffinePermutation.from_window(WINDOW_A)
        family = diagram.ranked_essential_family(p)
        assert entry_set(family.entries) == {
            (1, (5, 2)), (2, (1, 4)), (2, (4, 4)), (3, (1, 8)),
        }
        assert best_time(lambda: diagram.ranked_essential_family(p)) < 1e-3


def test_criterion_02_paper_fixture_parallel_connection():
    with criterion(2, "parallel-connection family: 7 entries, excess 1, core = family, < 1 ms"):
        p = BoundedAffinePermutation.from_window(WINDOW_BONIN)

        def evaluate():
            family = diagram.ranked_essential_family(p)
            return family, essential.excess(family), essential.core(family)

        family, table, core = evaluate()
        assert entry_set(family.entries) == {
            (2, (1, 3)), (2, (4, 3)), (2, (7, 3)),
            (4, (3, 7)), (4, (6, 7)), (4, (9, 7)), (5, (1, 9)),
        }
        assert len(family.entries) == 7
        assert table == (1,) * len(family.entries)
        assert set(core) == set(family.entries)
        assert best_time(evaluate) < 1e-3


def test_criterion_03_paper_fixture_algorithm():
    with criterion(3, "retrieval of (5 6 4 7 8) with trace replay, < 1 ms"):
        conditions = retrieval.RankConditionSet(5, ((1, (3, 2)), (3, (1, 5))))
        perm, trace = retrieval.retrieve(conditions, trace=True)
        assert perm.window == (5, 6, 4, 7, 8)
        assert retrieval.replay_trace(5, trace) == perm
        assert best_time(lambda: retrieval.retrieve(conditions)) < 1e-3


def test_criterion_04_paper_fixture_core_counterexample():
    with criterion(4, "all entries connected, core drops (3,[1,5])"):
        family = essential.RankedEssentialFamily.from_json({
            "n": 6, "k": 4, "sets": [
                {"rank": 2, "start": 1, "len": 3},
                {"rank": 2, "start": 3, "len": 3},
                {"rank": 3, "start": 1, "len": 5},
            ],
        })
        assert essential.connected_entries(family) == family.entries
        assert entry_set(essential.core(family)) == {
            (2, (1, 3)), (2, (3, 3)), (4, (1, 6)),
        }


def test_criterion_05_paper_fixture_codimension():
    with criterion(5, "codimension 5 both ways; 0 for uniforms up to n = 10"):
        p = BoundedAffinePermutation.from_window(WINDOW_A)
        family = diagram.ranked_essential_family(p)
        assert geometry.length(p) == 5
        assert geometry.codim_from_family(family) == 5
        for n in range(1, 11):
            for k in range(n + 1):
                u = BoundedAffinePermutation.uniform(k, n)
                assert geometry.length(u) == 0
                assert geometry.codim_from_family(
                    diagram.ranked_essential_family(u)
                ) == 0


def test_criterion_06_paper_fixture_boundary_count():
    with criterion(6, "nine codimension-one boundary cells, < 60 s"):
        p = BoundedAffinePermutation.from_window(WINDOW_A)
        start = time.perf_counter()
        count = geometry.codim1_boundary_count(p)
        elapsed = time.perf_counter() - start
        assert count == 9
        assert elapsed < 60


def test_criterion_07_exhaustive_roundtrip():
    with criterion(7, "n <= 7 exhaustive: family/retrieval round trips and validity, < 5 min"):
        start = time.perf_counter()
        for n in range(1, 8):
            checked = 0
            for p in perms(n):
                family = diagram.ranked_essential_family(p)
                assert essential.validate_chess(family) == []
                assert essential.permutation_from_family(family).window == p.window
                conditions = retrieval.conditions_from_family(family)
                assert retrieval.retrieve(conditions).window == p.window
                checked += 1
            assert checked == count_permutations(n)
        assert time.perf_counter() - start < 300


@pytest.mark.slow
def test_criterion_08_rank_formula_equivalence():
    with criterion(8, "rank formulas agree: n <= 7 exhaustive plus 10^4 random at n = 12"):
        for n in range(1, 8):
            intervals = all_intervals(n)
            for p in perms(n):
                family = diagram.ranked_essential_family(p)
                connected = essential.connected_entries(family)
                for iv in intervals:
                    expected = p.rank_interval(iv)
                    assert essential.rank_from_family(family, iv) == expected
                    assert rank_from_connected(
                        family, iv, connected
                    ) == expected

        import random

        rng = random.Random(20260809)
        n = 12
        intervals = all_intervals(n)
        for _ in range(10_000):
            sigma = list(range(1, n + 1))
            rng.shuffle(sigma)
            window = []
            for i in range(1, n + 1):
                v = i + (sigma[i - 1] - i) % n
                if v == i and rng.random() < 0.5:
                    v = i + n
                window.append(v)
            p = BoundedAffinePermutation.from_window(window)
            family = diagram.ranked_essential_family(p)
            connected = essential.connected_entries(family)
            for iv in intervals:
                expected = p.rank_interval(iv)
                assert essential.rank_from_family(family, iv) == expected
                assert rank_from_connected(family, iv, connected) == expected


def test_criterion_09_codimension_equivalence():
    with criterion(9, "n <= 7 exhaustive: length = excess formula within 0..k(n-k)"):
        for n in range(1, 8):
            for p in perms(n):
                family = diagram.ranked_essential_family(p)
                value = geometry.length(p)
                assert geometry.codim_from_family(family) == value
                k = p.rank()
                assert 0 <= value <= k * (n - k)


def _check_exchange_axiom(basis_rows, n):
    """Basis-exchange check on a boolean bases-by-elements array: for bases
    A and B with a in A - B, some b in B - A makes A - a + b a basis."""
    masks = [int("".join("1" if x else "0" for x in reversed(row)), 2)
             for row in basis_rows]
    universe = set(masks)
    for a in range(n):
        bit = 1 << a
        with_a = [m for m in masks if m & bit]
        without_a = [m for m in masks if not m & bit]
        if not with_a or not without_a:
            continue
        for mask in with_a:
            others = 0  # the b outside A with A - a + b a basis
            for b in range(n):
                if not mask >> b & 1 and (mask ^ bit) | 1 << b in universe:
                    others |= 1 << b
            assert all(others & m for m in without_a)


@pytest.mark.slow
def test_criterion_10_polytope_basis_oracle():
    with criterion(10, "n <= 8 exhaustive: bases non-empty, exchange axiom, facet lattice points"):
        for n in range(1, 9):
            proper = [iv for iv in all_intervals(n) if not iv.is_full]
            interval_cols = np.array(
                [[1 if iv.contains(e) else 0 for iv in proper]
                 for e in range(1, n + 1)],
                dtype=np.uint8,
            )
            subset_rows = {
                k: np.array(
                    [[1 if e in c else 0 for e in range(1, n + 1)]
                     for c in combinations(range(1, n + 1), k)]
                    or [[0] * n],
                    dtype=np.uint8,
                )
                for k in range(n + 1)
            }
            for p in enumerate_permutations(n):
                family = diagram.ranked_essential_family(p)
                k = family.k
                rows = subset_rows[k]
                counts = rows.astype(np.int32) @ interval_cols.astype(np.int32)
                caps = np.array(
                    [essential.rank_from_family(family, iv) for iv in proper],
                    dtype=np.int32,
                )
                is_basis = (counts <= caps).all(axis=1)
                assert is_basis.any()
                basis_rows = rows[is_basis]
                _check_exchange_axiom(basis_rows, n)

                system = geometry.facet_system(family)
                if system.inequalities:
                    facet_cols = np.array(
                        [[1 if iv.contains(e) else 0
                          for iv, _ in system.inequalities]
                         for e in range(1, n + 1)],
                        dtype=np.uint8,
                    )
                    facet_caps = np.array(
                        [r for _, r in system.inequalities], dtype=np.int32
                    )
                    lattice = (
                        rows.astype(np.int32) @ facet_cols.astype(np.int32)
                        <= facet_caps
                    ).all(axis=1)
                else:
                    lattice = np.ones(len(rows), dtype=bool)
                assert (lattice == is_basis).all()


def test_criterion_11_core_minimality():
    with criterion(11, "n <= 6 exhaustive: core retrieves, core minus one entry does not"):
        for n in range(1, 7):
            for p in perms(n):
                family = diagram.ranked_essential_family(p)
                core = essential.core(family)
                assert retrieval.retrieve(
                    retrieval.core_conditions(family)
                ).window == p.window
                for dropped in core:
                    rest = [e for e in core if e != dropped]
                    if not dropped[1].is_full and not any(
                        iv.is_full for _, iv in rest
                    ):
                        rest.append((family.k, CyclicInterval.full(n)))
                    conditions = retrieval.RankConditionSet.from_intervals(n, rest)
                    try:
                        other = retrieval.retrieve(conditions)
                    except retrieval.InvalidInput:
                        continue
                    assert other.window != p.window, (p.window, dropped)


def test_criterion_12_rank2_equivalence():
    with criterion(12, "n <= 8 loopless rank-2: deficient flats equal the family; rank-3 counterexample"):
        from positroids import smallrank

        for n in range(2, 9):
            for p in enumerate_permutations(n, k=2):
                if p.loops():
                    continue
                family = diagram.ranked_essential_family(p)
                assert smallrank.deficient_flats(family).as_set() == (
                    smallrank.family_as_flat_entries(family)
                )

        counterexample = essential.RankedEssentialFamily.from_json({
            "n": 7, "k": 3, "sets": [
                {"rank": 1, "start": 1, "len": 2},
                {"rank": 2, "start": 1, "len": 5},
                {"rank": 2, "start": 5, "len": 5},
            ],
        })
        flats = smallrank.deficient_flats(counterexample).as_set()
        assert (1, frozenset({1, 2, 5})) in flats


def test_criterion_13_realization_end_to_end():
    with criterion(13, "rational point-line realization maps to the example permutation"):
        matrix = realize.RationalMatrix.from_rows([
            [0, 1, 2, 3, 5, 5, 7, 8],
            [6, 4, 2, 0, 1, 1, 2, 9],
            [1, 1, 1, 1, 1, 1, 1, 1],
        ])
        assert realize.is_positively_realizing(matrix)
        assert realize.permutation_from_matrix(matrix).window == WINDOW_A
