import pytest

from positroids.core import BoundedAffinePermutation, enumerate_permutations
from positroids import diagram, smallrank
from positroids.geometry import bases
from positroids.essential import NotValidated, RankedEssentialFamily
from positroids.smallrank import (
    HasLoop,
    NotRank2,
    deficient_flats,
    family_as_flat_entries,
    is_positroid_rank2,
)


def family(n, k, sets):
    return RankedEssentialFamily.from_json(
        {"n": n, "k": k, "sets": [
            {"rank": r, "start": s, "len": l} for r, s, l in sets
        ]}
    )


def subset_rank_by_scan(n, basis_masks):
    """rank(S) = max |S & B| over bases, for every subset mask."""
    return [
        max((S & B).bit_count() for B in basis_masks) for S in range(1 << n)
    ]


class TestDeficientFlats:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_rank2_flats_equal_family(self, n):
        for p in enumerate_permutations(n, k=2):
            if p.loops():
                continue
            F = diagram.ranked_essential_family(p)
            assert deficient_flats(F).as_set() == family_as_flat_entries(F)

    def test_rank3_counterexample(self):
        # {1,5} is a rank-1 circuit whose closure {1,2,5} is not an interval
        F = family(7, 3, [(1, 1, 2), (2, 1, 5), (2, 5, 5)])
        flats = deficient_flats(F).as_set()
        assert (1, frozenset({1, 2, 5})) in flats
        assert (1, frozenset({1, 2})) not in flats
        assert flats != family_as_flat_entries(F)

    def test_uniform_rank2_only_full(self):
        F = diagram.ranked_essential_family(BoundedAffinePermutation.uniform(2, 6))
        assert deficient_flats(F).as_set() == {(2, frozenset(range(1, 7)))}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rank_table_against_basis_scan(self, n):
        for p in enumerate_permutations(n):
            basis_masks = [sum([1 << e - 1 for e in b]) for b in bases(p)]
            assert smallrank._subset_rank_table(n, basis_masks) == (
                subset_rank_by_scan(n, basis_masks)
            )

    def test_invalid_family_refused(self):
        # rank 0 on [1, 2] inside rank 0 on [1, 3] breaks E2
        F = family(5, 2, [(0, 1, 2), (0, 1, 3)])
        with pytest.raises(NotValidated) as caught:
            deficient_flats(F)
        assert [v.rule for v in caught.value.violations] == ["E2"]


class TestRank2Criterion:
    def test_interval_classes_accepted(self):
        assert is_positroid_rank2(5, [[1, 2], [3], [4, 5]])

    def test_non_interval_class_rejected(self):
        assert not is_positroid_rank2(4, [[1, 3], [2], [4]])

    def test_wrapping_class_is_an_interval(self):
        assert is_positroid_rank2(5, [[5, 1], [2], [3, 4]])

    def test_single_class_not_rank2(self):
        with pytest.raises(NotRank2):
            is_positroid_rank2(4, [[1, 2, 3, 4]])

    def test_loops_rejected(self):
        with pytest.raises(HasLoop):
            is_positroid_rank2(4, [[1, 2], [3]], loops=[4])

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            is_positroid_rank2(4, [[1, 2], [2, 3, 4]])

    @pytest.mark.parametrize("n", range(2, 8))
    def test_agrees_with_realizable_partitions(self, n):
        realizable = set()
        for p in enumerate_permutations(n, k=2):
            if p.loops():
                continue
            F = diagram.ranked_essential_family(p)
            realizable.add(frozenset(smallrank.parallel_classes(F)))

        def partitions(elements):
            if not elements:
                yield []
                return
            first, rest = elements[0], elements[1:]
            for sub in partitions(rest):
                for i in range(len(sub)):
                    yield sub[:i] + [[first] + sub[i]] + sub[i + 1:]
                yield [[first]] + sub

        for part in partitions(list(range(1, n + 1))):
            if len(part) < 2:
                continue
            expected = frozenset(frozenset(c) for c in part) in realizable
            assert is_positroid_rank2(n, part) == expected


class TestParallelClasses:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_match_basis_parallel_relation(self, n):
        # e and a are parallel when no basis holds both; a loop is in no basis
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            expected = None
            if F.k == 2 and not p.loops():
                found = [set(b) for b in bases(p)]
                expected = {
                    frozenset(a for a in range(1, n + 1)
                              if a == e or not any({a, e} <= b for b in found))
                    for e in range(1, n + 1)
                }
            classes = smallrank.parallel_classes(F)
            assert (classes if classes is None else set(classes)) == expected, p
