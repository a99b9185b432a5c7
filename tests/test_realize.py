import random
from fractions import Fraction
from itertools import combinations

import pytest

from positroids import cli, geometry, realize
from positroids.realize import (
    NotFullRank,
    NotNonNegative,
    RationalMatrix,
    is_positively_realizing,
    permutation_from_matrix,
)

from bases_reference import matroid_bases
from realize_reference import permutation_by_ranks, tnn_matrices

# rational coordinates for the running example's point-line configuration:
# points 1-4 on one line, 4-7 on another, 5 and 6 coincident, 8 generic
FIGURE_MATRIX = RationalMatrix.from_rows([
    [0, 1, 2, 3, 5, 5, 7, 8],
    [6, 4, 2, 0, 1, 1, 2, 9],
    [1, 1, 1, 1, 1, 1, 1, 1],
])


def vandermonde(nodes):
    return RationalMatrix.from_rows(
        [[Fraction(x) ** p for x in nodes] for p in range(3)]
    )


def laplace_det(rows):
    """Exact reference determinant by cofactor expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** c * rows[0][c] * laplace_det([r[:c] + r[c + 1:] for r in rows[1:]])
        for c in range(len(rows))
    )


def reference_minors(M):
    """{column subset: determinant} over every maximal minor of M."""
    return {
        subset: laplace_det([[row[j - 1] for j in subset] for row in M.entries])
        for subset in combinations(range(1, M.n + 1), M.k)
    }


def random_signed_matrix(rng, k, n):
    values = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)]
    return RationalMatrix.from_rows(
        [[rng.choice(values) for _ in range(n)] for _ in range(k)]
    )


class TestMinorSigns:
    def test_signs_match_reference_determinant(self):
        rng = random.Random(31)
        for _ in range(1500):
            k = rng.randint(1, 4)
            M = random_signed_matrix(rng, k, rng.randint(k, 6))
            cols = M.integer_columns
            for subset, det in reference_minors(M).items():
                sign = (det > 0) - (det < 0)
                assert realize._minor_sign(cols, subset) == sign, (M, subset)

    def test_public_verdicts_match_reference(self):
        rng = random.Random(32)
        for _ in range(300):
            k = rng.randint(1, 3)
            M = random_signed_matrix(rng, k, rng.randint(k, 6))
            minors = reference_minors(M)
            assert is_positively_realizing(M) == all(d >= 0 for d in minors.values())
            if any(minors.values()):
                assert matroid_bases(M) == [s for s, d in minors.items() if d]
            else:
                with pytest.raises(NotFullRank):
                    matroid_bases(M)


class TestMatroidBases:
    def test_identity_padded_single_basis(self):
        M = RationalMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert matroid_bases(M) == [(1, 2, 3)]

    def test_generic_positive_2x4_is_uniform(self):
        M = RationalMatrix.from_rows([[1, 1, 1, 1], [1, 2, 3, 4]])
        assert len(matroid_bases(M)) == 6

    def test_zero_column_is_a_loop(self):
        M = RationalMatrix.from_rows([[1, 1, 1, 0], [0, 1, 2, 0]])
        assert all(4 not in b for b in matroid_bases(M))

    def test_not_full_rank(self):
        M = RationalMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        with pytest.raises(NotFullRank):
            matroid_bases(M)


class TestPositivity:
    def test_vandermonde_increasing_nodes(self):
        assert is_positively_realizing(vandermonde([1, 2, 3, 4, 5]))

    def test_column_swap_flips_a_minor(self):
        M = vandermonde([1, 2, 3, 4, 5])
        cols = list(zip(*M.entries))
        cols[1], cols[2] = cols[2], cols[1]
        swapped = RationalMatrix.from_rows(list(zip(*cols)))
        assert not is_positively_realizing(swapped)

    def test_zero_column_does_not_change_verdict(self):
        M = vandermonde([1, 2, 3, 4])
        extended = RationalMatrix.from_rows(
            [list(row) + [0] for row in M.entries]
        )
        assert is_positively_realizing(extended)


class TestPermutationFromMatrix:
    def test_figure_configuration(self, perm_a):
        assert is_positively_realizing(FIGURE_MATRIX)
        assert permutation_from_matrix(FIGURE_MATRIX) == perm_a

    def test_coloop_maps_across_period(self):
        M = RationalMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
        p = permutation_from_matrix(M)
        assert p.eval(3) == 6  # column 3 is a coloop

    def test_zero_column_is_fixed_point(self):
        M = RationalMatrix.from_rows([[1, 0, 1], [0, 0, 1]])
        p = permutation_from_matrix(M)
        assert p.eval(2) == 2

    def test_negative_minor_rejected(self):
        M = RationalMatrix.from_rows([[0, 1], [1, 0]])
        with pytest.raises(NotNonNegative):
            permutation_from_matrix(M)

    def test_not_full_rank_rejected(self):
        M = RationalMatrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(NotFullRank):
            permutation_from_matrix(M)

    def test_columns_scaled_once(self, perm_a, monkeypatch):
        # the necklace and the minor-sign check read one scaling per column
        M = RationalMatrix.from_rows(FIGURE_MATRIX.entries)  # a fresh matrix: nothing cached
        read = []
        column = RationalMatrix.column
        monkeypatch.setattr(RationalMatrix, "column", lambda self, j: read.append(j) or column(self, j))
        assert permutation_from_matrix(M) == perm_a
        assert read == list(range(1, M.n + 1))
        assert M.integer_columns is M.integer_columns


class TestNecklaceAgainstRanks:
    """The necklace reading of pi against the rank rule: pi(i) is the
    least j >= i with rank [i, j] = rank [i+1, j]."""

    def test_seeded_tnn_matrices(self):
        matrices = tnn_matrices()
        assert {(M.n, M.k) for M in matrices} == {
            (n, k) for n in range(1, 11) for k in range(1, min(n, 4) + 1)
        }
        for M in matrices:
            assert permutation_from_matrix(M) == permutation_by_ranks(M), M

    @pytest.mark.parametrize(
        "rows, window",
        [
            ([[1, 1, 0], [0, 0, 1]], (2, 4, 6)),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (4, 5, 6)),
            ([[1, 0, 0, 0], [0, 1, 1, 0]], (5, 3, 6, 4)),
            ([[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], (2, 5, 7, 8)),
            ([[0, 1, 1, 0], [0, 0, 0, 1]], (1, 3, 6, 8)),
            ([[2]], (2,)),
            ([[0, 3]], (1, 4)),
        ],
    )
    def test_coloops(self, rows, window):
        M = RationalMatrix.from_rows(rows)
        assert is_positively_realizing(M)
        assert permutation_from_matrix(M).window == window
        assert permutation_by_ranks(M).window == window

    def test_empty_matrix_reaches_the_window_check(self, write_json, capsys):
        # no column: the rank check passes on the empty necklace, and
        # from_window refuses the empty window
        path = write_json("m.json", {"k": 0, "n": 0, "entries": []})
        assert cli.main(["from-matrix", path]) == 1
        assert capsys.readouterr() == ("", "error: window must be non-empty\n")


class TestEndToEnd:
    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 1, 1, 1], [1, 2, 3, 4]],
            [[1, 1, 1, 0], [0, 1, 2, 0]],
            [[0, 1, 2, 3, 5, 5, 7, 8], [6, 4, 2, 0, 1, 1, 2, 9],
             [1, 1, 1, 1, 1, 1, 1, 1]],
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]],
        ],
    )
    def test_bases_agree_through_the_family(self, rows):
        M = RationalMatrix.from_rows(rows)
        assert is_positively_realizing(M)
        p = permutation_from_matrix(M)
        assert matroid_bases(M) == geometry.bases(p)


def test_matrix_json_roundtrip():
    M = RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    decoded = RationalMatrix.from_json(M.to_json())
    assert decoded == M
    assert decoded.entries[0][1] == Fraction(1, 2)
