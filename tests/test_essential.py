import gc
import random
from itertools import product

import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
)
from positroids import diagram, essential
from positroids.essential import (
    NotValidated,
    RankedEssentialFamily,
    connected_entries,
    core,
    excess,
    permutation_from_family,
    rank_from_connected,
    rank_from_family,
    rank_function_from_axioms,
    validate_chess,
)


def family(n, k, sets):
    return RankedEssentialFamily.from_json(
        {"n": n, "k": k, "sets": [
            {"rank": r, "start": s, "len": l} for r, s, l in sets
        ]}
    )


# the remark family whose core drops the middle entry
FAMILY_C = family(6, 4, [(2, 1, 3), (2, 3, 3), (3, 1, 5)])


def entry_set(entries):
    return {(r, (iv.start, iv.length)) for r, iv in entries}


class TestFamilyConstruction:
    def test_full_entry_synthesized(self):
        F = family(8, 3, [(1, 5, 2)])
        assert (3, CyclicInterval.full(8)) in F.entries

    def test_duplicate_interval_rejected(self):
        with pytest.raises(ValueError):
            family(6, 3, [(1, 2, 2), (2, 2, 2)])

    def test_full_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            family(6, 3, [(2, 1, 6)])

    def test_json_roundtrip(self, family_a):
        assert RankedEssentialFamily.from_json(family_a.to_json()) == family_a


class TestRankFromFamily:
    def test_example_interval(self, perm_a, family_a):
        iv = CyclicInterval(8, 2, 4)
        # brute minimum over the four entries and the empty-set term
        candidates = [iv.length] + [
            r + len(set(iv.residues()) - set(jv.residues()))
            for r, jv in family_a.entries
        ]
        assert len(candidates) == 5
        assert rank_from_family(family_a, iv) == min(candidates) == 3
        assert rank_from_family(family_a, iv) == perm_a.rank_interval(iv)

    def test_member_intervals_uniquely_achieved(self, family_a):
        for r, iv in family_a.entries:
            assert rank_from_family(family_a, iv) == r
            others = [
                r2 + len(set(iv.residues()) - set(jv.residues()))
                for r2, jv in family_a.entries
                if jv != iv
            ]
            assert all(other > r for other in others)

    def test_uniform_is_truncation(self):
        F = family(7, 3, [])
        for length in range(1, 8):
            iv = CyclicInterval(7, 2, length)
            assert rank_from_family(F, iv) == min(length, 3)


class TestConnected:
    def test_remark_family_all_connected(self):
        assert entry_set(connected_entries(FAMILY_C)) == entry_set(FAMILY_C.entries)

    def test_example_all_connected(self, family_a):
        assert connected_entries(family_a) == family_a.entries

    def test_single_full_entry(self):
        F = family(5, 2, [])
        assert entry_set(connected_entries(F)) == {(2, (1, 5))}

    def test_disjoint_cover_disconnects_full(self):
        F = family(4, 2, [(1, 1, 2), (1, 3, 2)])
        assert entry_set(connected_entries(F)) == {(1, (1, 2)), (1, (3, 2))}

    def test_leaves_no_reference_cycles(self, family_a):
        # garbage in cycles waits for the cyclic collector; a long-running
        # caller should be able to free everything by reference counting
        gc.collect()
        gc.disable()
        try:
            connected_entries(family_a)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestExcessAndCore:
    def test_example_excess(self, family_a):
        table = {(iv.start, iv.length): e for iv, e in excess(family_a).items()}
        assert table[(5, 2)] == 1
        assert table[(1, 4)] == 2
        assert table[(4, 4)] == 1
        # the full set keeps the two dependencies the maximal entries miss
        assert table[(1, 8)] == 2
        assert entry_set(core(family_a)) == entry_set(family_a.entries)

    def test_parallel_connection_every_excess_one(self, bonin_perm):
        F = diagram.ranked_essential_family(bonin_perm)
        assert set(excess(F).values()) == {1}
        assert core(F) == F.entries

    def test_remark_core_drops_middle_entry(self):
        assert entry_set(core(FAMILY_C)) == {(2, (1, 3)), (2, (3, 3)), (4, (1, 6))}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conservation_on_proper_entries(self, n):
        # nullity of each proper entry splits into the excesses inside it
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            table = excess(F)
            masks = {iv: iv.mask() for _, iv in F.entries}
            for r, iv in F.entries:
                if iv.is_full:
                    continue
                total = sum(
                    table[jv]
                    for _, jv in F.entries
                    if masks[jv] & ~masks[iv] == 0
                )
                assert total == iv.length - r


class TestValidateChess:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_extracted_families_pass(self, n):
        for p in enumerate_permutations(n):
            assert validate_chess(diagram.ranked_essential_family(p)) == []

    def test_rank_bump_breaks_nesting_against_full(self):
        bad = family(8, 3, [(1, 5, 2), (3, 1, 4), (2, 4, 4)])
        violations = validate_chess(bad)
        assert violations
        e2 = [v for v in violations if v.rule == "E2"]
        assert any(
            entry_set(v.entries) == {(3, (1, 4)), (3, (1, 8))} for v in e2
        )

    def test_free_family_is_valid(self):
        # every element a coloop: the full entry carries rank n
        assert validate_chess(family(4, 4, [])) == []

    def test_e1_violations(self):
        bad = family(6, 2, [(3, 2, 3)])
        rules = {v.rule for v in validate_chess(bad)}
        assert "E1" in rules

    def test_e2_upper_bound(self):
        bad = family(6, 3, [(0, 2, 2), (2, 1, 4)])
        assert any(
            "size difference" in v.message for v in validate_chess(bad)
        )

    def test_two_arc_inconsistency_caught(self):
        bad = family(4, 1, [(0, 2, 3), (0, 4, 3)])
        assert any(v.rule == "E3" for v in validate_chess(bad))

    def test_k_above_n_violates_e1(self):
        violations = validate_chess(family(3, 5, []))
        assert [v.rule for v in violations] == ["E1"]

    @pytest.mark.parametrize("n", range(1, 4))
    def test_exhaustive_soundness_and_completeness(self, n):
        # every candidate family: each proper interval absent or labelled
        # 0..|I|, with k from 0 to n + 1; exactly the extracted ones pass
        genuine = {
            diagram.ranked_essential_family(p) for p in enumerate_permutations(n)
        }
        proper = [
            CyclicInterval(n, s, l) for s in range(1, n + 1) for l in range(1, n)
        ]
        choices = [[None, *range(iv.length + 1)] for iv in proper]
        accepted, certified = set(), set()
        for k in range(n + 2):
            for labels in product(*choices):
                entries = [(r, iv) for r, iv in zip(labels, proper) if r is not None]
                F = RankedEssentialFamily.build(
                    n, k, entries + [(k, CyclicInterval.full(n))]
                )
                if not validate_chess(F):
                    accepted.add(F)
                if certificate_violations(F) is None:
                    certified.add(F)
        assert accepted == genuine == certified

    def test_valid_candidates_are_genuine(self):
        # every random candidate that passes validation round-trips
        rng = random.Random(2026)
        accepted = 0
        for _ in range(4000):
            n = rng.randint(1, 6)
            k = rng.randint(0, n)
            sets = []
            used = set()
            for _ in range(rng.randint(0, 4)):
                s, l = rng.randint(1, n), rng.randint(1, n)
                if (s, l) in used or l == n:
                    continue
                used.add((s, l))
                sets.append((rng.randint(0, l), s, l))
            F = family(n, k, sets)
            if validate_chess(F):
                continue
            accepted += 1
            back = diagram.ranked_essential_family(permutation_from_family(F))
            assert set(back.entries) == set(F.entries)
        assert accepted > 100


def certificate_violations(F):
    """None when permutation_from_family certifies F, else the violations
    its rejection carries."""
    try:
        permutation_from_family(F)
    except NotValidated as e:
        return e.violations
    return None


def random_window(rng, n):
    sigma = rng.sample(range(1, n + 1), n)
    window = [i + (sigma[i - 1] - i) % n for i in range(1, n + 1)]
    return [v + n if v == i and rng.random() < 0.5 else v
            for i, v in enumerate(window, 1)]


def perturbed(rng, F):
    """F with one label moved by 1, an interval added, an entry removed,
    or an endpoint shifted; None when the change leaves no family."""
    n, k = F.n, F.k
    entries = list(F.entries)
    proper = [e for e in entries if not e[1].is_full]
    kind = rng.choice(["label", "add", "remove", "shift"])
    if kind == "label":
        idx = rng.randrange(len(entries))
        r, iv = entries[idx]
        entries[idx] = (r + rng.choice([-1, 1]), iv)
        if iv.is_full:
            k = entries[idx][0]
    elif kind == "add":
        length = rng.randint(1, n - 1)
        entries.append(
            (rng.randint(0, length), CyclicInterval(n, rng.randint(1, n), length))
        )
    elif not proper:
        return None
    elif kind == "remove":
        entries.remove(rng.choice(proper))
    else:
        r, iv = rng.choice(proper)
        entries.remove((r, iv))
        if rng.random() < 0.5:  # move the left end, keeping the right end
            start = iv.start + rng.choice([-1, 1])
            length = iv.end - start + 1
        else:
            start, length = iv.start, iv.length + rng.choice([-1, 1])
        if not 1 <= length < n:
            return None
        entries.append((r, CyclicInterval(n, (start - 1) % n + 1, length)))
    try:
        return RankedEssentialFamily.build(n, k, entries)
    except ValueError:
        return None


class TestCertificate:
    def test_agrees_with_axioms_on_perturbed_families(self):
        # near misses of genuine families at n = 4..12: the round trip
        # accepts exactly what the axioms accept, and every rejection
        # comes with at least one violation
        rng = random.Random(4)
        checked = rejected = 0
        while checked < 3000:
            n = rng.randint(4, 12)
            p = BoundedAffinePermutation.from_window(random_window(rng, n))
            F = perturbed(rng, diagram.ranked_essential_family(p))
            if F is None:
                continue
            checked += 1
            violations = certificate_violations(F)
            if violations is None:
                assert validate_chess(F) == []
            else:
                rejected += 1
                assert violations
        assert 1000 < rejected < 3000

    def test_uniform_family_at_n_64(self):
        F = family(64, 32, [])
        assert permutation_from_family(F) == BoundedAffinePermutation.uniform(32, 64)


class TestRankFunctionFromAxioms:
    def test_requires_validation(self):
        bad = family(6, 2, [(3, 2, 3)])
        with pytest.raises(NotValidated):
            rank_function_from_axioms(bad)

    def test_entries_and_bounds(self, family_a):
        r = rank_function_from_axioms(family_a)
        for rank, iv in family_a.entries:
            assert r(iv) == rank
        for start in range(1, 9):
            for length in range(1, 9):
                iv = CyclicInterval(8, start, length)
                assert 0 <= r(iv) <= length

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unit_monotonicity_exhaustive(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            r = rank_function_from_axioms(F)
            for start in range(1, n + 1):
                for length in range(1, n):
                    v = r(CyclicInterval(n, start, length))
                    grow_l = r(CyclicInterval(n, (start - 2) % n + 1, length + 1))
                    grow_r = r(CyclicInterval(n, start, length + 1))
                    assert v <= grow_l <= v + 1
                    assert v <= grow_r <= v + 1


class TestPermutationFromFamily:
    def test_example_roundtrip(self, perm_a, family_a):
        assert permutation_from_family(family_a) == perm_a

    def test_uniform(self):
        assert permutation_from_family(family(8, 3, [])) == (
            BoundedAffinePermutation.uniform(3, 8)
        )

    def test_rejects_invalid(self):
        with pytest.raises(NotValidated):
            permutation_from_family(family(6, 2, [(3, 2, 3)]))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_roundtrip(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            assert permutation_from_family(F).window == p.window


@pytest.mark.parametrize("n", range(1, 6))
def test_rank_formula_equivalence_small(n):
    for p in enumerate_permutations(n):
        F = diagram.ranked_essential_family(p)
        connected = connected_entries(F)
        for start in range(1, n + 1):
            for length in range(1, n + 1):
                iv = CyclicInterval(n, start, length)
                expected = p.rank_interval(iv)
                assert rank_from_family(F, iv) == expected
                assert rank_from_connected(F, iv, connected) == expected
