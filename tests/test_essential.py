import gc
import importlib.util
import random
import sys
from itertools import product
from pathlib import Path
from unittest import mock

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
    rank_from_family,
    rank_function_from_axioms,
    validate_chess,
)

from chess_reference import validate_chess as validate_chess_by_rescan
from connected_reference import connected_by_search, excess_by_rescan, rank_from_connected

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name, **imported):
    """perfbench/<name>.py as a module, read-only from its file, with the
    benchmark modules it imports by name."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module, **imported}):
        spec.loader.exec_module(module)
    return module


# the benchmark's independent sweeps for connectedness and excess: they
# reach n = 128, where the searches cannot; and its workloads, whose
# reject spoilers make the invalid families the checker explains
oracle = load_perfbench("oracle")
workloads = load_perfbench("workloads", oracle=oracle)


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


def window_family(window):
    return diagram.ranked_essential_family(BoundedAffinePermutation.from_window(window))


# a dense family: 65 entries on 40 elements
DENSE_WINDOW = oracle.criterion08_window(random.Random(40), 40)


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
        dense = window_family(DENSE_WINDOW)
        fresh = [RankedEssentialFamily(dense.n, dense.k, dense.entries) for _ in range(4)]
        gc.collect()
        gc.disable()
        try:
            connected_entries(family_a)
            assert gc.collect() == 0
            # each on a family of its own, so each builds the index itself
            computations = (RankedEssentialFamily.inside, connected_entries, excess, core)
            for compute, F in zip(computations, fresh):
                compute(F)
                assert gc.collect() == 0, compute.__name__
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
        # exactly the extracted candidates pass
        genuine = {
            diagram.ranked_essential_family(p) for p in enumerate_permutations(n)
        }
        accepted, certified = set(), set()
        for F in candidate_families(n):
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


def candidate_families(n):
    """Every candidate family on [n]: each proper interval absent or
    labelled 0..|I|, with k from 0 to n + 1."""
    proper = [
        CyclicInterval(n, s, l) for s in range(1, n + 1) for l in range(1, n)
    ]
    choices = [[None, *range(iv.length + 1)] for iv in proper]
    for k in range(n + 2):
        for labels in product(*choices):
            entries = [(r, iv) for r, iv in zip(labels, proper) if r is not None]
            yield RankedEssentialFamily.build(
                n, k, entries + [(k, CyclicInterval.full(n))]
            )


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


def perturbed_families(count=3000):
    """``count`` seeded near misses of genuine families at n = 4..12."""
    rng = random.Random(4)
    made = 0
    while made < count:
        n = rng.randint(4, 12)
        p = BoundedAffinePermutation.from_window(random_window(rng, n))
        F = perturbed(rng, diagram.ranked_essential_family(p))
        if F is not None:
            made += 1
            yield F


def spoiled_families(n, count):
    """``count`` genuine families on [n], each spoiled the way the
    benchmark's reject workload spoils its inputs."""
    rng = random.Random(f"spoiled:{n}")
    spoilers = (workloads._raise_to_length, workloads._raise_inner, workloads._near_miss)
    for idx, (_, F) in enumerate(workloads.stratified(rng, n, count)):
        entries = workloads._family_entries(F)
        spoilers[idx % 3](rng, entries, n) or workloads._raise_to_length(rng, entries, n)
        yield RankedEssentialFamily.from_json(workloads._family_doc(n, F.k, entries))


class TestCertificate:
    def test_agrees_with_axioms_on_perturbed_families(self):
        # the round trip accepts exactly what the axioms accept, and every
        # rejection comes with at least one violation
        rejected = 0
        for F in perturbed_families():
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


class TestAgainstChessReference:
    """The checker reading the containment index against the one that
    rescans masks: the same violations in the same order, duplicates
    included, on families that mostly fail validation."""

    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_candidate(self, n):
        for F in candidate_families(n):
            assert validate_chess(F) == validate_chess_by_rescan(F)

    def test_perturbed(self):
        for F in perturbed_families():
            assert validate_chess(F) == validate_chess_by_rescan(F)

    @pytest.mark.parametrize("n, count", [(16, 60), (24, 60), (40, 24), (64, 3)])
    def test_spoiled_as_in_reject(self, n, count):
        for F in spoiled_families(n, count):
            violations = validate_chess(F)
            assert violations and violations == validate_chess_by_rescan(F)


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


def reference_core(F):
    table = excess_by_rescan(F)
    return {e for e in F.entries if table[e[1]] > 0}


def assert_index_is_mask_containment(F):
    masks = F._masks
    assert [sorted(held) for held in F.inside()] == [
        [b for b, mb in enumerate(masks) if b != a and not mb & ~ma]
        for a, ma in enumerate(masks)
    ]


def assert_matches_references(F):
    assert_index_is_mask_containment(F)
    assert set(connected_entries(F)) == connected_by_search(F)
    assert excess(F) == excess_by_rescan(F)
    assert set(core(F)) == reference_core(F)


def assert_matches_oracle(F):
    assert_index_is_mask_containment(F)
    n = F.n
    entries = [(r, iv.start, iv.length) for r, iv in F.entries]
    table = oracle.excess(n, entries)
    assert {(r, iv.start, iv.length) for r, iv in connected_entries(F)} == (
        oracle.connected(n, entries)
    )
    assert {(iv.start, iv.length): e for iv, e in excess(F).items()} == table
    assert {(r, iv.start, iv.length) for r, iv in core(F)} == {
        (r, s, l) for r, s, l in entries if table[(s, l)] > 0
    }


class TestAgainstReferences:
    """The sweep and the containment index against the searches that
    follow the definitions, and against the benchmark's sweep beyond
    their reach."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive(self, n):
        for p in enumerate_permutations(n):
            assert_matches_references(diagram.ranked_essential_family(p))

    def test_random_windows(self):
        rng = random.Random(20261018)
        for n in range(7, 41):
            for _ in range(4):
                assert_matches_references(window_family(oracle.criterion08_window(rng, n)))

    @pytest.mark.parametrize("n", range(1, 4))
    def test_index_on_every_candidate(self, n):
        # mostly invalid families, which the axiom checker reads it on
        for F in candidate_families(n):
            assert_index_is_mask_containment(F)

    def test_index_on_perturbed(self):
        for F in perturbed_families():
            assert_index_is_mask_containment(F)

    @pytest.mark.parametrize("n, count", [(64, 4), (128, 1)])
    def test_large_windows_against_oracle(self, n, count):
        rng = random.Random(n)
        for _ in range(count):
            assert_matches_oracle(window_family(oracle.criterion08_window(rng, n)))

    def test_full_set_split_without_element_1(self):
        # [2,3] and [4,5] split the full set; no entry holds element 1
        F = family(5, 3, [(1, 2, 2), (2, 2, 4), (1, 4, 2)])
        permutation_from_family(F)  # valid
        assert entry_set(connected_entries(F)) == {(1, (2, 2)), (1, (4, 2))}
        assert_matches_references(F)

    def test_full_set_split_by_entry_wrapping_past_n(self):
        # [5,2] holds element 1 and wraps; with [3,4] it splits the full set
        F = family(5, 2, [(1, 3, 2), (1, 5, 3)])
        permutation_from_family(F)  # valid
        assert entry_set(connected_entries(F)) == {(1, (3, 2)), (1, (5, 3))}
        assert_matches_references(F)

    def test_full_set_of_nullity_zero(self):
        # all coloops: nothing to split, so the full set is connected
        F = family(3, 3, [])
        permutation_from_family(F)  # valid
        assert connected_entries(F) == F.entries
        assert excess(F) == {CyclicInterval.full(3): 0}
        assert core(F) == ()
        assert_matches_references(F)


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
