import functools
import gc
import importlib.util
import io
import json
import random
import sys
from collections import Counter
from itertools import product
from operator import getitem
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from positroids.core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
)
from positroids import cli, diagram, essential, geometry, retrieval
from positroids.essential import (
    NotValidated,
    RankedEssentialFamily,
    connected_entries,
    connected_flags,
    core,
    excess,
    permutation_from_family,
    rank_from_family,
    validate_chess,
)

from chess_reference import validate_chess as validate_chess_by_rescan
from connected_reference import (
    connected_by_search,
    connected_by_sweeps,
    excess_by_rescan,
    rank_from_connected,
)

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

    @pytest.mark.parametrize("compute", [
        excess,
        connected_flags,
        geometry.codim_from_family,
        lambda F: rank_from_family(F, CyclicInterval(F.n, 7, 4)),
        geometry._basis_masks,
    ], ids=["excess", "connected_flags", "codim_from_family", "rank_from_family",
            "_basis_masks"])
    def test_computations_read_the_triples(self, family_a, compute):
        # a fresh family: its CyclicInterval entries stay unbuilt
        F = RankedEssentialFamily.from_json(family_a.to_json())
        compute(F)
        assert "entries" not in F.__dict__

    def test_essentials_builds_no_interval(self, monkeypatch, capsys):
        # the annotations read the triples, so the family extracted from
        # the input permutation keeps its CyclicInterval entries unbuilt
        extracted, extract = [], diagram.ranked_essential_family
        monkeypatch.setattr(diagram, "ranked_essential_family",
                            lambda p: extracted.append(extract(p)) or extracted[-1])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"window": DENSE_WINDOW})))
        assert cli.main(["essentials", "-", "--excess", "--core", "--connected"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [len(extracted), len(out["sets"])] == [1, len(extracted[0].triples)]
        assert not all([entry["connected"] for entry in out["sets"]])
        assert "entries" not in extracted[0].__dict__


def sets(*triples):
    return [{"rank": r, "start": s, "len": l} for r, s, l in triples]


def raised(call, *args):
    """The exception ``call(*args)`` raises, as (type, message)."""
    with pytest.raises(Exception) as caught:
        call(*args)
    return type(caught.value), str(caught.value)


class TestParseContract:
    """Every rejection of ``from_json`` and ``build``: its exception type,
    its exact message, and which check fires first."""

    @pytest.mark.parametrize("doc, message", [
        ({"n": 6, "k": 3, "sets": sets((1, 2, 2), (2, 2, 2))},
         "duplicate interval CyclicInterval(n=6, start=2, length=2)"),
        # the full set spelled from two starts is one interval
        ({"n": 6, "k": 3, "sets": sets((3, 1, 6), (3, 4, 6))},
         "duplicate interval CyclicInterval(n=6, start=1, length=6)"),
        ({"n": 6, "k": 3, "sets": sets((-1, 2, 2))}, "negative rank label -1"),
        ({"n": 6, "k": 3, "sets": sets((1, 0, 2))}, "start 0 outside [1, 6]"),
        ({"n": 6, "k": 3, "sets": sets((1, 7, 2))}, "start 7 outside [1, 6]"),
        ({"n": 6, "k": 3, "sets": sets((1, 2, 0))}, "length 0 outside [1, 6]"),
        ({"n": 6, "k": 3, "sets": sets((1, 2, 7))}, "length 7 outside [1, 6]"),
        ({"n": 0, "k": 0, "sets": []}, "ground set size must be positive, got 0"),
        ({"n": -2, "k": 0, "sets": sets((0, 1, 1))},
         "ground set size must be positive, got -2"),
        ({"n": 6, "k": 3, "sets": sets((2, 1, 6))}, "full-set rank 2 does not match k=3"),
        ({"n": 6, "k": 3, "sets": sets((2, 4, 6))}, "full-set rank 2 does not match k=3"),
        # with no full pair the full pair is made from k
        ({"n": 6, "k": -1, "sets": sets((0, 2, 2))}, "negative rank label -1"),
        ({"n": 6.0, "k": 3, "sets": []}, "expected an integer, got 6.0"),
        ({"n": 6, "k": True, "sets": []}, "expected an integer, got True"),
        ({"n": 6, "k": 3, "sets": sets((1.5, 2, 2))}, "expected an integer, got 1.5"),
        ({"n": 6, "k": 3, "sets": sets((1, "2", 2))}, "expected an integer, got '2'"),
        ({"n": 6, "k": 3, "sets": sets((1, 2, None))}, "expected an integer, got None"),
        # the first check to fire: a set's fields are read before its
        # ranges are checked, the sets in document order, then the
        # entries in canonical order
        ({"n": 0, "k": 0, "sets": sets((1.5, 9, 9))}, "expected an integer, got 1.5"),
        ({"n": 6, "k": 3, "sets": sets((1, 0, 0))}, "start 0 outside [1, 6]"),
        ({"n": 6, "k": 3, "sets": sets((1, 9, 2), (1.5, 2, 2))}, "start 9 outside [1, 6]"),
        ({"n": 6, "k": 3, "sets": sets((1, 2, 2), (1, 2, 2), (1, 3, 9))},
         "length 9 outside [1, 6]"),
        ({"n": 6, "k": 3, "sets": sets((-1, 3, 2), (1, 2, 2), (0, 2, 2))},
         "duplicate interval CyclicInterval(n=6, start=2, length=2)"),
        ({"n": 6, "k": 3, "sets": sets((1, 3, 2), (1, 3, 2), (-1, 2, 2))},
         "negative rank label -1"),
        ({"n": 6, "k": 3, "sets": sets((-1, 3, 2), (2, 1, 6))},
         "negative rank label -1"),
        ({"n": 6, "k": 3, "sets": sets((2, 1, 6), (2, 1, 6))},
         "duplicate interval CyclicInterval(n=6, start=1, length=6)"),
    ])
    def test_value_errors(self, doc, message):
        assert raised(RankedEssentialFamily.from_json, doc) == (ValueError, message)

    def test_missing_keys(self):
        for doc, key in [({"k": 3, "sets": []}, "n"), ({"n": 6, "sets": []}, "k"),
                         ({"n": 6, "k": 3}, "sets"),
                         ({"n": 6, "k": 3, "sets": [{"start": 1, "len": 2}]}, "rank"),
                         ({"n": 6, "k": 3, "sets": [{"rank": 1, "len": 2}]}, "start"),
                         ({"n": 6, "k": 3, "sets": [{"rank": 1, "start": 2}]}, "len")]:
            assert raised(RankedEssentialFamily.from_json, doc) == (KeyError, repr(key))

    def test_wrong_containers(self):
        # the same TypeError that indexing or iterating the value raises
        for doc, same in [
            ([6, 3], (getitem, [6, 3], "n")),
            ({"n": 6, "k": 3, "sets": 5}, (iter, 5)),
            ({"n": 6, "k": 3, "sets": ["x"]}, (getitem, "x", "rank")),
            ({"n": 6, "k": 3, "sets": [[1, 2, 2]]}, (getitem, [1, 2, 2], "rank")),
        ]:
            assert raised(RankedEssentialFamily.from_json, doc) == raised(*same)

    def test_build(self):
        n, k = 6, 3
        full = (k, CyclicInterval.full(n))
        for entries, message in [
            ([(1, CyclicInterval(6, 2, 2))], "family must contain the full-set pair"),
            ([(1, CyclicInterval(6, 2, 2)), (2, CyclicInterval(6, 3, 6))],
             "full-set rank 2 does not match k=3"),
            ([(1, CyclicInterval(7, 2, 2)), full], "entry ground set does not match family"),
            ([(-1, CyclicInterval(6, 2, 2)), full], "negative rank label -1"),
            ([(1, CyclicInterval(6, 2, 2)), (1, CyclicInterval(6, 2, 2)), full],
             "duplicate interval CyclicInterval(n=6, start=2, length=2)"),
            # in canonical order: the ground set of [1, 2] before the sign at [2, 2]
            ([(-1, CyclicInterval(6, 2, 2)), (1, CyclicInterval(7, 1, 2)), full],
             "entry ground set does not match family"),
            ([(-1, CyclicInterval(6, 1, 2)), (1, CyclicInterval(7, 2, 2)), full],
             "negative rank label -1"),
        ]:
            assert raised(RankedEssentialFamily.build, n, k, entries) == (ValueError, message)

    def test_cli_message(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            '{"n": 6, "k": 3, "sets": [{"rank": 1, "start": 2, "len": 2},'
            ' {"rank": 2, "start": 2, "len": 2}]}'))
        assert cli.main(["validate", "-"]) == 1
        assert capsys.readouterr().err == (
            "error: bad family: duplicate interval CyclicInterval(n=6, start=2, length=2)\n"
        )


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
        fresh = [RankedEssentialFamily(dense.n, dense.k, dense.triples) for _ in range(4)]
        gc.collect()
        gc.disable()
        try:
            connected_entries(family_a)
            assert gc.collect() == 0
            # each on a family of its own, so each starts with nothing cached
            computations = (validate_chess, connected_entries, excess, core)
            for compute, F in zip(computations, fresh):
                compute(F)
                assert gc.collect() == 0, compute.__name__
        finally:
            gc.enable()


class TestExcessAndCore:
    def test_example_excess(self, family_a):
        values = zip(family_a.entries, excess(family_a))
        table = {(iv.start, iv.length): e for (_, iv), e in values}
        assert table[(5, 2)] == 1
        assert table[(1, 4)] == 2
        assert table[(4, 4)] == 1
        # the full set keeps the two dependencies the maximal entries miss
        assert table[(1, 8)] == 2
        assert entry_set(core(family_a)) == entry_set(family_a.entries)

    def test_parallel_connection_every_excess_one(self, bonin_perm):
        F = diagram.ranked_essential_family(bonin_perm)
        assert excess(F) == (1,) * len(F.entries)
        assert core(F) == F.entries

    def test_remark_core_drops_middle_entry(self):
        assert entry_set(core(FAMILY_C)) == {(2, (1, 3)), (2, (3, 3)), (4, (1, 6))}

    @pytest.mark.parametrize("n, count", [(40, 6), (64, 4), (128, 2)])
    def test_seeded_windows_match_the_rescan(self, n, count):
        rng = random.Random(20261021 + n)
        for _ in range(count):
            F = window_family(oracle.criterion08_window(rng, n))
            assert excess(F) == excess_by_rescan(F)

    @pytest.mark.parametrize("F, values", [
        # {5, 6, 1, 2} wraps: it holds {6}'s first copy and {1, 2}'s copy n on
        (family(6, 4, [(2, 5, 4), (1, 1, 2), (0, 6, 1)]), (1, 2, 0, 1)),
        # {4, 5, 6} and {6} end at element n; the wrapped {6, 1} holds {6}
        (family(6, 3, [(1, 4, 3), (0, 6, 1), (1, 1, 2)]), (1, 1, 1, 1)),
        (family(6, 3, [(1, 4, 3), (0, 6, 1), (1, 6, 2)]), (2, 1, 1, 0)),
        # only nested proper entries: {3} inside {2, 3} inside {2, 3, 4}
        (family(6, 2, [(1, 2, 3), (0, 3, 1), (1, 2, 2)]), (3, 0, 1, 1)),
        # {1, 2} inside the wrapped {5, 6, 1, 2} only, and no other entry
        (family(6, 2, [(2, 5, 4), (1, 1, 2)]), (1, 3, 1)),
    ])
    def test_bucket_edges(self, F, values):
        assert excess(F) == excess_by_rescan(F) == values

    @pytest.mark.parametrize("n", range(1, 7))
    def test_conservation_on_proper_entries(self, n):
        # nullity of each proper entry splits into the excesses inside it
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            table = {iv: e for (_, iv), e in zip(F.entries, excess(F))}
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

    def test_e1_fails_per_entry_at_4(self):
        # an entry failing E1 is named by an E1 violation whatever else
        # the family holds: alone, and beside random other entries
        n = 4
        rng = random.Random(4)
        proper = proper_intervals(n)
        for k, iv in product(range(n + 2), proper):
            others = [other for other in proper if other != iv]
            for r in range(iv.length + 1):
                if r in e1_labels(n, k, iv):
                    continue
                sizes = [0] + [rng.randint(1, len(others)) for _ in range(10)]
                for size in sizes:
                    entries = [
                        (rng.randint(0, o.length), o) for o in rng.sample(others, size)
                    ]
                    F = RankedEssentialFamily.build(
                        n, k, [(r, iv), *entries, (k, CyclicInterval.full(n))]
                    )
                    assert any(
                        v.rule == "E1" and v.entries == ((r, iv),)
                        for v in validate_chess(F)
                    ), F

    @pytest.mark.slow
    def test_exhaustive_over_e1_families_at_4(self):
        # with every entry passing E1 (the families of the test above
        # fail), exactly the 65 extracted families pass, and the
        # certificate accepts the same ones; on every family the checker
        # lists what the rescanning reference lists
        n = 4
        genuine = {
            diagram.ranked_essential_family(p) for p in enumerate_permutations(n)
        }
        assert len(genuine) == 65
        proper = proper_intervals(n)
        accepted, certified, checked = set(), set(), 0
        for k in range(n + 1):
            choices = [[None, *e1_labels(n, k, iv)] for iv in proper]
            for labels in product(*choices):
                F = RankedEssentialFamily.build(n, k, [
                    *[(r, iv) for r, iv in zip(labels, proper) if r is not None],
                    (k, CyclicInterval.full(n)),
                ])
                checked += 1
                violations = validate_chess(F)
                assert violations == validate_chess_by_rescan(F)
                if not violations:
                    accepted.add(F)
                if certificate_violations(F) is None:
                    certified.add(F)
        assert checked == 28930
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
    proper = proper_intervals(n)
    choices = [[None, *range(iv.length + 1)] for iv in proper]
    for k in range(n + 2):
        for labels in product(*choices):
            entries = [(r, iv) for r, iv in zip(labels, proper) if r is not None]
            yield RankedEssentialFamily.build(
                n, k, entries + [(k, CyclicInterval.full(n))]
            )


def proper_intervals(n):
    return [CyclicInterval(n, s, l) for s in range(1, n + 1) for l in range(1, n)]


def e1_labels(n, k, iv):
    """The labels r that E1 allows on the proper interval iv at rank k:
    0 <= r < |I| and 0 < k - r <= n - |I|."""
    return range(max(0, k - (n - iv.length)), min(iv.length, k))


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
    """The checker against the one that rescans masks: the same
    violations in the same order, duplicates included, on families that
    mostly fail validation."""

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

    def test_arc_ranks_only_where_a_bound_can_fail(self, monkeypatch):
        # an arc's rank is scanned only when its contents' bounds leave
        # room below them: 30 scans on these 60 families, against 680
        # when every arc with a bound below its size was scanned
        calls = []

        def counted(family, interval):
            calls.append(interval)
            return rank_from_family(family, interval)

        monkeypatch.setattr(essential, "rank_from_family", counted)
        families = list(spoiled_families(24, 60))
        for F in families:
            assert validate_chess(F)
        assert len(calls) < len(families)

    def test_most_pairs_decided_by_length(self, monkeypatch):
        # a pair reads its arcs only when the length bounds leave room for
        # a failure: 2,102 content and 1,490 cover lookups on these 60
        # families, against 4,554 and 3,214 with no length bound, and at
        # least 2,328 content or 1,716 cover lookups with any of the three
        # bounds one stricter, which changes no output
        lookups = Counter()

        def counted_cache(arc_index):
            cached = functools.cache(arc_index)

            def lookup(*arc):
                lookups[arc_index.__name__] += 1
                return cached(*arc)

            return lookup

        monkeypatch.setattr(essential, "functools", SimpleNamespace(cache=counted_cache))
        for F in spoiled_families(16, 60):
            assert validate_chess(F)
        assert 0 < lookups["contents"] < 2200 and 0 < lookups["covers"] < 1600


class TestRankFunctionFromAxioms:
    """The rank function of a validated family is rank_from_family."""

    def test_requires_validation(self):
        bad = family(6, 2, [(3, 2, 3)])
        with pytest.raises(NotValidated):
            permutation_from_family(bad)

    def test_entries_and_bounds(self, family_a):
        F = family_a
        permutation_from_family(F)
        for rank, iv in F.entries:
            assert rank_from_family(F, iv) == rank
        for start in range(1, 9):
            for length in range(1, 9):
                iv = CyclicInterval(8, start, length)
                assert 0 <= rank_from_family(F, iv) <= length

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unit_monotonicity_exhaustive(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            permutation_from_family(F)
            for start in range(1, n + 1):
                for length in range(1, n):
                    v = rank_from_family(F, CyclicInterval(n, start, length))
                    grow_l = rank_from_family(
                        F, CyclicInterval(n, (start - 2) % n + 1, length + 1)
                    )
                    grow_r = rank_from_family(F, CyclicInterval(n, start, length + 1))
                    assert v <= grow_l <= v + 1
                    assert v <= grow_r <= v + 1


def reference_core(F):
    return {e for e, value in zip(F.entries, excess_by_rescan(F)) if value > 0}


def assert_flags_filter(F):
    # the flags line up with the triples, and the entries are their filter
    flags = connected_flags(F)
    assert len(flags) == len(F.triples)
    assert all(type(flag) is bool for flag in flags)
    assert connected_entries(F) == tuple([e for e, flag in zip(F.entries, flags) if flag])


def assert_matches_references(F):
    assert_flags_filter(F)
    assert set(connected_entries(F)) == connected_by_search(F)
    assert excess(F) == excess_by_rescan(F)
    assert set(core(F)) == reference_core(F)


def assert_matches_oracle(F):
    assert_flags_filter(F)
    n = F.n
    entries = [(r, iv.start, iv.length) for r, iv in F.entries]
    table = oracle.excess(n, entries)
    assert {(r, iv.start, iv.length) for r, iv in connected_entries(F)} == (
        oracle.connected(n, entries)
    )
    assert {(iv.start, iv.length): e for (_, iv), e in zip(F.entries, excess(F))} == table
    assert {(r, iv.start, iv.length) for r, iv in core(F)} == {
        (r, s, l) for r, s, l in entries if table[(s, l)] > 0
    }


class TestAgainstReferences:
    """The sweeps against the searches that follow the definitions, and
    against the benchmark's sweeps beyond their reach."""

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
    def test_excess_on_every_candidate(self, n):
        # excess on mostly invalid families, whose entries nest in ways
        # no valid family's do
        for F in candidate_families(n):
            assert excess(F) == excess_by_rescan(F)

    def test_excess_on_perturbed(self):
        for F in perturbed_families():
            assert excess(F) == excess_by_rescan(F)

    @pytest.mark.parametrize("n, count", [(64, 4), (128, 1)])
    def test_large_windows_against_oracle(self, n, count):
        rng = random.Random(n)
        for _ in range(count):
            assert_matches_oracle(window_family(oracle.criterion08_window(rng, n)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_sweep_matches_the_sweeps_exhaustive(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            assert connected_entries(F) == connected_by_sweeps(F)
            assert_flags_filter(F)

    @pytest.mark.parametrize("n, count", [(64, 10), (128, 3), (256, 1)])
    def test_one_sweep_matches_the_sweeps_large(self, n, count):
        rng = random.Random(n)
        for _ in range(count):
            F = window_family(oracle.criterion08_window(rng, n))
            assert connected_entries(F) == connected_by_sweeps(F)
            assert_flags_filter(F)

    def test_positive_nullities_match_the_search(self):
        # mostly invalid families, whose sums of disjoint nullities can
        # pass the full set's and whose full set can split three ways
        rng = random.Random(20261019)
        for _ in range(1500):
            n = rng.randint(2, 8)
            proper = proper_intervals(n)
            chosen = rng.sample(proper, rng.randint(0, min(9, len(proper))))
            k = rng.randint(0, n - 1)
            F = RankedEssentialFamily.build(n, k, [
                (rng.randrange(iv.length), iv) for iv in chosen
            ] + [(k, CyclicInterval.full(n))])
            assert set(connected_entries(F)) == connected_by_search(F)
            assert connected_by_sweeps(F) == connected_entries(F)

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
        assert list(zip(F.entries, excess(F))) == [((3, CyclicInterval.full(3)), 0)]
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

    def test_ranks_checked_by_the_comparison_alone(self, family_a, monkeypatch):
        # the extracted family is compared with the given one, so no
        # interval rank of the permutation is queried to check the
        # conditions again
        queried = []
        rank_at = BoundedAffinePermutation.rank_at
        monkeypatch.setattr(BoundedAffinePermutation, "rank_at",
                            lambda p, *args: queried.append(args) or rank_at(p, *args))
        assert permutation_from_family(family_a).window == (3, 4, 8, 7, 6, 9, 10, 13)
        dense = window_family(DENSE_WINDOW)
        assert permutation_from_family(
            RankedEssentialFamily.from_json(dense.to_json())
        ).window == tuple(DENSE_WINDOW)
        assert queried == []

    @pytest.mark.parametrize("n, k, sets, violations", [
        # two loops against a rank-1 full set; the smallest of the 15,819
        # candidates at n <= 4 (every candidate at n <= 3, every family
        # passing E1 at n = 4) whose retrieval fails at the rank check
        (2, 1, [(0, 1, 1), (0, 2, 1)], [
            "E3: disjoint-pair inequality fails [(0,[1,1]), (0,[2,2]), (1,[1,2])]",
            "E3: disjoint-pair inequality fails [(0,[2,2]), (0,[1,1]), (1,[1,2])]",
        ]),
        (3, 1, [(0, 2, 2), (0, 3, 2)], [
            "E3: overlapping-pair inequality fails [(0,[2,3]), (0,[3,1]), (1,[1,3])]",
        ]),
    ])
    def test_rejected_where_only_the_rank_check_fails(self, n, k, sets, violations):
        F = family(n, k, sets)
        with pytest.raises(retrieval.InvalidInput) as failed:
            retrieval.retrieve(retrieval.conditions_from_family(F))
        assert failed.value.kind == retrieval.RANK_MISMATCH
        assert [str(v) for v in certificate_violations(F)] == violations

    @pytest.mark.parametrize("n", range(1, 6))
    def test_extracted_equals_parsed(self, n):
        for p in enumerate_permutations(n):
            F = diagram.ranked_essential_family(p)
            parsed = RankedEssentialFamily.from_json(F.to_json())
            assert F == parsed and hash(F) == hash(parsed)


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


def _bindings():
    """Every name bound on a positroids module or on a class defined there."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "positroids" and not mod_name.startswith("positroids."):
            continue
        for name, value in vars(module).items():
            out[module, name] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[value, attr] = member
    return out


@pytest.mark.parametrize("patcher", ["Tracer", "Counter"])
def test_benchmark_tracing_resolves(patcher, capsys, monkeypatch):
    # the traced benchmark patches layer functions and hot methods by name,
    # so a renamed or deleted one fails here rather than in the benchmark
    tracing = load_perfbench("tracing")
    before = _bindings()
    recorder = getattr(tracing, patcher)()
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"n": 8, "window": [3, 4, 8, 7, 6, 9, 10, 13]}'))
    with recorder.installed():
        assert _bindings() != before
        # the permutation route of rank reaches a counted method
        assert cli.main(["rank", "-", "--interval", "2,3", "--both"]) == 0
    assert capsys.readouterr().out == "2\n"
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = recorder.metrics(1)
    if patcher == "Tracer":
        assert metrics["cli.self_ms"] > 0
    else:
        assert metrics["core.rank_interval.calls"] + metrics["core.eval.calls"] > 0
