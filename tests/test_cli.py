import argparse
import gc
import io
import json
import random
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import comb
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from positroids import cli, diagram, essential, geometry, realize
from positroids.cli import main
from positroids.core import BoundedAffinePermutation, enumerate_permutations

import cli_corpus
from bases_reference import bases_output
from enumeration_reference import count_permutations, windows_by_recursion
from essentials_reference import essentials_output
from test_core import windows
from test_essential import oracle, random_window

PERM_A = {"n": 8, "window": [3, 4, 8, 7, 6, 9, 10, 13]}
FAMILY_A = {
    "n": 8,
    "k": 3,
    "sets": [
        {"rank": 1, "start": 5, "len": 2},
        {"rank": 2, "start": 1, "len": 4},
        {"rank": 2, "start": 4, "len": 4},
    ],
}
ALG_CONDITIONS = {
    "n": 5,
    "conditions": [
        {"rank": 1, "start": 3, "len": 2},
        {"rank": 3, "start": 1, "len": 5},
    ],
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEssentials:
    def test_family_json(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        code, out, _ = run(["essentials", path], capsys)
        assert code == 0
        assert json.loads(out) == {
            "n": 8,
            "k": 3,
            "sets": [
                {"rank": 2, "start": 1, "len": 4},
                {"rank": 3, "start": 1, "len": 8},
                {"rank": 2, "start": 4, "len": 4},
                {"rank": 1, "start": 5, "len": 2},
            ],
        }

    def test_annotations(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        code, out, _ = run(
            ["essentials", path, "--excess", "--core", "--connected"], capsys
        )
        assert code == 0
        sets = json.loads(out)["sets"]
        assert all(s["core"] and s["connected"] for s in sets)
        assert [s["excess"] for s in sets] == [2, 2, 1, 1]

    def test_diagram_flag_appends_render(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        code, out, _ = run(["essentials", path, "--diagram"], capsys)
        assert code == 0
        assert out.splitlines()[2] == "1 # # o . # . . . ."

    def test_malformed_input(self, write_json, capsys):
        path = write_json("p.json", {"n": 3, "window": [1, 1, 3]})
        code, _, err = run(["essentials", path], capsys)
        assert code == 1
        assert "error" in err


# every window with n <= 5, and seeded criterion-08 windows up to n = 40
ESSENTIALS_WINDOWS = [p.window for n in range(1, 6) for p in enumerate_permutations(n)] + [
    tuple(oracle.criterion08_window(rng, n))
    for rng in [random.Random(20261021)] for n in range(6, 41) for _ in range(2)
]


class TestEssentialsBytes:
    """``essentials`` prints the bytes of the dict and ``json.dumps`` path
    kept in ``essentials_reference``, for every combination of flags."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("with_diagram", [False, True])
    def test_every_flag_combination(self, tmp_path, fmt, with_diagram):
        path = tmp_path / "p.json"
        for window in ESSENTIALS_WINDOWS:
            p = BoundedAffinePermutation.from_window(window)
            path.write_text(json.dumps(p.to_json()))
            for flags in product([False, True], repeat=3):
                argv = ["essentials", str(path), "--format", fmt] + [
                    flag for flag, on in zip(["--excess", "--core", "--connected"], flags) if on
                ] + ["--diagram"] * with_diagram
                out = io.StringIO()
                with redirect_stdout(out):
                    assert main(argv) == 0
                assert out.getvalue() == essentials_output(p, fmt, *flags, with_diagram)


class TestRank:
    def test_permutation_input(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        code, out, _ = run(["rank", path, "--interval", "4,4", "--both"], capsys)
        assert code == 0 and out.strip() == "2"

    def test_family_input(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["rank", path, "--interval", "2,4", "--both"], capsys)
        assert code == 0 and out.strip() == "3"


class TestRetrieve:
    def test_paper_example(self, write_json, capsys):
        path = write_json("c.json", ALG_CONDITIONS)
        code, out, _ = run(["retrieve", path], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 5, "window": [5, 6, 4, 7, 8]}

    def test_trace_events_then_window(self, write_json, capsys):
        path = write_json("c.json", ALG_CONDITIONS)
        code, out, _ = run(["retrieve", path, "--trace"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        events = [json.loads(line) for line in lines[:-1]]
        assert events[0] == {"event": "condition_start", "rank": 1, "row": 3, "col": 2}
        placed = [e for e in events if e["event"] in ("dot_placed", "row_filled")]
        assert len(placed) == 5
        assert json.loads(lines[-1])["window"] == [5, 6, 4, 7, 8]

    def test_inconsistent_conditions_exit_2(self, write_json, capsys):
        path = write_json("c.json", {
            "n": 5,
            "conditions": [{"rank": 1, "start": 2, "len": 5},
                           {"rank": 5, "start": 1, "len": 5}],
        })
        code, _, err = run(["retrieve", path], capsys)
        assert code == 2
        assert "RowOverflow" in err


class TestValidate:
    def test_valid_family(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["validate", path], capsys)
        assert code == 0 and out.strip() == "valid"

    def test_invalid_family_exit_3(self, write_json, capsys):
        bad = {"n": 8, "k": 3, "sets": [
            {"rank": 1, "start": 5, "len": 2},
            {"rank": 3, "start": 1, "len": 4},
            {"rank": 2, "start": 4, "len": 4},
        ]}
        path = write_json("f.json", bad)
        code, out, _ = run(["validate", path], capsys)
        assert code == 3
        assert any(line.startswith("E2") for line in out.splitlines())


class TestCodim:
    def test_both_routes(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        code, out, _ = run(["codim", path, "--both"], capsys)
        assert code == 0 and out.split() == ["5", "5"]

    def test_family_input(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["codim", path], capsys)
        assert code == 0 and out.strip() == "5"


class TestPolytopeAndBases:
    def test_polytope_json(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["polytope", path], capsys)
        system = json.loads(out)
        assert code == 0
        assert system["equality"]["rhs"] == 3
        assert len(system["inequalities"]) == 3

    def test_polytope_h_rep(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["polytope", path, "--h-rep"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1 1 1 1 1 1 1 1 = 3"

    def test_bases_sorted(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["bases", path], capsys)
        found = json.loads(out)
        assert code == 0
        assert found == sorted(found)
        assert [1, 5, 7] in found and [1, 5, 6] not in found


def lifted(window: list[int], offset: int) -> list[int]:
    """A window on 16 elements: ``window``'s permutation of [8] on the
    elements offset + 1 to offset + 8, and loops on the other eight."""
    block = [offset + v if v <= 8 else offset + v + 8 for v in window]
    loops = list(range(9 - offset, 17 - offset))
    return block + loops if offset == 0 else loops + block


class TestBasesBytes:
    """``bases`` prints the bytes of the tuple and ``json.dumps`` path
    kept in ``bases_reference``, in both formats."""

    def check(self, tmp_path, windows):
        path = tmp_path / "f.json"
        for window in windows:
            family = diagram.ranked_essential_family(BoundedAffinePermutation.from_window(window))
            path.write_text(json.dumps(family.to_json()))
            for fmt in ("json", "text"):
                out = io.StringIO()
                with redirect_stdout(out):
                    assert main(["bases", str(path), "--format", fmt]) == 0
                assert out.getvalue() == bases_output(family, fmt), (window, fmt)

    def test_every_family_up_to_6(self, tmp_path):
        self.check(tmp_path, [p.window for n in range(1, 7) for p in enumerate_permutations(n)])

    def test_seeded_families_7_to_16(self, tmp_path):
        rng = random.Random("bases:bytes")
        self.check(tmp_path, [random_window(rng, n) for n in range(7, 17) for _ in range(6)])

    @pytest.mark.parametrize("k, n", [(0, 1), (0, 16), (1, 1), (16, 16), (8, 16)])
    def test_uniform(self, tmp_path, capsys, k, n):
        self.check(tmp_path, [BoundedAffinePermutation.uniform(k, n).window])
        path = str(tmp_path / "f.json")
        code, out, _ = run(["bases", path], capsys)
        assert code == 0 and len(json.loads(out)) == comb(n, k)
        if k == 0:
            assert out == "[[]]\n"
            assert run(["bases", path, "--format", "text"], capsys) == (0, "\n", "")

    @pytest.mark.parametrize("offset", [0, 8])
    def test_one_byte_only(self, tmp_path, capsys, offset):
        # the bases use only elements 1-8 (offset 0) or only 9-16 (offset 8)
        rng = random.Random(f"bases:byte:{offset}")
        windows = [lifted(random_window(rng, 8), offset) for _ in range(20)]
        windows.append(lifted(BoundedAffinePermutation.uniform(4, 8).window, offset))
        self.check(tmp_path, windows)
        code, out, _ = run(["bases", str(tmp_path / "f.json")], capsys)
        assert code == 0 and len(json.loads(out)) == 70
        assert {e > 8 for b in json.loads(out) for e in b} == {offset > 0}


class TestFromMatrix:
    def test_figure_matrix(self, write_json, capsys):
        path = write_json("m.json", {
            "k": 3, "n": 8,
            "entries": [
                ["0", "1", "2", "3", "5", "5", "7", "8"],
                ["6", "4", "2", "0", "1", "1", "2", "9"],
                ["1", "1", "1", "1", "1", "1", "1", "1"],
            ],
        })
        code, out, _ = run(["from-matrix", path, "--check-nonneg"], capsys)
        assert code == 0
        assert json.loads(out)["window"] == [3, 4, 8, 7, 6, 9, 10, 13]

    def test_negative_matrix_flagged(self, write_json, capsys):
        path = write_json("m.json", {
            "k": 2, "n": 2, "entries": [["0", "1"], ["1", "0"]],
        })
        code, _, err = run(["from-matrix", path, "--check-nonneg"], capsys)
        assert code == 1 and "negative" in err

    def test_zero_denominator_is_malformed(self, write_json, capsys):
        path = write_json("m.json", {"k": 1, "n": 2, "entries": [["1/0", "1"]]})
        code, out, err = run(["from-matrix", path], capsys)
        assert code == 1 and out == "" and err.startswith("error: bad matrix")

    @pytest.mark.parametrize("entry", ["1e5000", "1e-5000"])
    def test_huge_decimal_exponent_is_malformed(self, write_json, capsys, entry):
        path = write_json("m.json", {"k": 1, "n": 2, "entries": [[entry, "1"]]})
        code, out, err = run(["from-matrix", path], capsys)
        assert code == 1 and out == "" and err.startswith("error: bad matrix")

    def test_large_decimal_exponent_accepted(self, write_json, capsys):
        path = write_json("m.json", {"k": 1, "n": 2, "entries": [["1e300", "1"]]})
        code, out, _ = run(["from-matrix", path], capsys)
        assert code == 0 and json.loads(out)["window"] == [2, 3]

    def test_size_bound(self, write_json, capsys):
        # every maximal minor is checked, so n is bounded as for bases
        def vandermonde(n):  # k = 2, every minor positive
            return write_json("m.json", {"k": 2, "n": n, "entries": [[1] * n, list(range(n))]})

        code, out, _ = run(["from-matrix", vandermonde(16)], capsys)
        assert code == 0 and json.loads(out)["window"] == list(range(3, 19))
        assert run(["from-matrix", vandermonde(17)], capsys) == (
            1, "", "error: n=17 exceeds bound 16\n"
        )

    def test_nonneg_check_runs_once(self, write_json, capsys, monkeypatch):
        calls = []
        check = realize.is_positively_realizing
        monkeypatch.setattr(
            realize, "is_positively_realizing", lambda m: calls.append(m) or check(m)
        )
        path = write_json("m.json", {"k": 2, "n": 3, "entries": [[1, 1, 0], [0, 1, 1]]})
        code, _, _ = run(["from-matrix", path, "--check-nonneg"], capsys)
        assert code == 0 and len(calls) == 1


class TestJobs:
    """``--jobs`` is accepted on ``bases`` and ``enumerate`` and changes
    nothing: both run serially."""

    @pytest.mark.parametrize("jobs", ["0", "2", "1000"])
    def test_bases_jobs_changes_nothing(self, write_json, capsys, jobs):
        path = write_json("f.json", FAMILY_A)
        serial = run(["bases", path], capsys)
        assert serial[0] == 0 and len(json.loads(serial[1])) == 44
        assert run(["bases", path, "--jobs", jobs], capsys) == serial

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_enumerate_refuses_nonpositive_n_before_any_pool(self, capsys, n):
        serial = run(["enumerate", "--n", n], capsys)
        assert serial == (1, "", "error: n must be positive\n")
        assert run(["enumerate", "--n", n, "--jobs", "2"], capsys) == serial

    def test_bases_bound_holds_when_sharded(self, write_json, capsys):
        path = write_json("f.json", {"n": 17, "k": 1, "sets": []})
        for argv in (["bases", path], ["bases", path, "--jobs", "2"]):
            code, out, err = run(argv, capsys)
            assert code == 1 and out == ""
            assert "n=17 exceeds bound 16" in err

    def test_cli_import_loads_no_process_pool(self):
        # no library path starts a process, so importing the CLI loads
        # neither multiprocessing nor concurrent.futures
        probe = (
            "import sys, positroids.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestFamilyValidatedOnce:
    """A valid family is certified by one retrieval and no axiom check;
    the axioms run once, only to explain a rejected family."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # the certificate's retrieval is the dotting run of ``retrieve``
        counts = {"retrieve": 0, "validate_chess": 0}
        for name, attr in (("retrieve", "_dotted"), ("validate_chess", "validate_chess")):
            def counted(*args, _name=name, _func=getattr(essential, attr)):
                counts[_name] += 1
                return _func(*args)

            monkeypatch.setattr(essential, attr, counted)
        return counts

    @pytest.mark.parametrize(
        "argv", [["codim", "--both"], ["rank", "--interval", "2,4", "--both"]]
    )
    def test_both_routes(self, write_json, capsys, calls, argv):
        path = write_json("f.json", FAMILY_A)
        code, _, _ = run([argv[0], path, *argv[1:]], capsys)
        assert code == 0 and calls == {"retrieve": 1, "validate_chess": 0}

    @pytest.mark.parametrize("command", ["validate", "polytope", "bases"])
    def test_single_route(self, write_json, capsys, calls, command):
        path = write_json("f.json", FAMILY_A)
        code, _, _ = run([command, path], capsys)
        assert code == 0 and calls == {"retrieve": 1, "validate_chess": 0}

    @pytest.mark.parametrize(
        "argv",
        [["validate"], ["polytope"], ["codim", "--both"],
         ["rank", "--interval", "2,4", "--both"], ["bases"], ["bases", "--jobs", "2"]],
    )
    def test_rejection_explained_once(self, write_json, capsys, calls, argv):
        bad = {**FAMILY_A, "sets": [{"rank": 0, "start": 5, "len": 2},
                                    *FAMILY_A["sets"][1:]]}
        path = write_json("f.json", bad)
        code, out, err = run([argv[0], path, *argv[1:]], capsys)
        assert code == 3 and (out or err).startswith("E")
        assert calls == {"retrieve": 1, "validate_chess": 1}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bases_validates_before_the_bound(self, write_json, capsys, calls, jobs):
        # n = 17 is over the bound, but the rejection (exit 3) comes first
        bad = {"n": 17, "k": 3, "sets": [{"rank": 2, "start": 1, "len": 2}]}
        path = write_json("f.json", bad)
        code, out, err = run(["bases", path, "--jobs", jobs], capsys)
        assert code == 3 and out == ""
        assert err.startswith("E1: |I| > r fails")
        assert calls == {"retrieve": 1, "validate_chess": 1}


class TestFamilyReadFromTriples:
    """The family commands read the parsed family's triples and build
    none of its CyclicInterval entries."""

    @pytest.mark.parametrize(
        "argv", [["codim", "--both"], ["rank", "--interval", "7,4", "--both"], ["bases"]]
    )
    def test_no_entries_built(self, write_json, capsys, monkeypatch, argv):
        parsed = []
        from_json = essential.RankedEssentialFamily.from_json

        def recorded(cls, obj):
            parsed.append(from_json(obj))
            return parsed[-1]

        monkeypatch.setattr(essential.RankedEssentialFamily, "from_json", classmethod(recorded))
        path = write_json("f.json", FAMILY_A)
        code, _, _ = run([argv[0], path, *argv[1:]], capsys)
        assert code == 0 and len(parsed) == 1
        assert "entries" not in parsed[0].__dict__


class TestRoutesDisagree:
    """A --both disagreement exits 4 with the two values on stderr."""

    @pytest.mark.parametrize(
        "doc, argv, owner, name, err",
        [
            (PERM_A, ["rank", "--interval", "4,4"], essential, "rank_from_family",
             "error: rank disagreement: permutation 2, family 3\n"),
            (FAMILY_A, ["rank", "--interval", "2,4"], essential, "rank_from_family",
             "error: rank disagreement: family 4, permutation 3\n"),
            (PERM_A, ["codim"], geometry, "length",
             "error: codim disagreement: 6 vs 5\n"),
            (FAMILY_A, ["codim"], geometry, "length",
             "error: codim disagreement: 5 vs 6\n"),
        ],
    )
    def test_exit_4(self, write_json, capsys, monkeypatch, doc, argv, owner, name, err):
        route = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: route(*args) + 1)
        path = write_json("in.json", doc)
        assert run([argv[0], path, *argv[1:], "--both"], capsys) == (4, "", err)


class TestStrictInput:
    @pytest.mark.parametrize("argv", [["rank", "--interval", "1,1"], ["codim"]])
    @pytest.mark.parametrize("doc", [5, None, True, 1.5, [1, 2], "window"])
    def test_non_object_document_is_malformed(self, write_json, capsys, argv, doc):
        path = write_json("in.json", doc)
        code, out, err = run([argv[0], path, *argv[1:]], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: expected a permutation")

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["essentials"], {"n": 8, "window": [3, 4, 8, 7, 6, 9, 10, 13.5]}),
            (["essentials"], {"n": 8.0, "window": [3, 4, 8, 7, 6, 9, 10, 13]}),
            (["diagram"], {"n": 3, "window": [1, True, 3]}),
            (["essentials"], {"n": 3, "window": [1, "2", 3]}),
            (["validate"], {**FAMILY_A, "k": 3.0}),
            (["validate"], {"n": 8, "k": 3, "sets": [{"rank": 1, "start": 5, "len": 2.5}]}),
            (["polytope"], {"n": 8, "k": 3, "sets": [{"rank": "1", "start": 5, "len": 2}]}),
            (["retrieve"], {"n": 5.0, "conditions": ALG_CONDITIONS["conditions"]}),
            (["retrieve"], {"n": 5, "conditions": [{"rank": 3, "start": 1, "len": True}]}),
            (["from-matrix"], {"k": 1.0, "n": 2, "entries": [[1, 2]]}),
            (["from-matrix"], {"k": 1, "n": "2", "entries": [[1, 2]]}),
            (["rank2"], {"n": 5, "classes": [[1, 2.0], [3], [4, 5]]}),
            (["rank2"], {"n": 5, "classes": [[1, 2], [3], [4]], "loops": [5.5]}),
        ],
    )
    def test_non_integer_numbers_rejected(self, write_json, capsys, argv, doc):
        path = write_json("in.json", doc)
        code, out, err = run([argv[0], path, *argv[1:]], capsys)
        assert code == 1 and out == ""
        assert "expected an integer" in err

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["from-matrix"], {"k": 1, "n": 3, "entries": ["123"]}),
            (["from-matrix"], {"k": 1, "n": 2, "entries": [{"1": 0, "2": 0}]}),
            (["from-matrix"], {"k": 1, "n": 1, "entries": "7"}),
            (["validate"], {"n": 3, "k": 1, "sets": {}}),
            (["validate"], {"n": 3, "k": 1, "sets": ""}),
            (["retrieve"], {"n": 2, "conditions": {}}),
            (["essentials"], {"n": 3, "window": "234"}),
            (["rank2"], {"n": 3, "classes": [[1], [2], [3]], "loops": ""}),
            (["rank2"], {"n": 3, "classes": [[1], [2], [3]], "loops": {}}),
            (["rank2"], {"n": 3, "classes": {"1": [1], "2": [2, 3]}}),
            (["rank2"], {"n": 3, "classes": [[1], "23"]}),
        ],
    )
    def test_string_or_object_for_an_array_rejected(self, write_json, capsys, argv, doc):
        # the other iterables json.loads returns are refused, not iterated
        path = write_json("in.json", doc)
        code, out, err = run([argv[0], path, *argv[1:]], capsys)
        assert code == 1 and out == ""
        assert "expected an array" in err

    def test_matrix_entries_keep_rational_forms(self, write_json, capsys):
        path = write_json("m.json", {"k": 1, "n": 3, "entries": [[0.5, "3/2", 2]]})
        code, out, _ = run(["from-matrix", path], capsys)
        assert code == 0 and json.loads(out)["window"] == [2, 3, 4]

    @pytest.mark.parametrize("n", [0, -2])
    def test_retrieve_empty_ground_set_is_malformed(self, write_json, capsys, n):
        path = write_json("c.json", {"n": n, "conditions": []})
        code, _, err = run(["retrieve", path], capsys)
        assert code == 1 and "ground set size must be positive" in err

    def test_k_above_n_fails_validation(self, write_json, capsys):
        path = write_json("f.json", {"n": 3, "k": 5, "sets": []})
        code, out, _ = run(["validate", path], capsys)
        assert code == 3 and out.startswith("E1: k <= n fails")
        code, out, err = run(["codim", path, "--both"], capsys)
        assert code == 3 and out == "" and err.startswith("E1")


class TestDocumentBound:
    """Family and condition documents are refused above n = 1024 (exit 1)
    before any work: the certificate and retrieval fill a lane int of
    n(2n + 1) bits.  The library itself takes any n."""

    @pytest.mark.parametrize("argv", [
        ["validate"], ["polytope"], ["bases"], ["codim"], ["rank", "--interval", "1,2"],
    ])
    def test_family_above_the_bound(self, write_json, capsys, argv):
        path = write_json("f.json", {"n": 4000, "k": 1, "sets": []})
        assert run([argv[0], path, *argv[1:]], capsys) == (
            1, "", "error: n=4000 exceeds bound 1024\n"
        )

    def test_conditions_above_the_bound(self, write_json, capsys):
        path = write_json("c.json", {"n": 1025, "conditions": [
            {"rank": 1, "start": 1, "len": 1025}]})
        for argv in (["retrieve", path], ["retrieve", path, "--trace"]):
            assert run(argv, capsys) == (1, "", "error: n=1025 exceeds bound 1024\n")

    def test_the_bound_itself_is_read(self, write_json, capsys):
        path = write_json("f.json", {"n": 1024, "k": 1, "sets": []})
        assert run(["validate", path], capsys) == (0, "valid\n", "")
        path = write_json("c.json", {"n": 1024, "conditions": [
            {"rank": 1, "start": 1, "len": 1024}]})
        code, out, _ = run(["retrieve", path], capsys)
        assert code == 0 and json.loads(out)["window"] == list(range(2, 1026))


class TestUsageErrors:
    """argparse's usage errors are malformed input: exit 1, not the 2 of
    inconsistent rank conditions, with argparse's usage and message on
    stderr."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["rank", "in.json"], "the following arguments are required: --interval"),
            (["enumerate", "--n", "x"], "argument --n: invalid int value: 'x'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ],
    )
    def test_exit_1(self, capsys, argv, message):
        code, out, err = run(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage: positroids") and message in err

    # int() reads all but the last two of these; the CLI takes only
    # ASCII digits after an optional minus sign
    NOT_DECIMAL = ["1_0", "+3", " 3", "3 ", "\u0663", "\uff13", "\u00b3", ""]

    @pytest.mark.parametrize("text", NOT_DECIMAL)
    def test_enumerate_integers_are_not_coerced(self, capsys, text):
        for argv in (["enumerate", "--n", text], ["enumerate", "--n", "3", "--k", text]):
            code, out, err = run(argv, capsys)
            assert code == 1 and out == "" and err.startswith("usage: positroids")
            assert f"argument --{argv[-2][2:]}: invalid int value: {text!r}" in err

    @pytest.mark.parametrize("text", NOT_DECIMAL)
    def test_interval_integers_are_not_coerced(self, write_json, capsys, text):
        path = write_json("p.json", PERM_A)
        for spec in (f"{text},2", f"2,{text}"):
            assert run(["rank", path, "--interval", spec], capsys) == (1, "", (
                f"error: bad interval '{spec}': "
                f"invalid literal for int() with base 10: {text!r}\n"
            ))

    def test_plain_integers_still_read(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        assert run(["rank", path, "--interval", "08,2"], capsys) == (0, "2\n", "")
        assert run(["rank", path, "--interval=-3,2"], capsys) == (
            1, "", "error: bad interval '-3,2': start -3 outside [1, 8]\n"
        )
        code, out, _ = run(["enumerate", "--n", "03", "--k", "01"], capsys)
        assert code == 0 and out == run(["enumerate", "--n", "3", "--k", "1"], capsys)[1]

    def test_help_exits_0(self, capsys):
        code, out, err = run(["--help"], capsys)
        assert code == 0 and out.startswith("usage: positroids") and err == ""


class TestEnumerate:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_matches_oracle(self, n, capsys):
        code, out, _ = run(["enumerate", "--n", str(n)], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == count_permutations(n)

    def test_streams_sorted_unique_json(self, capsys):
        code, out, _ = run(["enumerate", "--n", "4"], capsys)
        windows = [tuple(json.loads(line)["window"]) for line in out.strip().splitlines()]
        assert windows == sorted(set(windows))

    def test_rank_filter(self, capsys):
        code, out, _ = run(["enumerate", "--n", "4", "--k", "2"], capsys)
        assert all(
            sum(1 for v in json.loads(line)["window"] if v > 4) == 2
            for line in out.strip().splitlines()
        )

    def test_jobs_preserve_order(self, capsys):
        # --jobs is accepted and changes nothing
        for flags in [[], ["--k", "2"], ["--format", "text"], ["--k", "2", "--format", "text"]]:
            serial = run(["enumerate", "--n", "4", *flags], capsys)
            assert serial[0] == 0 and serial[1]
            for jobs in ["0", "2", "1000"]:
                argv = ["enumerate", "--n", "4", *flags, "--jobs", jobs]
                assert run(argv, capsys) == serial, argv

    @pytest.mark.parametrize("n", range(1, 7))
    def test_lines_are_json_dumps_and_text_joins(self, n, capsys):
        # each line is byte for byte what json.dumps (or the text join) of
        # the reference walk's window gives
        for k in [None, *range(-1, n + 2)]:
            flags = [] if k is None else ["--k", str(k)]
            windows = list(windows_by_recursion(n, k))
            code, out, err = run(["enumerate", "--n", str(n), *flags], capsys)
            assert (code, err) == (0, "")
            assert out == "".join(
                json.dumps({"n": n, "window": list(w)}) + "\n" for w in windows
            )
            code, out, err = run(
                ["enumerate", "--n", str(n), "--format", "text", *flags], capsys
            )
            assert (code, err) == (0, "")
            assert out == "".join(" ".join(str(v) for v in w) + "\n" for w in windows)


class TestRank2:
    def test_verdicts(self, write_json, capsys):
        path = write_json("c.json", {"n": 5, "classes": [[1, 2], [3], [4, 5]]})
        code, out, _ = run(["rank2", path], capsys)
        assert code == 0 and json.loads(out) == {"positroid": True}
        path = write_json("c2.json", {"n": 4, "classes": [[1, 3], [2], [4]]})
        code, out, _ = run(["rank2", path], capsys)
        assert code == 0 and json.loads(out) == {"positroid": False}

    def test_loop_rejected(self, write_json, capsys):
        path = write_json("c.json", {"n": 4, "classes": [[1, 2], [3]], "loops": [4]})
        code, _, err = run(["rank2", path], capsys)
        assert code == 1 and "loop" in err


class TestTextFormat:
    def test_retrieve_text_window(self, write_json, capsys):
        path = write_json("c.json", ALG_CONDITIONS)
        code, out, _ = run(["retrieve", path, "--format", "text"], capsys)
        assert code == 0 and out.strip() == "5 6 4 7 8"

    def test_essentials_text_lines(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        code, out, _ = run(["essentials", path, "--format", "text"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "rank=2 start=1 len=4"

    def test_polytope_text_is_h_rep(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        code, out, _ = run(["polytope", path, "--format", "text"], capsys)
        assert code == 0 and out.splitlines()[0] == "1 1 1 1 1 1 1 1 = 3"


class TestDeterminism:
    def test_byte_identical_reruns(self, write_json, capsys):
        path = write_json("p.json", PERM_A)
        outputs = set()
        for _ in range(2):
            _, out, _ = run(["essentials", path, "--excess"], capsys)
            outputs.add(out)
        assert len(outputs) == 1

    @pytest.mark.slow
    def test_corpus_hash(self):
        # every call of the corpus, byte for byte: any change to an output,
        # an exception or an exit code moves the hash
        assert cli_corpus.main() == (
            "62465e7997a0f6fd0b450923ed7cf0b7d6d5dc2c87196c21984a706c580982ea", 33_071
        )


def test_input_file_is_closed(write_json, capsys):
    path = write_json("f.json", FAMILY_A)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", path]) == 0
        gc.collect()
    capsys.readouterr()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_parser_built_once_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    main(["enumerate", "--n", "1"])
    assert cli.build_parser.cache_info().misses == 1


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_usage_matches_the_parser():
    # the README's usage block has one line per subcommand, naming all of
    # its long flags and no others
    usage = README.read_text().split("## Command-line usage", 1)[1].split("```")[1]
    lines = usage.strip().splitlines()
    documented = {
        line.split()[1]: set(re.findall(r"--[a-z][a-z-]*", line)) for line in lines
    }
    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    defined = {
        name: {
            flag for action in sub._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"
        }
        for name, sub in subcommands.choices.items()
    }
    assert len(documented) == len(lines)
    assert documented == defined


def _readme_examples():
    """(command, shown output) for each ``$ ...`` example in the README's
    Examples block; a command runs on until its quotes are closed."""
    block = README.read_text().split("\nExamples:\n", 1)[1].split("```")[1]
    examples = []
    for chunk in block.strip().split("\n\n"):
        lines = chunk.splitlines()
        assert lines[0].startswith("$ ")
        command = lines.pop(0)[2:]
        while command.count("'") % 2:
            command += "\n" + lines.pop(0)
        examples.append((command, "".join(line + "\n" for line in lines)))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "command, shown", README_EXAMPLES,
    ids=[command.split("positroids ")[1].split()[0] for command, _ in README_EXAMPLES],
)
def test_readme_examples(command, shown, capsys, monkeypatch):
    stages = [shlex.split(stage) for stage in command.split(" | ")]
    if stages[0][0] == "echo":
        monkeypatch.setattr(sys, "stdin", io.StringIO(stages.pop(0)[1] + "\n"))
    argv = stages.pop(0)
    assert argv[0] == "positroids"
    code, out, err = run(argv[1:], capsys)
    assert (code, err) == (0, "")
    if stages:
        assert stages == [["wc", "-l"]]
        out = str(out.count("\n")) + "\n"
    assert out == shown


def test_subprocess_entry_point(tmp_path):
    path = tmp_path / "perm.json"
    path.write_text(json.dumps(PERM_A))
    proc = subprocess.run(
        [sys.executable, "-m", "positroids", "codim", str(path), "--both"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["5", "5"]


def test_subprocess_stdin_dash():
    proc = subprocess.run(
        [sys.executable, "-m", "positroids", "diagram", "-"],
        input=json.dumps(PERM_A), capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "1 # # o . # . . . ."


# Every subcommand that reads a JSON document, with the flags that reach
# the most code.
FUZZ_COMMANDS = [
    ["essentials", "--excess", "--core", "--connected", "--diagram"], ["diagram"],
    ["rank", "--interval", "2,3", "--both"], ["retrieve", "--trace"], ["validate"],
    ["codim", "--both"], ["polytope"], ["bases"], ["from-matrix"], ["rank2"],
]

# every integer stays in -2..12 (windows of n <= 6 end at 12), so no
# input asks for a huge n
_ints = st.integers(-2, 12)
_scalars = (
    st.none() | st.booleans() | _ints | st.floats(-2, 12)
    | st.text("0123456789/-.e pq", max_size=5)
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "k", "window", "sets", "conditions", "entries",
                         "classes", "loops", "rank", "start", "len"]),
        inner, max_size=4,
    ),
    max_leaves=12,
)
_field = _ints | _json
_sets = st.lists(
    st.fixed_dictionaries({"rank": _ints, "start": _ints, "len": _ints}) | _json,
    max_size=5,
)


@st.composite
def _genuine_family(draw):
    doc = diagram.ranked_essential_family(
        BoundedAffinePermutation.from_window(draw(windows(6)))
    ).to_json()
    bump = draw(st.integers(-1, len(doc["sets"]) - 1))
    if bump >= 0:  # move one label, usually spoiling the family
        doc["sets"][bump]["rank"] += draw(st.sampled_from([-1, 1]))
    return doc


_documents = _json | st.one_of(
    st.fixed_dictionaries({"n": _field, "window": st.lists(_field, max_size=8)}),
    st.builds(lambda w: {"n": len(w), "window": w}, windows(6)),
    st.fixed_dictionaries({"n": _field, "k": _field, "sets": _sets}),
    _genuine_family(),
    st.fixed_dictionaries({"n": _field, "conditions": _sets}),
    st.fixed_dictionaries({
        "k": _field, "n": _field,
        "entries": st.lists(st.lists(
            _scalars | st.builds("{}/{}".format, _ints, _ints), max_size=4,
        ), max_size=4),
    }),
    st.fixed_dictionaries(
        {"n": _field, "classes": st.lists(st.lists(_field, max_size=4), max_size=4)},
        optional={"loops": st.lists(_field, max_size=3)},
    ),
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_fuzzed_documents_exit_with_a_documented_code(doc):
    text = json.dumps(doc)
    with mock.patch.object(sys, "stdin", SimpleNamespace(read=lambda: text)), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = {argv[0]: main([argv[0], "-", *argv[1:]]) for argv in FUZZ_COMMANDS}
    assert set(codes.values()) <= {0, 1, 2, 3}, (codes, text)
