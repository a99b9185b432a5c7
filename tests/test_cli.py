import json
import subprocess
import sys
from concurrent.futures import Future

import pytest

from positroids import cli, essential, realize
from positroids.cli import main
from positroids.core import count_permutations

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

    def test_bases_jobs_match_serial(self, write_json, capsys):
        path = write_json("f.json", FAMILY_A)
        _, serial, _ = run(["bases", path], capsys)
        _, parallel, _ = run(["bases", path, "--jobs", "2"], capsys)
        assert serial == parallel


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


    def test_nonneg_check_runs_once(self, write_json, capsys, monkeypatch):
        calls = []
        check = realize.is_positively_realizing
        monkeypatch.setattr(
            realize, "is_positively_realizing", lambda m: calls.append(m) or check(m)
        )
        path = write_json("m.json", {"k": 2, "n": 3, "entries": [[1, 1, 0], [0, 1, 1]]})
        code, _, _ = run(["from-matrix", path, "--check-nonneg"], capsys)
        assert code == 0 and len(calls) == 1


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    submitted calls in this process, so no worker is ever started."""

    built: list[int] = []

    def __init__(self, max_workers):
        self.built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, func, *args, **kwargs):
        future = Future()
        future.set_result(func(*args, **kwargs))
        return future


class TestJobs:
    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        _RecordingPool.built = []
        return _RecordingPool.built

    @pytest.mark.parametrize(
        "jobs, workers", [(2, 2), (3, 3), (1000, 4)]
    )
    def test_enumerate_workers_clamped_to_cpus(self, pool, capsys, jobs, workers):
        _, serial, _ = run(["enumerate", "--n", "4"], capsys)
        code, out, _ = run(["enumerate", "--n", "4", "--jobs", str(jobs)], capsys)
        assert code == 0 and out == serial
        assert pool == [workers]

    def test_bases_workers_clamped_to_shards(self, pool, write_json, capsys):
        # k = 3 on n = 4 leaves two shards: least element 1 or 2
        path = write_json("f.json", {"n": 4, "k": 3, "sets": []})
        code, out, _ = run(["bases", path, "--jobs", "1000"], capsys)
        assert code == 0 and len(json.loads(out)) == 4
        assert pool == [2]

    def test_cpu_count_unknown_means_one_worker(self, pool, monkeypatch, capsys):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        run(["enumerate", "--n", "3", "--jobs", "8"], capsys)
        assert pool == [1]

    def test_bases_bound_holds_when_sharded(self, pool, write_json, capsys):
        path = write_json("f.json", {"n": 17, "k": 1, "sets": []})
        for argv in (["bases", path], ["bases", path, "--jobs", "2"]):
            code, out, err = run(argv, capsys)
            assert code == 1 and out == ""
            assert "n=17 exceeds bound 16" in err
        assert pool == []


class TestFamilyValidatedOnce:
    @pytest.mark.parametrize(
        "argv", [["codim", "--both"], ["rank", "--interval", "2,4", "--both"]]
    )
    def test_both_routes(self, write_json, capsys, monkeypatch, argv):
        calls = []
        validate = essential.validate_chess
        monkeypatch.setattr(
            essential, "validate_chess", lambda F: calls.append(F) or validate(F)
        )
        path = write_json("f.json", FAMILY_A)
        code, _, _ = run([argv[0], path, *argv[1:]], capsys)
        assert code == 0 and len(calls) == 1


class TestStrictInput:
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
        _, serial, _ = run(["enumerate", "--n", "4"], capsys)
        _, parallel, _ = run(["enumerate", "--n", "4", "--jobs", "2"], capsys)
        assert serial == parallel


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
