"""One sha256 over a fixed corpus of in-process ``positroids.cli.main`` calls.

    python tests/cli_corpus.py

Run from anywhere; the package is imported from the ``src`` next to this
directory.  Each call's argv, stdin document, exit code, stdout and
stderr go into the hash, so two checkouts print the same hash exactly
when every call behaves byte for byte the same.  The corpus:

- the family-taking subcommands (``validate``, ``codim``, ``rank``,
  ``polytope``, ``bases``), and ``essentials`` and ``retrieve``, on every
  permutation with n <= 6 and on its family;
- the same on criterion-08 families (seeded) with n up to 64;
- spoiled families: one label moved, raised to its interval's size, an
  entry dropped or added;
- malformed documents;
- ``from-matrix`` on the seeded totally nonnegative matrices of
  ``realize_reference.tnn_matrices`` in both formats, and on a matrix
  with a negative minor, a rank-deficient one and one with n = 17.

It makes about 33,000 calls in some ten seconds.  ``main`` returns the
hash and the number of calls, which the slow test
``test_cli.py::TestDeterminism::test_corpus_hash`` pins.  pytest imports
this module to collect its doctests, so everything runs under
``__main__`` or ``main``.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from pathlib import Path

FAMILY_COMMANDS = (
    ["validate", "-"],
    ["codim", "-", "--both"],
    ["polytope", "-"],
    ["bases", "-"],
)
MALFORMED = [
    "", "[", "5", "[]", '"x"', "null", "{}",
    {"n": 6, "k": 3},
    {"n": 6, "k": 3, "sets": 5},
    {"n": 6, "k": 3, "sets": ["x"]},
    {"n": 6, "k": 3, "sets": [[1, 2, 2]]},
    {"n": 6, "k": 3, "sets": [{"start": 1, "len": 2}]},
    {"n": 6, "k": 3, "sets": [{"rank": 1, "len": 2}]},
    {"n": 6, "k": 3, "sets": [{"rank": 1, "start": 2}]},
    {"n": 0, "k": 0, "sets": []},
    {"n": -2, "k": 0, "sets": [{"rank": 0, "start": 1, "len": 1}]},
    {"n": 6.0, "k": 3, "sets": []},
    {"n": 6, "k": True, "sets": []},
    {"n": 6, "k": -1, "sets": []},
    {"n": 3, "k": 5, "sets": []},
    {"n": 17, "k": 5, "sets": []},
] + [
    # each a family document with one defect, in every position a check reads
    {"n": 6, "k": 3, "sets": [{"rank": r, "start": s, "len": l} for r, s, l in triples]}
    for triples in [
        [(1, 2, 2), (2, 2, 2)], [(3, 1, 6), (3, 4, 6)], [(2, 1, 6), (2, 1, 6)],
        [(-1, 2, 2)], [(1, 0, 2)], [(1, 7, 2)], [(1, 2, 0)], [(1, 2, 7)], [(1, 0, 0)],
        [(2, 1, 6)], [(2, 4, 6)], [(1.5, 2, 2)], [(1, "2", 2)], [(1, 2, None)],
        [(1, 2, 2), (1, 2, 2), (1, 3, 9)], [(-1, 3, 2), (1, 2, 2), (0, 2, 2)],
        [(1, 3, 2), (1, 3, 2), (-1, 2, 2)], [(-1, 3, 2), (2, 1, 6)],
    ]
]

MATRICES = [
    {"k": 2, "n": 3, "entries": [[1, 0, 1], [0, 1, -1]]},
    {"k": 2, "n": 3, "entries": [[1, 2, 3], [2, 4, 6]]},
    {"k": 2, "n": 17, "entries": [[1] * 17, list(range(17))]},
]


class Corpus:
    def __init__(self, cli):
        self.cli = cli
        self.digest = hashlib.sha256()
        self.calls = 0

    def run(self, argv: list[str], doc) -> None:
        """One ``cli.main`` call on ``doc`` (a JSON value, or text as it is)."""
        text = doc if isinstance(doc, str) else json.dumps(doc)
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
        try:
            code = self.cli.main(argv)
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        record = json.dumps([argv, text, code, out.getvalue(), err.getvalue()])
        self.digest.update(record.encode() + b"\n")
        self.calls += 1

    def family(self, doc, rng: random.Random, bases: bool = True) -> None:
        n = doc["n"]
        for argv in FAMILY_COMMANDS:
            if bases or argv[0] != "bases":
                self.run(argv, doc)
        start, length = rng.randint(1, n), rng.randint(1, n)
        self.run(["rank", "-", "--interval", f"{start},{length}", "--both"], doc)

    def permutation(self, window: list[int], rng: random.Random) -> None:
        n = len(window)
        doc = {"n": n, "window": window}
        self.run(["essentials", "-", "--excess", "--core", "--connected"], doc)
        self.run(["codim", "-", "--both"], doc)
        start, length = rng.randint(1, n), rng.randint(1, n)
        self.run(["rank", "-", "--interval", f"{start},{length}", "--both"], doc)


def spoiled(doc, rng: random.Random):
    """``doc`` with one defect: a label moved by one or raised to its
    interval's size, an entry dropped, or an interval added."""
    n, sets = doc["n"], [dict(s) for s in doc["sets"]]
    proper = [s for s in sets if s["len"] < n]
    kind = rng.choice(["move", "raise", "drop", "add"] if proper else ["add"])
    if kind == "add":
        length = rng.randint(1, n)
        sets.append({"rank": rng.randint(0, length), "start": rng.randint(1, n),
                     "len": length})
    else:
        chosen = rng.choice(proper)
        if kind == "drop":
            sets.remove(chosen)
        else:
            chosen["rank"] = chosen["len"] if kind == "raise" else max(
                0, chosen["rank"] + rng.choice([-1, 1]))
    return {"n": n, "k": doc["k"], "sets": sets}


def main() -> tuple[str, int]:
    from positroids import cli, diagram, retrieval
    from positroids.core import BoundedAffinePermutation, enumerate_windows
    from realize_reference import tnn_matrices

    corpus = Corpus(cli)
    rng = random.Random("cli-corpus")

    def family_doc(window):
        return diagram.ranked_essential_family(
            BoundedAffinePermutation.from_window(window)).to_json()

    for n in range(1, 7):
        for window in enumerate_windows(n):
            window = list(window)
            corpus.permutation(window, rng)
            doc = family_doc(window)
            corpus.family(doc, rng)
            corpus.family(spoiled(doc, rng), rng)
            if n <= 4:
                conditions = {"n": n, "conditions": doc["sets"]}
                corpus.run(["retrieve", "-", "--trace"], conditions)
                corpus.run(["essentials", "-", "--format", "text", "--excess",
                            "--core", "--connected", "--diagram"],
                           {"n": n, "window": window})
                corpus.run(["polytope", "-", "--format", "text"], doc)
                corpus.run(["bases", "-", "--format", "text"], doc)

    for n in (8, 12, 16, 20, 24, 32, 40, 48, 64):
        for _ in range(6):
            sigma = rng.sample(range(1, n + 1), n)
            window = [i + (sigma[i - 1] - i) % n for i in range(1, n + 1)]
            window = [v + n if v == i and rng.random() < 0.5 else v
                      for i, v in enumerate(window, 1)]
            corpus.permutation(window, rng)
            doc = family_doc(window)
            corpus.family(doc, rng, bases=n <= 12)
            core = retrieval.core_conditions(
                diagram.ranked_essential_family(BoundedAffinePermutation.from_window(window)))
            corpus.run(["retrieve", "-"], core.to_json())
            for _ in range(3):
                corpus.family(spoiled(doc, rng), rng, bases=n <= 12)
                bad = spoiled({"n": n, "k": doc["k"], "sets": core.to_json()["conditions"]}, rng)
                corpus.run(["retrieve", "-"], {"n": n, "conditions": bad["sets"]})

    for doc in MALFORMED:
        for argv in FAMILY_COMMANDS:
            corpus.run(argv, doc)
        corpus.run(["rank", "-", "--interval", "1,2", "--both"], doc)

    for matrix in tnn_matrices():
        for fmt in ("json", "text"):
            corpus.run(["from-matrix", "-", "--format", fmt], matrix.to_json())
    for doc in MATRICES:
        corpus.run(["from-matrix", "-"], doc)
    return corpus.digest.hexdigest(), corpus.calls


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(*main())
