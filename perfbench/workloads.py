"""The four workloads: seeded inputs, the ops run on them, and output checks.

An op is one ``positroids.cli.main(argv)`` call with stdin, stdout and
stderr held in memory, or one direct library call.  A cell is one
(op kind, n) pair; every workload names a lo cell and a hi cell, whose
median latencies are reported.

Inputs are drawn per n by stratified sampling: three candidates are drawn
from the seeded generator per input wanted, sorted by family size (the
number of essential entries, which explains about three quarters of the
variance of log op time), and one is drawn from each consecutive group of
three.  Every seed then gets the same spread of family sizes, so the cell
medians depend on the program far more than on the seed.

Each check compares an output with the benchmark's own computation in
``oracle`` or with a property the output must have.  Set-up may call the
library to build inputs (families, core conditions, the near-miss
certificate); a check never relies on the route it checks.
"""

from __future__ import annotations

import io
import json
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle
from positroids import cli, diagram, geometry, retrieval, smallrank
from positroids.core import BoundedAffinePermutation

RUNNING_EXAMPLE = [3, 4, 8, 7, 6, 9, 10, 13]
BOUNDARY_TABLE = Path(__file__).with_name("boundary_table.json")
BOUNDARY_POOL_SEED = "codim1-boundary-pool"
BOUNDARY_POOL_N = 7
BOUNDARY_POOL_SIZE = 240

RETRIEVE_KINDS = {
    retrieval.MISSING_FULL_LABEL,
    retrieval.NON_MAXIMAL_LABEL,
    retrieval.NO_PROGRESS,
    retrieval.ROW_OVERFLOW,
    retrieval.NOT_PROPER,
    retrieval.RANK_MISMATCH,
}
VIOLATION_LINE = re.compile(r"^(E1|E2|E3|E3-cover): ")


@dataclass
class Op:
    """One operation; ``run`` returns (output, seconds) with only the
    program call inside the timed span."""

    cell: str
    key: str
    run: Callable[[], tuple[object, float]]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    lo: str
    hi: str


def cli_op(cell: str, key: str, argv: list[str], doc, check) -> Op:
    stdin_text = json.dumps(doc) if doc is not None else ""

    def run():
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), out, err
        try:
            start = perf_counter()
            code = cli.main(argv)
            seconds = perf_counter() - start
        finally:
            sys.stdin, sys.stdout, sys.stderr = saved
        return (code, out.getvalue(), err.getvalue()), seconds

    return Op(cell, key, run, check)


def lib_op(cell: str, key: str, module, name: str, arg, check) -> Op:
    # looked up at call time, so the traced run's wrappers are the ones called
    def run():
        func = getattr(module, name)
        start = perf_counter()
        result = func(arg)
        seconds = perf_counter() - start
        return result, seconds

    return Op(cell, key, run, check)


# ---------------------------------------------------------------- checks


def _ok(output) -> tuple[str | None, str]:
    code, out, err = output
    if code != 0 or err:
        return f"exit {code}, stderr {err[:200]!r}", ""
    return None, out


def _check_value(expected: Callable[[], str]):
    """Exit 0 and stdout equal to ``expected()``, computed at check time."""

    def check(output):
        problem, out = _ok(output)
        if problem:
            return problem
        want = expected()
        return None if out == want else f"printed {out[:200]!r}, expected {want!r}"

    return check


def _check_essentials(window):
    def check(output):
        problem, out = _ok(output)
        if problem:
            return problem
        n, k = len(window), oracle.full_rank(window)
        doc = json.loads(out)
        if doc["n"] != n or doc["k"] != k:
            return f"n, k = {doc['n']}, {doc['k']}, expected {n}, {k}"
        family = oracle.essential_family(window)
        got = [(e["rank"], e["start"], e["len"]) for e in doc["sets"]]
        if sorted(got) != sorted(family):
            return f"entries differ from the window's essential intervals: {set(got) ^ family}"
        excess = oracle.excess(n, family)
        connected = oracle.connected(n, family)
        for entry, e in zip(got, doc["sets"]):
            want = excess[entry[1:]], excess[entry[1:]] > 0, entry in connected
            if (e.get("excess"), e.get("core"), e.get("connected")) != want:
                return f"entry {e}: expected excess, core, connected = {want}"
        # codimension identity: sum of (k - r) * excess is the inversion count
        codim = sum((k - e["rank"]) * e["excess"] for e in doc["sets"])
        if codim != oracle.inversions(window):
            return f"sum (k-r)*excess = {codim}, inversions {oracle.inversions(window)}"
        return None

    return check


def _check_codim(window):
    return _check_value(lambda: "{0} {0}\n".format(oracle.inversions(window)))


def _check_rank(window, start, length):
    return _check_value(lambda: f"{oracle.interval_rank(window, start, length)}\n")


def _check_retrieved(window):
    doc = {"n": len(window), "window": window}
    return _check_value(lambda: json.dumps(doc) + "\n")


def _check_polytope(window):
    """One inequality per proper connected entry, with its rank as rhs."""

    def check(output):
        problem, out = _ok(output)
        if problem:
            return problem
        n, k = len(window), oracle.full_rank(window)
        doc = json.loads(out)
        if doc["k"] != k or doc["equality"] != {"coefficients": [1] * n, "rhs": k}:
            return f"k {doc['k']}, equality {doc['equality']}, expected k = {k}"
        connected = oracle.connected(n, oracle.essential_family(window))
        want = sorted((s, l, r) for r, s, l in connected if l < n)
        got = sorted((i["start"], i["len"], i["rhs"]) for i in doc["inequalities"])
        if got != want:
            return f"inequalities {got} differ from the proper connected entries {want}"
        return None

    return check


def _check_violations(on_stdout: bool):
    def check(output):
        code, out, err = output
        if code != 3:
            return f"exit {code}, expected 3"
        listed, other = (out, err) if on_stdout else (err, out)
        lines = listed.splitlines()
        if other or not lines or not all(VIOLATION_LINE.match(l) for l in lines):
            return f"violation list malformed: {listed[:200]!r}"
        return None

    return check


def _check_retrieve_error(output):
    code, out, err = output
    kind = err.strip().removeprefix("error: ")
    if code != 2 or out or kind not in RETRIEVE_KINDS:
        return f"exit {code}, stderr {err[:200]!r}, expected exit 2 with an error kind"
    return None


def _check_bases(window):
    def check(output):
        problem, out = _ok(output)
        if problem:
            return problem
        got = [tuple(b) for b in json.loads(out)]
        return None if got == oracle.brute_force_bases(window) else "bases differ"

    return check


def _check_from_matrix(entries):
    def check(output):
        problem, out = _ok(output)
        if problem:
            return problem
        window = json.loads(out)["window"]
        if not oracle.is_bounded_affine(window):
            return f"window {window} is not a bounded affine permutation"
        if oracle.brute_force_bases(window) != oracle.nonzero_minor_sets(entries):
            return f"bases of {window} differ from the nonzero maximal minors"
        return None

    return check


def _check_enumerate(n: int):
    def check(output):
        problem, out = _ok(output)
        if problem:
            return problem
        windows = []
        for line in out.splitlines():
            doc = json.loads(line)
            if doc["n"] != n or not oracle.is_bounded_affine(doc["window"]):
                return f"line {line!r} is not a bounded affine permutation"
            windows.append(doc["window"])
        if len(windows) != oracle.count_bounded_affine(n):
            return f"{len(windows)} windows, expected {oracle.count_bounded_affine(n)}"
        if any(a >= b for a, b in zip(windows, windows[1:])):
            return "windows not strictly increasing in lexicographic order"
        return None

    return check


# ---------------------------------------------------------------- inputs


def _perm(window):
    return BoundedAffinePermutation.from_window(window)


def pick_strata(rng: random.Random, items: list, count: int, key) -> list:
    """One item from each of ``count`` consecutive groups of ``items`` sorted by ``key``."""
    ordered = sorted(items, key=key)
    size = len(ordered)
    return [
        rng.choice(ordered[g * size // count : (g + 1) * size // count])
        for g in range(count)
    ]


def stratified(rng: random.Random, n: int, count: int, by_rank: bool = False):
    """``count`` (window, family) pairs drawn from three times as many
    candidates, stratified by family size (by rank first, if by_rank)."""
    candidates = []
    for _ in range(3 * count):
        window = oracle.criterion08_window(rng, n)
        candidates.append((window, diagram.ranked_essential_family(_perm(window))))
    return pick_strata(
        rng, candidates, count,
        key=lambda c: (c[1].k if by_rank else 0, len(c[1].entries)),
    )


def _interval(rng: random.Random, n: int) -> tuple[int, int]:
    return rng.randint(1, n), rng.randint(1, n - 1)


def _conditions_doc(n: int, entries) -> dict:
    return {
        "n": n,
        "conditions": [{"rank": r, "start": s, "len": l} for r, s, l in entries],
    }


def _family_entries(family) -> list[list[int]]:
    return [[r, iv.start, iv.length] for r, iv in family.entries]


def _family_doc(n: int, k: int, entries) -> dict:
    return {
        "n": n,
        "k": k,
        "sets": [{"rank": r, "start": s, "len": l} for r, s, l in entries],
    }


def _nested_pairs(entries, n):
    """(inner index, outer index) for proper inner intervals inside another entry."""
    masks = [sum(1 << ((s + t - 1) % n) for t in range(l)) for _, s, l in entries]
    return [
        (a, b)
        for a in range(len(entries))
        for b in range(len(entries))
        if a != b and entries[a][2] < n and masks[a] & ~masks[b] == 0
    ]


# inputs per n; the lo and hi cells get the most, so their medians
# depend little on the seed.  (inputs, stride): the lo and hi op kind
# (essentials, validate) runs on every input, the other ops on every
# stride-th, so those cells get many inputs at a modest cost
PERM_SIZES = {16: (96, 1), 24: (24, 1), 40: (128, 2)}
FAMILY_SIZES = {16: (96, 1), 20: (16, 1), 24: (96, 2)}
REJECT_SIZES = {16: (180, 2), 20: (15, 1), 24: (180, 2)}


def perm_route(seed: int) -> Workload:
    rng = random.Random(f"perm_route:{seed}")
    ops = []
    for n, (count, stride) in PERM_SIZES.items():
        for idx, (window, family) in enumerate(stratified(rng, n, count)):
            doc, key = {"n": n, "window": window}, f"{n}.{idx}"
            ops.append(cli_op(f"essentials@{n}", key,
                              ["essentials", "-", "--excess", "--core", "--connected"],
                              doc, _check_essentials(window)))
            if idx % stride:
                continue
            start, length = _interval(rng, n)
            conditions = [
                [r, iv.start, iv.length]
                for r, iv in retrieval.core_conditions(family).intervals()
            ]
            for _ in range(3):
                s, l = _interval(rng, n)
                conditions.append([oracle.interval_rank(window, s, l), s, l])
            ops += [
                cli_op(f"codim@{n}", key, ["codim", "-", "--both"], doc,
                       _check_codim(window)),
                cli_op(f"rank@{n}", key,
                       ["rank", "-", "--interval", f"{start},{length}", "--both"],
                       doc, _check_rank(window, start, length)),
                cli_op(f"retrieve@{n}", key, ["retrieve", "-"],
                       _conditions_doc(n, conditions),
                       _check_retrieved(window)),
            ]
    return Workload("perm_route", ops, "essentials@16", "essentials@40")


def family_route(seed: int) -> Workload:
    rng = random.Random(f"family_route:{seed}")
    ops = []
    for n, (count, stride) in FAMILY_SIZES.items():
        for idx, (window, family) in enumerate(stratified(rng, n, count)):
            doc, key = family.to_json(), f"{n}.{idx}"
            start, length = _interval(rng, n)
            ops.append(cli_op(f"validate@{n}", key, ["validate", "-"], doc,
                              _check_value(lambda: "valid\n")))
            if idx % stride:
                continue
            ops += [
                cli_op(f"codim@{n}", key, ["codim", "-", "--both"], doc,
                       _check_codim(window)),
                cli_op(f"rank@{n}", key,
                       ["rank", "-", "--interval", f"{start},{length}", "--both"],
                       doc, _check_rank(window, start, length)),
                cli_op(f"polytope@{n}", key, ["polytope", "-"], doc,
                       _check_polytope(window)),
            ]
    return Workload("family_route", ops, "validate@16", "validate@24")


def _round_trip_rejects(n: int, entries) -> bool:
    """The certificate: a family is valid exactly when retrieving its
    conditions succeeds and re-extracting the family gives it back."""
    conditions = retrieval.RankConditionSet(
        n, tuple(sorted((r, (s, l)) for r, s, l in entries))
    )
    try:
        perm = retrieval.retrieve(conditions)
    except retrieval.InvalidInput:
        return True
    again = _family_entries(diagram.ranked_essential_family(perm))
    return sorted(again) != sorted(entries)


def _raise_to_length(rng, entries, n, extra: int = 0) -> bool:
    """Raise a proper entry's label to its length plus ``extra``."""
    entry = rng.choice([e for e in entries if e[2] < n])
    entry[0] = entry[2] + extra
    return True


def _raise_inner(rng, entries, n) -> bool:
    """Raise an inner interval's label above that of an entry containing it."""
    pairs = _nested_pairs(entries, n)
    if not pairs:
        return False
    inner, outer = rng.choice(pairs)
    entries[inner][0] = entries[outer][0] + 1
    return True


def _near_miss(rng, entries, n) -> bool:
    """Move one label by +-1, keeping the first move the certificate rejects."""
    moves = [(i, d) for i, (r, _, l) in enumerate(entries) if l < n for d in (-1, 1)
             if r + d >= 0]
    rng.shuffle(moves)
    for i, d in moves:
        entries[i][0] += d
        if _round_trip_rejects(n, entries):
            return True
        entries[i][0] -= d
    return False


def reject(seed: int) -> Workload:
    rng = random.Random(f"reject:{seed}")
    ops = []
    for n, (count, stride) in REJECT_SIZES.items():
        for idx, (_, family) in enumerate(stratified(rng, n, count)):
            key = f"{n}.{idx}"
            entries = _family_entries(family)
            spoil = (_raise_to_length, _raise_inner, _near_miss)[idx % 3]
            # no nested pair, or every +-1 move still valid: raise to length
            spoil(rng, entries, n) or _raise_to_length(rng, entries, n)
            doc = _family_doc(n, family.k, entries)
            ops.append(cli_op(f"validate@{n}", key, ["validate", "-"], doc,
                              _check_violations(on_stdout=True)))
            if idx % stride:
                continue
            # a condition set: one rank above its interval's size, or an
            # inner rank above an outer one
            conditions = _family_entries(family)
            if idx // stride % 2 == 0 or not _raise_inner(rng, conditions, n):
                _raise_to_length(rng, conditions, n, extra=1)
            ops += [
                cli_op(f"polytope@{n}", key, ["polytope", "-"], doc,
                       _check_violations(on_stdout=False)),
                cli_op(f"retrieve@{n}", key, ["retrieve", "-"],
                       _conditions_doc(n, conditions), _check_retrieve_error),
            ]
    return Workload("reject", ops, "validate@16", "validate@24")


def boundary_pool() -> list[list[int]]:
    """The fixed pool the seeded boundary-count inputs are drawn from; the
    stored table holds the count of every pool member."""
    rng = random.Random(BOUNDARY_POOL_SEED)
    pool: list[list[int]] = []
    while len(pool) < BOUNDARY_POOL_SIZE:
        window = oracle.criterion08_window(rng, BOUNDARY_POOL_N)
        if window not in pool:
            pool.append(window)
    return pool


def window_key(window) -> str:
    return ",".join(map(str, window))


def _boundary_pool_counts() -> tuple[list[list[int]], dict[str, int]]:
    """The pool and its stored counts; every pool window must have one."""
    pool = boundary_pool()
    table = json.loads(BOUNDARY_TABLE.read_text())["counts"]
    missing = [w for w in pool if window_key(w) not in table]
    if missing:
        raise SystemExit(f"{BOUNDARY_TABLE.name} lacks {len(missing)} pool windows; "
                         "regenerate it with perfbench/boundary_table.py")
    return pool, table


def _rank1_window(rng: random.Random, n: int) -> list[int]:
    """A rank-1 positroid: one parallel class S, loops elsewhere; pi sends
    each element of S to the next one cyclically (itself plus n if alone)."""
    members = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
    window = list(range(1, n + 1))
    for a, b in zip(members, members[1:] + [members[0] + n]):
        window[a - 1] = b
    return window


def _tnn_matrix(rng: random.Random, k: int, n: int) -> list[list[Fraction]]:
    """Vandermonde columns (1, x, ..., x^(k-1)) at increasing positive
    nodes, some repeated from the column before and some zeroed: every
    maximal minor in increasing column order is then >= 0."""
    while True:
        nodes, columns = Fraction(0), []
        for j in range(n):
            roll = rng.random()
            if j and roll < 0.2:
                columns.append(columns[-1])
            elif roll < 0.3:
                columns.append([Fraction(0)] * k)
            else:
                nodes += Fraction(rng.randint(1, 5), rng.randint(1, 3))
                columns.append([nodes**p for p in range(k)])
        if len({tuple(c) for c in columns if any(c)}) >= k:
            return [[columns[j][i] for j in range(n)] for i in range(k)]


def _rank2_classes(rng: random.Random, n: int) -> list[list[int]]:
    cuts = sorted(rng.sample(range(1, n + 1), rng.randint(2, 6)))
    return [
        [(e - 1) % n + 1 for e in range(a, b)]
        for a, b in zip(cuts, cuts[1:] + [cuts[0] + n])
    ]


def _check_boundary(expected: Callable[[], int]):
    def check(result):
        want = expected()
        return None if result == want else f"boundary count {result}, expected {want}"

    return check


def _check_flats(classes, n, family):
    def check(result):
        got = result.as_set()
        if got != oracle.rank2_deficient_flats(classes, n):
            return f"deficient flats of classes {classes} differ"
        if got != smallrank.family_as_flat_entries(family):
            return "deficient flats differ from the family's deficient pairs"
        return None

    return check


BOUNDARY_COUNT, RANK1_COUNT = 20, 2
BASES_SIZES = {10: 16, 12: 64, 14: 8}
MATRIX_SIZES = {8: 8, 9: 8, 10: 8}
FLATS_N, FLATS_COUNT = 10, 12
ENUMERATE_N = 7


def exhaustive(seed: int) -> Workload:
    rng = random.Random(f"exhaustive:{seed}")
    pool, table = _boundary_pool_counts()
    ops = []
    # stratified by rank: the count's cost is mostly set by how many
    # permutations of that rank it scans
    windows = pick_strata(rng, pool, BOUNDARY_COUNT, key=oracle.full_rank)
    for idx, window in enumerate(windows):
        ops.append(lib_op(f"boundary@{BOUNDARY_POOL_N}", f"pool.{idx}", geometry,
                          "codim1_boundary_count", _perm(window),
                          _check_boundary(lambda w=window: table[window_key(w)])))
    for idx in range(RANK1_COUNT):
        window = _rank1_window(rng, BOUNDARY_POOL_N)
        ops.append(lib_op(f"boundary@{BOUNDARY_POOL_N}", f"rank1.{idx}", geometry,
                          "codim1_boundary_count", _perm(window),
                          _check_boundary(lambda: 0)))
    for n, count in BASES_SIZES.items():
        for idx, (window, family) in enumerate(stratified(rng, n, count, by_rank=True)):
            ops.append(cli_op(f"bases@{n}", f"{n}.{idx}", ["bases", "-"],
                              family.to_json(), _check_bases(window)))
    for n, count in MATRIX_SIZES.items():
        for idx in range(count):
            entries = _tnn_matrix(rng, rng.randint(2, 4), n)
            doc = {"k": len(entries), "n": n,
                   "entries": [[str(x) for x in row] for row in entries]}
            ops.append(cli_op(f"from-matrix@{n}", f"{n}.{idx}",
                              ["from-matrix", "-", "--check-nonneg"], doc,
                              _check_from_matrix(entries)))
    for idx in range(FLATS_COUNT):
        classes = _rank2_classes(rng, FLATS_N)
        family = diagram.ranked_essential_family(
            _perm(oracle.rank2_window(classes, FLATS_N)))
        ops.append(lib_op(f"deficient_flats@{FLATS_N}", f"{FLATS_N}.{idx}", smallrank,
                          "deficient_flats", family, _check_flats(classes, FLATS_N, family)))
    ops.append(cli_op(f"enumerate@{ENUMERATE_N}", "all", ["enumerate", "--n", str(ENUMERATE_N)],
                      None, _check_enumerate(ENUMERATE_N)))
    return Workload("exhaustive", ops, "bases@12", f"boundary@{BOUNDARY_POOL_N}")


def running_example_problem() -> str | None:
    """The paper's running example has 9 codimension-one boundary cells.
    At n = 8 the count takes about 2 s, so it is checked once per
    exhaustive run instead of being timed."""
    count = geometry.codim1_boundary_count(_perm(RUNNING_EXAMPLE))
    return None if count == 9 else f"running example has {count} boundary cells, not 9"


WORKLOADS = {w.__name__: w for w in (perm_route, family_route, reject, exhaustive)}
