"""
Command-line interface: every operation behind one binary with JSON or
text I/O and machine-parsable errors.

Inputs are JSON files (or ``-`` for stdin).  Permutations are
``{"n": 8, "window": [...]}``, families ``{"n": .., "k": .., "sets":
[{"rank": .., "start": .., "len": ..}, ...]}`` (the full-set entry may be
omitted), rank conditions ``{"n": .., "conditions": [...]}`` with the
same per-set schema, matrices ``{"k": .., "n": .., "entries": [[...]]}``
with entries as integers, decimals, or "p/q" strings.

Exit codes: 0 success, 1 malformed input or a usage error (argparse's
usage text and message go to stderr), 2 inconsistent rank conditions
(retrieve), 3 validation failure, 4 the two routes of ``rank --both`` or
``codim --both`` disagree.  Collections are serialized in a fixed
canonical order so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import diagram, essential, geometry, realize, retrieval, smallrank
from .core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_permutations,
    json_int,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INVALID_INPUT = 2
EXIT_INVALID_FAMILY = 3
EXIT_ROUTES_DISAGREE = 4


class _Malformed(Exception):
    pass


class _Disagreement(Exception):
    """The two computation routes of a --both command gave different values."""


def _read_json(path: str) -> dict:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as e:
        raise _Malformed(str(e))
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise _Malformed(f"invalid JSON: {e}")


def _load_permutation(obj: dict) -> BoundedAffinePermutation:
    try:
        return BoundedAffinePermutation.from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise _Malformed(f"bad permutation: {e}")


def _load_family(obj: dict) -> essential.RankedEssentialFamily:
    try:
        return essential.RankedEssentialFamily.from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise _Malformed(f"bad family: {e}")


def _load_perm_or_family(obj: dict):
    if isinstance(obj, dict) and "window" in obj:
        return _load_permutation(obj), None
    if isinstance(obj, dict) and "sets" in obj:
        return None, _load_family(obj)
    raise _Malformed("expected a permutation ('window') or a family ('sets')")


def _dump(obj) -> str:
    return json.dumps(obj)


def _annotated_family_json(family, with_excess, with_core, with_connected) -> dict:
    out = family.to_json()
    if with_excess or with_core:
        table = essential.excess(family)
    if with_connected:
        connected = set(essential.connected_entries(family))
    for entry_json, entry in zip(out["sets"], family.entries):
        if with_excess:
            entry_json["excess"] = table[entry[1]]
        if with_core:  # the core is the entries of positive excess
            entry_json["core"] = table[entry[1]] > 0
        if with_connected:
            entry_json["connected"] = entry in connected
    return out


def _cmd_essentials(args) -> int:
    p = _load_permutation(_read_json(args.input))
    family = diagram.ranked_essential_family(p)
    out = _annotated_family_json(family, args.excess, args.core, args.connected)
    if args.format == "json":
        print(_dump(out))
    else:
        for entry in out["sets"]:
            print(" ".join(f"{key}={value}" for key, value in entry.items()))
    if args.diagram:
        print(diagram.render(p))
    return EXIT_OK


def _cmd_diagram(args) -> int:
    p = _load_permutation(_read_json(args.input))
    print(diagram.render(p))
    return EXIT_OK


def _parse_interval(n: int, spec: str) -> CyclicInterval:
    try:
        start, length = (int(x) for x in spec.split(","))
        return CyclicInterval(n, start, length)
    except ValueError as e:
        raise _Malformed(f"bad interval '{spec}': {e}")


def _cmd_rank(args) -> int:
    perm, family = _load_perm_or_family(_read_json(args.input))
    n = perm.n if perm else family.n
    interval = _parse_interval(n, args.interval)
    if perm is not None:
        direct = perm.rank_interval(interval)
        if args.both:
            via_family = essential.rank_from_family(
                diagram.ranked_essential_family(perm), interval
            )
            if direct != via_family:
                raise _Disagreement(
                    f"rank disagreement: permutation {direct}, family {via_family}"
                )
    else:
        perm = essential.permutation_from_family(family)  # the certificate
        direct = essential.rank_from_family(family, interval)
        if args.both:
            via_perm = perm.rank_interval(interval)
            if direct != via_perm:
                raise _Disagreement(
                    f"rank disagreement: family {direct}, permutation {via_perm}"
                )
    print(direct)
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    obj = _read_json(args.input)
    try:
        conditions = retrieval.RankConditionSet.from_json(obj)
    except (KeyError, TypeError, ValueError) as e:
        raise _Malformed(f"bad conditions: {e}")
    try:
        if args.trace:
            perm, trace = retrieval.retrieve(conditions, trace=True)
            for event in trace:
                print(_dump(event.to_json()))
        else:
            perm = retrieval.retrieve(conditions)
    except retrieval.InvalidInput as e:
        if args.trace and e.trace is not None:
            for event in e.trace:
                print(_dump(event.to_json()))
        print(f"error: {e.kind}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    _print_window(args.format, perm.n, list(perm.window))
    return EXIT_OK


def _cmd_validate(args) -> int:
    family = _load_family(_read_json(args.input))
    try:
        essential.validated(family)
    except essential.NotValidated as e:
        for v in e.violations:
            print(str(v))
        return EXIT_INVALID_FAMILY
    print("valid")
    return EXIT_OK


def _cmd_codim(args) -> int:
    perm, family = _load_perm_or_family(_read_json(args.input))
    if perm is not None:
        value = geometry.length(perm)
        if args.both:
            other = geometry.codim_from_family(diagram.ranked_essential_family(perm))
            if value != other:
                raise _Disagreement(f"codim disagreement: {value} vs {other}")
            print(value, other)
            return EXIT_OK
    else:
        perm = essential.permutation_from_family(family)  # the certificate
        value = geometry.codim_from_family(family)
        if args.both:
            other = geometry.length(perm)
            if value != other:
                raise _Disagreement(f"codim disagreement: {value} vs {other}")
            print(value, other)
            return EXIT_OK
    print(value)
    return EXIT_OK


def _cmd_polytope(args) -> int:
    family = essential.validated(_load_family(_read_json(args.input)))
    system = geometry.facet_system(family)
    if args.h_rep or args.format == "text":
        print(system.h_rep_text())
    else:
        print(_dump(system.to_json()))
    return EXIT_OK


def _sharded(jobs: int, func, firsts: range, *args) -> list:
    """The concatenation of func(*args, first=f) over firsts, in order, on
    at most min(jobs, CPUs, shards) worker processes."""
    workers = max(1, min(jobs, os.cpu_count() or 1, len(firsts)))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(func, *args, first=f) for f in firsts]
        return [item for future in futures for item in future.result()]


def _cmd_bases(args) -> int:
    family = _load_family(_read_json(args.input))
    perm = essential.permutation_from_family(family)  # the certificate
    n, k = family.n, family.k
    if args.jobs > 1 and k > 0:
        geometry.TooLarge.check(n, geometry.BASES_BOUND)
        found = _sharded(args.jobs, geometry.bases, range(1, n - k + 2), perm)
    else:
        found = geometry.bases(perm)
    if args.format == "json":
        print(_dump([list(b) for b in found]))
    else:
        for b in found:
            print(" ".join(str(e) for e in b))
    return EXIT_OK


def _cmd_from_matrix(args) -> int:
    try:
        matrix = realize.RationalMatrix.from_json(_read_json(args.input))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise _Malformed(f"bad matrix: {e}")
    perm = realize.permutation_from_matrix(matrix)
    _print_window(args.format, perm.n, list(perm.window))
    return EXIT_OK


def _enumerate_shard(n: int, k: int | None, first: int) -> list[list[int]]:
    return [list(p.window) for p in enumerate_permutations(n, k=k, first=first)]


def _cmd_enumerate(args) -> int:
    n, k = args.n, args.k
    perms = enumerate_permutations(n, k=k)  # refuses n < 1 before any worker starts
    if args.jobs > 1:
        windows = _sharded(args.jobs, _enumerate_shard, range(1, n + 2), n, k)
    else:
        windows = (list(p.window) for p in perms)
    for window in windows:
        _print_window(args.format, n, window)
    return EXIT_OK


def _cmd_rank2(args) -> int:
    obj = _read_json(args.input)
    try:
        n = json_int(obj["n"])
        classes = [[json_int(e) for e in cls] for cls in obj["classes"]]
        loops = [json_int(e) for e in obj.get("loops", [])]
        verdict = smallrank.is_positroid_rank2(n, classes, loops)
    except (smallrank.NotRank2, smallrank.HasLoop) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except (KeyError, TypeError, ValueError) as e:
        raise _Malformed(f"bad classes: {e}")
    if args.format == "json":
        print(_dump({"positroid": verdict}))
    else:
        print("positroid" if verdict else "not-positroid")
    return EXIT_OK


def _print_window(fmt: str, n: int, window: list[int]) -> None:
    if fmt == "json":
        print(_dump({"n": n, "window": window}))
    else:
        print(" ".join(str(v) for v in window))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="positroids",
        description="positroid calculus via ranked essential sets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_input=True, with_format=True):
        p = sub.add_parser(name, help=help_text)
        if with_input:
            p.add_argument("input", help="JSON input path, or - for stdin")
        if with_format:
            p.add_argument("--format", choices=["json", "text"], default="json")
        p.set_defaults(func=func)
        return p

    p = add("essentials", _cmd_essentials, "ranked essential family of a permutation")
    p.add_argument("--diagram", action="store_true", help="also render the array")
    p.add_argument("--excess", action="store_true", help="annotate entries with excess")
    p.add_argument("--core", action="store_true", help="annotate core membership")
    p.add_argument("--connected", action="store_true", help="annotate connectedness")

    add("diagram", _cmd_diagram, "text rendering of the dotted array",
        with_format=False)

    p = add("rank", _cmd_rank, "rank of a cyclic interval", with_format=False)
    p.add_argument("--interval", required=True, metavar="START,LEN")
    p.add_argument("--both", action="store_true", help="assert both routes agree")

    p = add("retrieve", _cmd_retrieve, "permutation from rank conditions")
    p.add_argument("--trace", action="store_true", help="emit one JSON event per line")

    add("validate", _cmd_validate, "check a family against the essential-set axioms",
        with_format=False)

    p = add("codim", _cmd_codim, "positroid cell codimension", with_format=False)
    p.add_argument("--both", action="store_true", help="assert both formulas agree")

    p = add("polytope", _cmd_polytope, "facet system of the positroid polytope")
    p.add_argument("--h-rep", action="store_true", help="plain-text H-representation")

    p = add("bases", _cmd_bases, "all bases of the positroid")
    p.add_argument("--jobs", type=int, default=1)

    p = add("from-matrix", _cmd_from_matrix, "permutation of a realized positroid")
    p.add_argument("--check-nonneg", action="store_true",
                   help="kept for compatibility: the minor-sign check always runs")

    p = add("enumerate", _cmd_enumerate, "stream all bounded affine permutations",
            with_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    add("rank2", _cmd_rank2, "positroid test for a loopless rank-2 matroid")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse printed the help (0) or a usage error
        return EXIT_OK if e.code == 0 else EXIT_MALFORMED
    try:
        return args.func(args)
    except _Malformed as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except _Disagreement as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ROUTES_DISAGREE
    except ValueError as e:
        if isinstance(e, essential.NotValidated):
            for v in e.violations:
                print(str(v), file=sys.stderr)
            return EXIT_INVALID_FAMILY
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except BrokenPipeError:
        return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
