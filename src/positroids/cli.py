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
import sys
from pathlib import Path
from typing import Iterable, Iterator

from . import diagram, essential, geometry, realize, retrieval, smallrank
from .core import (
    BoundedAffinePermutation,
    CyclicInterval,
    enumerate_windows,
    json_array,
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


def _parsed(what: str, parse, arg):
    """``parse(arg)``, an error of a malformed document raised as
    ``_Malformed`` with "bad <what>: " before its message."""
    try:
        return parse(arg)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise _Malformed(f"bad {what}: {e}")


def _load_permutation(obj: dict) -> BoundedAffinePermutation:
    return _parsed("permutation", BoundedAffinePermutation.from_json, obj)


def _load_family(obj: dict) -> essential.RankedEssentialFamily:
    return _parsed("family", essential.RankedEssentialFamily.from_json, obj)


def _load_perm_or_family(obj: dict):
    if isinstance(obj, dict) and "window" in obj:
        return _load_permutation(obj), None
    if isinstance(obj, dict) and "sets" in obj:
        return None, _load_family(obj)
    raise _Malformed("expected a permutation ('window') or a family ('sets')")


def _cmd_essentials(args) -> int:
    p = _load_permutation(_read_json(args.input))
    family = diagram.ranked_essential_family(p)
    print(_essentials_text(args.format, family, args.excess, args.core, args.connected))
    if args.diagram:
        print(diagram.render(p))
    return EXIT_OK


def _essentials_text(fmt, family, with_excess, with_core, with_connected) -> str:
    """The family, each entry annotated from the excess values and
    connected flags aligned with its triples, so no interval is built.
    Each entry is one ``%`` template filled from its values: in JSON,
    byte for byte the ``json.dumps`` of ``to_json`` with the keys
    excess, core and connected added in that order, which prints an int
    as ``str`` does; in text, one line of key=value pairs per entry."""
    starts, lengths, ranks = zip(*family.triples)  # never empty: the full set is there
    columns = {"rank": ranks, "start": starts, "len": lengths}
    words = ("false", "true") if fmt == "json" else ("False", "True")
    if with_excess or with_core:
        values = essential.excess(family)
        if with_excess:
            columns["excess"] = values
        if with_core:  # the core is the entries of positive excess
            columns["core"] = [words[value > 0] for value in values]
    if with_connected:
        columns["connected"] = [words[flag] for flag in essential.connected_flags(family)]
    rows = zip(*columns.values())
    if fmt == "json":
        template = "{" + ", ".join(['"%s": %%s' % key for key in columns]) + "}"
        sets = ", ".join([template % row for row in rows])
        return '{"n": %d, "k": %d, "sets": [%s]}' % (family.n, family.k, sets)
    template = " ".join(["%s=%%s" % key for key in columns])
    return "\n".join([template % row for row in rows])


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


def _two_routes(perm, family, both: bool, by_perm, by_family):
    """The value by the input's own route and, with ``both``, by the other.

    A family is certified first; a permutation's family is extracted only
    for the second route."""
    if perm is None:
        perm = essential.permutation_from_family(family)  # the certificate
        return by_family(family), by_perm(perm) if both else None
    value = by_perm(perm)
    return value, by_family(diagram.ranked_essential_family(perm)) if both else None


def _cmd_rank(args) -> int:
    perm, family = _load_perm_or_family(_read_json(args.input))
    interval = _parse_interval(perm.n if perm else family.n, args.interval)
    value, other = _two_routes(perm, family, args.both, lambda p: p.rank_interval(interval),
                               lambda f: essential.rank_from_family(f, interval))
    if args.both and value != other:
        first, second = ("permutation", "family") if perm else ("family", "permutation")
        raise _Disagreement(f"rank disagreement: {first} {value}, {second} {other}")
    print(value)
    return EXIT_OK


def _cmd_retrieve(args) -> int:
    conditions = _parsed("conditions", retrieval.RankConditionSet.from_json,
                         _read_json(args.input))
    try:
        if args.trace:
            perm, trace = retrieval.retrieve(conditions, trace=True)
            for event in trace:
                print(json.dumps(event.to_json()))
        else:
            perm = retrieval.retrieve(conditions)
    except retrieval.InvalidInput as e:
        if args.trace and e.trace is not None:
            for event in e.trace:
                print(json.dumps(event.to_json()))
        print(f"error: {e.kind}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    _print_window(args.format, perm.n, perm.window)
    return EXIT_OK


def _cmd_validate(args) -> int:
    family = _load_family(_read_json(args.input))
    try:
        essential.permutation_from_family(family)  # the certificate
    except essential.NotValidated as e:
        for v in e.violations:
            print(str(v))
        return EXIT_INVALID_FAMILY
    print("valid")
    return EXIT_OK


def _cmd_codim(args) -> int:
    perm, family = _load_perm_or_family(_read_json(args.input))
    value, other = _two_routes(perm, family, args.both, geometry.length,
                               geometry.codim_from_family)
    if args.both and value != other:
        raise _Disagreement(f"codim disagreement: {value} vs {other}")
    print(*[value, other] if args.both else [value])
    return EXIT_OK


def _cmd_polytope(args) -> int:
    family = _load_family(_read_json(args.input))
    essential.permutation_from_family(family)  # the certificate
    system = geometry.facet_system(family)
    if args.h_rep or args.format == "text":
        print(system.h_rep_text())
    else:
        print(json.dumps(system.to_json()))
    return EXIT_OK


def _cmd_bases(args) -> int:
    family = _load_family(_read_json(args.input))
    essential.permutation_from_family(family)  # certified: the permutation's own family
    geometry.TooLarge.check(family.n, geometry.BASES_BOUND)
    found = geometry._bases(family)
    if args.format == "json":
        print(json.dumps([list(b) for b in found]))
    else:
        for b in found:
            print(" ".join(str(e) for e in b))
    return EXIT_OK


def _cmd_from_matrix(args) -> int:
    # the document is read inside: an undecodable file is a bad matrix
    matrix = _parsed("matrix", lambda path: realize.RationalMatrix.from_json(_read_json(path)),
                     args.input)
    perm = realize.permutation_from_matrix(matrix)
    _print_window(args.format, perm.n, perm.window)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    windows = enumerate_windows(args.n, args.k)
    sys.stdout.writelines(_window_lines(args.format, args.n, windows))
    return EXIT_OK


def _cmd_rank2(args) -> int:
    obj = _read_json(args.input)
    try:
        n = json_int(obj["n"])
        classes = [[json_int(e) for e in json_array(cls)]
                   for cls in json_array(obj["classes"])]
        loops = [json_int(e) for e in json_array(obj.get("loops", []))]
        verdict = smallrank.is_positroid_rank2(n, classes, loops)
    except (smallrank.NotRank2, smallrank.HasLoop) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MALFORMED
    except (KeyError, TypeError, ValueError) as e:
        raise _Malformed(f"bad classes: {e}")
    if args.format == "json":
        print(json.dumps({"positroid": verdict}))
    else:
        print("positroid" if verdict else "not-positroid")
    return EXIT_OK


def _window_lines(
    fmt: str, n: int, windows: Iterable[tuple[int, ...]]
) -> Iterator[str]:
    """One line per window: byte for byte the ``json.dumps`` of
    ``{"n": n, "window": [...]}``, which prints an int as ``str`` does,
    or the values joined by spaces."""
    if fmt == "json":
        head = '{"n": %d, "window": [' % n
        return (head + ", ".join(map(str, w)) + "]}\n" for w in windows)
    return (" ".join(map(str, w)) + "\n" for w in windows)


def _print_window(fmt: str, n: int, window: tuple[int, ...]) -> None:
    sys.stdout.writelines(_window_lines(fmt, n, [window]))


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
    p.add_argument("--jobs", type=int, default=1,
                   help="kept for compatibility: the search always runs serially")

    p = add("from-matrix", _cmd_from_matrix, "permutation of a realized positroid")
    p.add_argument("--check-nonneg", action="store_true",
                   help="kept for compatibility: the minor-sign check always runs")

    p = add("enumerate", _cmd_enumerate, "stream all bounded affine permutations",
            with_input=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="kept for compatibility: the enumeration always runs serially")

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
