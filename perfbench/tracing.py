"""Per-layer spans and counters, installed from outside the program.

The layers are the modules of ``positroids``.  ``Tracer`` wraps every
public module-level function and public classmethod of every layer but
``core`` in a span recorder: name, start, end, parent span and op id.
It rebinds the names other modules took with ``from .x import y`` too,
so ``geometry.connected_entries`` records as ``essential.connected_entries``.
``core`` is not spanned, because its methods run millions of times per
run; its time stays in its callers' self time.  ``Counter`` instead counts
calls of a few hot methods, in a pass of its own.

Both put their wrappers in place only inside ``installed()``, and
restore every patched name on leaving it.
"""

from __future__ import annotations

import gzip
import inspect
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from positroids import (
    cli,
    core,
    diagram,
    essential,
    geometry,
    realize,
    retrieval,
    smallrank,
)

SPANNED_LAYERS = (cli, diagram, essential, retrieval, geometry, smallrank, realize)

# per-layer metric -> span name; a .ms metric is the median span duration
MEDIAN_MS = {
    "diagram.family.ms": "diagram.ranked_essential_family",
    "essential.validate_chess.ms": "essential.validate_chess",
    "essential.permutation_from_family.ms": "essential.permutation_from_family",
    "essential.connected_entries.ms": "essential.connected_entries",
    "essential.excess.ms": "essential.excess",
    "retrieval.retrieve.ms": "retrieval.retrieve",
    "geometry.boundary_count.ms": "geometry.codim1_boundary_count",
    "geometry.bases.ms": "geometry.bases",
    "geometry.facet_system.ms": "geometry.facet_system",
    "realize.from_matrix.ms": "realize.permutation_from_matrix",
    "realize.nonneg_check.ms": "realize.is_positively_realizing",
    "smallrank.deficient_flats.ms": "smallrank.deficient_flats",
}
# per-layer metric -> span name; a .calls metric is spans per op
CALLS_PER_OP = {
    "essential.validate_chess.calls": "essential.validate_chess",
    "essential.rank_from_family.calls": "essential.rank_from_family",
}
# per-layer metric -> (owner, attribute) counted in the counting pass, per op
COUNTED = {
    "core.mask.calls": (core.CyclicInterval, "mask"),
    "core.rank_interval.calls": (core.BoundedAffinePermutation, "rank_interval"),
    "core.eval.calls": (core.BoundedAffinePermutation, "eval"),
    "retrieval.d.calls": (retrieval.ProperDotting, "d"),
    "retrieval.dots_placed": (retrieval.ProperDotting, "place"),
}
YIELDED = "core.enumerate.yielded"
SCAN_RATIO = "geometry.boundary_scan_ratio"
OVERHEAD = "trace.overhead_pct"

SELF_MS = [f"{m.__name__.rsplit('.', 1)[1]}.self_ms" for m in SPANNED_LAYERS]
PER_LAYER = (
    [(name, "ms/op") for name in SELF_MS]
    + [(name, "ms") for name in MEDIAN_MS]
    + [(name, "calls/op") for name in CALLS_PER_OP]
    + [(name, "calls/op") for name in COUNTED]
    + [(YIELDED, "count/op"), (SCAN_RATIO, "ratio"), (OVERHEAD, "%")]
)


class _Patches:
    """Attribute replacements on modules and classes, put in place only
    inside ``installed()``."""

    def __init__(self):
        self._patches: list[tuple[object, str, object, object]] = []

    def add(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name], value))

    def add_rebinds(self, replaced: dict[int, object]) -> None:
        """Also replace every module-level name bound to a replaced
        function, for names taken with ``from .x import y``."""
        done = {(id(owner), name) for owner, name, _, _ in self._patches}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "positroids" and not mod_name.startswith("positroids."):
                continue
            for name, value in list(vars(module).items()):
                new = replaced.get(id(value))
                if new is not None and (id(module), name) not in done:
                    self.add(module, name, new)

    @contextmanager
    def installed(self):
        for owner, name, _, value in self._patches:
            setattr(owner, name, value)
        try:
            yield
        finally:
            for owner, name, original, _ in reversed(self._patches):
                setattr(owner, name, original)


def _layer_name(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


class Tracer:
    """Records one span per call of a public layer function."""

    def __init__(self):
        self.spans: list = []  # (op, span, parent, name, start, end)
        self.op = -1
        self._stack: list[int] = []
        self._patches = _Patches()
        replaced: dict[int, object] = {}
        for module in SPANNED_LAYERS:
            layer = _layer_name(module)
            for name, value in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrapper = self._wrap(f"{layer}.{name}", value)
                    replaced[id(value)] = wrapper
                    self._patches.add(module, name, wrapper)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for attr, member in list(vars(value).items()):
                        if isinstance(member, classmethod) and not attr.startswith("_"):
                            wrapped = self._wrap(f"{layer}.{name}.{attr}", member.__func__)
                            self._patches.add(value, attr, classmethod(wrapped))
        self._patches.add_rebinds(replaced)
        self.installed = self._patches.installed

    def _wrap(self, span_name: str, func):
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (tracer.op, index, parent, span_name, start, end)

        traced.__wrapped__ = func
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as f:
            f.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for op, span, parent, name, start, end in self.spans:
                f.write(f"{op}\t{span}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")

    def metrics(self, ops: int) -> dict[str, float]:
        """Self time per op for each layer, median durations, calls per op."""
        child_time = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = defaultdict(float)
        durations = defaultdict(list)
        for _, index, _, name, start, end in self.spans:
            self_time[name.split(".", 1)[0]] += end - start - child_time[index]
            durations[name].append(end - start)
        out = {}
        for module in SPANNED_LAYERS:
            layer = _layer_name(module)
            out[f"{layer}.self_ms"] = 1000 * self_time[layer] / ops
        for metric, name in MEDIAN_MS.items():
            spans = durations.get(name)
            out[metric] = 1000 * statistics.median(spans) if spans else 0.0
        for metric, name in CALLS_PER_OP.items():
            out[metric] = len(durations.get(name, ())) / ops
        return out


class Counter:
    """Counts calls of core and retrieval hot methods, permutations yielded
    by the enumerator, and how many of them each boundary count scanned."""

    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.scanned = self.boundary_cells = 0
        self._patches = _Patches()
        for metric, (owner, attr) in COUNTED.items():
            self._patches.add(owner, attr, self._count(metric, vars(owner)[attr]))
        enumerate_permutations = core.enumerate_permutations
        counting = self._count_yields(enumerate_permutations)
        self._patches.add(core, "enumerate_permutations", counting)
        self._patches.add_rebinds({id(enumerate_permutations): counting})
        self._patches.add(geometry, "codim1_boundary_count",
                          self._scan(geometry.codim1_boundary_count))
        self.installed = self._patches.installed

    def _count(self, metric: str, func):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[metric] += 1
            return func(*args, **kwargs)

        return counted

    def _count_yields(self, func):
        counts = self.counts

        def items(iterator):
            for item in iterator:
                counts[YIELDED] += 1
                yield item

        def counted(*args, **kwargs):
            return items(func(*args, **kwargs))

        return counted

    def _scan(self, func):
        def counted(*args, **kwargs):
            before = self.counts[YIELDED]
            cells = func(*args, **kwargs)
            self.scanned += self.counts[YIELDED] - before
            self.boundary_cells += cells
            return cells

        return counted

    def metrics(self, ops: int) -> dict[str, float]:
        out = {metric: self.counts[metric] / ops for metric in COUNTED}
        out[YIELDED] = self.counts[YIELDED] / ops
        out[SCAN_RATIO] = (
            self.scanned / self.boundary_cells if self.boundary_cells else 0.0
        )
        return out
