"""Per-layer spans and counts, recorded from outside gridcast.

Each span wraps one public function at the module attribute its caller looks
it up by, so no line under ``src/`` changes. Layer modules come from
``importlib`` because ``gridcast/__init__`` binds the name ``construct`` to the
function, which hides the ``gridcast.construct`` module from attribute access.

A span records (name, layer, parent, start, end). A span's self time is its
duration minus its direct children's. Spans are kept for one operation and
folded into per-name totals when it ends, outside the timed region.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import bench_reference as ref

LAYERS = ("cli", "construct", "lattice", "grid", "document", "solver")


def _count_len(key: str):
    def count(tracer, args, result):
        tracer.counts[key] += len(result)
    return count


def _count_replacements(tracer, args, result):
    tracer.counts["construct.replacements"] += len(result.replacements)


def _count_deficiencies(tracer, args, result):
    tracer.counts["grid.deficiencies_reported"] += len(result.deficiencies)


def _defer_stamp_cells(tracer, args, result):
    # Computed after the operation, from the towers the field was built from.
    dims, t, towers = args[0], args[1], args[2]
    tracer.deferred.append((dims.m, dims.n, t, towers))


def _count_search(tracer, args, result):
    witness, nodes = result
    tracer.counts["solver.nodes"] += nodes
    tracer.counts["solver.levels_tried"] += 1
    if witness is not None:
        tracer.counts["solver.final_level_nodes"] += nodes
    tracer.searches.append((args[0], args[1]))


# (module whose attribute is patched, attribute, span name, layer, counter)
SITES = (
    ("cli", "best_anchor_construct", "construct.best_anchor", "construct", None),
    ("construct", "anchor_raw_counts", "construct.anchor_sweep", "construct",
     _count_len("construct.anchors_scanned")),
    ("construct", "count_in_window", "lattice.count_in_window", "lattice", None),
    ("construct", "letterbox_construct", "construct.letterbox", "construct", _count_replacements),
    ("construct", "towers_in_window", "lattice.towers_in_window", "lattice",
     _count_len("lattice.towers_emitted")),
    ("construct", "TowerSet", "grid.towerset", "grid", _count_len("grid.towerset_items")),
    ("construct", "check_broadcast", "grid.check_broadcast", "grid", _count_deficiencies),
    ("render", "check_broadcast", "grid.check_broadcast", "grid", _count_deficiencies),
    ("solver", "check_broadcast", "solver.existence_check", "grid", _count_deficiencies),
    ("grid", "signal_field", "grid.signal_field", "grid", _defer_stamp_cells),
    ("cli", "serialize_document", "document.serialize", "document", _count_len("document.bytes")),
    ("cli", "load_document", "document.parse", "document", None),
    ("cli", "exact_gamma", "solver.exact_gamma", "solver", None),
    ("solver", "find_broadcast_of_size", "solver.search", "solver", _count_search),
)


class Tracer:
    """Spans of the current operation, and totals over all finished ones."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.deferred: list[tuple] = []
        self.searches: list[tuple] = []
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.layer_self: Counter = Counter()

    def wrap(self, fn, name: str, layer: str, count=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, layer, parent, perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def finish_op(self) -> None:
        """Fold the operation's spans into the totals and run deferred counts.

        Call it with the wrappers removed: the solver setup probe must not be
        traced.
        """
        children = [0.0] * len(self.spans)
        for name, layer, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, layer, _, start, end), child in zip(self.spans, children):
            self.inclusive[name] += end - start
            self.self_time[name] += end - start - child
            self.calls[name] += 1
            self.layer_self[layer] += end - start - child
        for m, n, t, towers in self.deferred:
            cells = ref.stamp_cells(m, n, t, [(c.x, c.y) for c in towers])
            self.counts["grid.signal_field_cell_updates"] += cells
        if self.searches:
            # find_broadcast_of_size(..., 0) builds the per-level search state
            # and returns at once, so it times one level's setup.
            search = importlib.import_module("gridcast.solver").find_broadcast_of_size
            dims, params = self.searches[0]
            probes = []
            for _ in range(3):
                start = perf_counter()
                search(dims, params, 0)
                probes.append(perf_counter() - start)
            self.counts["solver.setup_s"] += statistics.median(probes) * len(self.searches)
        self.spans.clear()
        self.deferred.clear()
        self.searches.clear()


@contextmanager
def installed(tracer: Tracer):
    """Patch every site in SITES with a span wrapper; restore on exit."""
    saved = []
    try:
        for site, attr, name, layer, count in SITES:
            module = importlib.import_module(f"gridcast.{site}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, layer, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
