"""Span and counter recording for one traced `coarsecert` command.

Tracing lives in the benchmark, not in the program: `layer_patches` rebinds,
for the life of one process, the public functions that each module of
`coarsecert` calls in the layer below it (the names bound in the caller's
namespace, plus a few methods), so nothing under src/ changes.  Spans are
kept in memory and written out when the command ends.

A span records its name, start, end, parent and run id.  Span names start
with the layer they measure (metric, covers, extend, simplex, verify,
jsonio, cli).  A span's self time is its duration minus the time its child
spans cover; the self times of one process add up to its root span.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

LAYERS = ("metric", "covers", "extend", "simplex", "verify", "jsonio", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[list] = []    # [name, start, end, parent index or -1]
        self.counts: Dict[str, float] = {}
        self._open: List[int] = []

    def count(self, name: str, k: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def span(self, name, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """fn wrapped in a span; name may be a function of the call's arguments.

        after(tracer, args, kwargs, result) runs once fn has returned, to
        record counts taken from the call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            label = name(*args, **kwargs) if callable(name) else name
            tracer.spans.append([label, 0.0, 0.0, tracer._open[-1] if tracer._open else -1])
            tracer._open.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                tracer.spans[idx][1] = start
                tracer.spans[idx][2] = end
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """fn with a call counter and no span, for calls too frequent to time."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def to_json(self) -> dict:
        return {"run": self.run_id, "counts": self.counts,
                "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                           "run": self.run_id} for s in self.spans]}


def self_times(spans: List[dict]) -> Dict[str, float]:
    """Total self time per span name."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    out: Dict[str, float] = {}
    for s, c in zip(spans, child):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - c)
    return out


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _pairs(tracer, args, kwargs, report):
    m = len(args[0].domain)
    tracer.count("verify.pairs_checked", report.pairs_checked)
    tracer.count("verify.pairs_all", m * (m - 1) // 2)


def _piece(tracer, args, kwargs, result):
    tracer.count("extend.pieces")
    tracer.count(f"extend.branch{result[2]}")


def _carrier(tracer, args, kwargs, result):
    tracer.maximum("simplex.carrier_size", len(result[1]))


def _calls(name):
    return lambda tracer, args, kwargs, result: tracer.count(name)


def _pou_bytes(tracer, args, kwargs, result):
    tracer.count("jsonio.pou_bytes", os.path.getsize(args[0]))


def _save_name(path, obj):
    return "jsonio.pou_save" if str(path).endswith(".pou.json") else "jsonio.save"


def _save_bytes(tracer, args, kwargs, result):
    if _save_name(*args) == "jsonio.pou_save":
        _pou_bytes(tracer, args, kwargs, result)


@contextmanager
def layer_patches(tracer: Tracer):
    """Wrap the cross-layer calls of `coarsecert` for the duration of the block."""
    from coarsecert import cli, covers, extend, jsonio, metric, verify
    from coarsecert.metric import FiniteMetricSpace
    from coarsecert.simplex import PartitionOfUnity

    span, counter = tracer.span, tracer.counter
    saved = []

    def patch(owner, attr, wrap):
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    spans = [
        # cli -> jsonio; jsonio's own calls go through the same module globals
        (jsonio, "load_json", "jsonio.json_parse", None),
        (jsonio, "load_space", "jsonio.load_space", None),
        (jsonio, "load_tree", "jsonio.load_tree", None),
        (jsonio, "load_pou", "jsonio.pou_load", _pou_bytes),
        (jsonio, "pou_to_json", "jsonio.pou_save", None),
        (jsonio, "save_json", _save_name, _save_bytes),
        # jsonio -> metric, metric -> scipy.sparse.csgraph
        (jsonio, "load_graph", "metric.load", None),
        (jsonio, "load_matrix", "metric.load", None),
        (jsonio, "load_points", "metric.load", None),
        (metric, "shortest_path", "metric.apsp", None),
        (metric, "floyd_warshall", "metric.closure", None),
        (metric, "dijkstra", "metric.dijkstra", _calls("metric.dijkstra_calls")),
        # cli -> covers, extend, verify
        (cli, "brick_tree", "covers.brick_tree", None),
        (cli, "tree_validate", "covers.tree_validate", _calls("covers.tree_validate_calls")),
        (cli, "build_certificate", "extend.build", None),
        (cli, "lipschitz_check", "verify.lipschitz", _pairs),
        (cli, "cobounded_check", "verify.cobounded", None),
        # extend -> covers, metric, simplex, verify, and extend's own steps
        (extend, "tree_validate", "covers.tree_validate", _calls("covers.tree_validate_calls")),
        (extend, "dist_to_set_all", "metric.dist_to_set", None),
        (extend, "nearest_point_retraction", "metric.retraction", None),
        (extend, "diameter", "metric.diameter", None),
        (extend, "simplicial_retraction", "simplex.retraction", None),
        (extend, "star_preimage_diameters", "simplex.star_diam", None),
        (extend, "lipschitz_check", "verify.lipschitz", _pairs),
        (extend, "cobounded_check", "verify.cobounded", None),
        (extend, "r_disjoint_check", "verify.r_disjoint", _calls("verify.r_disjoint_calls")),
        (extend, "extend_over_bounded_piece", "extend.piece", _piece),
        (extend, "extend_over_disjoint_family", "extend.glue", None),
        (extend, "extend_pou", "extend.extend_pou", None),
        # covers -> metric, verify
        (covers, "dist_to_set_all", "metric.dist_to_set", None),
        (covers, "r_disjoint_check", "verify.r_disjoint", _calls("verify.r_disjoint_calls")),
        (covers, "uniformly_bounded_check", "verify.bounded", None),
        (FiniteMetricSpace, "diameter", "metric.diameter", None),
        # verify -> simplex
        (verify, "star_preimage_diameters", "simplex.star_diam", None),
        (PartitionOfUnity, "dense", "simplex.dense", _carrier),
    ]
    counters = [
        (extend, "convex_combine", "simplex.convex_combine_calls"),
        (FiniteMetricSpace, "neighbors_within", "metric.neighbors_calls"),
        (FiniteMetricSpace, "_compute_row", "metric.rows_computed"),
    ]
    for owner, attr, name, after in spans:
        patch(owner, attr, lambda fn, name=name, after=after: span(name, fn, after))
    for owner, attr, name in counters:
        patch(owner, attr, lambda fn, name=name: counter(name, fn))

    def row_counter(fn):
        counts = tracer.counts

        @functools.wraps(fn)
        def row(self, x):
            if not self.has_table:  # only table-free spaces go through the row cache
                counts["metric.row_calls"] = counts.get("metric.row_calls", 0) + 1
            return fn(self, x)
        return row

    patch(FiniteMetricSpace, "row", row_counter)
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
