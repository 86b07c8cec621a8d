"""Spans recorded from outside the library.

The benchmark wraps public ``circlehold`` functions under the names their
callers look up (``holding.min_enclosing_circle`` is the planar kernel as
``holding`` imported it), so nothing in the package changes.  Spans are
kept in memory as (name, start, end, parent, operation) and written once
the run ends.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) pairs wrapped in a traced pass, grouped by the module
# that defines the function.
WRAPPED = (
    # planar kernels, as imported by their callers
    ("holding", "convex_hull_2d"), ("holding", "min_enclosing_circle"),
    ("holding", "horizontal_width"),
    ("polytope", "convex_hull_2d"), ("polytope", "min_enclosing_circle"),
    ("projection", "horizontal_width"),
    # polytope
    ("polytope", "build_hull"), ("polytope", "width3"),
    ("polytope", "min_cylinder"), ("holding", "segment_distance"),
    ("holding", "min_cylinder"),
    # projection
    ("projection", "iceberg_profile"), ("projection", "split_project"),
    # holding
    ("holding", "circle_interior_intersects"),
    ("holding", "translation_block_certificate"),
    ("holding", "surrounds_slice"), ("holding", "nonintersecting_edge_bound"),
    ("holding", "holding_report"), ("holding", "chain_certificate"),
    ("holding", "min_holding_circle"), ("holding", "escape_search"),
)

# leaf kernels that also get a per-call cost
PER_CALL = ("holding.convex_hull_2d", "holding.min_enclosing_circle",
            "polytope.convex_hull_2d", "polytope.min_enclosing_circle",
            "holding.segment_distance", "holding.circle_interior_intersects")

ESCAPE = "holding.escape_search"


class Tracer:
    """Records one span per call of every wrapped function.

    Calls run on one thread, so spans nest: a span's children are disjoint
    and its self time is its duration minus theirs."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.outer = array("b")     # 0 inside a span of the same name
        self.current_op = -1
        self.escape_by_op: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.outer.append(1 if depth == 0 else 0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, name)

    def wrap(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        on_escape = name == ESCAPE

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(idx, name)
            if on_escape:
                per_op = self.escape_by_op.setdefault(
                    self.current_op, {"checks": 0, "nodes": 0, "found": 0})
                per_op["checks"] += result.checks_used
                per_op["nodes"] += result.nodes
                per_op["found"] += int(result.found)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def install(self, package) -> None:
        """Wrap every name in ``WRAPPED``; ``package`` has the modules as
        attributes."""
        for mod, attr in WRAPPED:
            self.wrap(getattr(package, mod), attr, f"{mod}.{attr}")

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "outer": np.frombuffer(self.outer, dtype=np.int8)}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<name>.calls``, ``.s`` (inclusive) and ``.self_s`` for every
        wrapped name, plus per-call and escape-search figures."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_t = dur - child
        out: dict[str, tuple[float, str]] = {}
        for mod, attr in WRAPPED:
            name = f"{mod}.{attr}"
            nid = self.name_id.get(name, -1)
            sel = a["name"] == nid
            calls = int(sel.sum())
            incl = float(dur[sel & (a["outer"] == 1)].sum())
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.s"] = (incl, "s")
            out[f"{name}.self_s"] = (float(self_t[sel].sum()), "s")
            if name in PER_CALL:
                out[f"{name}.us_per_call"] = (
                    1e6 * incl / calls if calls else 0.0, "us")
        esc = {k: sum(v[k] for v in self.escape_by_op.values())
               for k in ("checks", "nodes", "found")}
        checks = esc["checks"]
        for k, v in esc.items():
            out[f"{ESCAPE}.{k}"] = (v, "count")
        out[f"{ESCAPE}.us_per_check"] = (
            1e6 * out[f"{ESCAPE}.s"][0] / checks if checks else 0.0, "us")
        out[f"{ESCAPE}.nodes_per_check"] = (
            esc["nodes"] / checks if checks else 0.0, "ratio")
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())
