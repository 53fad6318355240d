"""Spans and counts recorded around the public functions of transitmap,
from outside the package.

`instrument(tracer)` replaces each traced function by a wrapper in every
transitmap module (and module-level dict) that holds a reference to it,
and restores the originals on exit.  Spans carry a name, start, end,
parent span and run id, plus a dict of counts taken from the call's
result.  They stay in memory until the benchmark writes them out.

The current span lives in a context variable.  `ThreadPoolExecutor`
threads do not inherit the submitting thread's context, so the executor
that `transitmap.optimize` uses is replaced by one that runs each task in
a copy of the submitter's context; spans of `optimize.solve` then hang
under the enclosing `optimize.pipeline` span.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

from transitmap import (core_reduce, geometry, gtfs, ilp_model, line_graph,
                        optimize, render_svg)
from transitmap.ilp_model import model_dims


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.run = 0
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar("perfbench_span", default=None)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        """Time the block as a child of the current span; the yielded
        dict becomes the span's attributes."""
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        attrs: dict = {}
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       self.run, attrs))

    def count(self, name: str) -> None:
        key = (self.run, name)
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def wrap(self, fn, name: str, result_attrs=None):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if result_attrs is not None:
                    attrs.update(result_attrs(out))
                return out
        traced.__wrapped__ = fn
        return traced


# ── what is traced ──────────────────────────────────────────────────


def log10_orderings(g) -> float:
    return sum(math.lgamma(len(e.lines) + 1) for e in g.edges.values()) \
        / math.log(10)


def _components(comps) -> dict:
    return {
        "components": len(comps),
        "max_component_edges": max((len(c.edges) for c in comps), default=0),
        "max_log10_orderings": max((log10_orderings(c) for c in comps),
                                   default=0.0),
    }


def _model(m) -> dict:
    rows, cols = model_dims(m)
    return {"rows": rows, "cols": cols}


def _breakdown(b) -> dict:
    return {"crossings": b.crossing_count, "separations": b.separation_count}


# (module, attribute, span name, counts taken from the result)
TRACED = (
    (gtfs, "load_feed", "gtfs.load_feed",
     lambda f: {"shape_points": sum(len(p) for p in f.shapes.values())}),
    (gtfs, "build_raw_network", "gtfs.build_raw_network",
     lambda r: {"raw_edges": len(r.edges)}),
    (line_graph, "construct_line_graph", "line_graph.construct",
     lambda g: {"nodes": len(g.nodes), "edges": len(g.edges),
                "points": sum(len(e.path.pts) for e in g.edges.values())}),
    (line_graph, "save_line_graph", "line_graph.save", None),
    (line_graph, "load_line_graph", "line_graph.load", None),
    (geometry, "shared_segments", "geometry.shared_segments", None),
    (geometry, "average_path", "geometry.average_path", None),
    (geometry, "offset_polyline", "geometry.offset_polyline", None),
    (core_reduce, "prune", "core_reduce.prune",
     lambda r: {"core_edges": len(r[0].edges)}),
    (core_reduce, "split_components", "core_reduce.split", _components),
    (core_reduce, "unfold", "core_reduce.unfold", None),
    (ilp_model, "compile_event_sites", "ilp_model.compile_event_sites", None),
    (ilp_model, "build_baseline", "ilp_model.build", _model),
    (ilp_model, "build_improved", "ilp_model.build", _model),
    (ilp_model, "build_separation", "ilp_model.build", _model),
    (ilp_model, "write_lp", "ilp_model.write_lp", None),
    (optimize, "optimize_pipeline", "optimize.pipeline", None),
    (optimize, "solve", "optimize.solve", None),
    (optimize, "evaluate", "optimize.evaluate", _breakdown),
    (render_svg, "render_map", "render_svg.render_map",
     lambda doc: {"svg_bytes": len(doc.encode("utf-8"))}),
    (render_svg, "offset_lines", "render_svg.offset_lines",
     lambda bands: {"bands": len(bands)}),
    (render_svg, "expand_node_fronts", "render_svg.expand_node_fronts", None),
    (render_svg, "inner_connections", "render_svg.inner_connections",
     lambda conns: {"connections": len(conns)}),
)


def _rebind(old, new) -> list[tuple[object, str, object]]:
    """Point every transitmap module attribute and module-level dict value
    that is `old` at `new`; return what to restore."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "transitmap"
                               or mod_name.startswith("transitmap.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                undo.append((mod, key, old))
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for dkey, dvalue in list(value.items()):
                    if dvalue is old:
                        undo.append((value, dkey, old))
                        value[dkey] = new
    return undo


@contextmanager
def instrument(tracer: Tracer):
    """Trace the functions in TRACED, count `Polyline.bbox` calls, and
    record each solver process started through `subprocess.run`."""
    undo: list[tuple[object, str, object]] = []

    for mod, attr, name, result_attrs in TRACED:
        orig = getattr(mod, attr)
        undo += _rebind(orig, tracer.wrap(orig, name, result_attrs))

    bbox = geometry.Polyline.bbox

    def counted_bbox(self):
        tracer.count("geometry.bbox")
        return bbox(self)

    geometry.Polyline.bbox = counted_bbox
    undo.append((geometry.Polyline, "bbox", bbox))

    run = subprocess.run
    subprocess.run = tracer.wrap(run, "lp_solve.process")
    undo.append((subprocess, "run", run))

    class ContextExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            ctx = contextvars.copy_context()
            return super().submit(ctx.run, fn, *args, **kwargs)

    undo.append((optimize, "ThreadPoolExecutor", optimize.ThreadPoolExecutor))
    optimize.ThreadPoolExecutor = ContextExecutor
    try:
        yield tracer
    finally:
        for target, key, value in reversed(undo):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)


# ── per-layer metrics from one traced pass ──────────────────────────


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of it that child spans cover; children
    on pool threads may overlap, so their union is subtracted."""
    covered, cursor = 0.0, span.start
    for c in sorted(children, key=lambda s: s.start):
        lo, hi = max(c.start, cursor), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.duration - covered


def layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict:
    """Per-layer figures of one pass; see README.md for their meaning."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    ids = {s.id: s for s in spans}

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def last_attr(name, key, default=0):
        found = [s.attrs[key] for s in by_name.get(name, ()) if key in s.attrs]
        return found[-1] if found else default

    def under(name, parent_name):
        return [s for s in by_name.get(name, ())
                if s.parent in ids and ids[s.parent].name == parent_name]

    pair_checks = calls("geometry.shared_segments")
    merges = calls("geometry.average_path")
    solves = by_name.get("optimize.solve", [])
    solved_models = under("ilp_model.build", "optimize.solve")
    # the split made inside optimize_pipeline is the one that is solved
    split = (under("core_reduce.split", "optimize.pipeline")
             or by_name.get("core_reduce.split", []))
    split_attrs = split[-1].attrs if split else {}
    prune = (under("core_reduce.prune", "optimize.pipeline")
             or by_name.get("core_reduce.prune", []))
    processes = calls("lp_solve.process")
    cli = [s for s in spans if s.name.startswith("cli.")]
    optimize_cmd = by_name.get("cli.optimize", [])
    render = by_name.get("render_svg.render_map", [])
    return {
        "gtfs.load_feed_s": total("gtfs.load_feed"),
        "gtfs.build_raw_network_s": total("gtfs.build_raw_network"),
        "gtfs.raw_edges": last_attr("gtfs.build_raw_network", "raw_edges"),
        "gtfs.shape_points": last_attr("gtfs.load_feed", "shape_points"),
        "line_graph.construct_s": total("line_graph.construct"),
        "line_graph.pair_checks": pair_checks,
        "line_graph.merges": merges,
        "line_graph.merge_yield": merges / pair_checks if pair_checks else 0.0,
        "line_graph.nodes": last_attr("line_graph.construct", "nodes"),
        "line_graph.edges": last_attr("line_graph.construct", "edges"),
        "line_graph.points": last_attr("line_graph.construct", "points"),
        "line_graph.save_s": total("line_graph.save"),
        "line_graph.load_s": total("line_graph.load"),
        "geometry.shared_segments_s": total("geometry.shared_segments"),
        "geometry.bbox_calls": counts.get("geometry.bbox", 0),
        "geometry.offset_polyline_calls": calls("geometry.offset_polyline"),
        "geometry.offset_polyline_s": total("geometry.offset_polyline"),
        "core_reduce.prune_s": total("core_reduce.prune"),
        "core_reduce.prune_calls": calls("core_reduce.prune"),
        "core_reduce.split_s": total("core_reduce.split"),
        "core_reduce.unfold_s": total("core_reduce.unfold"),
        "core_reduce.core_edges":
            prune[-1].attrs["core_edges"] if prune else 0,
        "core_reduce.components": split_attrs.get("components", 0),
        "core_reduce.max_component_edges":
            split_attrs.get("max_component_edges", 0),
        "core_reduce.max_log10_orderings":
            split_attrs.get("max_log10_orderings", 0.0),
        "ilp_model.compile_event_sites_s":
            total("ilp_model.compile_event_sites"),
        "ilp_model.compile_event_sites_calls":
            calls("ilp_model.compile_event_sites"),
        "ilp_model.build_s": total("ilp_model.build"),
        "ilp_model.build_calls": calls("ilp_model.build"),
        "ilp_model.rows": sum(s.attrs["rows"] for s in solved_models),
        "ilp_model.cols": sum(s.attrs["cols"] for s in solved_models),
        "ilp_model.write_lp_s": total("ilp_model.write_lp"),
        "optimize.pipeline_s": total("optimize.pipeline"),
        "optimize.solve_calls": len(solves),
        "optimize.solve_sum_s": sum(s.duration for s in solves),
        "optimize.solve_max_s": max((s.duration for s in solves), default=0.0),
        "optimize.evaluate_calls": calls("optimize.evaluate"),
        "optimize.evaluate_s": total("optimize.evaluate"),
        "optimize.crossings": last_attr("optimize.evaluate", "crossings"),
        "optimize.separations": last_attr("optimize.evaluate", "separations"),
        "lp_solve.processes": processes,
        "lp_solve.child_cpu_s": sum(s.attrs.get("child_cpu_s", 0.0)
                                    for s in optimize_cmd),
        "lp_solve.peak_rss_mb": (max(s.attrs.get("child_peak_rss_mb", 0.0)
                                     for s in optimize_cmd)
                                 if processes else 0.0),
        "render_svg.render_map_s": total("render_svg.render_map"),
        "render_svg.offset_lines_s": total("render_svg.offset_lines"),
        "render_svg.expand_node_fronts_s":
            total("render_svg.expand_node_fronts"),
        "render_svg.inner_connections_s":
            total("render_svg.inner_connections"),
        "render_svg.assembly_s": sum(self_time(s, children.get(s.id, []))
                                     for s in render),
        "render_svg.bands": last_attr("render_svg.offset_lines", "bands"),
        "render_svg.connections":
            last_attr("render_svg.inner_connections", "connections"),
        "render_svg.svg_bytes":
            last_attr("render_svg.render_map", "svg_bytes"),
        "cli.overhead_s": sum(self_time(s, children.get(s.id, []))
                              for s in cli),
    }
