"""Line graph model and construction.

The line graph is an undirected multigraph whose edges carry a set of
transit lines and a geometric path.  It is produced from a raw network
by repeatedly merging pairs of edges that run within d_hat of each
other for a sufficient extent, until no such pair remains.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import MissingFile, NonTermination, SchemaViolation
from .geometry import (
    Polyline,
    PolylineStack,
    SharedSegment,
    average_path,
    box_spans,
    nearest_pass,
    shared_segments,
    sweep_points,
)
from .gtfs import RawNetwork, TransitLine

NODE_KINDS = ("station", "aux")
# "#rrggbb", the form gtfs writes; it goes verbatim into SVG attributes
_COLOR = re.compile(r"#[0-9a-fA-F]{6}")
_COORD_TOL = 1e-6


@dataclass(frozen=True)
class LGNode:
    id: str
    kind: str
    x: float
    y: float
    station_id: str | None = None
    name: str | None = None

    @property
    def xy(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class LGEdge:
    """Undirected edge with a canonical travel direction a -> b given by
    the stored path orientation."""

    id: str
    a: str
    b: str
    lines: tuple[str, ...]
    path: Polyline

    def other(self, node_id: str) -> str:
        if node_id == self.a:
            return self.b
        if node_id == self.b:
            return self.a
        raise KeyError(f"node {node_id!r} is not an endpoint of edge {self.id!r}")


class LineGraph:
    """Immutable-by-convention container for nodes, labeled edges, and the
    line table.  line_weight maps a line id to its multiplicity (used by
    reductions that collapse several lines into one); absent ids count 1.
    """

    def __init__(
        self,
        nodes: dict[str, LGNode],
        edges: dict[str, LGEdge],
        lines: dict[str, TransitLine],
        line_weight: dict[str, int] | None = None,
    ) -> None:
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        self.lines = dict(lines)
        self.line_weight = dict(line_weight or {})
        self._incident: dict[str, tuple[str, ...]] | None = None
        self._departure: dict[str, tuple[float, float]] | None = None

    # ── topology ────────────────────────────────────────────────────

    def _incidence(self) -> dict[str, tuple[str, ...]]:
        if self._incident is None:
            table: dict[str, list[str]] = {nid: [] for nid in self.nodes}
            for eid in sorted(self.edges):
                e = self.edges[eid]
                table[e.a].append(eid)
                table[e.b].append(eid)
            self._incident = {nid: tuple(eids) for nid, eids in table.items()}
        return self._incident

    def incident(self, node_id: str) -> tuple[str, ...]:
        return self._incidence()[node_id]

    def degree(self, node_id: str) -> int:
        return len(self.incident(node_id))

    def weight_of(self, line_id: str) -> int:
        return self.line_weight.get(line_id, 1)

    @property
    def max_lines_per_edge(self) -> int:
        return max((len(e.lines) for e in self.edges.values()), default=0)

    def station_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.kind == "station")

    def continuations_at(self, node_id: str) -> dict[str, tuple[str, str]]:
        """Lines that pass through node_id, mapped to the sorted pair of
        incident edges carrying them.  A line present in one incident edge
        terminates here; one present in more than two has no single
        continuation and is excluded."""
        carriers: dict[str, list[str]] = {}
        for eid in self.incident(node_id):
            for line in self.edges[eid].lines:
                carriers.setdefault(line, []).append(eid)
        return {
            line: (eids[0], eids[1])
            for line, eids in carriers.items()
            if len(eids) == 2
        }

    def _departures(self) -> dict[str, tuple[float, float]]:
        """Edge id -> departure angles at its a end and at its b end: the
        atan2 of the tangent of the path's frame_at(0.0) and of minus
        that of its frame_at(1.0), from one PolylineStack.frames pass over
        all edges, whose tangents are frame_at's bit for bit."""
        if self._departure is None:
            ids = list(self.edges)
            self._departure = {}
            if ids:
                stack = PolylineStack([self.edges[eid].path for eid in ids])
                _, _, tx, ty = stack.frames(np.arange(len(ids)).repeat(2),
                                            np.tile([0.0, 1.0], len(ids)))
                tx, ty = tx.tolist(), ty.tolist()
                for k, eid in enumerate(ids):
                    self._departure[eid] = (
                        math.atan2(ty[2 * k], tx[2 * k]),
                        math.atan2(-ty[2 * k + 1], -tx[2 * k + 1]))
        return self._departure

    def departure_angle(self, edge_id: str, node_id: str) -> float:
        """Direction of travel leaving node_id along the edge, in radians."""
        e = self.edges[edge_id]
        if node_id == e.a:
            return self._departures()[edge_id][0]
        if node_id == e.b:
            return self._departures()[edge_id][1]
        raise KeyError(f"node {node_id!r} is not an endpoint of edge {edge_id!r}")

    # ── validation ──────────────────────────────────────────────────

    def validate(self) -> None:
        for nid, node in self.nodes.items():
            if node.id != nid:
                raise SchemaViolation(f"node key {nid!r} does not match id {node.id!r}")
            if node.kind not in NODE_KINDS:
                raise SchemaViolation(f"node {nid!r} has unknown kind {node.kind!r}")
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise SchemaViolation(f"node {nid!r} has a non-finite coordinate")
        for eid, e in self.edges.items():
            if e.id != eid:
                raise SchemaViolation(f"edge key {eid!r} does not match id {e.id!r}")
            for end in (e.a, e.b):
                if end not in self.nodes:
                    raise SchemaViolation(f"edge {eid!r} references missing node {end!r}")
            if e.a == e.b:
                raise SchemaViolation(f"edge {eid!r} is a self-loop at {e.a!r}")
            if not e.lines:
                raise SchemaViolation(f"edge {eid!r} carries no lines")
            if list(e.lines) != sorted(set(e.lines)):
                raise SchemaViolation(f"edge {eid!r} lines must be sorted and unique")
            for line in e.lines:
                if line not in self.lines:
                    raise SchemaViolation(f"edge {eid!r} references missing line {line!r}")
            for end, pt in ((e.a, e.path.start), (e.b, e.path.end)):
                node = self.nodes[end]
                if math.hypot(pt[0] - node.x, pt[1] - node.y) > _COORD_TOL:
                    raise SchemaViolation(
                        f"edge {eid!r} path endpoint {pt} does not meet node "
                        f"{end!r} at ({node.x}, {node.y})"
                    )
        for lid, line in self.lines.items():
            if not _COLOR.fullmatch(line.color):
                raise SchemaViolation(
                    f"line {lid!r} has color {line.color!r}, expected #rrggbb")


# ── serialization ───────────────────────────────────────────────────
#
# The graph file holds one table per record type, a list of objects
# whose keys are the fields of the record's dataclass.  Each field is
# read and written by the codec of its annotation: a reader that takes
# the JSON value and returns the field value or raises ValueError, a
# writer (None: the value as it is) and a builder that turns the values
# its reader returned for a whole table into the field values in one
# call (None: they are the field values).  A field with a default may be
# absent or null; it is left out when it is None.

def _read_str(value) -> str:
    if isinstance(value, str):
        return value
    raise ValueError("must be a string")


def _read_float(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError("must be a number")


def _read_lines(value) -> tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ValueError("must be a list of strings")


def _read_path(value) -> np.ndarray:
    pts = np.asarray(value)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.dtype.kind not in "fiu":
        raise ValueError("must be a list of [x, y] number pairs")
    if not np.isfinite(pts).all():
        raise ValueError("has a non-finite coordinate")
    return pts


_CODECS = {
    "str": (_read_str, None, None),
    "str | None": (_read_str, None, None),
    "float": (_read_float, float, None),
    "tuple[str, ...]": (_read_lines, list, None),
    "Polyline": (_read_path, lambda path: path.pts.tolist(), Polyline.many),
}

# top-level key of each table -> its record type; the keys are also the
# LineGraph attributes holding the tables
_TABLES = {"nodes": LGNode, "edges": LGEdge, "lines": TransitLine}

# record type -> {field name: (reader, writer, builder, required)}
_FIELDS = {
    cls: {f.name: (*_CODECS[f.type], f.default is MISSING) for f in fields(cls)}
    for cls in _TABLES.values()
}


def _record_to_json(record) -> dict:
    item = {}
    for name, (_, write, _, _) in _FIELDS[type(record)].items():
        value = getattr(record, name)
        if value is not None:
            item[name] = value if write is None else write(value)
    return item


def _record_values(item, cls, where: str) -> dict:
    """The read values of the fields of one record of type cls."""
    if not isinstance(item, dict):
        raise SchemaViolation(f"{where}: must be an object")
    spec = _FIELDS[cls]
    unknown = item.keys() - spec
    if unknown:
        raise SchemaViolation(f"{where}: unknown fields {sorted(unknown)}")
    values = {}
    for name, (read, _, _, required) in spec.items():
        if name not in item:
            if required:
                raise SchemaViolation(f"{where}: missing field {name!r}")
        elif item[name] is not None or required:
            try:
                values[name] = read(item[name])
            except (ValueError, OverflowError) as exc:
                raise SchemaViolation(f"{where}: field {name!r} {exc}") from None
    return values


def save_line_graph(g: LineGraph, path) -> None:
    if not g.edges:
        raise SchemaViolation("refusing to save a line graph with no edges")
    g.validate()
    doc = {}
    for key in _TABLES:
        table = getattr(g, key)
        doc[key] = [_record_to_json(table[rid]) for rid in sorted(table)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def load_line_graph(path) -> LineGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise MissingFile(f"line graph file not found: {path}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaViolation(f"cannot read line graph from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object")
    extra = doc.keys() - _TABLES
    if extra:
        raise SchemaViolation(f"unknown top-level fields: {sorted(extra)}")
    tables = {}
    for key, cls in _TABLES.items():
        if not isinstance(doc.get(key), list):
            raise SchemaViolation(f"top-level field {key!r} must be a list")
        rows: dict[str, dict] = {}
        for i, item in enumerate(doc[key]):
            values = _record_values(item, cls, f"{key}[{i}]")
            if values["id"] in rows:
                raise SchemaViolation(f"{key}[{i}]: duplicate id {values['id']!r}")
            rows[values["id"]] = values
        for name, (_, _, build, _) in _FIELDS[cls].items():
            if build is not None and rows:
                for values, value in zip(rows.values(), build(
                        [values[name] for values in rows.values()])):
                    values[name] = value
        tables[key] = {rid: cls(**values) for rid, values in rows.items()}
    g = LineGraph(**tables)
    g.validate()
    return g


# ── construction from a raw network ─────────────────────────────────

@dataclass
class _BEdge:
    id: str
    a: str
    b: str
    lines: frozenset
    path: Polyline
    bbox: tuple[float, float, float, float]
    dt: float
    sweep: tuple[np.ndarray, np.ndarray]


class _Desc:
    """A pair key that orders in reverse, so that a min-heap of (-extent,
    _Desc(key)) puts the larger key first among equal extents."""

    __slots__ = ("key",)

    def __init__(self, key: tuple[str, str]) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return self.key > other.key


class _Builder:
    """Merge loop over the live edges.

    `pairs` holds, in the order they were found, only the pairs of live
    edges that share a segment: each merge adds the pairs of its fresh
    edges and drops those of the two edges it kills.  `_heap` holds every
    pair ever stored, keyed by extent and key, so the next merge is its
    top once the dropped pairs above it are popped.  `_pairs_of` indexes
    the stored pairs by edge, and `_boxes` holds the box of every edge
    ever added, row n for edge e{n}, with `_live` marking the edges still
    alive; both are kept up to date on each add and merge instead of
    being rebuilt.

    Each merge round (the raw edges first, then each merge's fresh
    edges) plans the pairs whose boxes, padded by d_hat, overlap, and
    keeps those whose subject's sweep spans at least min_seg_len inside
    the target's padded box (`_bounded`, exact: no pair it leaves out
    could store a segment).  It finds the nearest points of the pairs
    kept in one `nearest_pass`, from the sweeps `_add_edge` computes once
    per edge; `shared_segments` then runs once per pair, in the order
    the pairs were found.
    """

    def __init__(self, raw: RawNetwork, d_hat: float, sweep_step: float,
                 k: int, min_seg_len: float, shuffle_rng,
                 merge_budget: int | None) -> None:
        self.d_hat = d_hat
        self.sweep_step = sweep_step
        self.k = k
        self.min_seg_len = min_seg_len
        self.shuffle_rng = shuffle_rng
        self.nodes: dict[str, LGNode] = {}
        self.edges: dict[str, _BEdge] = {}
        self.pairs: dict[tuple[str, str], tuple[SharedSegment, str]] = {}
        self._heap: list[tuple[float, _Desc]] = []
        self._pairs_of: dict[str, list[tuple[str, str]]] = {}
        self._boxes = np.empty((max(16, 2 * len(raw.edges)), 4))
        self._live = np.zeros(len(self._boxes), dtype=bool)
        self._next_edge = 0
        self._next_aux = 0
        self.lines_table = dict(raw.lines)

        for sid in sorted(raw.stations):
            st = raw.stations[sid]
            self.nodes[sid] = LGNode(id=sid, kind="station", x=float(st.xy[0]),
                                     y=float(st.xy[1]), station_id=sid,
                                     name=st.name)
        seed = sorted(
            raw.edges,
            key=lambda e: (e.station_a, e.station_b, e.line, e.path.length),
        )
        for redge in seed:
            self._add_edge(redge.station_a, redge.station_b,
                           frozenset([redge.line]), redge.path)
        n_segments = sum(len(e.path.pts) - 1 for e in raw.edges)
        self.merge_budget = (64 + 8 * n_segments if merge_budget is None
                             else merge_budget)

    def _add_edge(self, a: str, b: str, lines: frozenset, path: Polyline) -> str:
        n = self._next_edge
        eid = f"e{n}"
        self._next_edge += 1
        # dt, and so the sweep, depends only on the path: compute it once
        # for all pairs this edge is swept in
        dt = min(0.5, self.sweep_step / path.length)
        self.edges[eid] = _BEdge(id=eid, a=a, b=b, lines=lines, path=path,
                                 bbox=path.bbox(), dt=dt,
                                 sweep=sweep_points(path, dt))
        if n == len(self._boxes):
            self._boxes = np.concatenate((self._boxes, np.empty_like(self._boxes)))
            self._live = np.concatenate((self._live, np.zeros_like(self._live)))
        self._boxes[n] = self.edges[eid].bbox
        self._live[n] = True
        self._pairs_of[eid] = []
        return eid

    def _kill(self, eid: str) -> None:
        """Drop a merged edge and every stored pair it is in."""
        del self.edges[eid]
        self._live[int(eid[1:])] = False
        for key in self._pairs_of.pop(eid):
            self.pairs.pop(key, None)

    def _new_aux(self, x: float, y: float) -> str:
        nid = f"x{self._next_aux}"
        self._next_aux += 1
        self.nodes[nid] = LGNode(id=nid, kind="aux", x=float(x), y=float(y))
        return nid

    def _pair_key(self, i: str, j: str) -> tuple[str, str]:
        return (i, j) if i < j else (j, i)

    def _roles(self, i: str, j: str) -> tuple[_BEdge, _BEdge] | None:
        """(subject, target) of the pair i < j: the longer path is swept;
        None when it is shorter than min_seg_len."""
        ei, ej = self.edges[i], self.edges[j]
        if ei.path.length > ej.path.length or (
                ei.path.length == ej.path.length and i < j):
            subject, target = ei, ej
        else:
            subject, target = ej, ei
        if subject.path.length < self.min_seg_len:
            return None
        return subject, target

    def _best(self, subject: _BEdge, target: _BEdge,
              nearest: tuple[np.ndarray, np.ndarray],
              ) -> tuple[SharedSegment, str] | None:
        """Best shared segment of the subject swept against the target,
        given the target's nearest points to the subject's sweep.
        Returns (segment, subject_edge_id) or None."""
        segs = shared_segments(subject.path, target.path, self.d_hat,
                               subject.dt, k=self.k, min_len=self.min_seg_len,
                               sweep=subject.sweep, nearest=nearest)
        other_len = target.path.length
        segs = [s for s in segs
                if abs(s.range_b[1] - s.range_b[0]) * other_len
                >= 0.5 * self.min_seg_len]
        if not segs:
            return None
        best = max(segs, key=lambda s: s.extent)
        return (best, subject.id)

    def _candidates(self, fresh: list[str]) -> None:
        """Store the shared segments of every fresh edge with every live
        edge.  Only pairs whose boxes, padded by d_hat, overlap can share
        a segment, so one numpy comparison per fresh edge against the live
        boxes plans the pairs: for each fresh edge in turn, in
        `self.edges` order, and a pair of two fresh edges once.  The pairs
        that _bounded keeps are swept, their nearest points from one
        nearest_pass."""
        boxes = self._boxes[:self._next_edge]
        pad = self.d_hat
        done: set[str] = set()
        plan = []
        for i in fresh:
            bi = self.edges[i].bbox
            apart = ((bi[2] + pad < boxes[:, 0]) | (boxes[:, 2] + pad < bi[0])
                     | (bi[3] + pad < boxes[:, 1]) | (boxes[:, 3] + pad < bi[1]))
            done.add(i)
            for n in np.flatnonzero(self._live[:self._next_edge] & ~apart).tolist():
                j = f"e{n}"
                if j not in done:
                    key = self._pair_key(i, j)
                    roles = self._roles(*key)
                    if roles is not None:
                        plan.append((key, *roles))
        plan = self._bounded(plan)
        nearest = nearest_pass([(s.sweep[1], t.path) for _, s, t in plan],
                               self.d_hat)
        for (key, subject, target), near in zip(plan, nearest):
            found = self._best(subject, target, near)
            if found is not None:
                self._store(key, found)

    def _bounded(self, plan: list) -> list:
        """The (key, subject, target) pairs of plan whose subject's sweep
        spans at least min_seg_len between its first and its last point
        in the target's box padded by d_hat (box_spans).  Every extent
        shared_segments reports is at most that span times the subject's
        length, so no other pair can store a shared segment."""
        spans = box_spans([s.sweep for _, s, _ in plan],
                          self._boxes[[int(t.id[1:]) for _, _, t in plan]],
                          self.d_hat)
        return [pair for pair, span in zip(plan, spans.tolist())
                if span * pair[1].path.length >= self.min_seg_len]

    def _store(self, key: tuple[str, str],
               found: tuple[SharedSegment, str]) -> None:
        self.pairs[key] = found
        heapq.heappush(self._heap, (-found[0].extent, _Desc(key)))
        self._pairs_of[key[0]].append(key)
        self._pairs_of[key[1]].append(key)

    def _pick(self) -> tuple[str, str] | None:
        """Longest shared extent first, ties to the larger key; a
        shuffle_rng draws uniformly from the stored pairs instead.  A pair
        is never stored again once dropped, as its edges never come back,
        so a heap entry whose key is not stored is dropped for good."""
        if not self.pairs:
            return None
        if self.shuffle_rng is not None:
            keys = list(self.pairs)
            return keys[int(self.shuffle_rng.integers(len(keys)))]
        while self._heap[0][1].key not in self.pairs:
            heapq.heappop(self._heap)
        return self._heap[0][1].key

    def _merge(self, key: tuple[str, str]) -> list[str]:
        seg, subject_id = self.pairs[key]
        ea = self.edges[subject_id]
        eb = self.edges[key[0] if key[1] == subject_id else key[1]]
        sa0, sa1 = seg.range_a
        tb0, tb1 = seg.range_b
        lob, hib = min(tb0, tb1), max(tb0, tb1)
        reverse_b = tb0 > tb1

        sub_a = ea.path.sub(sa0, sa1)
        sub_b = eb.path.sub(lob, hib)
        if reverse_b:
            sub_b = sub_b.reversed()
        merged = average_path(sub_a, sub_b, step=self.sweep_step)

        len_a, len_b = ea.path.length, eb.path.length
        b_start_aux = "V" if reverse_b else "U"
        b_end_aux = "U" if reverse_b else "V"
        # (outer node, fresh aux placeholder, aux goes first in edge?, lines, path, length)
        stubs = [
            (ea.a, "U", False, ea.lines, (ea.path, 0.0, sa0), sa0 * len_a),
            (ea.b, "V", True, ea.lines, (ea.path, sa1, 1.0), (1 - sa1) * len_a),
            (eb.a, b_start_aux, False, eb.lines, (eb.path, 0.0, lob), lob * len_b),
            (eb.b, b_end_aux, True, eb.lines, (eb.path, hib, 1.0), (1 - hib) * len_b),
        ]

        # Resolve each fresh endpoint: short stubs are contracted into their
        # outer node unless that would make the corridor a self-loop.
        res: dict[str, str | None] = {"U": None, "V": None}
        kept: list[tuple[str, str, bool, frozenset, tuple, float]] = []
        for stub in sorted(stubs, key=lambda s: s[5]):
            outer, fresh, _, _, _, length = stub
            if length >= self.min_seg_len:
                kept.append(stub)
                continue
            if res[fresh] is None:
                other = "V" if fresh == "U" else "U"
                if res[other] == outer:
                    kept.append(stub)  # contraction would close a self-loop
                else:
                    res[fresh] = outer
            elif res[fresh] == outer:
                pass  # stub collapses onto an already-bound node: drop it
            else:
                kept.append(stub)
        degenerate = (
            (res["U"] is not None and res["U"] == res["V"])
            or any(s[5] < 1e-6 for s in kept)
        )
        if degenerate:
            del self.pairs[key]  # merging would self-loop or leave a
            return []            # zero-length remnant: leave as is

        self._kill(ea.id)
        self._kill(eb.id)
        node_u = res["U"] or self._new_aux(*merged.start)
        node_v = res["V"] or self._new_aux(*merged.end)

        def snapped(path_pts: np.ndarray, start_node: str, end_node: str) -> list:
            pts = path_pts.tolist()
            sa = (self.nodes[start_node].x, self.nodes[start_node].y)
            sb = (self.nodes[end_node].x, self.nodes[end_node].y)
            if math.hypot(pts[0][0] - sa[0], pts[0][1] - sa[1]) > _COORD_TOL:
                pts.insert(0, sa)
            if math.hypot(pts[-1][0] - sb[0], pts[-1][1] - sb[1]) > _COORD_TOL:
                pts.append(sb)
            return pts

        # (start node, end node, lines, snapped points) of each fresh
        # edge; their paths are built at once
        fresh_edges = [(node_u, node_v, ea.lines | eb.lines,
                        snapped(merged.pts, node_u, node_v))]
        for outer, fresh, aux_first, lines, (src, t0, t1), length in kept:
            fresh_node = node_u if fresh == "U" else node_v
            if fresh_node == outer:
                continue  # nothing left of this stub after contraction
            a, b = (fresh_node, outer) if aux_first else (outer, fresh_node)
            fresh_edges.append((a, b, lines, snapped(src.sub(t0, t1).pts, a, b)))
        paths = Polyline.many([pts for *_, pts in fresh_edges])
        return [self._add_edge(a, b, lines, path)
                for (a, b, lines, _), path in zip(fresh_edges, paths)]

    def run(self) -> LineGraph:
        fresh = list(self.edges)
        merges = 0
        while True:
            self._candidates(fresh)
            key = self._pick()
            if key is None:
                break
            merges += 1
            if merges > self.merge_budget:
                raise NonTermination(
                    f"merge count exceeded safety bound {self.merge_budget}; "
                    "thresholds likely oscillate on this input"
                )
            fresh = self._merge(key)

        used_nodes = sorted({e.a for e in self.edges.values()}
                            | {e.b for e in self.edges.values()})
        nodes = {nid: self.nodes[nid] for nid in used_nodes}
        edges = {
            eid: LGEdge(id=eid, a=b.a, b=b.b, lines=tuple(sorted(b.lines)),
                        path=b.path)
            for eid, b in self.edges.items()
        }
        return LineGraph(nodes=nodes, edges=edges, lines=dict(self.lines_table))


def construct_line_graph(
    raw: RawNetwork,
    d_hat: float = 25.0,
    sweep_step: float = 5.0,
    k: int = 2,
    min_seg_len: float = 50.0,
    shuffle_rng=None,
    merge_budget: int | None = None,
) -> LineGraph:
    """Merge shared segments of the raw network to a fixed point.

    shuffle_rng, when given, picks merge candidates uniformly at random
    instead of longest-extent first; outcome dimensions must not depend
    on the order and tests exercise that.  merge_budget overrides the
    non-termination safety bound.
    """
    builder = _Builder(raw, d_hat, sweep_step, k, min_seg_len, shuffle_rng,
                       merge_budget)
    g = builder.run()
    g.validate()
    return g
