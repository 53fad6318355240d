"""Line graph model and construction.

The line graph is an undirected multigraph whose edges carry a set of
transit lines and a geometric path.  It is produced from a raw network
by repeatedly merging pairs of edges that run within d_hat of each
other for a sufficient extent, until no such pair remains.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonTermination, SchemaViolation
from .geometry import (
    Polyline,
    SharedSegment,
    average_path,
    shared_segments,
    sweep_points,
)
from .gtfs import RawNetwork, TransitLine

NODE_KINDS = ("station", "aux")
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

    def leaves(self, node_id: str) -> bool:
        """True when the canonical direction points out of node_id."""
        return node_id == self.a


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

    def departure_angle(self, edge_id: str, node_id: str) -> float:
        """Direction of travel leaving node_id along the edge, in radians."""
        e = self.edges[edge_id]
        if node_id == e.a:
            v = e.path.tangent_at(0.0)
        elif node_id == e.b:
            v = -e.path.tangent_at(1.0)
        else:
            raise KeyError(f"node {node_id!r} is not an endpoint of edge {edge_id!r}")
        return math.atan2(float(v[1]), float(v[0]))

    # ── validation ──────────────────────────────────────────────────

    def validate(self) -> None:
        for nid, node in self.nodes.items():
            if node.id != nid:
                raise SchemaViolation(f"node key {nid!r} does not match id {node.id!r}")
            if node.kind not in NODE_KINDS:
                raise SchemaViolation(f"node {nid!r} has unknown kind {node.kind!r}")
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


# ── serialization ───────────────────────────────────────────────────

def save_line_graph(g: LineGraph, path) -> None:
    if not g.edges:
        raise SchemaViolation("refusing to save a line graph with no edges")
    g.validate()
    nodes = []
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        item: dict = {"id": n.id, "kind": n.kind, "x": float(n.x), "y": float(n.y)}
        if n.station_id is not None:
            item["station_id"] = n.station_id
        if n.name is not None:
            item["name"] = n.name
        nodes.append(item)
    edges = []
    for eid in sorted(g.edges):
        e = g.edges[eid]
        edges.append({
            "id": e.id,
            "a": e.a,
            "b": e.b,
            "lines": list(e.lines),
            "path": [[float(x), float(y)] for x, y in e.path.pts],
        })
    lines = [
        {"id": l.id, "label": l.label, "color": l.color}
        for l in (g.lines[lid] for lid in sorted(g.lines))
    ]
    doc = {"nodes": nodes, "edges": edges, "lines": lines}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _req(obj: dict, key: str, kinds, where: str):
    if key not in obj:
        raise SchemaViolation(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kinds):
        raise SchemaViolation(f"{where}: field {key!r} has wrong type")
    return value


def load_line_graph(path) -> LineGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaViolation(f"cannot read line graph from {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaViolation("top-level value must be an object")
    extra = set(doc) - {"nodes", "edges", "lines"}
    if extra:
        raise SchemaViolation(f"unknown top-level fields: {sorted(extra)}")
    for key in ("nodes", "edges", "lines"):
        if key not in doc or not isinstance(doc[key], list):
            raise SchemaViolation(f"top-level field {key!r} must be a list")

    nodes: dict[str, LGNode] = {}
    for i, item in enumerate(doc["nodes"]):
        where = f"nodes[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation(f"{where}: must be an object")
        if set(item) - {"id", "kind", "x", "y", "station_id", "name"}:
            raise SchemaViolation(f"{where}: unknown fields present")
        nid = _req(item, "id", str, where)
        if nid in nodes:
            raise SchemaViolation(f"{where}: duplicate node id {nid!r}")
        nodes[nid] = LGNode(
            id=nid,
            kind=_req(item, "kind", str, where),
            x=float(_req(item, "x", (int, float), where)),
            y=float(_req(item, "y", (int, float), where)),
            station_id=item.get("station_id"),
            name=item.get("name"),
        )

    edges: dict[str, LGEdge] = {}
    for i, item in enumerate(doc["edges"]):
        where = f"edges[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation(f"{where}: must be an object")
        if set(item) - {"id", "a", "b", "lines", "path"}:
            raise SchemaViolation(f"{where}: unknown fields present")
        eid = _req(item, "id", str, where)
        if eid in edges:
            raise SchemaViolation(f"{where}: duplicate edge id {eid!r}")
        raw_lines = _req(item, "lines", list, where)
        if not all(isinstance(l, str) for l in raw_lines):
            raise SchemaViolation(f"{where}: lines must be strings")
        raw_path = _req(item, "path", list, where)
        try:
            pts = [(float(p[0]), float(p[1])) for p in raw_path]
            path = Polyline(pts)
        except (TypeError, IndexError, ValueError) as exc:
            raise SchemaViolation(f"{where}: bad path: {exc}") from exc
        edges[eid] = LGEdge(
            id=eid,
            a=_req(item, "a", str, where),
            b=_req(item, "b", str, where),
            lines=tuple(raw_lines),
            path=path,
        )

    lines: dict[str, TransitLine] = {}
    for i, item in enumerate(doc["lines"]):
        where = f"lines[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolation(f"{where}: must be an object")
        if set(item) - {"id", "label", "color"}:
            raise SchemaViolation(f"{where}: unknown fields present")
        lid = _req(item, "id", str, where)
        if lid in lines:
            raise SchemaViolation(f"{where}: duplicate line id {lid!r}")
        lines[lid] = TransitLine(
            id=lid,
            label=_req(item, "label", str, where),
            color=_req(item, "color", str, where),
        )

    g = LineGraph(nodes=nodes, edges=edges, lines=lines)
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


class _Builder:
    """Merge loop over the live edges.

    `pairs` holds, in the order they were found, only the pairs of live
    edges that share a segment: each merge adds the pairs of its fresh
    edges and drops those of the two edges it kills, so picking the next
    merge looks at a few hundred pairs, not at every pair ever checked.
    """

    def __init__(self, raw: RawNetwork, d_hat: float, sweep_step: float,
                 k: int, min_seg_len: float, shuffle_rng,
                 merge_budget: int | None) -> None:
        self.d_hat = d_hat
        self.sweep_step = sweep_step
        self.k = k
        self.min_seg_len = min_seg_len
        self.shuffle_rng = shuffle_rng
        self.nodes: dict[str, dict] = {}
        self.edges: dict[str, _BEdge] = {}
        self.pairs: dict[tuple[str, str], tuple[SharedSegment, str]] = {}
        self._next_edge = 0
        self._next_aux = 0
        self.lines_table = dict(raw.lines)

        for sid in sorted(raw.stations):
            st = raw.stations[sid]
            self.nodes[sid] = {
                "kind": "station", "x": float(st.xy[0]), "y": float(st.xy[1]),
                "station_id": sid, "name": st.name,
            }
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
        eid = f"e{self._next_edge}"
        self._next_edge += 1
        # dt, and so the sweep, depends only on the path: compute it once
        # for all pairs this edge is swept in
        dt = min(0.5, self.sweep_step / path.length)
        self.edges[eid] = _BEdge(id=eid, a=a, b=b, lines=lines, path=path,
                                 bbox=path.bbox(), dt=dt,
                                 sweep=sweep_points(path, dt))
        return eid

    def _new_aux(self, x: float, y: float) -> str:
        nid = f"x{self._next_aux}"
        self._next_aux += 1
        self.nodes[nid] = {"kind": "aux", "x": float(x), "y": float(y),
                           "station_id": None, "name": None}
        return nid

    def _pair_key(self, i: str, j: str) -> tuple[str, str]:
        return (i, j) if i < j else (j, i)

    def _compute_pair(self, i: str, j: str) -> tuple[SharedSegment, str] | None:
        """Best shared segment between edges i and j, swept along the
        longer path.  Returns (segment, subject_edge_id) or None."""
        ei, ej = self.edges[i], self.edges[j]
        if ei.path.length > ej.path.length or (
                ei.path.length == ej.path.length and i < j):
            subject, target = ei, ej
        else:
            subject, target = ej, ei
        if subject.path.length < self.min_seg_len:
            return None
        segs = shared_segments(subject.path, target.path, self.d_hat,
                               subject.dt, k=self.k, min_len=self.min_seg_len,
                               sweep=subject.sweep)
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
        a segment, so one numpy comparison per fresh edge against all live
        boxes selects the pairs to sweep; they are swept in `self.edges`
        order, and a pair of two fresh edges once."""
        ids = list(self.edges)
        boxes = np.array([self.edges[j].bbox for j in ids])
        pad = self.d_hat
        done: set[str] = set()
        for i in fresh:
            bi = self.edges[i].bbox
            apart = ((bi[2] + pad < boxes[:, 0]) | (boxes[:, 2] + pad < bi[0])
                     | (bi[3] + pad < boxes[:, 1]) | (boxes[:, 3] + pad < bi[1]))
            done.add(i)
            for n in np.flatnonzero(~apart):
                j = ids[n]
                if j in done:
                    continue
                key = self._pair_key(i, j)
                found = self._compute_pair(*key)
                if found is not None:
                    self.pairs[key] = found

    def _pick(self) -> tuple[str, str] | None:
        """Longest shared extent first, ties to the larger key; a
        shuffle_rng draws uniformly from the stored pairs instead."""
        if not self.pairs:
            return None
        if self.shuffle_rng is not None:
            keys = list(self.pairs)
            return keys[int(self.shuffle_rng.integers(len(keys)))]
        return max(self.pairs.items(), key=lambda kv: (kv[1][0].extent, kv[0]))[0]

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

        del self.edges[ea.id], self.edges[eb.id]
        self.pairs = {k: v for k, v in self.pairs.items()
                      if ea.id not in k and eb.id not in k}
        node_u = res["U"] or self._new_aux(*merged.start)
        node_v = res["V"] or self._new_aux(*merged.end)

        def snapped(path_pts: np.ndarray, start_node: str, end_node: str) -> Polyline:
            pts = [tuple(p) for p in path_pts]
            sa = (self.nodes[start_node]["x"], self.nodes[start_node]["y"])
            sb = (self.nodes[end_node]["x"], self.nodes[end_node]["y"])
            if math.hypot(pts[0][0] - sa[0], pts[0][1] - sa[1]) > _COORD_TOL:
                pts.insert(0, sa)
            if math.hypot(pts[-1][0] - sb[0], pts[-1][1] - sb[1]) > _COORD_TOL:
                pts.append(sb)
            return Polyline(pts)

        new_ids = [self._add_edge(node_u, node_v, ea.lines | eb.lines,
                                  snapped(merged.pts, node_u, node_v))]
        for outer, fresh, aux_first, lines, (src, t0, t1), length in kept:
            fresh_node = node_u if fresh == "U" else node_v
            if fresh_node == outer:
                continue  # nothing left of this stub after contraction
            piece = src.sub(t0, t1)
            if aux_first:
                new_ids.append(self._add_edge(
                    fresh_node, outer, lines, snapped(piece.pts, fresh_node, outer)))
            else:
                new_ids.append(self._add_edge(
                    outer, fresh_node, lines, snapped(piece.pts, outer, fresh_node)))
        return new_ids

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
        nodes = {
            nid: LGNode(id=nid, kind=self.nodes[nid]["kind"],
                        x=self.nodes[nid]["x"], y=self.nodes[nid]["y"],
                        station_id=self.nodes[nid]["station_id"],
                        name=self.nodes[nid]["name"])
            for nid in used_nodes
        }
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
