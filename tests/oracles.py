"""Reference implementations that only the tests use: plain, slow
versions of what the package computes in bulk or in one sweep (among
them the per-band and per-node render path that the whole-map passes of
render_svg replace), the earlier scipy.optimize path that the bundled
solver must match byte for byte, and measurements of its output that the
pipeline itself never needs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import replace
from itertools import combinations

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from transitmap.core_reduce import ChainContraction, TerminusDetach, _terminates
from transitmap.errors import DegenerateSegment, MalformedRow
from transitmap.geometry import (
    _BOX_SLACK,
    _EPS,
    Polyline,
    SharedSegment,
    _remove_local_loops,
    dots,
    sweep_points,
)
from transitmap.lp_dialect import read_lp
from transitmap.line_graph import LGEdge, LGNode, LineGraph
from transitmap.render_svg import NodeFront, _offset_delta


def count_proper_intersections(a_pts: np.ndarray, b_pts: np.ndarray) -> int:
    """Number of transversal (strictly interior, non-parallel) crossings
    between two polylines, vectorized over all segment pairs."""
    a0, a1 = a_pts[:-1], a_pts[1:]
    b0, b1 = b_pts[:-1], b_pts[1:]
    r = (a1 - a0)[:, None, :]
    s = (b1 - b0)[None, :, :]
    q = b0[None, :, :] - a0[:, None, :]
    denom = r[..., 0] * s[..., 1] - r[..., 1] * s[..., 0]
    ok = np.abs(denom) > _EPS
    denom = np.where(ok, denom, 1.0)
    t = (q[..., 0] * s[..., 1] - q[..., 1] * s[..., 0]) / denom
    u = (q[..., 0] * r[..., 1] - q[..., 1] * r[..., 0]) / denom
    hit = ok & (t > _EPS) & (t < 1 - _EPS) & (u > _EPS) & (u < 1 - _EPS)
    return int(hit.sum())


def sample(conn, n: int = 65) -> np.ndarray:
    """n points along a render_svg.InnerConnection's curve."""
    ts = np.linspace(0.0, 1.0, n)
    p = [np.asarray(q, dtype=float) for q in conn.points]
    if conn.kind == "straight":
        return p[0] + ts[:, None] * (p[1] - p[0])
    if conn.kind == "cubic-curve":
        p0, c1, c2, p3 = p
        u = 1.0 - ts
        return (u**3)[:, None] * p0 + (3 * u**2 * ts)[:, None] * c1 \
            + (3 * u * ts**2)[:, None] * c2 + (ts**3)[:, None] * p3
    p0, p3 = p
    center, a0, a1 = _arc_geometry(p0, p3, conn.arc_radius, conn.arc_sweep)
    if center is None:
        return p0 + ts[:, None] * (p3 - p0)
    angles = a0 + ts * (a1 - a0)
    return center + conn.arc_radius * np.stack(
        [np.cos(angles), np.sin(angles)], axis=1)


def _arc_geometry(p0: np.ndarray, p3: np.ndarray, radius: float, sweep: int):
    """Circle center and angle range of the minor arc from p0 to p3.
    sweep=1 walks counterclockwise in map coordinates."""
    chord = p3 - p0
    half = float(np.linalg.norm(chord)) / 2.0
    if radius < half or half < 1e-12:
        return None, 0.0, 0.0
    mid = (p0 + p3) / 2.0
    h = math.sqrt(max(radius * radius - half * half, 0.0))
    perp = np.array([-chord[1], chord[0]]) / (2.0 * half)
    center = mid - perp * h if sweep == 1 else mid + perp * h
    a0 = math.atan2(p0[1] - center[1], p0[0] - center[0])
    a1 = math.atan2(p3[1] - center[1], p3[0] - center[0])
    if sweep == 1 and a1 < a0:
        a1 += 2.0 * math.pi
    if sweep == 0 and a1 > a0:
        a1 -= 2.0 * math.pi
    return center, a0, a1


def read_table_by_dict(path, required, optional=()):
    """gtfs._read_table through one csv.DictReader dict per row, the way
    the feed tables were read before they were read by column: each row
    as the tuple of row.get(column) over the required and then the
    optional columns.  A broken CSV quote or NUL byte raises csv.Error
    here, where the column reader raises MalformedRow."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh, restkey="__extra__")
            header = reader.fieldnames
            if header is None:
                raise MalformedRow(f"{path.name}: empty file")
            missing = [c for c in required if c not in header]
            if missing:
                raise MalformedRow(f"{path.name}: missing columns {missing}")
            rows = []
            for i, row in enumerate(reader, start=2):
                if "__extra__" in row:
                    raise MalformedRow(f"{path.name}:{i}: more fields than header columns")
                rows.append(tuple(row.get(c) for c in required + optional))
            return rows
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"{path.name}: not valid UTF-8 ({exc})") from exc


def snap_params_by_sub(shape: Polyline, stop_pts):
    """Yield (t, d) of each stop on the shape, each matched on
    shape.sub(prev, 1.0) past its predecessor: the per-stop loop that
    Polyline.nearest_in_order replaces, without the tolerance check."""
    prev = 0.0
    for q in stop_pts:
        if prev >= 1.0 - 1e-12:
            t, d = 1.0, float(np.linalg.norm(shape.end - q))
        else:
            rest = shape.sub(prev, 1.0)
            t_loc, d = rest.nearest_point_param(q)
            t = prev + t_loc * (1.0 - prev)
        yield t, d
        prev = t


def shared_segments_by_loop(a: Polyline, b: Polyline, d_hat: float, dt: float,
                            k: int = 2, min_len: float = 0.0) -> list:
    """geometry.shared_segments with its runs found by a loop over every
    sweep step, outlier counter and all."""
    ts, pts = sweep_points(a, dt)
    tb, dist = b.nearest_many(pts, radius=d_hat)
    inside = dist <= d_hat
    out = []
    open_first = last_in = -1
    misses = 0

    def close(first: int, last: int) -> None:
        extent = (ts[last] - ts[first]) * a.length
        if extent >= min_len and last > first:
            out.append(SharedSegment(
                range_a=(float(ts[first]), float(ts[last])),
                range_b=(float(tb[first]), float(tb[last])),
                extent=float(extent),
            ))

    for i in range(len(ts)):
        if inside[i]:
            if open_first < 0:
                open_first = i
            last_in = i
            misses = 0
        elif open_first >= 0:
            misses += 1
            if misses > k:
                close(open_first, last_in)
                open_first = -1
                misses = 0
    if open_first >= 0:
        close(open_first, last_in)
    return out


def milp_solve_lp_file(model_path, out_path) -> int:
    """lp_solve.solve_lp_file as it was built on scipy.optimize.milp: a
    CSR matrix with repeated terms summed, rows bounded by their
    relation, every column an integer in [0, 1].  Returns 0 after
    writing the solution, 2 on an infeasible model and 3 on any other
    failed solve."""
    model = read_lp(model_path)
    names = list(model.variables)
    lines = []
    if names:
        index = {name: i for i, name in enumerate(names)}
        objective = np.array([model.variables[n].objective for n in names])
        rows, cols, coefs = [], [], []
        con_lo, con_hi = [], []
        for i, con in enumerate(model.constraints):
            for coef, var in con.terms:
                rows.append(i)
                cols.append(index[var])
                coefs.append(coef)
            con_lo.append(-np.inf if con.relation == "<=" else con.rhs)
            con_hi.append(np.inf if con.relation == ">=" else con.rhs)
        matrix = sparse.csr_matrix(
            (coefs, (rows, cols)), shape=(len(model.constraints), len(names)))
        result = milp(c=objective, integrality=1, bounds=Bounds(0, 1),
                      constraints=LinearConstraint(matrix, con_lo, con_hi))
        if result.status == 2:
            return 2
        if not result.success:
            return 3
        lines = [f"{name} {int(round(value))}\n"
                 for name, value in zip(names, result.x)]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return 0


def contract_chains_by_rescan(nodes, edges, weights, new_edge_id, rmap) -> bool:
    """core_reduce._contract_chains as a loop that rebuilds the graph and
    rescans every node from the smallest id after each contraction."""
    max_split = weights.max_split_cross()
    max_sep = weights.max_separation()
    did = False
    while True:
        cur = LineGraph(nodes, edges, {})
        pick = None
        for v in sorted(nodes):
            if cur.degree(v) != 2:
                continue
            ea_id, eb_id = sorted(cur.incident(v))
            ea, eb = edges[ea_id], edges[eb_id]
            if ea.lines != eb.lines:
                continue
            u, w = ea.other(v), eb.other(v)
            if u == w:
                continue
            try:
                nw = weights.for_node(v)
            except KeyError:
                continue
            if nw.same_cross < max_split or nw.separation < max_sep:
                continue
            pick = (v, ea_id, eb_id, u, w)
            break
        if pick is None:
            return did
        v, ea_id, eb_id, u, w = pick
        ea, eb = edges.pop(ea_id), edges.pop(eb_id)
        nodes.pop(v)
        pa = ea.path.pts if ea.b == v else ea.path.reversed().pts
        pb = eb.path.pts if eb.a == v else eb.path.reversed().pts
        mid = new_edge_id()
        edges[mid] = LGEdge(
            id=mid, a=u, b=w, lines=ea.lines, path=Polyline(np.vstack([pa, pb])))
        rmap.record(ChainContraction(
            node=v, edge_a=ea_id, edge_b=eb_id, merged_edge=mid,
            reversed_a=ea.b != v, reversed_b=eb.a != v))
        did = True


def detach_termini_by_rescan(nodes, edges, lines, new_node_id, actions) -> None:
    """core_reduce._detach_termini as a loop that rebuilds the graph and
    rescans from the first edge after each detach."""
    changed = True
    while changed:
        changed = False
        cur = LineGraph(nodes, edges, lines)
        for eid in sorted(edges):
            e = edges[eid]
            for v in (e.a, e.b):
                if cur.degree(v) <= 1:
                    continue
                if not all(_terminates(cur, lid, v) for lid in e.lines):
                    continue
                fresh = new_node_id()
                old = nodes[v]
                nodes[fresh] = LGNode(id=fresh, kind="aux", x=old.x, y=old.y)
                if v == e.a:
                    edges[eid] = LGEdge(
                        id=eid, a=fresh, b=e.b, lines=e.lines, path=e.path)
                else:
                    edges[eid] = LGEdge(
                        id=eid, a=e.a, b=fresh, lines=e.lines, path=e.path)
                actions.append(TerminusDetach(edge=eid, node=v, fresh_node=fresh))
                changed = True
                break
            if changed:
                break


# ── the per-item render path ────────────────────────────────────────


def offset_polyline_per_band(p: Polyline, delta: float,
                             miter_limit: float = 2.0) -> Polyline:
    """geometry.offset_polyline as one array expression per polyline, the
    loop cleanup run on every polyline."""
    if abs(delta) < _EPS:
        return Polyline(p.pts.copy())
    pts = p.pts
    seg = np.diff(pts, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    dirs = seg / seg_len[:, None]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    n1, n2 = normals[:-1], normals[1:]
    mid = pts[1:-1]
    dot = dots(n1, n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        miter_ratio = np.where(dot < 1.0, np.sqrt(2.0 / (1.0 + dot)), 1.0)
        miter = mid + delta * (n1 + n2) / (1.0 + dot)[:, None]
    bevel = (dot < -1.0 + 1e-6) | (miter_ratio > miter_limit)
    joins = np.stack([np.where(bevel[:, None], mid + delta * n1, miter),
                      mid + delta * n2], axis=1)
    keep = np.stack([np.ones_like(bevel), bevel], axis=1)
    out = np.concatenate([pts[:1] + delta * normals[:1], joins[keep],
                          pts[-1:] + delta * normals[-1:]])
    return Polyline(_remove_local_loops(out))


def offset_lines_per_band(g, o, style) -> dict:
    """render_svg.offset_lines with one offset_polyline call per band."""
    out = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        n = len(e.lines)
        for p, line in enumerate(o.lines_at(eid), start=1):
            out[(eid, line)] = offset_polyline_per_band(
                e.path, _offset_delta(n, p, style.line_width))
    return out


def _front_param(g, node_id, edge_id, trim):
    e = g.edges[edge_id]
    t_end = min(max(trim / e.path.length, 0.0), 1.0)
    return t_end if node_id == e.a else 1.0 - t_end


def _baseline(frame, n, w):
    x, y, tx, ty = frame
    half = w * n / 2.0
    lx, ly = -ty, tx
    return (x + lx * half, y + ly * half), (x - lx * half, y - ly * half)


def _make_front(g, node_id, edge_id, t, w) -> NodeFront:
    e = g.edges[edge_id]
    frame = e.path.frame_at(t, arriving=node_id == e.b)
    x, y, tx, ty = frame
    lx, ly = -ty, tx
    n = len(e.lines)
    ports = tuple((x + lx * d, y + ly * d)
                  for d in (_offset_delta(n, p, w) for p in range(1, n + 1)))
    return NodeFront(node=node_id, edge=edge_id,
                     baseline=_baseline(frame, n, w), ports=ports,
                     normal=(tx, ty) if node_id == e.a else (-tx, -ty), t=t)


def _point_segment_distance(q, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    len2 = dx * dx + dy * dy
    if len2 < 1e-18:
        return math.hypot(q[0] - a[0], q[1] - a[1])
    t = min(max(((q[0] - a[0]) * dx + (q[1] - a[1]) * dy) / len2, 0.0), 1.0)
    return math.hypot(q[0] - (a[0] + t * dx), q[1] - (a[1] + t * dy))


def _segments_cross(a0, a1, b0, b1) -> bool:
    rx, ry = a1[0] - a0[0], a1[1] - a0[1]
    sx, sy = b1[0] - b0[0], b1[1] - b0[1]
    denom = rx * sy - ry * sx
    if abs(denom) < 1e-12:
        return False
    qx, qy = b0[0] - a0[0], b0[1] - a0[1]
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def segment_distance(seg_a, seg_b) -> float:
    """Distance between two segments given as pairs of (x, y) floats."""
    a0, a1 = seg_a
    b0, b1 = seg_b
    if _segments_cross(a0, a1, b0, b1):
        return 0.0
    return min(_point_segment_distance(a0, b0, b1),
               _point_segment_distance(a1, b0, b1),
               _point_segment_distance(b0, a0, a1),
               _point_segment_distance(b1, a0, a1))


def convex_hull_by_unique(points: np.ndarray) -> np.ndarray:
    """render_svg._convex_hull with its rows deduplicated by np.unique."""
    pts = np.unique(np.round(points, 9), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))].tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def expand_node_fronts_per_node(g, style):
    """render_svg.expand_node_fronts stepping one node at a time, its
    fronts from scalar frame_at calls."""
    w = style.line_width
    buffer = style.resolved_buffer()
    max_exp = style.resolved_max_expansion(g.max_lines_per_edge)
    fronts_out, polygons = {}, {}
    for nid in sorted(g.nodes):
        inc = g.incident(nid)
        trims = {eid: min(buffer, g.edges[eid].path.length) for eid in inc}
        while True:
            at = {eid: _front_param(g, nid, eid, trims[eid]) for eid in inc}
            baselines = {eid: _baseline(g.edges[eid].path.frame_at(
                                            at[eid], arriving=nid == g.edges[eid].b),
                                        len(g.edges[eid].lines), w)
                         for eid in inc}
            crowded = set()
            for e1, e2 in combinations(sorted(inc), 2):
                if segment_distance(baselines[e1], baselines[e2]) < w - 1e-9:
                    crowded.update((e1, e2))
            if not crowded:
                break
            moved = False
            for eid in sorted(crowded):
                cap = min(max_exp, g.edges[eid].path.length)
                if trims[eid] + 1e-9 < cap:
                    trims[eid] = min(trims[eid] + w / 2.0, cap)
                    moved = True
            if not moved:
                break
        pts = [g.nodes[nid].xy]
        for eid in inc:
            fronts_out[(nid, eid)] = _make_front(g, nid, eid, at[eid], w)
            pts.extend(baselines[eid])
        polygons[nid] = convex_hull_by_unique(np.array(pts))
    return fronts_out, polygons


def trim_edges_per_edge(g, fronts) -> LineGraph:
    """render_svg._trim_edges with one Polyline.sub per drawn edge."""
    edges = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        t0, t1 = fronts[(e.a, eid)].t, fronts[(e.b, eid)].t
        if t1 - t0 > 1e-6:
            edges[eid] = replace(e, path=e.path.sub(t0, t1))
    return LineGraph(g.nodes, edges, g.lines, g.line_weight)


# ── polyline primitives through numpy's wrappers ─────────────────────
#
# The Polyline code before its primitives dropped np.clip, np.linspace,
# np.linalg.norm, np.diff, np.vstack and np.all; each function returns
# plain arrays, so it does not go through the code it checks.

def polyline_arrays_by_norm(points) -> tuple[np.ndarray, np.ndarray]:
    """(pts, _cum) of Polyline(points): near-duplicates dropped by
    np.linalg.norm over np.diff, the cumulative lengths by concatenate."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateSegment(f"expected (N, 2) points, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DegenerateSegment("non-finite coordinate in polyline")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    keep = seg > _EPS
    if not keep.all():
        pts = pts[np.concatenate(([True], keep))]
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    if len(pts) < 2:
        raise DegenerateSegment("polyline collapsed below two distinct points")
    return pts, np.concatenate(([0.0], np.cumsum(seg)))


def param_points_by_clip(pts: np.ndarray, cum: np.ndarray, ts) -> np.ndarray:
    """Polyline.param_points on the arrays of a polyline, with np.clip."""
    ts = np.clip(np.asarray(ts, dtype=float), 0.0, 1.0)
    s = ts * float(cum[-1])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(pts) - 2)
    seg_len = cum[idx + 1] - cum[idx]
    local = np.where(seg_len > _EPS, (s - cum[idx]) / np.maximum(seg_len, _EPS), 0.0)
    p0 = pts[idx]
    return p0 + local[:, None] * (pts[idx + 1] - p0)


def sub_arrays_by_vstack(pts: np.ndarray, cum: np.ndarray, t0: float,
                         t1: float) -> tuple[np.ndarray, np.ndarray]:
    """(pts, _cum) of Polyline.sub(t0, t1) on the arrays of a polyline."""
    if t1 <= t0 + _EPS:
        raise DegenerateSegment(f"empty parameter range [{t0}, {t1}]")
    length = float(cum[-1])
    i0 = int(np.searchsorted(cum, t0 * length, side="right"))
    i1 = int(np.searchsorted(cum, t1 * length, side="left"))
    head, tail = param_points_by_clip(pts, cum, [t0, t1])
    return polyline_arrays_by_norm(np.vstack([head, pts[i0:i1], tail]))


def resample_by_linspace(pts: np.ndarray, cum: np.ndarray, n: int) -> np.ndarray:
    """Polyline.resample(n) on the arrays of a polyline, with np.linspace."""
    return param_points_by_clip(pts, cum, np.linspace(0.0, 1.0, max(int(n), 2)))


def departure_angle_per_edge(g: LineGraph, edge_id: str, node_id: str) -> float:
    """LineGraph.departure_angle from the tangent of the edge's own
    frame_at, one edge end at a time."""
    e = g.edges[edge_id]
    if node_id == e.a:
        v = np.array(e.path.frame_at(0.0)[2:])
    elif node_id == e.b:
        v = -np.array(e.path.frame_at(1.0)[2:])
    else:
        raise KeyError(f"node {node_id!r} is not an endpoint of edge {edge_id!r}")
    return math.atan2(float(v[1]), float(v[0]))


def box_spans_by_loop(sweeps, boxes, radius: float) -> list[float]:
    """geometry.box_spans, one sweep point at a time."""
    pad = radius + _BOX_SLACK
    out = []
    for (ts, pts), (x0, y0, x1, y1) in zip(sweeps, boxes.tolist()):
        inside = [i for i, (x, y) in enumerate(pts.tolist())
                  if x0 - pad <= x <= x1 + pad and y0 - pad <= y <= y1 + pad]
        out.append(float(ts[inside[-1]] - ts[inside[0]]) if inside else -math.inf)
    return out
