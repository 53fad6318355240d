"""Reference implementations that only the tests use: plain, slow
versions of what the package computes in bulk or in one sweep, the
earlier scipy.optimize path that the bundled solver must match byte for
byte, and measurements of its output that the pipeline itself never
needs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from transitmap.core_reduce import ChainContraction, TerminusDetach, _terminates
from transitmap.geometry import _EPS, Polyline, SharedSegment, sweep_points
from transitmap.ilp_model import read_lp
from transitmap.line_graph import LGEdge, LGNode, LineGraph


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
