"""Geographic map rendering in four stages: expanded node fronts, line
bands offset from the edge paths cut at the fronts, inner connection
curves, and layered SVG assembly.

The map is rendered in whole-map array passes, not item by item: node
fronts stepped for all still-crowded nodes at once (expand_node_fronts),
one cut of all edge paths between their fronts (_trim_edges), and one
offset pass for all bands of the cut paths (offset_lines).  A band is
its edge's cut path offset, so it starts and ends at its two ports.
Each pass runs the arithmetic of the per-item computation it replaces,
elementwise and in the same order of operations, so its results, and
the SVG bytes, are the same bits; tests/oracles.py keeps the per-item
path to check this.

Orientation convention, shared with the event semantics: position 1 of
an edge's ordering is the leftmost line when walking the edge's
canonical path direction.  The band of the line at position p is the
edge geometry offset left by w * ((n + 1) / 2 - p) for n carried lines,
which centers the band on the path: a single line renders on the path
itself, and adjacent lines sit exactly one line width apart.  Rendered
connection curves then realize exactly the crossings the evaluator
prices, which the tests use as geometric ground truth.

Coordinate contract: every SVG coordinate is the map point shifted to
(x - min_x, max_y - y) and written with two decimals, correctly rounded
from the double (as round(v, 2) rounds), with "-0.00" written "0.00".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .errors import PreconditionViolated, SchemaViolation
from .geometry import Polyline, PolylineStack, cut_many, dots, offset_many
from .ilp_model import Ordering
from .line_graph import LineGraph

__all__ = [
    "InnerConnection",
    "NodeFront",
    "RenderStyle",
    "expand_node_fronts",
    "inner_connections",
    "offset_lines",
    "render_map",
]

_CURVE_KINDS = ("cubic-curve", "arc", "straight")


@dataclass(frozen=True)
class RenderStyle:
    """Rendering knobs.  max_expansion and buffer_radius default to
    4 * line_width * (max lines per edge) and line_width respectively
    when left unset."""

    line_width: float = 4.0
    max_expansion: float | None = None
    buffer_radius: float | None = None
    curve: str = "cubic-curve"

    def __post_init__(self) -> None:
        # written so that NaN, which compares False, fails each test
        if not 0 < self.line_width < math.inf:
            raise PreconditionViolated("line width must be positive and finite")
        if self.max_expansion is not None and not 0 < self.max_expansion < math.inf:
            raise PreconditionViolated("max expansion must be positive and finite")
        if self.buffer_radius is not None and not 0 < self.buffer_radius < math.inf:
            raise PreconditionViolated("buffer radius must be positive and finite")
        if self.curve not in _CURVE_KINDS:
            raise SchemaViolation(
                f"unknown curve kind {self.curve!r}; expected one of "
                f"{', '.join(_CURVE_KINDS)}")

    def resolved_buffer(self) -> float:
        return self.line_width if self.buffer_radius is None else self.buffer_radius

    def resolved_max_expansion(self, max_lines: int) -> float:
        if self.max_expansion is not None:
            return self.max_expansion
        return 4.0 * self.line_width * max(max_lines, 1)


def _offset_delta(n: int, p: int, w: float) -> float:
    """Leftward offset of position p among n lines at width w."""
    return w * ((n + 1) / 2.0 - p)


def offset_lines(g: LineGraph, o: Ordering,
                 style: RenderStyle) -> dict[tuple[str, str], Polyline]:
    """Per (edge, line) band geometry: the edge path offset left by the
    centered position formula.

    One geometry.offset_many pass offsets every band of the map: it
    takes each edge's normals and joins once, scales them by each
    position's delta in one array expression, and sends only the bands
    that its one window test finds a loop in through the loop cut.  Every
    step is elementwise, so each band has the bits of offset_polyline on
    that edge and delta alone."""
    o.validate_for(g)
    eids = sorted(g.edges)
    deltas = [[_offset_delta(len(g.edges[eid].lines), p, style.line_width)
               for p in range(1, len(g.edges[eid].lines) + 1)] for eid in eids]
    bands = offset_many([g.edges[eid].path for eid in eids], deltas)
    return dict(zip(((eid, line) for eid in eids for line in o.lines_at(eid)),
                    bands))


# ── node fronts ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class NodeFront:
    """Where an edge's band ends at a node.

    baseline spans the band perpendicular to the path, left end first
    (left as seen walking the edge's canonical direction).  ports[i] is
    the endpoint of the band slot at position i + 1, so ports run left
    to right.  normal is the unit vector pointing out of the node area
    into the band.  t is the parameter on the edge's path where the
    front sits."""

    node: str
    edge: str
    baseline: tuple[tuple[float, float], tuple[float, float]]
    ports: tuple[tuple[float, float], ...]
    normal: tuple[float, float]
    t: float


def _crowded(seg_a: np.ndarray, seg_b: np.ndarray, w: float) -> np.ndarray:
    """For each pair of segments seg_a[k], seg_b[k] (arrays of (end,
    coordinate) rows), whether they cross or come closer than one line
    width w, less 1e-9.  The crossing test and the four point-segment
    distances run the scalar arithmetic of the per-pair test, operation
    for operation, and the distances come from math.hypot (np.hypot can
    differ in the last bit), so every answer is the scalar one."""
    (a0x, a0y), (a1x, a1y) = seg_a[:, 0].T, seg_a[:, 1].T
    (b0x, b0y), (b1x, b1y) = seg_b[:, 0].T, seg_b[:, 1].T
    rx, ry, sx, sy = a1x - a0x, a1y - a0y, b1x - b0x, b1y - b0y
    denom = rx * sy - ry * sx
    ok = ~(np.abs(denom) < 1e-12)
    denom = np.where(ok, denom, 1.0)
    qx, qy = b0x - a0x, b0y - a0y
    t = (qx * sy - qy * sx) / denom
    u = (qx * ry - qy * rx) / denom
    cross = ok & (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
    # each end of one segment against the other segment
    qx, qy = np.stack([a0x, a1x, b0x, b1x]), np.stack([a0y, a1y, b0y, b1y])
    ax, ay = np.stack([b0x, b0x, a0x, a0x]), np.stack([b0y, b0y, a0y, a0y])
    dx = np.stack([b1x, b1x, a1x, a1x]) - ax
    dy = np.stack([b1y, b1y, a1y, a1y]) - ay
    len2 = dx * dx + dy * dy
    point = len2 < 1e-18
    t = ((qx - ax) * dx + (qy - ay) * dy) / np.where(point, 1.0, len2)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    ex = np.where(point, qx - ax, qx - (ax + t * dx))
    ey = np.where(point, qy - ay, qy - (ay + t * dy))
    dist = np.fromiter(map(math.hypot, ex.ravel().tolist(), ey.ravel().tolist()),
                       float, ex.size).reshape(ex.shape)
    gap = np.where(cross, 0.0, dist.min(axis=0))
    return gap < w - 1e-9


def _unique_rows(points: np.ndarray) -> np.ndarray:
    """The rows of points rounded to 1e-9, sorted by x and then y, each
    run of equal rows kept once: the rows np.unique(axis=0) returns, in
    its order, without the import of numpy.ma that np.unique makes."""
    pts = np.round(points, 9)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    return pts[np.concatenate(([True], (pts[1:] != pts[:-1]).any(axis=1)))]


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, tolerant of degenerate input."""
    pts = _unique_rows(points)
    if len(pts) <= 2:
        return pts
    pts = pts.tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def expand_node_fronts(
    g: LineGraph, style: RenderStyle
) -> tuple[dict[tuple[str, str], NodeFront], dict[str, np.ndarray]]:
    """Trim bands back from every node until distinct edges' fronts are
    at least one line width apart, stepping half a line width at a time
    up to the style's maximum expansion, then build the fronts and the
    node polygons (convex hull of the node and its front baselines).

    All still-crowded nodes step together.  Each step takes the frames
    of their fronts in one geometry.PolylineStack.frames pass, their
    baselines in one array expression, and the crowding of every pair
    of fronts at one of them in one _crowded pass; a node stops when no
    pair is crowded or no crowded front can move.  Nodes do not interact,
    and every value is computed with the scalar operations in their
    order (frame_at's, the baseline's, the pair test's), so each node
    ends at the trims, fronts and polygon of stepping it alone."""
    w = style.line_width
    buffer = style.resolved_buffer()
    max_exp = style.resolved_max_expansion(g.max_lines_per_edge)
    eids, nids = sorted(g.edges), sorted(g.nodes)
    # one front per (node, incident edge), node by node
    keys = [(nid, eid) for nid in nids for eid in g.incident(nid)]
    index = {key: k for k, key in enumerate(keys)}
    pairs = np.array([(index[(nid, e1)], index[(nid, e2)]) for nid in nids
                      for e1, e2 in combinations(sorted(g.incident(nid)), 2)],
                     dtype=int).reshape(-1, 2)
    degree = np.array([g.degree(nid) for nid in nids], dtype=int)
    node, node_first = np.repeat(np.arange(len(nids)), degree), np.cumsum(degree) - degree
    col = {eid: j for j, eid in enumerate(eids)}
    edge = np.array([col[eid] for _, eid in keys], dtype=int)
    from_a = np.array([nid == g.edges[eid].a for nid, eid in keys], dtype=bool)
    n = np.array([len(g.edges[eid].lines) for _, eid in keys], dtype=int)
    first = np.cumsum(n) - n  # of each front's ports
    length = np.array([g.edges[eid].path.length for _, eid in keys])
    stack = PolylineStack([g.edges[eid].path for eid in eids]) if eids else None
    trims = np.minimum(buffer, length)
    cap = np.minimum(max_exp, length)
    half = w * n / 2.0
    ts = np.empty(len(keys))  # each front's parameter on its path
    frame = np.empty((4, len(keys)))  # x, y, tx, ty
    base = np.empty((len(keys), 2, 2))  # baseline ends, left first
    active = np.full(len(nids), bool(keys))
    while active.any():
        f = np.flatnonzero(active[node])
        t_end = np.minimum(np.maximum(trims[f] / length[f], 0.0), 1.0)
        ts[f] = np.where(from_a[f], t_end, 1.0 - t_end)
        # a front at edge.b takes the segment arriving there, which its
        # band's cut ends with
        frame[:, f] = stack.frames(edge[f], ts[f], ~from_a[f])
        x, y, tx, ty = frame[:, f]
        lx, ly, h = -ty, tx, half[f]
        base[f, 0] = np.column_stack((x + lx * h, y + ly * h))
        base[f, 1] = np.column_stack((x - lx * h, y - ly * h))
        p = pairs[active[node[pairs[:, 0]]]]
        crowded = np.zeros(len(keys), dtype=bool)
        crowded[p[_crowded(base[p[:, 0]], base[p[:, 1]], w)].ravel()] = True
        grow = crowded & (trims + 1e-9 < cap)
        trims[grow] = np.minimum(trims[grow] + w / 2.0, cap[grow])
        active[:] = False
        active[node[grow]] = True
    # the last step of each node measured its fronts at its final trims;
    # port i of a front is its point offset by _offset_delta(n, i + 1, w)
    k = np.repeat(np.arange(len(keys)), n)
    d = w * ((n[k] + 1) / 2.0 - (np.arange(len(k)) - np.repeat(first, n) + 1))
    x, y, tx, ty = frame[:, k]
    ports = list(zip((x + -ty * d).tolist(), (y + tx * d).tolist()))
    x, y, tx, ty = frame.tolist()
    fronts_out = {
        (nid, eid): NodeFront(
            node=nid, edge=eid, baseline=(tuple(b0), tuple(b1)),
            ports=tuple(ports[a:a + m]),
            normal=(tx[i], ty[i]) if at_a else (-tx[i], -ty[i]), t=t)
        for i, ((nid, eid), (b0, b1), a, m, at_a, t) in enumerate(zip(
            keys, base.tolist(), first.tolist(), n.tolist(), from_a.tolist(),
            ts.tolist()))}
    polygons = {nid: _convex_hull(np.concatenate(
                    ([g.nodes[nid].xy], base[a:a + m].reshape(-1, 2))))
                for nid, a, m in zip(nids, node_first.tolist(), degree.tolist())}
    return fronts_out, polygons


# ── inner connections ───────────────────────────────────────────────


@dataclass(frozen=True)
class InnerConnection:
    """One line's curve across a node, from its port on the arrival
    front to its port on the departure front.  points holds the curve
    geometry: endpoints plus both control points for cubic curves, the
    endpoints for straight segments, and endpoints plus (radius, sweep)
    for circular arcs."""

    node: str
    line: str
    edge_from: str
    edge_to: str
    kind: str
    points: tuple[tuple[float, float], ...]
    arc_radius: float = 0.0
    arc_sweep: int = 0


def inner_connections(
    g: LineGraph, o: Ordering, fronts: dict[tuple[str, str], NodeFront],
    style: RenderStyle,
) -> dict[tuple[str, str], InnerConnection]:
    """One curve per (node, continuing line), keyed by that pair.
    Cubic control points sit one third of the port distance into the
    node along each front's inward normal."""
    out: dict[tuple[str, str], InnerConnection] = {}
    for nid in sorted(g.nodes):
        for line, (e1, e2) in sorted(g.continuations_at(nid).items()):
            f1, f2 = fronts[(nid, e1)], fronts[(nid, e2)]
            p0 = np.asarray(f1.ports[o.position(e1, line) - 1])
            p3 = np.asarray(f2.ports[o.position(e2, line) - 1])
            dist = float(np.linalg.norm(p3 - p0))
            if style.curve == "cubic-curve":
                c1 = p0 - np.asarray(f1.normal) * (dist / 3.0)
                c2 = p3 - np.asarray(f2.normal) * (dist / 3.0)
                points = (tuple(p0), tuple(c1), tuple(c2), tuple(p3))
                conn = InnerConnection(nid, line, e1, e2, "cubic-curve", points)
            elif style.curve == "straight":
                conn = InnerConnection(nid, line, e1, e2, "straight",
                                       (tuple(p0), tuple(p3)))
            else:
                inward = -(np.asarray(f1.normal) + np.asarray(f2.normal))
                chord = p3 - p0
                side = chord[0] * inward[1] - chord[1] * inward[0]
                sweep = 1 if side < 0 else 0
                conn = InnerConnection(nid, line, e1, e2, "arc",
                                       (tuple(p0), tuple(p3)),
                                       arc_radius=max(dist, 1e-9), arc_sweep=sweep)
            out[(nid, line)] = conn
    return out


# ── SVG assembly ────────────────────────────────────────────────────


def _fmt(v: float) -> str:
    r = round(v, 2)
    if r == 0:
        r = 0.0
    return f"{r:.2f}"


def _fill(template: str, xy: np.ndarray) -> str:
    """template % the coordinates of xy in row order, each written as
    _fmt writes it: "%.2f" rounds correctly from the double, as round
    does, and "-0.00" becomes "0.00".  The template may hold no other
    number that can read "-0.00"."""
    return (template % tuple(xy.ravel().tolist())).replace("-0.00", "0.00")


def _safe_id(raw: str) -> str:
    return "".join(c if c.isalnum() or c in "_-" else "_" for c in raw)


def _trim_edges(g: LineGraph,
                fronts: dict[tuple[str, str], NodeFront]) -> LineGraph:
    """g with each edge's path cut between the parameters of its two
    fronts, in one geometry.cut_many pass, each cut equal to the path's
    sub.  An edge whose fronts leave at most 1e-6 of its path parameter
    is left out: the node polygons cover it."""
    edges = [g.edges[eid] for eid in sorted(g.edges)]
    t0 = np.array([fronts[(e.a, e.id)].t for e in edges])
    t1 = np.array([fronts[(e.b, e.id)].t for e in edges])
    drawn = np.flatnonzero(t1 - t0 > 1e-6).tolist()
    cuts = Polyline.many(cut_many([edges[k].path for k in drawn],
                                  t0[drawn], t1[drawn]))
    return LineGraph(g.nodes, {edges[k].id: replace(edges[k], path=path)
                               for k, path in zip(drawn, cuts)},
                     g.lines, g.line_weight)


def _label_direction(g: LineGraph, nid: str) -> np.ndarray:
    """Unit direction pointing away from the node's busiest sides: the
    first of 16 compass directions whose largest dot product with an
    incident edge's departure direction is least, up to 1e-12."""
    angles = [g.departure_angle(eid, nid) for eid in g.incident(nid)]
    if not angles:
        return np.array([1.0, 0.0])
    dirs = np.array([[math.cos(a), math.sin(a)] for a in angles])
    cands = np.array([[math.cos(a), math.sin(a)]
                      for a in (2.0 * math.pi * k / 16.0 for k in range(16))])
    scores = dots(cands[:, None, :], dirs[None, :, :]).max(axis=1).tolist()
    best = 0
    for k, score in enumerate(scores):
        if score < scores[best] - 1e-12:
            best = k
    return cands[best]


def render_map(g: LineGraph, o: Ordering, style: RenderStyle | None = None,
               out=None) -> str:
    """Assemble the layered SVG document and optionally write it.

    Layers, in paint order: line bands, inner connections, station
    polygons, station labels.  Element order and coordinate formatting
    are deterministic, so identical inputs produce identical bytes.

    The node fronts come first.  Each edge's path is then cut between
    its two fronts (_trim_edges), and offset_lines offsets the cut
    paths, so each band ends where the front's port sits and its inner
    connection starts."""
    style = style or RenderStyle()
    o.validate_for(g)
    w = style.line_width
    buffer = style.resolved_buffer()
    fronts, polygons = expand_node_fronts(g, style)
    conns = inner_connections(g, o, fronts, style)
    bands = offset_lines(_trim_edges(g, fronts), o, style)

    if g.nodes or g.edges:
        xy = np.concatenate([e.path.pts for e in g.edges.values()]
                            + list(polygons.values()))
        margin = buffer + w * (g.max_lines_per_edge + 1)
        min_x, min_y = (xy.min(axis=0) - margin).tolist()
        max_x, max_y = (xy.max(axis=0) + margin).tolist()
        width, height = max_x - min_x, max_y - min_y
    else:
        min_x = min_y = 0.0
        max_y = 100.0
        width = height = 100.0

    def svg_path(template: str, points) -> str:
        # the SVG y axis points down: x - min_x, max_y - y
        xy = np.asarray(points, dtype=float)
        return _fill(template, np.column_stack((xy[:, 0] - min_x,
                                                max_y - xy[:, 1])))

    def polyline_path(points, close: str = "") -> str:
        return svg_path("M " + " L ".join(["%.2f %.2f"] * len(points))
                        + close, points)

    lines_out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '  <g id="line-bands">',
    ]

    for (eid, line), band in sorted(bands.items()):
        lines_out.append(
            f'    <path id="band-{_safe_id(eid)}-{_safe_id(line)}" '
            f'fill="none" stroke="{g.lines[line].color}" '
            f'stroke-width="{_fmt(w)}" d="{polyline_path(band.pts)}"/>')
    lines_out.append("  </g>")

    lines_out.append('  <g id="inner-connections">')
    for (nid, line), conn in sorted(conns.items()):
        if conn.kind == "cubic-curve":
            template = "M %.2f %.2f C %.2f %.2f, %.2f %.2f, %.2f %.2f"
        elif conn.kind == "straight":
            template = "M %.2f %.2f L %.2f %.2f"
        else:
            r = _fmt(conn.arc_radius)
            svg_sweep = 1 - conn.arc_sweep  # the y flip mirrors orientation
            template = f"M %.2f %.2f A {r} {r} 0 0 {svg_sweep} %.2f %.2f"
        d = svg_path(template, conn.points)
        lines_out.append(
            f'    <path id="conn-{_safe_id(nid)}-{_safe_id(line)}" '
            f'fill="none" stroke="{g.lines[line].color}" '
            f'stroke-width="{_fmt(w)}" stroke-linecap="round" d="{d}"/>')
    lines_out.append("  </g>")

    lines_out.append('  <g id="station-polygons">')
    rim = w / 2.0
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind != "station":
            continue
        hull = polygons[nid]
        if len(hull) == 1:
            d = polyline_path([hull[0], hull[0] + np.array([0.01, 0.0])])
        else:
            d = polyline_path(hull, " Z")
        body = 2.0 * buffer
        lines_out.append(
            f'    <path id="station-{_safe_id(nid)}" fill="#1a1a1a" '
            f'stroke="#1a1a1a" stroke-width="{_fmt(body)}" '
            'stroke-linejoin="round" stroke-linecap="round" '
            f'd="{d}"/>')
        inner = max(body - rim, rim / 2.0)
        lines_out.append(
            f'    <path id="station-{_safe_id(nid)}-fill" fill="#ffffff" '
            f'stroke="#ffffff" stroke-width="{_fmt(inner)}" '
            'stroke-linejoin="round" stroke-linecap="round" '
            f'd="{d}"/>')
    lines_out.append("  </g>")

    lines_out.append('  <g id="station-labels">')
    font = 3.0 * w
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind != "station" or not node.name:
            continue
        hull = polygons[nid]
        centroid = hull.mean(axis=0)
        direction = _label_direction(g, nid)
        pos = centroid + direction * (buffer + 2.0 * w)
        if direction[0] > 0.3:
            anchor = "start"
        elif direction[0] < -0.3:
            anchor = "end"
        else:
            anchor = "middle"
        lines_out.append(
            f'    <text id="label-{_safe_id(nid)}" x="{_fmt(pos[0] - min_x)}" '
            f'y="{_fmt(max_y - pos[1])}" font-family="Helvetica, Arial, '
            f'sans-serif" font-size="{_fmt(font)}" '
            f'text-anchor="{anchor}">{_xml_escape(node.name)}</text>')
    lines_out.append("  </g>")
    lines_out.append("</svg>")
    doc = "\n".join(lines_out) + "\n"

    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(doc)
    return doc


def _xml_escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
