"""Geographic map rendering in four stages: offset line bands, expanded
node fronts, inner connection curves, and layered SVG assembly.

Orientation convention, shared with the event semantics: position 1 of
an edge's ordering is the leftmost line when walking the edge's
canonical path direction.  The band of the line at position p is the
edge geometry offset left by w * ((n + 1) / 2 - p) for n carried lines,
which centers the band on the path: a single line renders on the path
itself, and adjacent lines sit exactly one line width apart.  Rendered
connection curves then realize exactly the crossings the evaluator
prices, which the tests use as geometric ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PreconditionViolated, SchemaViolation
from .geometry import Polyline, offset_polyline
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
        if self.line_width <= 0:
            raise PreconditionViolated("line width must be positive")
        if self.max_expansion is not None and self.max_expansion <= 0:
            raise PreconditionViolated("max expansion must be positive")
        if self.buffer_radius is not None and self.buffer_radius <= 0:
            raise PreconditionViolated("buffer radius must be positive")
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
    centered position formula."""
    o.validate_for(g)
    out: dict[tuple[str, str], Polyline] = {}
    for eid in sorted(g.edges):
        e = g.edges[eid]
        n = len(e.lines)
        for p, line in enumerate(o.lines_at(eid), start=1):
            out[(eid, line)] = offset_polyline(
                e.path, _offset_delta(n, p, style.line_width))
    return out


# ── node fronts ─────────────────────────────────────────────────────


@dataclass(frozen=True)
class NodeFront:
    """Where an edge's band ends at a node.

    baseline spans the band perpendicular to the path, left end first
    (left as seen walking the edge's canonical direction).  ports[i] is
    the endpoint of the band slot at position i + 1, so ports run left
    to right.  normal is the unit vector pointing out of the node area
    into the band."""

    node: str
    edge: str
    baseline: tuple[tuple[float, float], tuple[float, float]]
    ports: tuple[tuple[float, float], ...]
    normal: tuple[float, float]


def _make_front(g: LineGraph, node_id: str, edge_id: str, trim: float,
                style: RenderStyle) -> NodeFront:
    e = g.edges[edge_id]
    length = e.path.length
    t_end = min(max(trim / length, 0.0), 1.0)
    param = t_end if node_id == e.a else 1.0 - t_end
    tangent = e.path.tangent_at(param)
    base = e.path.param_point(param)
    left = np.array([-tangent[1], tangent[0]])
    outward = tangent if node_id == e.a else -tangent
    n = len(e.lines)
    w = style.line_width
    ports = tuple(
        tuple(base + left * _offset_delta(n, p, w)) for p in range(1, n + 1))
    half = w * n / 2.0
    return NodeFront(
        node=node_id,
        edge=edge_id,
        baseline=(tuple(base + left * half), tuple(base - left * half)),
        ports=ports,
        normal=tuple(outward),
    )


def _point_segment_distance(q, a, b) -> float:
    d = b - a
    len2 = float(d @ d)
    if len2 < 1e-18:
        return float(np.linalg.norm(q - a))
    t = min(max(float((q - a) @ d) / len2, 0.0), 1.0)
    return float(np.linalg.norm(q - (a + t * d)))


def _segments_cross(a0, a1, b0, b1) -> bool:
    r = a1 - a0
    s = b1 - b0
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < 1e-12:
        return False
    q = b0 - a0
    t = (q[0] * s[1] - q[1] * s[0]) / denom
    u = (q[0] * r[1] - q[1] * r[0]) / denom
    return 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0


def _segment_distance(seg_a, seg_b) -> float:
    a0, a1 = (np.asarray(p, dtype=float) for p in seg_a)
    b0, b1 = (np.asarray(p, dtype=float) for p in seg_b)
    if _segments_cross(a0, a1, b0, b1):
        return 0.0
    return min(
        _point_segment_distance(a0, b0, b1),
        _point_segment_distance(a1, b0, b1),
        _point_segment_distance(b0, a0, a1),
        _point_segment_distance(b1, a0, a1),
    )


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, tolerant of degenerate input."""
    pts = np.unique(np.round(points, 9), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
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
    node polygons (convex hull of the node and its front baselines)."""
    w = style.line_width
    buffer = style.resolved_buffer()
    max_exp = style.resolved_max_expansion(g.max_lines_per_edge)
    fronts_out: dict[tuple[str, str], NodeFront] = {}
    polygons: dict[str, np.ndarray] = {}
    for nid in sorted(g.nodes):
        inc = g.incident(nid)
        trims = {eid: min(buffer, g.edges[eid].path.length) for eid in inc}
        while True:
            fronts = {eid: _make_front(g, nid, eid, trims[eid], style)
                      for eid in inc}
            crowded: set[str] = set()
            for e1, e2 in combinations(sorted(inc), 2):
                gap = _segment_distance(fronts[e1].baseline,
                                        fronts[e2].baseline)
                if gap < w - 1e-9:
                    crowded.add(e1)
                    crowded.add(e2)
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
        # The last check built the fronts at the final trims.
        pts = [g.nodes[nid].xy]
        for eid in inc:
            fronts_out[(nid, eid)] = fronts[eid]
            pts.extend(np.asarray(p) for p in fronts[eid].baseline)
        polygons[nid] = _convex_hull(np.array(pts))
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

    def sample(self, n: int = 65) -> np.ndarray:
        ts = np.linspace(0.0, 1.0, n)
        p = [np.asarray(q, dtype=float) for q in self.points]
        if self.kind == "straight":
            return p[0] + ts[:, None] * (p[1] - p[0])
        if self.kind == "cubic-curve":
            p0, c1, c2, p3 = p
            u = 1.0 - ts
            return (u**3)[:, None] * p0 + (3 * u**2 * ts)[:, None] * c1 \
                + (3 * u * ts**2)[:, None] * c2 + (ts**3)[:, None] * p3
        p0, p3 = p
        center, a0, a1 = _arc_geometry(p0, p3, self.arc_radius, self.arc_sweep)
        if center is None:
            return p0 + ts[:, None] * (p3 - p0)
        angles = a0 + ts * (a1 - a0)
        return center + self.arc_radius * np.stack(
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


def _safe_id(raw: str) -> str:
    return "".join(c if c.isalnum() or c in "_-" else "_" for c in raw)


def _label_direction(g: LineGraph, nid: str) -> np.ndarray:
    """Unit direction pointing away from the node's busiest sides."""
    dirs = []
    for eid in g.incident(nid):
        ang = g.departure_angle(eid, nid)
        dirs.append(np.array([math.cos(ang), math.sin(ang)]))
    if not dirs:
        return np.array([1.0, 0.0])
    best = None
    best_score = None
    for k in range(16):
        ang = 2.0 * math.pi * k / 16.0
        cand = np.array([math.cos(ang), math.sin(ang)])
        score = max(float(cand @ d) for d in dirs)
        if best_score is None or score < best_score - 1e-12:
            best, best_score = cand, score
    return best


def render_map(g: LineGraph, o: Ordering, style: RenderStyle | None = None,
               out=None) -> str:
    """Assemble the layered SVG document and optionally write it.

    Layers, in paint order: line bands, inner connections, station
    polygons, station labels.  Element order and coordinate formatting
    are deterministic, so identical inputs produce identical bytes."""
    style = style or RenderStyle()
    o.validate_for(g)
    w = style.line_width
    buffer = style.resolved_buffer()
    offsets = offset_lines(g, o, style)
    fronts, polygons = expand_node_fronts(g, style)
    conns = inner_connections(g, o, fronts, style)

    xs: list[float] = []
    ys: list[float] = []
    for e in g.edges.values():
        x0, y0, x1, y1 = e.path.bbox()
        xs += [x0, x1]
        ys += [y0, y1]
    for hull in polygons.values():
        for p in hull:
            xs.append(float(p[0]))
            ys.append(float(p[1]))
    if xs:
        margin = buffer + w * (g.max_lines_per_edge + 1)
        min_x, max_x = min(xs) - margin, max(xs) + margin
        min_y, max_y = min(ys) - margin, max(ys) + margin
        width, height = max_x - min_x, max_y - min_y
    else:
        min_x = min_y = 0.0
        max_y = 100.0
        width = height = 100.0

    def pt(p) -> str:
        return f"{_fmt(float(p[0]) - min_x)} {_fmt(max_y - float(p[1]))}"

    lines_out = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '  <g id="line-bands">',
    ]

    for eid in sorted(g.edges):
        e = g.edges[eid]
        for line in sorted(e.lines):
            band = offsets[(eid, line)]
            pos = o.position(eid, line)
            start = np.asarray(fronts[(e.a, eid)].ports[pos - 1])
            end = np.asarray(fronts[(e.b, eid)].ports[pos - 1])
            t0 = band.nearest_point_param(start)[0]
            t1 = band.nearest_point_param(end)[0]
            if t1 - t0 <= 1e-6:
                continue  # fully trimmed: the node polygons cover it
            piece = band.sub(t0, t1)
            d = "M " + " L ".join(pt(p) for p in piece.pts)
            lines_out.append(
                f'    <path id="band-{_safe_id(eid)}-{_safe_id(line)}" '
                f'fill="none" stroke="{g.lines[line].color}" '
                f'stroke-width="{_fmt(w)}" d="{d}"/>')
    lines_out.append("  </g>")

    lines_out.append('  <g id="inner-connections">')
    for (nid, line), conn in sorted(conns.items()):
        p = conn.points
        if conn.kind == "cubic-curve":
            d = (f"M {pt(p[0])} C {pt(p[1])}, {pt(p[2])}, {pt(p[3])}")
        elif conn.kind == "straight":
            d = f"M {pt(p[0])} L {pt(p[1])}"
        else:
            r = _fmt(conn.arc_radius)
            svg_sweep = 1 - conn.arc_sweep  # the y flip mirrors orientation
            d = f"M {pt(p[0])} A {r} {r} 0 0 {svg_sweep} {pt(p[1])}"
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
            only = hull[0]
            d = f"M {pt(only)} L {pt(only + np.array([0.01, 0.0]))}"
        else:
            d = "M " + " L ".join(pt(p) for p in hull) + " Z"
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
