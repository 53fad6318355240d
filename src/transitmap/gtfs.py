"""GTFS static feed ingestion.

Loads the four mandatory tables (stops, routes, trips, stop_times) plus
optional shapes, validates referential integrity, and turns trip patterns
into a raw network of per-line station-to-station edges with projected
geometry.  Rows with unparseable mandatory fields are rejected and
reported through FeedModel.diagnostics; broken references raise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DanglingReference,
    ImplausibleEdge,
    MalformedRow,
    MissingFile,
    ProjectionFailure,
    ShapeMismatch,
)
from .geometry import Polyline, PolylineStack

EARTH_RADIUS_M = 6_371_000.0

#: route_type values kept by default: tram, subway, rail
DEFAULT_ROUTE_TYPES = (0, 1, 2)

#: the longest station-to-station edge, in metres, that build_raw_network
#: accepts.  No transit line runs 1000 km between two stops; such an edge
#: comes from a wrong stop or shape coordinate, and the merge loop would
#: resample and sweep it every few metres.
MAX_EDGE_LENGTH_M = 1_000_000.0

# fallback line colors, assigned to routes without route_color by sorted id
_PALETTE = (
    "#d6201f", "#0d7bc4", "#36a22f", "#f28c00", "#8d55a2",
    "#00a6a6", "#e6419b", "#7c5b3a", "#535353", "#a0b423",
    "#1b3e8f", "#c0392b", "#148f77", "#b7950b", "#6c3483",
)


# ── feed model ──────────────────────────────────────────────────────

@dataclass(frozen=True)
class Stop:
    id: str
    name: str
    lat: float
    lon: float


@dataclass(frozen=True)
class Route:
    id: str
    label: str
    route_type: int
    color: str  # "#rrggbb"


@dataclass(frozen=True)
class Trip:
    id: str
    route_id: str
    shape_id: str | None


@dataclass
class FeedModel:
    stops: dict[str, Stop]
    routes: dict[str, Route]
    trips: dict[str, Trip]
    stop_times: dict[str, list[str]]     # trip id -> stop ids in sequence order
    shapes: dict[str, list[tuple[float, float]]]  # shape id -> (lat, lon) in sequence order
    diagnostics: list[str] = field(default_factory=list)


# ── raw network ─────────────────────────────────────────────────────

@dataclass(frozen=True)
class Station:
    id: str
    name: str
    xy: tuple[float, float]  # projected meters


@dataclass(frozen=True)
class TransitLine:
    id: str
    label: str
    color: str


@dataclass(frozen=True)
class RawEdge:
    """One station-to-station segment of one line's travel path."""
    station_a: str
    station_b: str
    line: str
    path: Polyline


@dataclass
class RawNetwork:
    stations: dict[str, Station]
    lines: dict[str, TransitLine]
    edges: list[RawEdge]


# ── CSV helpers ─────────────────────────────────────────────────────

def _read_table(path: Path, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> list[tuple]:
    """The rows of a CSV table, each a tuple of its values in the
    required and then the optional columns, read column by column.  A
    value is None where the header lacks the column or the row is short;
    a name the header repeats reads from its last column.  Blank lines
    are skipped, so the row numbers of callers (the header is row 1)
    count the rows kept, as csv.DictReader yields them.

    Raises MalformedRow for an empty file, a missing required column, a
    row with more fields than the header (the first such row, before any
    decoding or CSV error after it), bytes that are not UTF-8 and broken
    CSV."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _unreadable(path, exc) from exc
        if header is None:
            raise MalformedRow(f"{path.name}: empty file")
        missing = [c for c in required if c not in header]
        if missing:
            raise MalformedRow(f"{path.name}: missing columns {missing}")
        rows: list[list] = []
        failure = None
        try:
            rows.extend(filter(None, reader))  # a blank line reads []
        except (UnicodeDecodeError, csv.Error) as exc:
            failure = exc  # raised after the rows read before it
    width = len(header)
    lengths = list(map(len, rows))
    if rows and max(lengths) > width:
        i = next(i for i, n in enumerate(lengths, start=2) if n > width)
        raise MalformedRow(f"{path.name}:{i}: more fields than header columns")
    if failure is not None:
        raise _unreadable(path, failure) from failure
    if rows and min(lengths) < width:
        for row in rows:
            row += [None] * (width - len(row))
    col = {name: j for j, name in enumerate(header)}
    absent = [None] * len(rows)
    return list(zip(*(list(map(itemgetter(col[c]), rows)) if c in col else absent
                      for c in required + optional)))


def _unreadable(path: Path, exc: Exception) -> MalformedRow:
    what = "UTF-8" if isinstance(exc, UnicodeDecodeError) else "CSV"
    return MalformedRow(f"{path.name}: not valid {what} ({exc})")


def _parse_float(value: str | None) -> float | None:
    try:
        v = float(value)  # a blank or missing value raises
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def _parse_int(value: str | None) -> int | None:
    try:
        return int(value)
    except (TypeError, ValueError):
        return None


def _normalize_color(value: str | None) -> str | None:
    if value is None:
        return None
    v = value.strip().lstrip("#")
    if len(v) == 6 and all(c in "0123456789abcdefABCDEF" for c in v):
        return "#" + v.lower()
    return None


# ── loading ─────────────────────────────────────────────────────────

def load_feed(feed_dir: str | Path) -> FeedModel:
    """Parse a GTFS directory into a FeedModel.

    Raises MissingFile for absent mandatory tables, MalformedRow for
    structural CSV damage, DanglingReference for broken ids.  Value-level
    problems reject the row and land in diagnostics.
    """
    feed_dir = Path(feed_dir)
    for name in ("stops.txt", "routes.txt", "trips.txt", "stop_times.txt"):
        if not (feed_dir / name).is_file():
            raise MissingFile(f"mandatory feed file missing: {name}")

    diags: list[str] = []

    stops: dict[str, Stop] = {}
    for i, (sid, lat, lon, name) in enumerate(_read_table(
            feed_dir / "stops.txt", ("stop_id", "stop_lat", "stop_lon"),
            ("stop_name",)), start=2):
        sid = (sid or "").strip()
        lat, lon = _parse_float(lat), _parse_float(lon)
        if not sid or lat is None or lon is None or not (-90 <= lat <= 90) or not (-180 <= lon <= 180):
            diags.append(f"stops.txt:{i}: rejected (bad id or coordinates)")
            continue
        stops[sid] = Stop(sid, (name or sid).strip(), lat, lon)

    routes: dict[str, Route] = {}
    for i, (rid, rtype, short, long_name, color) in enumerate(_read_table(
            feed_dir / "routes.txt", ("route_id", "route_type"),
            ("route_short_name", "route_long_name", "route_color")), start=2):
        rid = (rid or "").strip()
        rtype = _parse_int(rtype)
        if not rid or rtype is None:
            diags.append(f"routes.txt:{i}: rejected (bad id or route_type)")
            continue
        label = (short or "").strip() or (long_name or "").strip() or rid
        routes[rid] = Route(rid, label, rtype, _normalize_color(color) or "")
    # assign palette colors deterministically to colorless routes
    for idx, rid in enumerate(sorted(routes)):
        if not routes[rid].color:
            r = routes[rid]
            routes[rid] = Route(r.id, r.label, r.route_type, _PALETTE[idx % len(_PALETTE)])

    shapes: dict[str, list[tuple[float, float]]] = {}
    if (feed_dir / "shapes.txt").is_file():
        shape_rows: dict[str, list[tuple[int, float, float]]] = {}
        for i, (sid, lat, lon, seq) in enumerate(_read_table(
                feed_dir / "shapes.txt", ("shape_id", "shape_pt_lat",
                                          "shape_pt_lon", "shape_pt_sequence")),
                start=2):
            sid = (sid or "").strip()
            lat, lon, seq = _parse_float(lat), _parse_float(lon), _parse_int(seq)
            if not sid or lat is None or lon is None or seq is None:
                diags.append(f"shapes.txt:{i}: rejected (bad field)")
                continue
            shape_rows.setdefault(sid, []).append((seq, lat, lon))
        for sid, pts in shape_rows.items():
            pts.sort(key=lambda p: p[0])
            shapes[sid] = [(lat, lon) for _, lat, lon in pts]

    trips: dict[str, Trip] = {}
    for i, (tid, rid, shape_id) in enumerate(_read_table(
            feed_dir / "trips.txt", ("trip_id", "route_id"), ("shape_id",)),
            start=2):
        tid, rid = (tid or "").strip(), (rid or "").strip()
        if not tid or not rid:
            diags.append(f"trips.txt:{i}: rejected (bad id)")
            continue
        if rid not in routes:
            raise DanglingReference(f"trips.txt:{i}: unknown route_id {rid!r}")
        shape_id = (shape_id or "").strip() or None
        if shape_id is not None and shapes and shape_id not in shapes:
            raise DanglingReference(f"trips.txt:{i}: unknown shape_id {shape_id!r}")
        if shape_id is not None and not shapes:
            shape_id = None  # no shapes.txt at all: ignore the reference
        trips[tid] = Trip(tid, rid, shape_id)

    seq_rows: dict[str, list[tuple[int, str]]] = {}
    for i, (tid, sid, seq) in enumerate(_read_table(
            feed_dir / "stop_times.txt", ("trip_id", "stop_id", "stop_sequence")),
            start=2):
        tid, sid, seq = (tid or "").strip(), (sid or "").strip(), _parse_int(seq)
        if not tid or not sid or seq is None:
            diags.append(f"stop_times.txt:{i}: rejected (bad field)")
            continue
        if tid not in trips:
            raise DanglingReference(f"stop_times.txt:{i}: unknown trip_id {tid!r}")
        if sid not in stops:
            raise DanglingReference(f"stop_times.txt:{i}: unknown stop_id {sid!r}")
        seq_rows.setdefault(tid, []).append((seq, sid))

    stop_times: dict[str, list[str]] = {}
    for tid, entries in seq_rows.items():
        entries.sort(key=lambda e: e[0])
        stop_times[tid] = [sid for _, sid in entries]

    return FeedModel(stops, routes, trips, stop_times, shapes, diags)


# ── projection ──────────────────────────────────────────────────────

def project_lonlat(lat: float, lon: float, lat0: float, lon0: float) -> tuple[float, float]:
    """Spherical transverse Mercator centered on (lat0, lon0), meters."""
    lam = math.radians(lon - lon0)
    phi = math.radians(lat)
    b = math.cos(phi) * math.sin(lam)
    if abs(b) >= 1.0 - 1e-9:
        raise ProjectionFailure(f"coordinate ({lat}, {lon}) too far from center meridian {lon0}")
    x = EARTH_RADIUS_M / 2.0 * math.log((1.0 + b) / (1.0 - b))
    y = EARTH_RADIUS_M * (math.atan2(math.tan(phi), math.cos(lam)) - math.radians(lat0))
    return x, y


# ── raw network construction ────────────────────────────────────────

def _snap_stops_to_shape(shape: Polyline, stop_pts: list[np.ndarray], snap_tol: float,
                         context: str) -> list[float]:
    """Arc-length parameters of each stop on the shape, forced monotone:
    each stop is matched on the remainder of the shape past its
    predecessor (Polyline.nearest_in_order).  Distances beyond snap_tol
    raise ShapeMismatch."""
    params: list[float] = []
    for i, (t, d) in enumerate(shape.nearest_in_order(np.asarray(stop_pts, dtype=float),
                                                      snap_tol)):
        if d > snap_tol:
            raise ShapeMismatch(f"{context}: stop #{i} is {d:.1f} m from its shape "
                                f"(tolerance {snap_tol:.1f} m)")
        params.append(t)
    return params


def build_raw_network(
    feed: FeedModel,
    snap_tol: float = 100.0,
    route_types: tuple[int, ...] = DEFAULT_ROUTE_TYPES,
) -> RawNetwork:
    """Project stops and expand trip patterns into per-line edges.

    One edge per consecutive stop pair per distinct (route, stop sequence)
    pattern; duplicate trips of a pattern, exact geometric duplicates, and
    reversed-direction duplicates collapse to a single edge.  An edge
    longer than MAX_EDGE_LENGTH_M raises ImplausibleEdge.

    The patterns are snapped one by one; then every edge's path is built
    at once: the cuts of the shapes in one PolylineStack.cut and all
    paths in one Polyline.many.
    """
    kept_routes = {rid for rid, r in feed.routes.items() if r.route_type in route_types}

    # patterns: (route, stop tuple, shape) -> observed once
    patterns: dict[tuple[str, tuple[str, ...], str | None], None] = {}
    for tid in sorted(feed.trips):
        trip = feed.trips[tid]
        if trip.route_id not in kept_routes:
            continue
        seq = feed.stop_times.get(tid, [])
        if len(seq) < 2:
            continue
        patterns.setdefault((trip.route_id, tuple(seq), trip.shape_id))

    used_stops = sorted({sid for _, seq, _ in patterns for sid in seq})
    if not used_stops:
        return RawNetwork({}, {}, [])

    lat0 = sum(feed.stops[s].lat for s in used_stops) / len(used_stops)
    lon0 = sum(feed.stops[s].lon for s in used_stops) / len(used_stops)
    stations = {
        sid: Station(sid, feed.stops[sid].name,
                     project_lonlat(feed.stops[sid].lat, feed.stops[sid].lon, lat0, lon0))
        for sid in used_stops
    }

    shape_cache: dict[str, Polyline] = {}

    def projected_shape(shape_id: str) -> Polyline:
        if shape_id not in shape_cache:
            pts = [project_lonlat(lat, lon, lat0, lon0) for lat, lon in feed.shapes[shape_id]]
            shape_cache[shape_id] = Polyline(pts)
        return shape_cache[shape_id]

    hops: list[tuple[str, str, str]] = []  # (route, stop a, stop b) per edge
    runs: list = []  # per edge: its two stations' points, or None for a cut
    cuts: list[tuple[str, float, float]] = []  # (shape, t0, t1) per cut

    for route_id, seq, shape_id in sorted(patterns, key=lambda p: (p[0], p[1], p[2] or "")):
        stop_pts = [np.asarray(stations[s].xy) for s in seq]
        if shape_id is not None:
            shape = projected_shape(shape_id)
            params = _snap_stops_to_shape(shape, stop_pts, snap_tol,
                                          context=f"route {route_id} shape {shape_id}")
        else:
            params = None
        for i in range(len(seq) - 1):
            sa, sb = seq[i], seq[i + 1]
            if sa == sb:
                continue
            hops.append((route_id, sa, sb))
            if params is not None and params[i + 1] > params[i] + 1e-9:
                runs.append(None)
                cuts.append((shape_id, params[i], params[i + 1]))
            else:
                runs.append([stations[sa].xy, stations[sb].xy])
    if cuts:
        row = {sid: k for k, sid in enumerate(shape_cache)}
        ids, t0, t1 = zip(*cuts)
        pieces = iter(PolylineStack(list(shape_cache.values())).cut(
            np.array(t0), np.array(t1), np.array([row[sid] for sid in ids])))
        runs = [next(pieces) if run is None else run for run in runs]

    paths = Polyline.many(runs)
    for (route_id, sa, sb), path in zip(hops, paths):
        if path.length > MAX_EDGE_LENGTH_M:
            raise ImplausibleEdge(
                f"route {route_id}: the edge from stop {sa} to stop {sb} is "
                f"{path.length / 1000:.0f} km long (limit "
                f"{MAX_EDGE_LENGTH_M / 1000:.0f} km); check their coordinates")
    # each path reversed, as Polyline.reversed builds it, where its
    # second station has the smaller id
    reversed_paths = iter(Polyline.many(
        [path.pts[::-1] for (_, sa, sb), path in zip(hops, paths) if sa > sb]))

    edges: list[RawEdge] = []
    seen: set[tuple[str, str, str, tuple]] = set()
    for (route_id, sa, sb), path in zip(hops, paths):
        # canonical key: orient from the smaller station id
        if sa <= sb:
            key = (sa, sb, route_id, tuple(np.round(path.pts, 2).ravel()))
        else:
            key = (sb, sa, route_id,
                   tuple(np.round(next(reversed_paths).pts, 2).ravel()))
        if key in seen:
            continue
        seen.add(key)
        edges.append(RawEdge(sa, sb, route_id, path))

    used_lines = sorted({e.line for e in edges})
    lines = {rid: TransitLine(rid, feed.routes[rid].label, feed.routes[rid].color)
             for rid in used_lines}
    return RawNetwork(stations, lines, edges)
