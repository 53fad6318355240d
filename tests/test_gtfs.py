"""Feed ingestion: parsing, diagnostics, referential errors, projection,
pattern expansion, and shape snapping."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transitmap import gtfs
from transitmap.cli import main
from transitmap.errors import (
    DanglingReference,
    DegenerateSegment,
    MalformedRow,
    MissingFile,
    ProjectionFailure,
    ShapeMismatch,
    TransitMapError,
)
from transitmap.geometry import Polyline
from transitmap.gtfs import (
    FeedModel,
    _read_table,
    _snap_stops_to_shape,
    build_raw_network,
    load_feed,
    project_lonlat,
)
from transitmap.line_graph import construct_line_graph, save_line_graph
from oracles import read_table_by_dict, snap_params_by_sub
from synth import basic_feed_tables, smooth_polyline, write_gtfs


# ── loading ─────────────────────────────────────────────────────────

def _minimal_tables():
    return dict(
        stops=[
            {"stop_id": "s1", "stop_name": "One", "stop_lat": 47.0, "stop_lon": 9.0},
            {"stop_id": "s2", "stop_name": "Two", "stop_lat": 47.01, "stop_lon": 9.0},
        ],
        routes=[{"route_id": "r", "route_short_name": "R", "route_type": 0}],
        trips=[{"trip_id": "t", "route_id": "r"}],
        stop_times=[
            {"trip_id": "t", "stop_id": "s1", "stop_sequence": 1},
            {"trip_id": "t", "stop_id": "s2", "stop_sequence": 2},
        ],
    )


def test_minimal_feed_one_straight_edge(tmp_path):
    feed = load_feed(write_gtfs(tmp_path / "feed", **_minimal_tables()))
    net = build_raw_network(feed)
    assert len(net.stations) == 2
    assert len(net.edges) == 1
    e = net.edges[0]
    assert (e.station_a, e.station_b, e.line) == ("s1", "s2", "r")
    assert len(e.path.pts) == 2  # straight: no shape present
    assert np.allclose(e.path.start, net.stations["s1"].xy)
    assert np.allclose(e.path.end, net.stations["s2"].xy)


def test_missing_mandatory_file(tmp_path):
    t = _minimal_tables()
    del t["stop_times"]
    with pytest.raises(MissingFile):
        load_feed(write_gtfs(tmp_path / "feed", **t))


def test_unknown_stop_reference(tmp_path):
    t = _minimal_tables()
    t["stop_times"][1]["stop_id"] = "ghost"
    with pytest.raises(DanglingReference):
        load_feed(write_gtfs(tmp_path / "feed", **t))


def test_unknown_route_reference(tmp_path):
    t = _minimal_tables()
    t["trips"][0]["route_id"] = "ghost"
    with pytest.raises(DanglingReference):
        load_feed(write_gtfs(tmp_path / "feed", **t))


def test_missing_column_is_malformed(tmp_path):
    t = _minimal_tables()
    t["stops"] = [{"stop_id": "s1", "stop_name": "One"}]  # no coordinates at all
    with pytest.raises(MalformedRow):
        load_feed(write_gtfs(tmp_path / "feed", **t))


def test_bad_value_rows_are_rejected_with_diagnostics(tmp_path):
    t = _minimal_tables()
    t["stops"].append({"stop_id": "bad", "stop_name": "Bad", "stop_lat": "not-a-number",
                       "stop_lon": 9.0})
    feed = load_feed(write_gtfs(tmp_path / "feed", **t))
    assert "bad" not in feed.stops
    assert any("stops.txt:4" in d for d in feed.diagnostics)


def test_stop_times_sorted_by_sequence(tmp_path):
    t = _minimal_tables()
    t["stop_times"] = list(reversed(t["stop_times"]))
    feed = load_feed(write_gtfs(tmp_path / "feed", **t))
    assert feed.stop_times["t"] == ["s1", "s2"]


# ── projection ──────────────────────────────────────────────────────

def _haversine(lat1, lon1, lat2, lon2, r=6_371_000.0):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def test_projection_preserves_local_distances():
    lat0, lon0 = 48.78, 9.18
    rng = np.random.default_rng(17)
    for _ in range(40):
        lat1, lon1 = lat0 + rng.uniform(-0.2, 0.2), lon0 + rng.uniform(-0.2, 0.2)
        lat2, lon2 = lat0 + rng.uniform(-0.2, 0.2), lon0 + rng.uniform(-0.2, 0.2)
        x1, y1 = project_lonlat(lat1, lon1, lat0, lon0)
        x2, y2 = project_lonlat(lat2, lon2, lat0, lon0)
        d_proj = math.hypot(x2 - x1, y2 - y1)
        d_true = _haversine(lat1, lon1, lat2, lon2)
        assert d_proj == pytest.approx(d_true, rel=2e-3, abs=0.5)


def test_projection_center_is_origin():
    assert project_lonlat(47.0, 9.0, 47.0, 9.0) == pytest.approx((0.0, 0.0))


def test_projection_failure_far_from_meridian():
    with pytest.raises(ProjectionFailure):
        project_lonlat(0.0, 99.0, 0.0, 9.0)


# ── pattern expansion ───────────────────────────────────────────────

def test_five_route_feed_counts(tmp_path):
    # hand count: rail stations A-F, edges r1:AB,BC r2:AB,BC r3:CD r4:BE r5:EF
    feed = load_feed(write_gtfs(tmp_path / "feed", **basic_feed_tables()))
    net = build_raw_network(feed)
    assert sorted(net.stations) == ["A", "B", "C", "D", "E", "F"]
    assert len(net.edges) == 7
    assert sorted(net.lines) == ["r1", "r2", "r3", "r4", "r5"]
    assert net.lines["r1"].color == "#cc0000"
    assert all(line.color.startswith("#") and len(line.color) == 7
               for line in net.lines.values())


def test_duplicate_and_reversed_trips_collapse(tmp_path):
    t = _minimal_tables()
    t["trips"].append({"trip_id": "t2", "route_id": "r"})
    t["trips"].append({"trip_id": "t3", "route_id": "r"})
    t["stop_times"] += [
        {"trip_id": "t2", "stop_id": "s1", "stop_sequence": 1},
        {"trip_id": "t2", "stop_id": "s2", "stop_sequence": 2},
        # reversed service direction over the same geometry
        {"trip_id": "t3", "stop_id": "s2", "stop_sequence": 1},
        {"trip_id": "t3", "stop_id": "s1", "stop_sequence": 2},
    ]
    feed = load_feed(write_gtfs(tmp_path / "feed", **t))
    net = build_raw_network(feed)
    assert len(net.edges) == 1


def test_route_type_filter(tmp_path):
    feed = load_feed(write_gtfs(tmp_path / "feed", **basic_feed_tables()))
    net_all = build_raw_network(feed, route_types=(0, 1, 2, 3))
    assert "G" in net_all.stations
    assert len(net_all.edges) == 8
    net_bus = build_raw_network(feed, route_types=(3,))
    assert sorted(net_bus.stations) == ["A", "G"]
    assert len(net_bus.edges) == 1


# ── shape snapping ──────────────────────────────────────────────────

def test_snap_monotone_on_u_shaped_shape():
    # U shape: east 1000 m, north 200 m, back west 1000 m (length 2200).
    # Third stop at (500, 90) is nearer the first leg (90 m) than the
    # return leg (110 m); the monotone restriction must still pick the
    # return leg because the previous stop already sits past the turn.
    shape = Polyline([(0, 0), (1000, 0), (1000, 200), (0, 200)])
    stops = [np.array(p, dtype=float) for p in [(0, 5), (995, 100), (500, 90), (0, 195)]]
    params = _snap_stops_to_shape(shape, stops, snap_tol=150.0, context="u-test")
    assert all(b > a for a, b in zip(params, params[1:]))
    # frozen: x=500 on the return leg is arc length 1700 of 2200
    assert params[2] == pytest.approx(1700 / 2200, abs=1e-3)


def test_snap_beyond_tolerance_raises():
    shape = Polyline([(0, 0), (1000, 0)])
    stops = [np.array([0.0, 0.0]), np.array([500.0, 300.0])]
    with pytest.raises(ShapeMismatch):
        _snap_stops_to_shape(shape, stops, snap_tol=100.0, context="far-test")


def test_shape_detour_followed_between_stops(tmp_path):
    # stops at the shape's ends; the edge path must follow the detour,
    # giving an edge clearly longer than the straight connection
    lat0, lon0 = 47.0, 9.0
    dlat = 1.0 / 111194.9
    dlon = 1.0 / (111194.9 * math.cos(math.radians(lat0)))
    t = _minimal_tables()
    t["stops"] = [
        {"stop_id": "s1", "stop_name": "One", "stop_lat": lat0, "stop_lon": lon0},
        {"stop_id": "s2", "stop_name": "Two", "stop_lat": lat0, "stop_lon": lon0 + 1000 * dlon},
    ]
    t["trips"][0]["shape_id"] = "sh"
    t["shapes"] = [
        {"shape_id": "sh", "shape_pt_lat": lat0, "shape_pt_lon": lon0, "shape_pt_sequence": 0},
        {"shape_id": "sh", "shape_pt_lat": lat0 + 400 * dlat,
         "shape_pt_lon": lon0 + 500 * dlon, "shape_pt_sequence": 1},
        {"shape_id": "sh", "shape_pt_lat": lat0, "shape_pt_lon": lon0 + 1000 * dlon,
         "shape_pt_sequence": 2},
    ]
    feed = load_feed(write_gtfs(tmp_path / "feed", **t))
    net = build_raw_network(feed)
    assert len(net.edges) == 1
    path = net.edges[0].path
    # detour length ~ 2*sqrt(500^2+400^2) = 1280.6 m vs 1000 m straight
    assert path.length == pytest.approx(2 * math.hypot(500, 400), rel=2e-3)
    assert len(path.pts) >= 3


def test_unknown_shape_reference(tmp_path):
    t = _minimal_tables()
    t["trips"][0]["shape_id"] = "ghost"
    t["shapes"] = [
        {"shape_id": "sh", "shape_pt_lat": 47.0, "shape_pt_lon": 9.0, "shape_pt_sequence": 0},
        {"shape_id": "sh", "shape_pt_lat": 47.1, "shape_pt_lon": 9.0, "shape_pt_sequence": 1},
    ]
    with pytest.raises(DanglingReference):
        load_feed(write_gtfs(tmp_path / "feed", **t))


# ── shape snapping: pinned bytes and the per-stop oracle ────────────

def _shapes_pin_tables():
    """A shapes.txt feed for pinning the GTFS path of extract.  Two local
    routes and an express run one street a few metres apart, the express
    stopping at every other stop but keeping the shape through them; one
    route makes a U-turn back along a parallel leg 30 m away.  Every stop
    is a vertex of its shapes, as the line graph requires of edge ends,
    and some shape points are repeated."""
    lat0, lon0 = 47.0, 9.0
    dlat = 1.0 / 111194.9
    dlon = 1.0 / (111194.9 * math.cos(math.radians(lat0)))
    street = [(0, 0), (300, 40), (620, 20), (900, 90), (1200, 60)]
    u_turn = [(620, 20), (620, -150), (1000, -150), (1000, -180),
              (800, -180), (620, -180)]
    north = [(0, 300), (210, 300), (600, 300)]
    # route: (waypoints, indices of the stops among them, lateral offset)
    routes = {
        "L1": (street, [0, 1, 2, 3, 4], 3.0),
        "L2": (street, [0, 1, 2, 3, 4], -3.0),
        "X": (street, [0, 2, 4], 6.0),
        "U": (u_turn, [0, 1, 2, 4, 5], 0.0),
        "V": (u_turn[1:3], [0, 1], 2.0),
        "N": (north, [0, 1, 2], 0.0),
    }
    stop_xy: dict[tuple, str] = {}
    shapes, trips, stop_times = [], [], []
    for rid, (way, stop_idx, lateral) in routes.items():
        pts, stop_at = [np.array(way[0], dtype=float)], {0: 0}
        for w, (a, b) in enumerate(zip(way, way[1:]), start=1):
            a, b = np.array(a, dtype=float), np.array(b, dtype=float)
            length = float(np.linalg.norm(b - a))
            u = (b - a) / length
            normal = np.array([-u[1], u[0]])
            n = max(2, math.ceil(length / 20.0))
            for s in np.arange(1, n) * (length / n):
                side = lateral * min(1.0, s / 60.0, (length - s) / 60.0)
                pts.append(a + u * s + normal * side)
            pts.append(b)
            stop_at[w] = len(pts) - 1
        seq = [tuple(way[i]) for i in stop_idx]
        rows = [tuple(p) for p in pts]
        if rid == "L1":  # repeat the point after each stop
            for i in sorted((stop_at[i] + 1 for i in stop_idx[:-1]), reverse=True):
                rows.insert(i, rows[i])
        if rid == "U":  # repeat a stop vertex
            rows.insert(stop_at[2], rows[stop_at[2]])
        shapes += [{"shape_id": f"sh_{rid}", "shape_pt_sequence": i,
                    "shape_pt_lat": lat0 + y * dlat, "shape_pt_lon": lon0 + x * dlon}
                   for i, (x, y) in enumerate(rows)]
        trips.append({"trip_id": f"t_{rid}", "route_id": rid, "shape_id": f"sh_{rid}"})
        for k, xy in enumerate(seq):
            sid = stop_xy.setdefault(xy, f"s{len(stop_xy)}")
            stop_times.append({"trip_id": f"t_{rid}", "stop_id": sid, "stop_sequence": k})
    stops = [{"stop_id": sid, "stop_name": sid, "stop_lat": lat0 + y * dlat,
              "stop_lon": lon0 + x * dlon} for (x, y), sid in stop_xy.items()]
    return dict(
        stops=stops,
        routes=[{"route_id": rid, "route_short_name": rid, "route_type": 0}
                for rid in routes],
        trips=trips, stop_times=stop_times, shapes=shapes,
    )


# sha256 of the saved line graph of _shapes_pin_tables, frozen from the
# extract that built one sub polyline per stop to snap it
_SHAPES_PIN_SHA = ("3f211520a1ff07289875b9ce56ff9f88"
                  "0167d0247529aafb79bd2e39ed8de627")


def test_shapes_feed_extract_bytes_are_pinned(tmp_path):
    feed = load_feed(write_gtfs(tmp_path / "feed", **_shapes_pin_tables()))
    raw = build_raw_network(feed)
    out = tmp_path / "graph.json"
    save_line_graph(construct_line_graph(raw), out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _SHAPES_PIN_SHA


def _random_snap_case(rng):
    """A random shape (smooth, U-turning, or with repeated and nearly
    repeated points) and stops on, near or off it, in shape order."""
    kind = int(rng.integers(4))
    if kind == 0:
        shape = smooth_polyline(rng, n_pts=int(rng.integers(2, 80)),
                                step=float(rng.uniform(1.0, 40.0)))
    elif kind == 1:  # out, turn, back along a parallel leg
        n = int(rng.integers(2, 30))
        gap = float(rng.integers(5, 80))
        xs = np.linspace(0.0, float(rng.integers(50, 900)), n)
        shape = Polyline(np.concatenate([np.stack([xs, np.zeros(n)], 1),
                                         np.stack([xs[::-1], np.full(n, gap)], 1)]))
        if rng.random() < 0.5:  # stops halfway between the legs: ties
            on = np.sort(rng.integers(n, size=int(rng.integers(2, 10))))
            return shape, np.stack([xs[on], np.full(len(on), gap / 2)], 1)
    else:  # repeated points; or, kept after the duplicate drop, points
        # 0.2e-9 apart, which only the sub path handles
        base = smooth_polyline(rng, n_pts=int(rng.integers(3, 40)), step=20.0)
        pts = list(base.pts)
        for _ in range(int(rng.integers(1, 6))):
            i = int(rng.integers(len(pts)))
            if kind == 2:
                pts.insert(i, pts[i])
            else:
                pts[i + 1:i + 1] = [pts[i] + (0.9e-9, 0.0), pts[i] - (0.2e-9, 0.0)]
        shape = Polyline(np.array(pts))
    ts = np.sort(rng.uniform(0.0, 1.0, int(rng.integers(2, 25))))
    stops = shape.param_points(ts)
    stops += rng.normal(size=stops.shape) * rng.choice([0.0, 0.5, 20.0])
    if rng.random() < 0.5:  # stops exactly on vertices, in shape order
        on = np.sort(rng.integers(len(shape.pts), size=len(ts)))
        stops = shape.pts[on].copy()
    if rng.random() < 0.2:  # run the last stops off the end
        stops = np.concatenate([stops, stops[-1:] + 5.0, stops[-1:]])
    return shape, stops


def _pairs_until_error(pairs):
    """The (t, d) pairs an iterable yields, and the error that ends it."""
    out = []
    try:
        for pair in pairs:
            out.append(pair)
    except DegenerateSegment as exc:
        return out, str(exc)
    return out, None


def test_snap_matches_per_stop_sub_oracle():
    rng = np.random.default_rng(2411)
    # A stop 1e-7 m before the end leaves too short a rest for the next
    # (the parameter range is empty), and so does one 7.5e-10 m before
    # the end of a 0.5 m shape (the rest collapses to one point).  A last
    # segment 1.0038e-9 m long 168 km out has its end point rounded back
    # onto the point before it, which sub then drops.
    far = np.array([168064.54123322014, 0.0])
    far_end = far + 1.0038323251804027e-09 * np.array(
        [math.cos(5.041402708247953), math.sin(5.041402708247953)])
    cases = [(Polyline([(0, 0), (1000, 0)]),
              np.array([(0.0, 0.0), (1000.0 - 1e-7, 0.0), (2000.0, 0.0)])),
             (Polyline([(0, 0), (0.3, 0), (0.5, 0)]),
              np.array([(0.0, 0.0), (0.5 - 7.5e-10, 0.0), (0.5, 0.0)])),
             (Polyline([(0.0, 0.0), far, far_end]),
              np.array([(0.0, 0.0), (9e4, 3.0), far, far_end]))]
    cases += [_random_snap_case(rng) for _ in range(400)]
    errors = 0
    for shape, stops in cases:
        expected = _pairs_until_error(snap_params_by_sub(shape, list(stops)))
        got = _pairs_until_error(shape.nearest_in_order(stops, radius=100.0))
        assert got == expected
        errors += expected[1] is not None
        if expected[1] is None:
            tol = 100.0
            if all(d <= tol for _, d in expected[0]):
                assert _snap_stops_to_shape(shape, list(stops), tol, "x") == [
                    t for t, _ in expected[0]]
            else:
                with pytest.raises(ShapeMismatch):
                    _snap_stops_to_shape(shape, list(stops), tol, "x")
    assert 0 < errors < 40


# ── the column reader against the DictReader oracle ─────────────────

def _read_both(path, required, optional=()):
    """_read_table and its DictReader oracle on one file: each one's rows
    or (error type, message)."""
    out = []
    for reader in (_read_table, read_table_by_dict):
        try:
            out.append(reader(path, required, optional))
        except MalformedRow as exc:
            out.append((MalformedRow, str(exc)))
    return out


@pytest.mark.parametrize("content", [
    b"a,b,c\r\n1,2,3\r\n4,5,6\r\n",
    b"\xef\xbb\xbfa,b,c\r\n1,2,3\r\n",                 # a BOM
    b"a,b,c\r\n\r\n1,2,3\r\n\n\r\n4,5,6\r\n\r\n",      # blank lines
    b"a,b,c\r\n   \r\n1,2,3\r\n,\r\n",                 # not blank: one, two fields
    b"a,b,c\r\n1,2\r\n4\r\n7,8,9\r\n",                 # short rows
    b"a,b,c\r\n1,2,3\r\n\r\n4,5,6,7\r\n",              # more fields on row 3
    b'a,b,c\r\n"1,x","2\r\ny",3\r\n4,5,6\r\n',         # quoted comma, newline
    b"a,b,a,c\r\n1,2,3,4\r\n",                         # a repeated name
    b"a,c\r\n1,2\r\n",                                 # no optional column b
    b"a,b\r\n1,2\r\n",                                 # no required column c
    b"", b"\r\n1,2,3\r\n", b"a,b,c\r\n", b"a,b,c",
    b"a,b,c\r\n1,2,3\r\n4,\xff,6\r\n",                 # not UTF-8
    b"a,b,c\r\n1,2,3,4\r\n4,\xff,6\r\n",               # more fields first
    b"a,\xc3(,c\r\n1,2,3\r\n",                         # not UTF-8 in the header
], ids=lambda c: c.decode("latin-1")[:20])
def test_read_table_matches_the_dict_reader(content, tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(content)
    new, old = _read_both(path, ("a", "c"), ("b", "d"))
    assert new == old


def test_read_table_reports_broken_csv_as_malformed_row(tmp_path):
    # a field over the csv module's field size limit
    path, huge = tmp_path / "t.txt", b"x" * (csv.field_size_limit() + 1)
    path.write_bytes(b"a,b\r\n1,2\r\n3," + huge + b"\r\n")
    with pytest.raises(MalformedRow, match=r"t\.txt: not valid CSV"):
        _read_table(path, ("a",))
    # a row with more fields before the damage is reported first
    path.write_bytes(b"a,b\r\n1,2,3\r\n3," + huge + b"\r\n")
    with pytest.raises(MalformedRow, match=r"t\.txt:2: more fields"):
        _read_table(path, ("a",))


def _feed_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        feed = write_gtfs(Path(tmp) / "feed", **basic_feed_tables())
        return {p.name: p.read_bytes() for p in sorted(feed.iterdir())}


_FEED_FILES = _feed_files()
# field values that no parser takes, or that no stop may have; none is a
# coordinate in range, which could make a long but plausible edge
_BAD_VALUES = [b"", b"nan", b"NaN", b"inf", b"-inf", b"1e400", b"91", b"-91",
               b"181", b"-181", b"x", b"\xff", b"\xc3(", b"\xef\xbb\xbf1"]


@st.composite
def mutated_feeds(draw) -> dict[str, bytes]:
    """The basic feed's files with one to three mutations: a row cut
    short or given extra fields, blank lines, a BOM, bytes that are not
    UTF-8, or a field replaced by a bad value or latitude 0."""
    files = dict(_FEED_FILES)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(sorted(files)))
        lines = files[name].split(b"\r\n")
        i = draw(st.integers(0, len(lines) - 2))
        fields = lines[i].split(b",")
        kind = draw(st.sampled_from(
            ["truncate", "extra", "blank", "bom", "bytes", "value", "lat0"]))
        if kind == "truncate":
            lines[i] = b",".join(fields[:draw(st.integers(0, len(fields) - 1))])
        elif kind == "extra":
            lines[i] += b",x" * draw(st.integers(1, 2))
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from([b"", b"\n", b"\r"])))
        elif kind == "bom":
            lines[0] = b"\xef\xbb\xbf" + lines[0]
        elif kind == "bytes":
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(st.sampled_from(
                [b"\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"])) + lines[i][at:]
        elif kind == "value":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(
                st.sampled_from(_BAD_VALUES))
            lines[i] = b",".join(fields)
        else:
            name, lines = "stops.txt", files["stops.txt"].split(b"\r\n")
            i = draw(st.integers(1, len(lines) - 2))
            fields = lines[i].split(b",")
            fields[lines[0].split(b",").index(b"stop_lat")] = b"0"
            lines[i] = b",".join(fields)
        files[name] = b"\r\n".join(lines)
    return files


@settings(max_examples=120, deadline=None, derandomize=True)
@given(files=mutated_feeds())
def test_mutated_feed_ends_in_a_typed_exit_code(files):
    with tempfile.TemporaryDirectory() as tmp:
        feed = Path(tmp) / "feed"
        feed.mkdir()
        for name, content in files.items():
            (feed / name).write_bytes(content)
        graph = Path(tmp) / "g.json"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["extract", str(feed), str(graph)])
        assert code in (0, 3, 4, 5), err.getvalue()
        assert graph.exists() == (code == 0)
        # the column reader loads what the DictReader oracle loads
        models = []
        for reader in (_read_table, read_table_by_dict):
            with mock.patch.object(gtfs, "_read_table", reader):
                try:
                    models.append(load_feed(feed))
                except (TransitMapError, csv.Error) as exc:
                    models.append(type(exc))
        if any(isinstance(m, FeedModel) for m in models):
            assert models[0] == models[1]
