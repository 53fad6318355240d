"""Line graph model, serialization, and shared-segment merging."""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from transitmap import line_graph
from transitmap.errors import DegenerateSegment, NonTermination, SchemaViolation
from transitmap.geometry import Polyline, SharedSegment, shared_segments
from transitmap.gtfs import RawEdge, RawNetwork, Station, TransitLine
from transitmap.line_graph import (
    LGEdge,
    LGNode,
    LineGraph,
    construct_line_graph,
    load_line_graph,
    save_line_graph,
)
from synth import (
    big_line_graph,
    make_graph,
    random_raw_network,
    smooth_polyline,
    wiggle_offset,
)


# ── model and topology ──────────────────────────────────────────────

def _y_graph():
    # c --e1-- a --e2-- d, plus branch a --e3-- t
    return make_graph(
        nodes={"a": (0, 0), "c": (-100, 0), "d": (100, 0), "t": (0, 100)},
        edges=[
            ("e1", "c", "a", ("l1", "l2")),
            ("e2", "a", "d", ("l1", "l3")),
            ("e3", "a", "t", ("l2", "l3", "l4")),
        ],
    )


def test_incidence_and_degree():
    g = _y_graph()
    assert g.incident("a") == ("e1", "e2", "e3")
    assert g.degree("a") == 3
    assert g.degree("c") == 1
    assert g.max_lines_per_edge == 3
    assert g.station_count() == 4


def test_continuations_exclude_terminating_and_overcarried_lines():
    g = _y_graph()
    cont = g.continuations_at("a")
    # l1 runs e1->e2, l2 runs e1->e3, l3 runs e2->e3
    assert cont == {"l1": ("e1", "e2"), "l2": ("e1", "e3"), "l3": ("e2", "e3")}
    # l4 terminates at a; a line carried by 3 incident edges is excluded too
    g2 = make_graph(
        nodes={"a": (0, 0), "c": (-100, 0), "d": (100, 0), "t": (0, 100)},
        edges=[
            ("e1", "c", "a", ("l1",)),
            ("e2", "a", "d", ("l1",)),
            ("e3", "a", "t", ("l1",)),
        ],
    )
    assert g2.continuations_at("a") == {}


def test_departure_angles():
    g = _y_graph()
    assert g.departure_angle("e2", "a") == pytest.approx(0.0)
    assert abs(g.departure_angle("e2", "d")) == pytest.approx(math.pi)
    assert g.departure_angle("e3", "a") == pytest.approx(math.pi / 2)
    with pytest.raises(KeyError):
        g.departure_angle("e2", "c")


def test_departure_angle_table_equals_per_edge_tangents():
    from oracles import departure_angle_per_edge
    graphs = [_y_graph(), big_line_graph(np.random.default_rng(4), n_edges=60),
              construct_line_graph(random_raw_network(np.random.default_rng(300)))]
    for g in graphs:
        for eid, e in g.edges.items():
            for nid in (e.a, e.b):
                assert (g.departure_angle(eid, nid)
                        == departure_angle_per_edge(g, eid, nid))


def test_validate_rejects_broken_graphs():
    good = _y_graph()
    good.validate()

    bad = _y_graph()
    bad.edges["e9"] = LGEdge(id="e9", a="a", b="zz", lines=("l1",),
                             path=Polyline([(0, 0), (1, 1)]))
    with pytest.raises(SchemaViolation):
        bad.validate()

    bad2 = _y_graph()
    bad2.edges["e1"] = LGEdge(id="e1", a="c", b="a", lines=("l2", "l1"),
                              path=Polyline([(-100, 0), (0, 0)]))
    with pytest.raises(SchemaViolation):
        bad2.validate()

    bad3 = _y_graph()
    bad3.edges["e1"] = LGEdge(id="e1", a="c", b="a", lines=("l1",),
                              path=Polyline([(-100, 5), (0, 0)]))
    with pytest.raises(SchemaViolation):
        bad3.validate()


# ── serialization ───────────────────────────────────────────────────

def test_round_trip_identity(tmp_path):
    g = _y_graph()
    p = tmp_path / "g.json"
    save_line_graph(g, p)
    h = load_line_graph(p)
    assert set(h.nodes) == set(g.nodes)
    assert set(h.edges) == set(g.edges)
    assert set(h.lines) == set(g.lines)
    for eid in g.edges:
        assert h.edges[eid].lines == g.edges[eid].lines
        assert np.array_equal(h.edges[eid].path.pts, g.edges[eid].path.pts)
    for nid in g.nodes:
        assert h.nodes[nid] == g.nodes[nid]


def test_double_save_is_byte_stable(tmp_path):
    g = big_line_graph(np.random.default_rng(7))
    assert len(g.edges) == 235
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_line_graph(g, p1)
    save_line_graph(load_line_graph(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_aux_kind_preserved(tmp_path):
    g = make_graph(
        nodes={"a": (0, 0), "x": (100, 0), "b": (200, 0)},
        edges=[("e1", "a", "x", ("l1",)), ("e2", "x", "b", ("l1",))],
        aux=("x",),
    )
    p = tmp_path / "g.json"
    save_line_graph(g, p)
    h = load_line_graph(p)
    assert h.nodes["x"].kind == "aux"
    assert h.nodes["a"].kind == "station"


def test_save_rejects_empty_edge_set(tmp_path):
    g = LineGraph(nodes={}, edges={}, lines={})
    with pytest.raises(SchemaViolation):
        save_line_graph(g, tmp_path / "empty.json")


def test_load_rejects_unknown_fields(tmp_path):
    p = tmp_path / "g.json"
    save_line_graph(_y_graph(), p)
    doc = p.read_text().replace('"kind":"station"', '"kind":"station","zzz":1', 1)
    p.write_text(doc)
    with pytest.raises(SchemaViolation):
        load_line_graph(p)


@pytest.mark.parametrize("table, field, value", [
    ("nodes", "name", 5),
    ("nodes", "station_id", [1]),
    ("nodes", "x", True),
    ("nodes", "y", "0"),
    ("nodes", "kind", None),
    ("edges", "lines", ["l1", 2]),
    ("edges", "path", [[-100, 0], {}]),
    ("edges", "path", [[-100, 0], [0, "0"]]),
    ("edges", "path", [[-100, 0, 1], [0, 0, 1]]),
    ("edges", "path", [[-100, 0], [10**400, 0]]),
    ("lines", "label", ["L1"]),
    ("lines", "color", "red"),
    ("lines", "color", '"/><script>x</script>'),
])
def test_load_checks_each_field_against_its_declared_type(tmp_path, table,
                                                          field, value):
    p = tmp_path / "g.json"
    save_line_graph(_y_graph(), p)
    doc = json.loads(p.read_text())
    doc[table][0][field] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=field):
        load_line_graph(p)


def test_load_names_the_record_of_a_bad_path(tmp_path):
    # paths are built for the whole edge table at once, after each
    # record's fields are checked
    p = tmp_path / "g.json"
    save_line_graph(_y_graph(), p)
    doc = json.loads(p.read_text())
    last = len(doc["edges"]) - 1
    doc["edges"][last]["path"] = [[0, 0], [math.nan, 0]]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match=rf"^edges\[{last}\]: field 'path' "
                       "has a non-finite coordinate$"):
        load_line_graph(p)
    doc["edges"][last]["path"] = [[1, 1], [1, 1]]
    p.write_text(json.dumps(doc))
    with pytest.raises(DegenerateSegment, match="collapsed"):
        load_line_graph(p)


def test_load_takes_absent_or_null_optional_fields(tmp_path):
    p = tmp_path / "g.json"
    save_line_graph(_y_graph(), p)
    doc = json.loads(p.read_text())
    doc["nodes"][0]["station_id"] = None
    del doc["nodes"][0]["name"]
    p.write_text(json.dumps(doc))
    node = load_line_graph(p).nodes[doc["nodes"][0]["id"]]
    assert node.station_id is None and node.name is None
    del doc["nodes"][0]["kind"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="missing field 'kind'"):
        load_line_graph(p)


def test_golden_graph_reloads_to_the_same_bytes(tmp_path):
    golden = Path(__file__).parent / "data" / "golden_graph.json"
    save_line_graph(load_line_graph(golden), tmp_path / "g.json")
    assert (tmp_path / "g.json").read_bytes() == golden.read_bytes()


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(SchemaViolation):
        load_line_graph(p)
    p.write_text("{not json")
    with pytest.raises(SchemaViolation):
        load_line_graph(p)
    p.write_text("[" * 100_000)
    with pytest.raises(SchemaViolation):
        load_line_graph(p)
    p.write_bytes(b'{"nodes": "\xff"}')
    with pytest.raises(SchemaViolation):
        load_line_graph(p)


# ── construction fixtures ───────────────────────────────────────────

def _line(lid):
    return TransitLine(id=lid, label=lid.upper(), color="#336699")


def _raw(stations, edges):
    lines = {e.line: _line(e.line) for e in edges}
    return RawNetwork(
        stations={s.id: s for s in stations},
        lines=lines,
        edges=edges,
    )


def test_identical_paths_collapse_to_one_edge():
    a = Station(id="A", name="A", xy=(0.0, 0.0))
    b = Station(id="B", name="B", xy=(500.0, 0.0))
    path = Polyline([(0, 0), (500, 0)])
    raw = _raw([a, b], [
        RawEdge(station_a="A", station_b="B", line="l1", path=path),
        RawEdge(station_a="A", station_b="B", line="l2", path=path),
    ])
    g = construct_line_graph(raw)
    assert len(g.edges) == 1
    (e,) = g.edges.values()
    assert e.lines == ("l1", "l2")
    assert {e.a, e.b} == {"A", "B"}
    assert g.max_lines_per_edge == 2
    assert all(n.kind == "station" for n in g.nodes.values())


def test_middle_corridor_gives_five_edges_two_aux_nodes():
    sts = [
        Station(id="A1", name="A1", xy=(0.0, 100.0)),
        Station(id="B1", name="B1", xy=(1000.0, 100.0)),
        Station(id="A2", name="A2", xy=(0.0, -100.0)),
        Station(id="B2", name="B2", xy=(1000.0, -100.0)),
    ]
    p1 = Polyline([(0, 100), (300, 10), (700, 10), (1000, 100)])
    p2 = Polyline([(0, -100), (300, -10), (700, -10), (1000, -100)])
    raw = _raw(sts, [
        RawEdge(station_a="A1", station_b="B1", line="l1", path=p1),
        RawEdge(station_a="A2", station_b="B2", line="l2", path=p2),
    ])
    g = construct_line_graph(raw)
    assert len(g.edges) == 5
    aux = [n for n in g.nodes.values() if n.kind == "aux"]
    assert len(aux) == 2
    for n in aux:
        assert g.degree(n.id) == 3
        assert abs(n.y) < 5.0  # averaged corridor runs along y = 0
    corridor = [e for e in g.edges.values() if len(e.lines) == 2]
    assert len(corridor) == 1
    assert corridor[0].lines == ("l1", "l2")
    assert 350 <= corridor[0].path.length <= 480
    stubs = [e for e in g.edges.values() if len(e.lines) == 1]
    assert sorted(e.lines[0] for e in stubs) == ["l1", "l1", "l2", "l2"]


def test_y_split_contracts_station_side_stub():
    sts = [
        Station(id="S", name="S", xy=(0.0, 0.0)),
        Station(id="P", name="P", xy=(1000.0, 30.0)),
        Station(id="Q", name="Q", xy=(1000.0, -30.0)),
    ]
    raw = _raw(sts, [
        RawEdge(station_a="S", station_b="P", line="l1",
                path=Polyline([(0, 0), (1000, 30)])),
        RawEdge(station_a="S", station_b="Q", line="l2",
                path=Polyline([(0, 0), (1000, -30)])),
    ])
    g = construct_line_graph(raw)
    assert len(g.edges) == 3
    aux = [n for n in g.nodes.values() if n.kind == "aux"]
    assert len(aux) == 1
    assert g.degree(aux[0].id) == 3
    assert g.degree("S") == 1
    corridor = next(e for e in g.edges.values() if len(e.lines) == 2)
    assert {corridor.a, corridor.b} == {"S", aux[0].id}


def test_distinct_corridors_stay_parallel_edges():
    sts = [
        Station(id="A", name="A", xy=(0.0, 0.0)),
        Station(id="B", name="B", xy=(1000.0, 0.0)),
    ]
    raw = _raw(sts, [
        RawEdge(station_a="A", station_b="B", line="l1",
                path=Polyline([(0, 0), (500, 200), (1000, 0)])),
        RawEdge(station_a="A", station_b="B", line="l2",
                path=Polyline([(0, 0), (500, -200), (1000, 0)])),
    ])
    g = construct_line_graph(raw)
    assert len(g.edges) == 2
    assert all(e.lines in (("l1",), ("l2",)) for e in g.edges.values())


def test_full_overlap_multiplicity_sets_max_lines():
    a = Station(id="A", name="A", xy=(0.0, 0.0))
    b = Station(id="B", name="B", xy=(400.0, 0.0))
    c = Station(id="C", name="C", xy=(400.0, 400.0))
    path = Polyline([(0, 0), (400, 0)])
    raw = _raw([a, b, c], [
        RawEdge(station_a="A", station_b="B", line="l1", path=path),
        RawEdge(station_a="A", station_b="B", line="l2", path=path),
        RawEdge(station_a="A", station_b="B", line="l3", path=path),
        RawEdge(station_a="B", station_b="C", line="l3",
                path=Polyline([(400, 0), (400, 400)])),
    ])
    g = construct_line_graph(raw)
    assert len(g.edges) == 2
    assert g.max_lines_per_edge == 3


D_HAT = 25.0
MIN_SEG = 50.0


def _no_shared_segment_left(g: LineGraph) -> bool:
    """All-pairs oracle mirroring the builder's candidate definition."""
    eids = sorted(g.edges)
    for i, ei in enumerate(eids):
        for ej in eids[i + 1:]:
            a, b = g.edges[ei].path, g.edges[ej].path
            if b.length > a.length:
                a, b = b, a
            if a.length < MIN_SEG:
                continue
            dt = min(0.5, 5.0 / a.length)
            segs = shared_segments(a, b, D_HAT, dt, k=2, min_len=MIN_SEG)
            segs = [s for s in segs
                    if abs(s.range_b[1] - s.range_b[0]) * b.length >= 0.5 * MIN_SEG]
            if segs:
                return False
    return True


def test_random_networks_reach_merge_fixed_point():
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        raw = random_raw_network(rng)
        g = construct_line_graph(raw)
        g.validate()
        assert _no_shared_segment_left(g), f"seed {seed} left a shared segment"


def test_line_conservation_on_random_networks():
    for seed in range(4):
        rng = np.random.default_rng(900 + seed)
        raw = random_raw_network(rng)
        g = construct_line_graph(raw)
        carriers: dict[str, list[str]] = {}
        for eid, e in g.edges.items():
            for line in e.lines:
                carriers.setdefault(line, []).append(eid)
        for redge in raw.edges:
            assert redge.line in carriers
        for line, eids in carriers.items():
            # connectivity of the carrying edge set
            remaining = set(eids)
            frontier = {remaining.pop()}
            reached_nodes = set()
            while frontier:
                eid = frontier.pop()
                reached_nodes |= {g.edges[eid].a, g.edges[eid].b}
                grab = {x for x in remaining
                        if g.edges[x].a in reached_nodes or g.edges[x].b in reached_nodes}
                remaining -= grab
                frontier |= grab
            assert not remaining, f"line {line} split across components"
            # geometric coverage of the original paths within d_hat
            paths = [g.edges[eid].path for eid in eids]
            for redge in raw.edges:
                if redge.line != line:
                    continue
                samples = redge.path.param_points(np.linspace(0, 1, 25))
                for q in samples:
                    d = min(p.nearest_point_param(q)[1] for p in paths)
                    assert d <= D_HAT, f"line {line} strayed {d:.1f} m"


def _three_line_corridor():
    """Two lines share only the middle of their paths with each other and
    all of it with a third: partial and full overlaps in one feed."""
    sts = [
        Station(id="A1", name="A1", xy=(0.0, 100.0)),
        Station(id="B1", name="B1", xy=(1000.0, 100.0)),
        Station(id="A2", name="A2", xy=(0.0, -100.0)),
        Station(id="B2", name="B2", xy=(1000.0, -100.0)),
    ]
    return _raw(sts, [
        RawEdge(station_a="A1", station_b="B1", line="l1",
                path=Polyline([(0, 100), (300, 10), (700, 10), (1000, 100)])),
        RawEdge(station_a="A2", station_b="B2", line="l2",
                path=Polyline([(0, -100), (300, -10), (700, -10), (1000, -100)])),
        RawEdge(station_a="A1", station_b="B1", line="l3",
                path=Polyline([(0, 100), (300, 14), (700, 14), (1000, 100)])),
    ])


def test_merge_order_does_not_change_dimensions():
    # Networks whose overlaps sit near the extent threshold can flip a
    # sub-threshold sliver between orders; these seeds stay clear of it.
    def dims(g):
        return (len(g.nodes), len(g.edges),
                sorted(len(e.lines) for e in g.edges.values()))

    candidates = [
        random_raw_network(np.random.default_rng(s), n_stations=7, n_lines=4)
        for s in (47, 50, 56)
    ]
    candidates.append(_three_line_corridor())
    for raw in candidates:
        base = dims(construct_line_graph(raw))
        for seed in range(4):
            shuffled = construct_line_graph(
                raw, shuffle_rng=np.random.default_rng(seed))
            assert dims(shuffled) == base


def test_merge_budget_guard_raises():
    sts = [
        Station(id="A", name="A", xy=(0.0, 0.0)),
        Station(id="B", name="B", xy=(500.0, 0.0)),
    ]
    path = Polyline([(0, 0), (500, 0)])
    raw = _raw(sts, [
        RawEdge(station_a="A", station_b="B", line="l1", path=path),
        RawEdge(station_a="A", station_b="B", line="l2", path=path),
    ])
    with pytest.raises(NonTermination):
        construct_line_graph(raw, merge_budget=0)


def _dense_shapes_corridor():
    """Four lines along one gently curving 1.5 km corridor with a point
    every 5 m, so each path has 150 or 300 segments, running 3 to 6 m
    apart: two stop at the middle station M, one runs express past it and
    one ends there.  About 3% of the (sweep point, target segment) pairs
    of its sweeps lie within the segment's box padded by d_hat."""
    rng = np.random.default_rng(2024)
    base = smooth_polyline(rng, n_pts=301, step=5.0, max_turn=0.04)
    sts = [Station(id=sid, name=sid, xy=tuple(map(float, base.param_point(t))))
           for sid, t in (("A", 0.0), ("M", 0.5), ("C", 1.0))]
    at = {s.id: s for s in sts}

    def edge(a, b, t0, t1, line, lateral, noise):
        pts = wiggle_offset(rng, base.sub(t0, t1), lateral, noise).pts.copy()
        pts[0], pts[-1] = at[a].xy, at[b].xy
        return RawEdge(station_a=a, station_b=b, line=line,
                       path=Polyline(pts))

    return _raw(sts, [
        edge("A", "M", 0.0, 0.5, "l0", 3.0, 0.3),
        edge("M", "C", 0.5, 1.0, "l0", 3.0, 0.3),
        edge("A", "M", 0.0, 0.5, "l1", -3.0, 0.5),
        edge("M", "C", 0.5, 1.0, "l1", -3.0, 0.5),
        edge("A", "C", 0.0, 1.0, "l2", 6.0, 0.5),
        edge("A", "M", 0.0, 0.5, "l3", -6.0, 0.3),
    ])


# Work and bytes of construct_line_graph: any change to which pairs are
# swept, which merges run, or in which order shows here.  The merges and
# bytes are frozen from the all-pairs builder; the shared_segments calls
# count the pairs left by the box-span bound (_Builder._bounded).  Per
# feed, keyed by shuffle seed (None for longest-extent-first):
# (shared_segments calls, average_path calls, sha256 of the saved graph).
_PIN_FEEDS = {
    "corridor": _three_line_corridor,
    "random47": lambda: random_raw_network(
        np.random.default_rng(47), n_stations=7, n_lines=4),
    "random300": lambda: random_raw_network(np.random.default_rng(300)),
    "dense_shapes": _dense_shapes_corridor,
}
_PINNED_CONSTRUCTION = {
    "corridor": {
        None: (6, 2, "b56d785e256fe7cce956c57b4b3d9e51"
                      "9da37cfaaf261bbfdfad6ad03b3bbe88"),
        0: (16, 4, "15c0eece3b5c3703c28b487271f146e1"
                   "cfac71d71f14a4fffe0d4d225dc36385"),
        1: (16, 4, "5db5203b7788b7a6a95e698a614f4e2b"
                   "a739e6580a45093059bb1bff746ea012"),
    },
    "random47": {
        None: (84, 9, "888c583ee58c2b6f4a1a8d056dfc3f1d"
                       "4a97602150327c6abdaa5d7b8b76bd2e"),
        0: (117, 12, "3fe84f639991aee82a9841ba963c1d5a"
                     "cc6a5194f1dee8c1e344d65fca36c6ac"),
        1: (109, 12, "9fb077518cbd5c5b6f3001c2212c23a0"
                     "fad9579ac0a25ced7dd2a8872a65214a"),
    },
    "random300": {
        None: (196, 17, "aba45554671c38fa0359927821719462"
                        "124028f5cdcc1f47f517a25fd2504344"),
        0: (292, 27, "2a53de2cfa67b02f70e173ffd94ad62c"
                     "52174b0d5a0677b16f2e5f19940e3fc7"),
        1: (273, 25, "b06cf1c39ed03ab77688ce32343966bb"
                     "d46b2efb42ed9f7e85c41e65f5607504"),
    },
    # merges and bytes frozen from the sweep that projected every sweep
    # point onto every segment of the target
    "dense_shapes": {
        None: (15, 5, "2492936c866c0e524bcb645c7024275b"
                      "367442ca3fae0a4ae1cff47cc3edb2e5"),
        0: (14, 5, "78c04da1d2ca8ef8c8e75e44569961e9"
                   "a630b8435730302428af33fd9db1b50f"),
        1: (16, 5, "68cf3e03101ae3e7061e44d8bee633ac"
                   "a8cdd341b72a1f62412d576ceb17fb00"),
    },
}


@pytest.mark.parametrize("feed", sorted(_PINNED_CONSTRUCTION))
def test_construction_work_and_bytes_are_pinned(feed, monkeypatch, tmp_path):
    calls = {"shared_segments": 0, "average_path": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(line_graph, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(line_graph, name, counted)
    raw = _PIN_FEEDS[feed]()
    got = {}
    for seed in _PINNED_CONSTRUCTION[feed]:
        calls.update(shared_segments=0, average_path=0)
        rng = None if seed is None else np.random.default_rng(seed)
        out = tmp_path / f"graph_{seed}.json"
        save_line_graph(construct_line_graph(raw, shuffle_rng=rng), out)
        got[seed] = (calls["shared_segments"], calls["average_path"],
                     hashlib.sha256(out.read_bytes()).hexdigest())
    assert got == _PINNED_CONSTRUCTION[feed]


def _longest_pair_by_scan(pairs):
    """The pair _Builder._pick takes: the longest extent, ties to the
    larger key, by a scan of every stored pair."""
    return max(pairs.items(), key=lambda kv: (kv[1][0].extent, kv[0]))[0]


def test_merge_pick_equals_a_scan_of_the_stored_pairs(monkeypatch):
    picks = []
    real = line_graph._Builder._pick

    def checked(self):
        key = real(self)
        assert key == (_longest_pair_by_scan(self.pairs) if self.pairs else None)
        picks.append(key)
        return key

    monkeypatch.setattr(line_graph._Builder, "_pick", checked)
    for feed in sorted(_PIN_FEEDS):
        construct_line_graph(_PIN_FEEDS[feed]())
    assert len(picks) > 30
    # equal extents, stored in an order that is not the key order, and a
    # pair dropped from the top of the heap
    builder = line_graph._Builder(_three_line_corridor(), 25.0, 5.0, 2,
                                  50.0, None, None)
    builder.pairs.clear()
    builder._heap.clear()
    builder._pairs_of = defaultdict(list)
    for key, extent in [(("e2", "e9"), 5.0), (("e10", "e9"), 7.0),
                        (("e3", "e4"), 7.0), (("e1", "e9"), 7.0),
                        (("e0", "e5"), 7.5)]:
        builder._store(key, (SharedSegment((0.0, 1.0), (0.0, 1.0), extent), key[0]))
    del builder.pairs[("e0", "e5")]
    while builder.pairs:
        key = builder._pick()
        assert key == _longest_pair_by_scan(builder.pairs)
        del builder.pairs[key]
    assert builder._pick() is None


# ── batched sweeps: the same pairs as one shared_segments call each ─

def _sweep_cases_network():
    """Edges around E1, 1000 m along y=0, one per case of the batched
    sweep: an equal-length copy (the subject is the smaller id), a longer
    edge that sweeps E1, partial and lateral overlaps, a box that meets
    E1's only within d_hat with a single near step, one with none (both
    left out by the box-span bound), and jogs that leave d_hat for
    exactly k = 2 and k + 1 sweep steps.  E10 sweeps 105 m of E5's and
    E6's padded boxes and comes no nearer than 130 m to either."""
    paths = {
        "E1": [(0, 0), (1000, 0)],
        "E2": [(0, 0), (1000, 0)],
        "E3": [(200, 10), (800, 10)],
        "E4": [(0, 20), (1000, 20)],
        "E5": [(1010, 20), (1300, 300)],
        "E6": [(1024, 20), (1300, 300)],
        "E7": [(100, 10), (400, 10), (400, 60), (455, 60), (455, 10), (800, 10)],
        "E8": [(100, 10), (400, 10), (400, 60), (460, 60), (460, 10), (800, 10)],
        "E9": [(-200, -10), (1200, -10)],
        "E10": [(1290, -600), (1290, 100)],
    }
    stations, edges = {}, []
    for line, pts in paths.items():
        ends = []
        for xy in (pts[0], pts[-1]):
            sid = stations.setdefault(xy, f"s{len(stations)}")
            ends.append(sid)
        edges.append(RawEdge(station_a=ends[0], station_b=ends[1], line=line,
                             path=Polyline(pts)))
    sts = [Station(id=sid, name=sid, xy=(float(x), float(y)))
           for (x, y), sid in stations.items()]
    return _raw(sts, edges)


def _pair_by_own_sweep(builder, i, j):
    """The stored pair of edges i < j from one unbatched shared_segments
    call, as the merge loop computed it pair by pair."""
    ei, ej = builder.edges[i], builder.edges[j]
    if ei.path.length > ej.path.length or (
            ei.path.length == ej.path.length and i < j):
        subject, target = ei, ej
    else:
        subject, target = ej, ei
    if subject.path.length < MIN_SEG:
        return None
    segs = shared_segments(subject.path, target.path, D_HAT, subject.dt,
                           k=2, min_len=MIN_SEG)
    segs = [s for s in segs if abs(s.range_b[1] - s.range_b[0])
            * target.path.length >= 0.5 * MIN_SEG]
    return (max(segs, key=lambda s: s.extent), subject.id) if segs else None


def _checked_shared_segments(seen):
    """A shared_segments that checks its batched nearest points and its
    runs against an unbatched call, and records (subject path, target
    path, runs) in seen."""
    def checked(a, b, d_hat, dt, k=2, min_len=0.0, sweep=None, nearest=None):
        tb, dist = b.nearest_many(sweep[1], radius=d_hat)
        assert np.array_equal(nearest[0], tb, equal_nan=True)
        assert np.array_equal(nearest[1], dist)
        got = shared_segments(a, b, d_hat, dt, k, min_len, sweep=sweep,
                              nearest=nearest)
        assert got == shared_segments(a, b, d_hat, dt, k, min_len)
        seen.append((a, b, got))
        return got
    return checked


def _checked_bound(monkeypatch, dropped):
    """Make _Builder._bounded check that each pair it drops stores
    nothing when swept without the bound (_pair_by_own_sweep), and record
    the keys of those pairs in dropped."""
    real = line_graph._Builder._bounded

    def checked(self, plan):
        kept = real(self, plan)
        ids = {id(pair) for pair in kept}
        assert [pair for pair in plan if id(pair) in ids] == kept
        for key, _, _ in (pair for pair in plan if id(pair) not in ids):
            assert _pair_by_own_sweep(self, *key) is None
            dropped.append(key)
        return kept

    monkeypatch.setattr(line_graph._Builder, "_bounded", checked)


def test_batched_sweeps_equal_per_pair_shared_segments(monkeypatch):
    seen, dropped = [], []
    monkeypatch.setattr(line_graph, "shared_segments",
                        _checked_shared_segments(seen))
    _checked_bound(monkeypatch, dropped)
    builder = line_graph._Builder(_sweep_cases_network(), D_HAT, 5.0, 2,
                                  MIN_SEG, None, None)
    ids = {min(e.lines): eid for eid, e in builder.edges.items()}
    cases, stored, sweeps = set(), {}, []
    for fid in list(builder.edges):  # every edge once as the fresh edge
        fresh = builder.edges[fid].path
        builder.pairs.clear()
        seen.clear()
        builder._candidates([fid])
        for j in builder.edges:
            if j != fid:
                key = builder._pair_key(fid, j)
                assert builder.pairs.get(key) == _pair_by_own_sweep(builder, *key)
        stored.update(builder.pairs)
        sweeps += seen
        for a, b, runs in seen:
            cases.add(("fresh subject" if a is fresh else "fresh target",
                       len(runs)))
    assert {("fresh subject", 0), ("fresh subject", 1), ("fresh subject", 2),
            ("fresh target", 0), ("fresh target", 1),
            ("fresh target", 2)} <= cases
    # the equal-length pair is swept along the smaller id; E5 and E6 are
    # not swept against E1, whose sweep spans less than min_seg_len of
    # their padded boxes (dropped checks that nothing could be stored);
    # E10 sweeps E5 and E6 and finds nothing near
    e1, e2 = builder.edges[ids["E1"]], builder.edges[ids["E2"]]
    assert stored[builder._pair_key(e1.id, e2.id)][1] == min(e1.id, e2.id)
    e5, e6, e7, e8, e10 = (builder.edges[ids[n]].path
                           for n in ("E5", "E6", "E7", "E8", "E10"))
    for name, target, runs in (("E5", e5, None), ("E6", e6, None),
                               ("E7", e7, 1), ("E8", e8, 2)):
        found = [len(r) for a, b, r in sweeps if a is e1.path and b is target]
        assert found == ([] if runs is None else [runs, runs])
        assert (dropped.count(builder._pair_key(e1.id, ids[name]))
                == (2 if runs is None else 0))
    for target in (e5, e6):
        assert [len(r) for a, b, r in sweeps
                if a is e10 and b is target] == [0, 0]


def test_batched_sweeps_hold_through_merges(monkeypatch):
    seen = []
    monkeypatch.setattr(line_graph, "shared_segments",
                        _checked_shared_segments(seen))
    for raw in (_sweep_cases_network(), _dense_shapes_corridor(),
                random_raw_network(np.random.default_rng(301))):
        seen.clear()
        construct_line_graph(raw)
        assert sum(1 for _, _, runs in seen if runs) > 5


def test_box_span_bound_drops_only_pairs_that_store_nothing(monkeypatch, tmp_path):
    # construction with the bound and with a bound that keeps every pair:
    # the same pairs stored, in the same order, and the same bytes; each
    # pair the bound drops stores nothing when swept (_checked_bound)
    stored, dropped = [], []
    real_store = line_graph._Builder._store

    def store(self, key, found):
        stored.append((key, found))
        real_store(self, key, found)

    monkeypatch.setattr(line_graph._Builder, "_store", store)
    _checked_bound(monkeypatch, dropped)
    bounded = line_graph._Builder._bounded
    feeds = [(_PIN_FEEDS[feed](), seed) for feed in sorted(_PIN_FEEDS)
             for seed in _PINNED_CONSTRUCTION[feed]]
    feeds += [(random_raw_network(np.random.default_rng(seed)), None)
              for seed in range(500, 520)]
    out = tmp_path / "graph.json"
    for raw, seed in feeds:
        runs = []
        for bound in (bounded, lambda self, plan: plan):
            monkeypatch.setattr(line_graph._Builder, "_bounded", bound)
            stored.clear()
            rng = None if seed is None else np.random.default_rng(seed)
            save_line_graph(construct_line_graph(raw, shuffle_rng=rng), out)
            runs.append((out.read_bytes(), list(stored)))
        assert runs[0] == runs[1]
    assert len(dropped) > 1000
