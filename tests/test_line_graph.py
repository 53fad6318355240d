"""Line graph model, serialization, and shared-segment merging."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from transitmap import line_graph
from transitmap.errors import NonTermination, SchemaViolation
from transitmap.geometry import Polyline, shared_segments
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


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "g.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(SchemaViolation):
        load_line_graph(p)
    p.write_text("{not json")
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


# Work and bytes of construct_line_graph, frozen from the all-pairs
# builder: any change to which pairs are swept, which merges run, or in
# which order shows here.  Per feed, keyed by shuffle seed (None for
# longest-extent-first): (shared_segments calls, average_path calls,
# sha256 of the saved graph).
_PIN_FEEDS = {
    "corridor": _three_line_corridor,
    "random47": lambda: random_raw_network(
        np.random.default_rng(47), n_stations=7, n_lines=4),
    "random300": lambda: random_raw_network(np.random.default_rng(300)),
    "dense_shapes": _dense_shapes_corridor,
}
_PINNED_CONSTRUCTION = {
    "corridor": {
        None: (10, 2, "b56d785e256fe7cce956c57b4b3d9e51"
                      "9da37cfaaf261bbfdfad6ad03b3bbe88"),
        0: (32, 4, "15c0eece3b5c3703c28b487271f146e1"
                   "cfac71d71f14a4fffe0d4d225dc36385"),
        1: (32, 4, "5db5203b7788b7a6a95e698a614f4e2b"
                   "a739e6580a45093059bb1bff746ea012"),
    },
    "random47": {
        None: (160, 9, "888c583ee58c2b6f4a1a8d056dfc3f1d"
                       "4a97602150327c6abdaa5d7b8b76bd2e"),
        0: (212, 12, "3fe84f639991aee82a9841ba963c1d5a"
                     "cc6a5194f1dee8c1e344d65fca36c6ac"),
        1: (207, 12, "9fb077518cbd5c5b6f3001c2212c23a0"
                     "fad9579ac0a25ced7dd2a8872a65214a"),
    },
    "random300": {
        None: (405, 17, "aba45554671c38fa0359927821719462"
                        "124028f5cdcc1f47f517a25fd2504344"),
        0: (657, 27, "2a53de2cfa67b02f70e173ffd94ad62c"
                     "52174b0d5a0677b16f2e5f19940e3fc7"),
        1: (632, 25, "b06cf1c39ed03ab77688ce32343966bb"
                     "d46b2efb42ed9f7e85c41e65f5607504"),
    },
    # frozen from the sweep that projected every sweep point onto every
    # segment of the target
    "dense_shapes": {
        None: (34, 5, "2492936c866c0e524bcb645c7024275b"
                      "367442ca3fae0a4ae1cff47cc3edb2e5"),
        0: (28, 5, "78c04da1d2ca8ef8c8e75e44569961e9"
                   "a630b8435730302428af33fd9db1b50f"),
        1: (34, 5, "68cf3e03101ae3e7061e44d8bee633ac"
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
