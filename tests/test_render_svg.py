"""Rendering tests: band offsets, node fronts, inner connections, and
the assembled SVG document."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET
import hashlib
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    convex_hull_by_unique,
    count_proper_intersections,
    expand_node_fronts_per_node,
    offset_lines_per_band,
    sample,
    trim_edges_per_edge,
)
from synth import (
    bent_grid_line_graph,
    curved_line_graph,
    double_y_graph,
    lattice_line_graph,
    make_graph,
    random_line_graph,
    separation_chain_graph,
    seven_line_reduction_graph,
)
from transitmap import geometry, render_svg
from transitmap.errors import PreconditionViolated, SchemaViolation
from transitmap.ilp_model import Ordering
from transitmap.line_graph import save_line_graph
from transitmap.optimize import WeightPolicy, evaluate
from transitmap.render_svg import (
    RenderStyle,
    expand_node_fronts,
    inner_connections,
    offset_lines,
    render_map,
)

DATA = Path(__file__).parent / "data"


def identity_ordering(g):
    return Ordering({eid: e.lines for eid, e in g.edges.items()})


def corridor(n_lines):
    lines = tuple(f"l{i}" for i in range(1, n_lines + 1))
    return make_graph(
        nodes={"a": (0.0, 0.0), "v": (400.0, 0.0), "b": (800.0, 0.0)},
        edges=[("e1", "a", "v", lines), ("e2", "v", "b", lines)],
    )


def three_way_star():
    def spoke(angle_deg, radius=300.0):
        a = np.deg2rad(angle_deg)
        return (radius * np.cos(a), radius * np.sin(a))

    return make_graph(
        nodes={"h": (0.0, 0.0), "a1": spoke(90), "a2": spoke(210),
               "a3": spoke(330)},
        edges=[
            ("s1", "h", "a1", ("la", "lb")),
            ("s2", "h", "a2", ("lb", "lc")),
            ("s3", "h", "a3", ("la", "lc")),
        ],
        aux=("h",),
    )


# ── band offsets ────────────────────────────────────────────────────


def test_band_offsets_match_frozen_values():
    # Derived by hand from the centered-offset convention: with three
    # lines at width 4, positions 1, 2, 3 are offset by +4, 0, -4 to
    # the left of the travel direction.  The corridor runs along +x,
    # so left is +y and the band y values are frozen at 4, 0, -4.
    g = corridor(3)
    bands = offset_lines(g, identity_ordering(g), RenderStyle(line_width=4.0))
    for eid in ("e1", "e2"):
        for line, want_y in (("l1", 4.0), ("l2", 0.0), ("l3", -4.0)):
            assert np.allclose(bands[(eid, line)].pts[:, 1], want_y,
                               atol=1e-9)


def test_single_line_rides_the_centerline():
    g = corridor(1)
    bands = offset_lines(g, identity_ordering(g), RenderStyle())
    for eid, e in g.edges.items():
        assert np.allclose(bands[(eid, "l1")].pts, e.path.pts)


def test_two_line_band_spacing_is_one_line_width():
    g = corridor(2)
    w = 4.0
    bands = offset_lines(g, identity_ordering(g), RenderStyle(line_width=w))
    a = bands[("e1", "l1")].resample(20)
    b = bands[("e1", "l2")].resample(20)
    assert np.allclose(a[:, 1], 2.0, atol=1e-9)
    assert np.allclose(b[:, 1], -2.0, atol=1e-9)
    gaps = np.linalg.norm(a - b, axis=1)
    assert np.allclose(gaps, w, atol=1e-6)


# ── node fronts ─────────────────────────────────────────────────────


def test_ports_run_leftmost_first():
    g = double_y_graph()
    style = RenderStyle()
    fronts, _ = expand_node_fronts(g, style)
    for (nid, eid), front in fronts.items():
        e = g.edges[eid]
        assert len(front.ports) == len(e.lines)
        normal = np.asarray(front.normal)
        tangent = normal if nid == e.a else -normal
        left = np.array([-tangent[1], tangent[0]])
        for p_a, p_b in zip(front.ports, front.ports[1:]):
            step = float((np.asarray(p_a) - np.asarray(p_b)) @ left)
            assert step == pytest.approx(style.line_width)
        mid = (np.asarray(front.baseline[0])
               + np.asarray(front.baseline[1])) / 2
        assert np.allclose(mid, np.mean(np.asarray(front.ports), axis=0),
                           atol=1e-9)


def _drawn_bands(g, o, style):
    fronts, _ = expand_node_fronts(g, style)
    return fronts, offset_lines(render_svg._trim_edges(g, fronts), o, style)


def test_ports_lie_on_their_bands():
    # every drawn band starts at its port on the front at edge.a and ends
    # at its port on the front at edge.b
    cases = {"double-y": lambda: (double_y_graph(),
                                  identity_ordering(double_y_graph())),
             **RENDER_CASES}
    for case, make in cases.items():
        g, o = make()
        fronts, bands = _drawn_bands(g, o, RenderStyle())
        assert bands, case
        for (eid, line), band in bands.items():
            e, i = g.edges[eid], o.position(eid, line) - 1
            for nid, end in ((e.a, band.start), (e.b, band.end)):
                port = np.asarray(fronts[(nid, eid)].ports[i])
                assert np.linalg.norm(end - port) < 1e-6, (case, eid, line, nid)


def test_low_degree_nodes_keep_the_buffer_trim():
    g = corridor(2)
    style = RenderStyle()
    fronts, _ = expand_node_fronts(g, style)
    for (nid, _), front in fronts.items():
        mid = (np.asarray(front.baseline[0])
               + np.asarray(front.baseline[1])) / 2
        gap = float(np.linalg.norm(mid - g.nodes[nid].xy))
        assert gap == pytest.approx(style.resolved_buffer())


def test_three_way_junction_clears_one_line_width():
    g = three_way_star()
    style = RenderStyle()
    fronts, _ = expand_node_fronts(g, style)
    hub = [f for (nid, _), f in fronts.items() if nid == "h"]
    assert len(hub) == 3

    def samples(front, n=64):
        a, b = (np.asarray(p) for p in front.baseline)
        t = np.linspace(0.0, 1.0, n)[:, None]
        return a + t * (b - a)

    for f1, f2 in combinations(hub, 2):
        s1, s2 = samples(f1), samples(f2)
        d = np.sqrt(((s1[:, None, :] - s2[None, :, :]) ** 2).sum(-1))
        assert d.min() >= style.line_width - 1e-6
    # the initial buffer trim is too tight for this junction, so the
    # fronts must actually have moved outward
    for front in hub:
        mid = (np.asarray(front.baseline[0])
               + np.asarray(front.baseline[1])) / 2
        assert np.linalg.norm(mid) > style.resolved_buffer() + 1.0


def test_node_polygons_cover_their_fronts():
    g = double_y_graph()
    fronts, polygons = expand_node_fronts(g, RenderStyle())
    assert set(polygons) == set(g.nodes)
    for (nid, _), front in fronts.items():
        hull = polygons[nid]
        for corner in front.baseline:
            gap = np.linalg.norm(hull - np.asarray(corner), axis=1).min()
            assert gap < 1e-6


# ── inner connections ───────────────────────────────────────────────


def test_connections_cover_continuing_lines():
    g = double_y_graph()
    style = RenderStyle()
    fronts, _ = expand_node_fronts(g, style)
    conns = inner_connections(g, identity_ordering(g), fronts, style)
    want = {(nid, line) for nid in g.nodes
            for line in g.continuations_at(nid)}
    assert set(conns) == want
    assert want == {("j1", "l1"), ("j1", "l2"), ("vm", "l1"), ("vm", "l2"),
                    ("j2", "l1"), ("j2", "l2")}
    for (nid, line), conn in conns.items():
        assert conn.node == nid and conn.line == line
        assert (conn.edge_from, conn.edge_to) == g.continuations_at(nid)[line]


def test_straight_through_connection_collapses_to_chord():
    g = corridor(2)
    style = RenderStyle()
    fronts, _ = expand_node_fronts(g, style)
    conns = inner_connections(g, identity_ordering(g), fronts, style)
    for conn in conns.values():
        pts = sample(conn, 50)
        chord_y = conn.points[0][1]
        assert np.allclose(pts[:, 1], chord_y, atol=1e-9)
        assert np.allclose(pts[0], conn.points[0])
        assert np.allclose(pts[-1], conn.points[-1])


@pytest.mark.parametrize("curve", ["straight", "arc", "cubic-curve"])
def test_connection_samples_join_their_ports(curve):
    g = double_y_graph()
    style = RenderStyle(curve=curve)
    fronts, _ = expand_node_fronts(g, style)
    conns = inner_connections(g, identity_ordering(g), fronts, style)
    for conn in conns.values():
        pts = sample(conn, 33)
        assert np.allclose(pts[0], conn.points[0], atol=1e-9)
        assert np.allclose(pts[-1], conn.points[-1], atol=1e-9)
        assert np.isfinite(pts).all()


def fired_pairs(breakdown):
    out = set()
    for site in breakdown.same_cont + breakdown.split:
        out.add((site.node, frozenset((site.line_a, site.line_b))))
    return out


def geometric_counts(g, o, style):
    fronts, _ = expand_node_fronts(g, style)
    conns = inner_connections(g, o, fronts, style)
    counts = {}
    for nid in g.nodes:
        cont = g.continuations_at(nid)
        for la, lb in combinations(sorted(cont), 2):
            if not set(cont[la]) & set(cont[lb]):
                continue  # pairs with no shared edge carry no event site
            # odd segment counts keep the symmetric mid-curve crossing
            # point off the sample vertices, where the strict-interior
            # intersection test would not see it
            n_cross = count_proper_intersections(
                sample(conns[(nid, la)], 128), sample(conns[(nid, lb)], 126))
            counts[(nid, frozenset((la, lb)))] = n_cross
    return counts


@pytest.mark.parametrize("fixture", [double_y_graph, separation_chain_graph])
def test_rendered_curves_realize_priced_crossings(fixture):
    # Invariant: for every pair of lines continuing through a node, the
    # drawn connection curves cross exactly once when the evaluator
    # prices a crossing for that pair and not at all otherwise, over
    # every ordering of the fixture.
    g = fixture()
    w = WeightPolicy.from_graph(g)
    style = RenderStyle()
    eids = sorted(g.edges)
    perm_sets = [list(permutations(g.edges[eid].lines)) for eid in eids]
    for combo in product(*perm_sets):
        o = Ordering(dict(zip(eids, combo)))
        fired = fired_pairs(evaluate(g, o, w))
        for key, n_cross in geometric_counts(g, o, style).items():
            assert n_cross == (1 if key in fired else 0), (key, o.to_dict())


# ── SVG assembly ────────────────────────────────────────────────────


def test_render_style_validation():
    with pytest.raises(PreconditionViolated):
        RenderStyle(line_width=0.0)
    with pytest.raises(PreconditionViolated):
        RenderStyle(max_expansion=-1.0)
    with pytest.raises(PreconditionViolated):
        RenderStyle(buffer_radius=0.0)
    with pytest.raises(SchemaViolation):
        RenderStyle(curve="wiggly")


@pytest.mark.parametrize("value", [float("nan"), float("inf")],
                         ids=["nan", "inf"])
@pytest.mark.parametrize("knob", ["line_width", "max_expansion",
                                  "buffer_radius"])
def test_render_style_rejects_non_finite_values(knob, value):
    # NaN compares False with zero, so a sign test alone lets it through
    # to end as a non-finite polyline in the offset stage
    with pytest.raises(PreconditionViolated):
        RenderStyle(**{knob: value})


def test_svg_structure_and_element_counts():
    g = double_y_graph()
    doc = render_map(g, identity_ordering(g))
    ET.fromstring(doc)
    n_bands = sum(len(e.lines) for e in g.edges.values())
    assert doc.count('id="band-') == n_bands
    assert doc.count('id="conn-') == 6
    stations = [n for n in g.nodes.values() if n.kind == "station"]
    assert len(stations) == 6  # j1 is the only auxiliary node
    assert doc.count('<path id="station-') == 2 * len(stations)
    assert doc.count('id="label-') == len(stations)
    assert 'id="station-j1"' not in doc
    assert 'id="label-j1"' not in doc


@pytest.mark.parametrize("curve, token", [("straight", " L "), ("arc", " A ")])
def test_connection_curve_kinds_reach_the_svg(curve, token):
    g = double_y_graph()
    doc = render_map(g, identity_ordering(g), RenderStyle(curve=curve))
    ET.fromstring(doc)
    conn_lines = [ln for ln in doc.splitlines() if 'id="conn-' in ln]
    assert conn_lines and all(token in ln for ln in conn_lines)


def test_empty_graph_renders_valid_svg():
    from transitmap.line_graph import LineGraph

    doc = render_map(LineGraph({}, {}, {}), Ordering({}))
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    for layer in ("line-bands", "inner-connections", "station-polygons",
                  "station-labels"):
        assert f'id="{layer}"' in doc


def test_render_map_writes_the_document(tmp_path):
    g = corridor(2)
    out = tmp_path / "map.svg"
    doc = render_map(g, identity_ordering(g), out=out)
    assert out.read_text(encoding="utf-8") == doc


def test_render_map_propagates_write_errors(tmp_path):
    g = corridor(1)
    with pytest.raises(OSError):
        render_map(g, identity_ordering(g), out=tmp_path / "no" / "dir.svg")


def test_golden_svg_bytes_are_stable():
    g = seven_line_reduction_graph()
    doc = render_map(g, identity_ordering(g), RenderStyle())
    want = (DATA / "golden_map.svg").read_bytes()
    assert doc.encode("utf-8") == want


@pytest.mark.parametrize("curve, sha256", [
    ("cubic-curve",
     "4eedb5269d8652a747a1d05e3d7bd93b6b2683ac5a64cc176b77f65aba38d9ef"),
    ("arc", "9987591d4239c6de64b64c99ee81355131a7857b117049c6592cd7a345fd73eb"),
    ("straight",
     "2c6a7690d3c8f601f50eeea2542564c36e50f48c830dde7574e28330a5d39919"),
])
def test_curved_svg_bytes_are_stable(curve, sha256):
    # The golden map is straight-edged; this pins the bytes of bevels,
    # loop cuts, hairpins and long polylines under every curve kind.
    g = curved_line_graph()
    o = Ordering({eid: tuple(reversed(e.lines)) if eid in ("t", "z")
                  else e.lines for eid, e in g.edges.items()})
    doc = render_map(g, o, RenderStyle(curve=curve))
    assert doc.count('id="band-') == 10 and doc.count('id="conn-') == 6
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == sha256


def test_batched_coordinate_formatter_matches_fmt():
    from transitmap.render_svg import _fill, _fmt

    rng = np.random.default_rng(2675)
    values = np.concatenate([
        rng.uniform(-2000.0, 2000.0, 20000),
        rng.normal(0.0, 1.0, 5000),
        np.arange(-20000, 20001) / 1000.0,
        np.arange(-4000, 4001) / 200.0,
        [0.125, 0.375, 2.675, -0.125, -0.375, -2.675, 1.005, 0.015],
        -rng.uniform(0.0, 0.005, 2000),  # rounds to -0.00
        [-0.004, -0.0049999, -0.005, -0.0, 0.0, 1e7, -1e7, 1e7 + 0.005],
    ])
    if len(values) % 2:
        values = np.append(values, 0.5)
    xy = values.reshape(-1, 2)
    got = _fill(" L ".join(["%.2f %.2f"] * len(xy)), xy)
    assert got == " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in xy.tolist())


def test_bent_grid_svg_bytes_are_stable():
    # A larger map: 42 stations and 170 bands on bowed and zigzag edges
    # in a random ordering, pinned at the per-band renderer.
    g, o = _bent_grid()
    doc = render_map(g, o, RenderStyle())
    assert doc.count('id="band-') == 170
    assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == \
        "cbb2d06fb31c2669625e756e15317e720ea26a21f887b11e3ef4dde1ccd10b04"


# ── the whole-map passes against the per-item path ──────────────────


def _random_ordering(g, seed):
    rng = np.random.default_rng(seed)
    return Ordering({eid: tuple(rng.permutation(g.edges[eid].lines).tolist())
                     for eid in sorted(g.edges)})


def _bent_grid():
    g = bent_grid_line_graph(np.random.default_rng(1923))
    return g, _random_ordering(g, 7)


def _curved():
    g = curved_line_graph()
    return g, Ordering({eid: tuple(reversed(e.lines)) if eid in ("t", "z")
                        else e.lines for eid, e in g.edges.items()})


def _short_edge_and_lone_station():
    # a-b is shorter than the two buffer trims, so its bands are trimmed
    # away; "lone" has no edge, so its hull is a single point
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (5.0, 0.0), "c": (200.0, 10.0),
               "d": (-150.0, 60.0), "e": (3.0, 180.0), "lone": (400.0, 400.0)},
        edges=[("s", "a", "b", ("l1", "l2", "l3")),
               ("t", "b", "c", ("l1", "l2")),
               ("u", "d", "a", ("l1", "l3")),
               ("v", "a", "e", ("l2", "l3")),
               ("h", "c", "e", ("l2",), [(200.0, 10.0), (60.0, 90.0),
                                         (150.0, 100.0), (3.0, 180.0)])])
    return g, _random_ordering(g, 3)


def _bends_at_the_fronts():
    # each path bends exactly one buffer trim (4 m) from a lone node, so
    # the front there sits on a vertex: at edge.b of "in", at edge.a of
    # "out"
    lines = ("l1", "l2")
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (100.0, 4.0), "c": (0.0, 50.0),
               "d": (100.0, 150.0)},
        edges=[("in", "a", "b", lines, [(0.0, 0.0), (100.0, 0.0),
                                        (100.0, 4.0)]),
               ("out", "c", "d", lines, [(0.0, 50.0), (4.0, 50.0),
                                         (100.0, 150.0)])])
    return g, identity_ordering(g)


RENDER_CASES = {
    "curved": _curved,
    "bends-at-fronts": _bends_at_the_fronts,
    "short-edge": _short_edge_and_lone_station,
    "bent-grid": _bent_grid,
    **{f"random-{seed}": (lambda seed=seed: (lambda g: (
        g, _random_ordering(g, seed)))(random_line_graph(
            np.random.default_rng(seed), n_nodes=9, n_lines=5,
            max_lines_per_edge=4)))
       for seed in (11, 12, 13)},
    **{f"lattice-{seed}": (lambda seed=seed: (lambda g: (
        g, _random_ordering(g, seed)))(lattice_line_graph(
            np.random.default_rng(seed), size=4, n_lines=7,
            max_lines_per_edge=4)))
       for seed in (21, 22)},
}


def _render_per_item(g, o, style, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(render_svg, "offset_lines", offset_lines_per_band)
        m.setattr(render_svg, "expand_node_fronts", expand_node_fronts_per_node)
        m.setattr(render_svg, "_trim_edges", trim_edges_per_edge)
        return render_map(g, o, style)


@pytest.mark.parametrize("curve", ["cubic-curve", "arc", "straight"])
@pytest.mark.parametrize("case", sorted(RENDER_CASES))
def test_render_passes_match_the_per_item_path(case, curve, monkeypatch):
    g, o = RENDER_CASES[case]()
    style = RenderStyle(curve=curve)
    fronts, polygons = expand_node_fronts(g, style)
    want_fronts, want_polygons = expand_node_fronts_per_node(g, style)
    assert list(fronts) == list(want_fronts)
    assert fronts == want_fronts
    assert list(polygons) == list(want_polygons)
    for nid, hull in polygons.items():
        assert np.array_equal(hull, want_polygons[nid]), nid
    trimmed = render_svg._trim_edges(g, fronts)
    want_trimmed = trim_edges_per_edge(g, want_fronts)
    assert list(trimmed.edges) == list(want_trimmed.edges)
    for eid, e in trimmed.edges.items():
        assert np.array_equal(e.path.pts, want_trimmed.edges[eid].path.pts), eid
    bands = offset_lines(trimmed, o, style)
    want_bands = offset_lines_per_band(want_trimmed, o, style)
    assert list(bands) == list(want_bands)
    for key, band in bands.items():
        assert np.array_equal(band.pts, want_bands[key].pts), key
        assert np.array_equal(band._cum, want_bands[key]._cum), key
    assert render_map(g, o, style) == _render_per_item(g, o, style,
                                                       monkeypatch)
    if case == "short-edge":
        assert "s" in g.edges and "s" not in trimmed.edges
        assert len(polygons["lone"]) == 1


def test_render_cases_exercise_loop_cuts_and_hairpins(monkeypatch):
    # the oracle comparison above must meet bands whose offsets cut a
    # local loop and bands around an exact hairpin
    seen = []
    real = geometry._remove_local_loops
    monkeypatch.setattr(geometry, "_remove_local_loops",
                        lambda pts: seen.append(len(pts)) or real(pts))
    for case in ("curved", "bent-grid"):
        g, o = RENDER_CASES[case]()
        _drawn_bands(g, o, RenderStyle())
    assert len(seen) >= 10
    g, _ = _curved()
    fronts, _ = expand_node_fronts(g, RenderStyle())
    drawn = render_svg._trim_edges(g, fronts).edges["h"].path
    turn = np.diff(drawn.pts[:3], axis=0)
    assert turn[0] @ turn[1] == -np.linalg.norm(turn[0]) * np.linalg.norm(turn[1])


# ── convex hull ─────────────────────────────────────────────────────


def test_hull_rows_match_np_unique():
    # the lexsort and adjacent dedupe give np.unique(axis=0)'s rows in
    # its order: exact duplicates, points that round together at 1e-9,
    # collinear points, one point, and signed zeros
    rng = np.random.default_rng(2026)
    sets = [np.array([[3.0, 4.0]]), np.array([[0.0, 0.0], [-0.0, 0.0]]),
            np.array([[-0.0, 1.0], [0.0, -0.0], [1e-12, -1e-12], [0.0, 1.0]]),
            np.column_stack([np.linspace(0, 5, 9), np.linspace(0, 5, 9)]),
            np.array([[1.0, 2.0]] * 4)]
    for _ in range(300):
        n = int(rng.integers(1, 30))
        pts = rng.integers(-3, 4, size=(n, 2)).astype(float)
        pts += rng.choice([0.0, 1e-10, -1e-10, 0.3e-9, 0.7], size=(n, 2))
        if rng.random() < 0.3:
            pts = np.vstack([pts, pts[rng.integers(0, n, size=3)]])
        if rng.random() < 0.3:
            pts[:, 1] = 2.0 * pts[:, 0] + 1.0  # collinear
        sets.append(pts)
    for pts in sets:
        rows = render_svg._unique_rows(pts)
        want = np.unique(np.round(pts, 9), axis=0)
        assert np.array_equal(rows, want)
        assert np.array_equal(render_svg._convex_hull(pts),
                              convex_hull_by_unique(pts))


def test_render_leaves_numpy_ma_unloaded(tmp_path):
    # np.unique imports numpy.ma; the hull's own dedupe spares a render
    # process that import
    g = seven_line_reduction_graph()
    graph, ordering = tmp_path / "g.json", tmp_path / "o.json"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps(
        {"orderings": {eid: list(e.lines) for eid, e in g.edges.items()}}))
    code = ("import sys; from transitmap.cli import main; "
            f"assert main(['render', {str(graph)!r}, {str(ordering)!r}, "
            f"{str(tmp_path / 'map.svg')!r}]) == 0; print(*sys.modules)")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, check=True).stdout.split()
    assert "transitmap.render_svg" in loaded
    assert "numpy.ma" not in loaded
