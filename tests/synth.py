"""Deterministic fixture generators shared across the test suite.

Everything here is seeded; the same seed always yields the same object.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from transitmap.geometry import Polyline


# ── GTFS fixture writing ────────────────────────────────────────────

def write_gtfs(feed_dir: Path, **tables: list[dict]) -> Path:
    """Write GTFS CSV tables; keys are file stems (stops, routes, ...)."""
    feed_dir.mkdir(parents=True, exist_ok=True)
    for stem, rows in tables.items():
        cols: list[str] = []
        for row in rows:
            for c in row:
                if c not in cols:
                    cols.append(c)
        with open(feed_dir / f"{stem}.txt", "w", newline="", encoding="utf-8") as fh:
            w = csv.DictWriter(fh, fieldnames=cols)
            w.writeheader()
            w.writerows(rows)
    return feed_dir


def basic_feed_tables(center=(47.0, 9.0)):
    """Six stations on a trunk + branch, five rail routes, one bus route.

    Hand-counted expectation: 6 rail stations, 7 raw edges
    (r1: AB BC, r2: AB BC, r3: CD, r4: BE, r5: EF).
    """
    lat0, lon0 = center
    dlat = 1.0 / 111194.9  # ~1 m in degrees latitude
    dlon = 1.0 / (111194.9 * math.cos(math.radians(lat0)))
    stops = [
        {"stop_id": "A", "stop_name": "Alpha", "stop_lat": lat0, "stop_lon": lon0},
        {"stop_id": "B", "stop_name": "Bravo", "stop_lat": lat0, "stop_lon": lon0 + 800 * dlon},
        {"stop_id": "C", "stop_name": "Chape", "stop_lat": lat0, "stop_lon": lon0 + 1600 * dlon},
        {"stop_id": "D", "stop_name": "Delta", "stop_lat": lat0 + 700 * dlat, "stop_lon": lon0 + 1600 * dlon},
        {"stop_id": "E", "stop_name": "Echo", "stop_lat": lat0 + 700 * dlat, "stop_lon": lon0 + 800 * dlon},
        {"stop_id": "F", "stop_name": "Fox", "stop_lat": lat0 + 1400 * dlat, "stop_lon": lon0 + 800 * dlon},
        {"stop_id": "G", "stop_name": "GolfBus", "stop_lat": lat0 - 700 * dlat, "stop_lon": lon0},
    ]
    routes = [
        {"route_id": "r1", "route_short_name": "1", "route_type": 0, "route_color": "CC0000"},
        {"route_id": "r2", "route_short_name": "2", "route_type": 1},
        {"route_id": "r3", "route_short_name": "3", "route_type": 2},
        {"route_id": "r4", "route_short_name": "4", "route_type": 0},
        {"route_id": "r5", "route_short_name": "5", "route_type": 0},
        {"route_id": "bus", "route_short_name": "B9", "route_type": 3},
    ]
    trips = [
        {"trip_id": f"t{i}", "route_id": rid}
        for i, rid in enumerate(["r1", "r1", "r2", "r3", "r4", "r5", "bus"])
    ]
    seqs = {
        "t0": ["A", "B", "C"],
        "t1": ["A", "B", "C"],       # duplicate pattern of t0
        "t2": ["A", "B", "C"],
        "t3": ["C", "D"],
        "t4": ["B", "E"],
        "t5": ["E", "F"],
        "t6": ["G", "A"],            # bus, filtered out by default
    }
    stop_times = [
        {"trip_id": tid, "stop_id": sid, "stop_sequence": i}
        for tid, seq in seqs.items() for i, sid in enumerate(seq)
    ]
    return dict(stops=stops, routes=routes, trips=trips, stop_times=stop_times)


def smooth_polyline(rng: np.random.Generator, n_pts: int = 40, step: float = 30.0,
                    max_turn: float = 0.35, start=(0.0, 0.0), heading: float | None = None) -> Polyline:
    """Random smooth walk: fixed step length, bounded heading change."""
    h = rng.uniform(0, 2 * math.pi) if heading is None else heading
    pts = [np.asarray(start, dtype=float)]
    for _ in range(n_pts - 1):
        h += rng.uniform(-max_turn, max_turn)
        pts.append(pts[-1] + step * np.array([math.cos(h), math.sin(h)]))
    return Polyline(np.asarray(pts))


def wiggle_offset(rng: np.random.Generator, base: Polyline, lateral: float,
                  noise: float = 0.0) -> Polyline:
    """A polyline running alongside base at roughly `lateral` meters."""
    n = max(len(base.pts), 8)
    ts = np.linspace(0, 1, n)
    pts = base.param_points(ts)
    seg = np.gradient(pts, axis=0)
    norm = np.stack([-seg[:, 1], seg[:, 0]], axis=1)
    norm /= np.linalg.norm(norm, axis=1)[:, None]
    off = np.full(n, lateral)
    if noise > 0:
        off += rng.uniform(-noise, noise, size=n)
    return Polyline(pts + off[:, None] * norm)


# ── line graph fixtures ─────────────────────────────────────────────

_SYNTH_COLORS = [
    "#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#98df8a",
]


def make_graph(nodes, edges, aux=(), line_weight=None):
    """Build a LineGraph from terse specs.

    nodes: {id: (x, y)}; edges: (id, a, b, lines) or (id, a, b, lines, pts);
    omitted pts mean a straight path between the endpoints.  Nodes listed
    in aux become auxiliary, all others are stations.
    """
    from transitmap.gtfs import TransitLine
    from transitmap.line_graph import LGEdge, LGNode, LineGraph

    node_map = {
        nid: LGNode(
            id=nid,
            kind="aux" if nid in aux else "station",
            x=float(x), y=float(y),
            station_id=None if nid in aux else nid,
            name=None if nid in aux else nid.upper(),
        )
        for nid, (x, y) in nodes.items()
    }
    edge_map = {}
    line_ids = set()
    for spec in edges:
        eid, a, b, lines = spec[:4]
        pts = spec[4] if len(spec) > 4 else [
            (node_map[a].x, node_map[a].y), (node_map[b].x, node_map[b].y)
        ]
        edge_map[eid] = LGEdge(id=eid, a=a, b=b, lines=tuple(sorted(lines)),
                               path=Polyline(pts))
        line_ids.update(lines)
    lines = {
        lid: TransitLine(id=lid, label=lid.upper(),
                         color=_SYNTH_COLORS[i % len(_SYNTH_COLORS)])
        for i, lid in enumerate(sorted(line_ids))
    }
    return LineGraph(nodes=node_map, edges=edge_map, lines=lines,
                     line_weight=line_weight)


def big_line_graph(rng: np.random.Generator, n_edges: int = 235):
    """Jittered grid multigraph of roughly Stuttgart-scale edge count."""
    cols, rows = 12, 11
    nodes = {}
    for r in range(rows):
        for c in range(cols):
            nodes[f"n{r}_{c}"] = (
                c * 500.0 + float(rng.uniform(-50, 50)),
                r * 500.0 + float(rng.uniform(-50, 50)),
            )
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                pairs.append((f"n{r}_{c}", f"n{r}_{c + 1}"))
            if r + 1 < rows:
                pairs.append((f"n{r}_{c}", f"n{r + 1}_{c}"))
    rng.shuffle(pairs)
    pairs = pairs[:n_edges]
    pool = [f"l{i}" for i in range(12)]
    edges = []
    for i, (a, b) in enumerate(pairs):
        k = int(rng.integers(1, 4))
        lines = list(rng.choice(pool, size=k, replace=False))
        ax, ay = nodes[a]
        bx, by = nodes[b]
        mid = ((ax + bx) / 2 + float(rng.uniform(-40, 40)),
               (ay + by) / 2 + float(rng.uniform(-40, 40)))
        edges.append((f"e{i}", a, b, lines, [(ax, ay), mid, (bx, by)]))
    used = {a for _, a, _, _, _ in edges} | {b for _, _, b, _, _ in edges}
    return make_graph({nid: xy for nid, xy in nodes.items() if nid in used}, edges)


def random_raw_network(rng: np.random.Generator, n_stations: int = 8,
                       n_lines: int = 4, box: float = 3000.0):
    """Random station layout; each line visits a random simple station
    sequence; per-line lateral jitter keeps coincident corridors within
    merge distance without being identical."""
    from transitmap.gtfs import RawEdge, RawNetwork, Station, TransitLine

    pts: list[tuple[float, float]] = []
    while len(pts) < n_stations:
        cand = (float(rng.uniform(0, box)), float(rng.uniform(0, box)))
        if all(math.hypot(cand[0] - p[0], cand[1] - p[1]) >= 400 for p in pts):
            pts.append(cand)
    stations = {
        f"s{i}": Station(id=f"s{i}", name=f"S{i}", xy=p)
        for i, p in enumerate(pts)
    }
    sids = sorted(stations)
    lines = {}
    edges = []
    for ln in range(n_lines):
        lid = f"l{ln}"
        lines[lid] = TransitLine(id=lid, label=lid.upper(),
                                 color=_SYNTH_COLORS[ln % len(_SYNTH_COLORS)])
        length = int(rng.integers(3, 6))
        seq = list(rng.choice(sids, size=min(length, len(sids)), replace=False))
        shift = float(rng.uniform(-8, 8))
        for a, b in zip(seq, seq[1:]):
            pa = np.array(stations[a].xy)
            pb = np.array(stations[b].xy)
            d = pb - pa
            n = np.array([-d[1], d[0]]) / np.linalg.norm(d)
            path_pts = [tuple(pa)]
            for t in (0.25, 0.5, 0.75):
                path_pts.append(tuple(pa + t * d + shift * n))
            path_pts.append(tuple(pb))
            edges.append(RawEdge(station_a=a, station_b=b, line=lid,
                                 path=Polyline(path_pts)))
    return RawNetwork(stations=stations, lines=lines, edges=edges)


def double_y_graph():
    """Two lines swap sides between opposite forks, forcing exactly one
    crossing; the cheap place to pay it is the auxiliary fork j1."""
    return make_graph(
        nodes={
            "U1": (-200.0, 150.0), "D1": (-200.0, -150.0),
            "j1": (-100.0, 0.0), "vm": (0.0, 0.0), "j2": (100.0, 0.0),
            "U2": (200.0, 150.0), "D2": (200.0, -150.0),
        },
        edges=[
            ("f1", "U1", "j1", ("l1",)),
            ("f2", "D1", "j1", ("l2",)),
            ("c1", "j1", "vm", ("l1", "l2")),
            ("c2", "vm", "j2", ("l1", "l2")),
            ("f3", "j2", "U2", ("l2",)),
            ("f4", "j2", "D2", ("l1",)),
        ],
        aux=("j1",),
    )


def separation_chain_graph():
    """Line l2 joins the corridor from the north at v1 and leaves south
    at v2; every ordering of the middle edge costs two split crossings,
    but only the middle placement of l2 also separates the l1/l3 pair."""
    return make_graph(
        nodes={
            "a": (-200.0, 0.0), "v1": (-100.0, 0.0), "v2": (100.0, 0.0),
            "b": (200.0, 0.0), "jn": (-100.0, 150.0), "ks": (100.0, -150.0),
        },
        edges=[
            ("e1", "a", "v1", ("l1", "l3")),
            ("j2", "jn", "v1", ("l2",)),
            ("e2", "v1", "v2", ("l1", "l2", "l3")),
            ("k2", "v2", "ks", ("l2",)),
            ("e3", "v2", "b", ("l1", "l3")),
        ],
        aux=("v1", "v2"),
    )


def random_line_graph(rng: np.random.Generator, n_nodes: int = 6,
                      n_lines: int = 3, max_lines_per_edge: int = 3):
    """Small generic-position network: a random tree plus an optional
    chord, with lines following random simple paths and randomized
    canonical edge directions."""
    ids = [f"n{i}" for i in range(n_nodes)]
    nodes = {}
    for i, nid in enumerate(ids):
        ang = 2.0 * math.pi * i / n_nodes + float(rng.uniform(-0.25, 0.25))
        radius = 1000.0 * (0.7 + 0.3 * float(rng.random()))
        nodes[nid] = (radius * math.cos(ang), radius * math.sin(ang))

    links = []
    for i in range(1, n_nodes):
        links.append((ids[int(rng.integers(0, i))], ids[i]))
    if n_nodes >= 4 and rng.random() < 0.6:
        for _ in range(8):
            i, j = sorted(rng.choice(n_nodes, size=2, replace=False).tolist())
            cand = (ids[i], ids[j])
            if cand not in links and cand[::-1] not in links:
                links.append(cand)
                break

    adjacency = {nid: [] for nid in ids}
    for li, (a, b) in enumerate(links):
        adjacency[a].append((b, li))
        adjacency[b].append((a, li))
    carried = [set() for _ in links]
    for k in range(n_lines):
        lid = f"l{k}"
        current = ids[int(rng.integers(0, n_nodes))]
        visited = {current}
        target = int(rng.integers(2, 5))
        hops = 0
        while hops < target:
            options = [
                (other, li) for other, li in adjacency[current]
                if other not in visited and len(carried[li]) < max_lines_per_edge
            ]
            if not options:
                break
            other, li = options[int(rng.integers(0, len(options)))]
            carried[li].add(lid)
            visited.add(other)
            current = other
            hops += 1
    if not any(carried):
        carried[0].add("l0")

    edges = []
    for li, (a, b) in enumerate(links):
        if not carried[li]:
            continue
        if rng.random() < 0.5:
            a, b = b, a
        edges.append((f"e{li}", a, b, tuple(sorted(carried[li]))))
    degree = {}
    for _, a, b, _lines in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    aux = tuple(nid for nid in ids
                if degree.get(nid, 0) >= 3 and rng.random() < 0.5)
    used = {nid for _, a, b, _lines in edges for nid in (a, b)}
    return make_graph(
        nodes={nid: nodes[nid] for nid in ids if nid in used},
        edges=edges, aux=aux)


def lattice_line_graph(rng: np.random.Generator, size: int = 3,
                       n_lines: int = 6, max_lines_per_edge: int = 3,
                       hops: tuple[int, int] = (4, 8)):
    """Lines walking a square lattice of stations 100 m apart, each a
    random simple path of hops[0] to hops[1] - 1 links.  Every fork
    turns by a right angle either way, so under uniform weights many
    orderings tie."""
    cells = [(r, c) for r in range(size) for c in range(size)]
    links = [((r, c), (r + dr, c + dc)) for r, c in cells
             for dr, dc in ((0, 1), (1, 0))
             if r + dr < size and c + dc < size]
    carried = {link: set() for link in links}
    for k in range(n_lines):
        current = cells[int(rng.integers(len(cells)))]
        visited = {current}
        for _ in range(int(rng.integers(*hops))):
            options = [
                (link, other) for link in links if current in link
                for other in link if other not in visited
                and len(carried[link]) < max_lines_per_edge
            ]
            if not options:
                break
            link, current = options[int(rng.integers(len(options)))]
            carried[link].add(f"l{k}")
            visited.add(current)
    edges = []
    for i, link in enumerate(links):
        if carried[link]:
            a, b = link if rng.random() < 0.5 else link[::-1]
            edges.append((f"e{i}", f"n{a[0]}{a[1]}", f"n{b[0]}{b[1]}",
                          tuple(sorted(carried[link]))))
    used = {nid for _, a, b, _lines in edges for nid in (a, b)}
    return make_graph(
        nodes={f"n{r}{c}": (100.0 * c, 100.0 * r) for r, c in cells
               if f"n{r}{c}" in used},
        edges=edges)


def forced_event_lattices():
    """Lattices whose exhaustive I optimum pays crossings and whose S
    optimum pays a separation: few small random graphs force either."""
    return [lattice_line_graph(np.random.default_rng(seed))
            for seed in (228, 323, 661, 712, 798, 2094)]


def seven_line_reduction_graph():
    """Seven-line network exercising every reduction rule at once.

    Lines la and lb ride together everywhere (collapsible bundle), u1 is
    a contractible chain node, lf lives on a both-ends-terminus edge,
    and e4's lines all end at the through-station t1, so splitting must
    detach it there.  Hand-traced expectations live in the reduction
    tests."""
    return make_graph(
        nodes={
            "w0": (-150.0, 80.0),
            "p1": (-80.0, 200.0),
            "u0": (0.0, 0.0),
            "u1": (150.0, 0.0),
            "u2": (300.0, 0.0),
            "h": (450.0, 0.0),
            "r1": (450.0, -150.0),
            "t1": (600.0, 100.0),
            "s5": (700.0, 200.0),
            "s6": (700.0, 0.0),
        },
        edges=[
            ("e0", "w0", "u0", ("la", "lb", "lc")),
            ("ec", "u0", "p1", ("lc",)),
            ("e1", "u0", "u1", ("la", "lb")),
            ("e2", "u1", "u2", ("la", "lb")),
            ("e3", "u2", "h", ("la", "lb", "ld")),
            ("e6", "h", "r1", ("lf",)),
            ("e4", "h", "t1", ("ld", "lg")),
            ("e5", "t1", "s5", ("le",)),
            ("e8", "t1", "s6", ("le",)),
        ],
    )


def two_edge_continuation_graph(m: int):
    """Exactly one continuing line pair between two m-line edges: p and
    q ride both edges, every other line terminates at the middle node."""
    fillers_a = tuple(f"f{i}" for i in range(m - 2))
    fillers_b = tuple(f"g{i}" for i in range(m - 2))
    return make_graph(
        nodes={"a": (0.0, 0.0), "v": (500.0, 0.0), "b": (1000.0, 0.0)},
        edges=[
            ("e1", "a", "v", ("p", "q") + fillers_a),
            ("e2", "v", "b", ("p", "q") + fillers_b),
        ],
    )


def crossing_separation_trade_graph():
    """Partner pairs conflict across the trunk: (l1,l2) ride together on
    the west branch and (l1,l3) on the east branch, so some adjacency
    must break unless an extra crossing is paid.  The orderings realize
    exactly two undominated outcomes: one crossing with one separation,
    or two crossings with none."""
    return make_graph(
        nodes={
            "bw1": (-150.0, 100.0), "bw2": (-150.0, -100.0),
            "vw": (0.0, 0.0), "ve": (300.0, 0.0),
            "be1": (450.0, 100.0), "be2": (450.0, -100.0),
        },
        edges=[
            ("w1", "bw1", "vw", ("l1", "l2")),
            ("w2", "bw2", "vw", ("l3",)),
            ("et", "vw", "ve", ("l1", "l2", "l3")),
            ("x1", "ve", "be1", ("l1", "l3")),
            ("x2", "ve", "be2", ("l2",)),
        ],
        aux=("vw", "ve"),
    )


def parting_pieces_graph(hubs: int = 2):
    """crossing_separation_trade_graph, whose lines continue in pairs,
    beside hubs where three two-line edges meet and every line pair only
    parts: one coupled core piece and one parting piece per hub.  Hubs
    alternate 1 km north and south of the trunk, then 2 km, and so on."""
    trade = crossing_separation_trade_graph()
    nodes = {n.id: (n.x, n.y) for n in trade.nodes.values()}
    edges = [(e.id, e.a, e.b, e.lines) for e in trade.edges.values()]
    for k in range(1, hubs + 1):
        y = 1000.0 * ((k + 1) // 2) * (1 if k % 2 else -1)
        nodes.update({f"a{k}": (-300.0, y), f"v{k}": (0.0, y),
                      f"b{k}": (250.0, y + 200.0), f"c{k}": (250.0, y - 200.0)})
        edges += [(f"s{k}a", f"a{k}", f"v{k}", (f"m{k}1", f"m{k}2")),
                  (f"s{k}b", f"v{k}", f"b{k}", (f"m{k}1", f"m{k}3")),
                  (f"s{k}c", f"v{k}", f"c{k}", (f"m{k}2", f"m{k}3"))]
    return make_graph(nodes=nodes, edges=edges, aux=("vw", "ve"))


def disjoint_union(graphs):
    """The graphs side by side, 10 km apart, with the ids of the k-th
    graph's nodes, edges and lines prefixed by "g<k>_", so that they
    share nothing."""
    nodes, edges, aux = {}, [], []
    for k, g in enumerate(graphs):
        pre, dx = f"g{k}_", 10_000.0 * k
        for n in g.nodes.values():
            nodes[pre + n.id] = (n.x + dx, n.y)
            if n.kind == "aux":
                aux.append(pre + n.id)
        edges += [(pre + e.id, pre + e.a, pre + e.b,
                   tuple(pre + lid for lid in e.lines),
                   [(x + dx, y) for x, y in e.path.pts.tolist()])
                  for e in g.edges.values()]
    return make_graph(nodes=nodes, edges=edges, aux=aux)


def curved_line_graph():
    """Four lines on curved geometry: a smooth trunk a-b, a smooth branch
    b-c, a sharp zigzag b-d whose joins pass the miter limit and leave
    loops at its inner corners, and an edge a-e that doubles back on
    itself (an exact hairpin).  b is auxiliary."""
    rng = np.random.default_rng(1010)
    trunk = smooth_polyline(rng, n_pts=60, step=25.0, max_turn=0.3,
                            start=(0.0, 0.0), heading=0.0)
    b = trunk.end
    branch = smooth_polyline(rng, n_pts=40, step=20.0, max_turn=0.5,
                             start=b, heading=1.3)
    ang = -1.0
    rot = np.array([[math.cos(ang), -math.sin(ang)],
                    [math.sin(ang), math.cos(ang)]])
    zigzag = np.array([(4.0 * i, 12.0 * (i % 2)) for i in range(30)]) @ rot.T + b
    hairpin = [(0.0, 0.0), (-300.0, 0.0), (-100.0, 0.0), (-100.0, -150.0)]
    return make_graph(
        nodes={"a": (0.0, 0.0), "b": tuple(b), "c": tuple(branch.end),
               "d": tuple(zigzag[-1]), "e": (-100.0, -150.0)},
        edges=[("t", "a", "b", ("l1", "l2", "l3", "l4"), trunk.pts),
               ("s", "b", "c", ("l1", "l2"), branch.pts),
               ("z", "b", "d", ("l3", "l4"), zigzag),
               ("h", "a", "e", ("l1", "l3"), hairpin)],
        aux=("b",))

# ── scaled synthetic networks ───────────────────────────────────────

def grid_route_network(rng: np.random.Generator, *, cols: int, rows: int,
                       n_routes: int, trunk_lines: int, trunk_len: int,
                       spacing: float = 600.0, walk_hops=(12, 26)):
    """Stations on a jittered grid with routes as lattice walks.  The
    first trunk_lines routes all traverse a central run of trunk_len
    stations, giving a controlled maximum of lines per corridor."""
    stations = {}
    for r in range(rows):
        for c in range(cols):
            stations[f"g{r}_{c}"] = (
                c * spacing + float(rng.uniform(-40, 40)),
                r * spacing + float(rng.uniform(-40, 40)),
            )

    def neighbors(r, c):
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if 0 <= r + dr < rows and 0 <= c + dc < cols:
                yield r + dr, c + dc

    def walk(start, hops, seen):
        seq = [start]
        seen = set(seen) | {start}
        cur = start
        for _ in range(hops):
            options = [rc for rc in neighbors(*cur) if rc not in seen]
            if not options:
                break
            cur = options[int(rng.integers(0, len(options)))]
            seen.add(cur)
            seq.append(cur)
        return seq

    r0 = rows // 2
    c0 = (cols - trunk_len) // 2
    trunk = [(r0, c0 + i) for i in range(trunk_len)]
    routes = {}
    for i in range(n_routes):
        rid = f"r{i}"
        lo, hi = walk_hops
        hops = int(rng.integers(lo, hi + 1))
        if i < trunk_lines:
            head = walk(trunk[0], hops // 2, trunk)[1:]
            tail = walk(trunk[-1], hops // 2, trunk + head)[1:]
            seq = head[::-1] + trunk + tail
        else:
            # free walks stay off the trunk so its line count is exactly
            # trunk_lines
            start = (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
            while start in trunk:
                start = (int(rng.integers(0, rows)),
                         int(rng.integers(0, cols)))
            seq = walk(start, hops, trunk)
        routes[rid] = [f"g{r}_{c}" for r, c in seq]
    return stations, routes


def grid_feed_tables(rng: np.random.Generator, *, cols=16, rows=12,
                     n_routes=15, trunk_lines=8, trunk_len=8,
                     walk_hops=(22, 34)):
    """GTFS tables for a grid network; defaults give a feed of roughly
    Stuttgart scale (192 stations, 15 routes, 8-line trunk)."""
    stations, routes = grid_route_network(
        rng, cols=cols, rows=rows, n_routes=n_routes,
        trunk_lines=trunk_lines, trunk_len=trunk_len, walk_hops=walk_hops)
    lat0, lon0 = 47.0, 9.0
    dlat = 1.0 / 111194.9
    dlon = 1.0 / (111194.9 * math.cos(math.radians(lat0)))
    stops = [
        {"stop_id": sid, "stop_name": sid.upper(),
         "stop_lat": lat0 + y * dlat, "stop_lon": lon0 + x * dlon}
        for sid, (x, y) in sorted(stations.items())
    ]
    route_rows = [
        {"route_id": rid, "route_short_name": rid.upper(), "route_type": 1}
        for rid in sorted(routes)
    ]
    trips = [{"trip_id": f"t_{rid}", "route_id": rid} for rid in sorted(routes)]
    stop_times = [
        {"trip_id": f"t_{rid}", "stop_id": sid, "stop_sequence": i}
        for rid in sorted(routes) for i, sid in enumerate(routes[rid])
    ]
    return dict(stops=stops, routes=route_rows, trips=trips,
                stop_times=stop_times)


def grid_route_line_graph(rng: np.random.Generator, *, cols: int, rows: int,
                          n_routes: int, trunk_lines: int, trunk_len: int,
                          max_per_edge: int, walk_hops=(12, 26)):
    """Line graph built directly from a grid route network, for model
    size measurements at controlled dimensions."""
    stations, routes = grid_route_network(
        rng, cols=cols, rows=rows, n_routes=n_routes,
        trunk_lines=trunk_lines, trunk_len=trunk_len, walk_hops=walk_hops)
    edge_lines: dict[tuple[str, str], set] = {}
    for rid, seq in routes.items():
        for a, b in zip(seq, seq[1:]):
            key = (a, b) if a < b else (b, a)
            carried = edge_lines.setdefault(key, set())
            if len(carried) < max_per_edge:
                carried.add(rid)
    edges = [
        (f"e{i}", a, b, tuple(sorted(lines)))
        for i, ((a, b), lines) in enumerate(sorted(edge_lines.items()))
    ]
    used = {nid for _, a, b, _ in edges for nid in (a, b)}
    return make_graph(
        nodes={sid: xy for sid, xy in stations.items() if sid in used},
        edges=edges)


def bent_grid_line_graph(rng: np.random.Generator, *, cols: int = 7,
                         rows: int = 6, n_routes: int = 10):
    """grid_route_line_graph with every edge bent: a random mix of smooth
    bows and sharp zigzags (joins past the miter limit and inner-corner
    loops) between the same end stations, up to five lines an edge."""
    g = grid_route_line_graph(rng, cols=cols, rows=rows, n_routes=n_routes,
                              trunk_lines=5, trunk_len=4, max_per_edge=5)
    edges = []
    for eid in sorted(g.edges):
        e = g.edges[eid]
        a, b = e.path.pts[0], e.path.pts[-1]
        u = b - a
        normal = np.array([-u[1], u[0]]) / float(np.linalg.norm(u))
        if rng.random() < 0.5:
            s = np.linspace(0.0, 1.0, int(rng.integers(3, 40)))[1:-1]
            side = float(rng.uniform(-60.0, 60.0)) * np.sin(math.pi * s)
        else:
            s = np.linspace(0.0, 1.0, int(rng.integers(20, 160)))[1:-1]
            side = float(rng.uniform(4.0, 25.0)) * (np.arange(len(s)) % 2)
        mid = a + s[:, None] * u + side[:, None] * normal
        edges.append((eid, e.a, e.b, e.lines, np.vstack([a, mid, b])))
    return make_graph(nodes={nid: (n.x, n.y) for nid, n in g.nodes.items()},
                      edges=edges)
