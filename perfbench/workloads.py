"""Benchmark workloads: the GTFS feeds they run on and the CLI calls of
one pass.

Each workload has a fixed instance, built with the `tests/synth.py`
helpers from the workload's own instance seed.  The run seed changes how
the feed is written, not what it describes: it shuffles the rows of every
table and appends a number to every stop name.  The program therefore
reads different files, writes differently labelled artifacts, and does
the same geometric and combinatorial work under every run seed, so the
pinned dims and objective hold for every seed and the figures of
different seeds measure the same work.  Run seed 0 writes the instance
as built.

Moving coordinates instead was tried.  On the grid, translating the
network by up to 0.02 degrees and jittering stops by 0.5 m changes
nothing.  On the shapes feed, it changes the order in which
`construct_line_graph` merges corridors of equal extent, which changes
the line graph and the optimal objective (378 to 408 over ten seeds).
The stage times then spread past any usable bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from synth import grid_feed_tables, write_gtfs

# Constants of synth.grid_feed_tables: stop coordinates are metres on a
# local grid around (LAT0, LON0).
LAT0, LON0 = 47.0, 9.0
DLAT = 1.0 / 111194.9
DLON = 1.0 / (111194.9 * math.cos(math.radians(LAT0)))

SHAPE_STEP_M = 20.0    # spacing of shape points
SHAPE_LATERAL_M = 8.0  # routes run up to this far beside the street axis
SHAPE_RAMP_M = 60.0    # distance from a stop to full lateral offset
EXPRESS_EVERY = 4      # every fourth route of the shapes feed is express


@dataclass(frozen=True)
class Workload:
    name: str
    tables: Callable[[], dict]
    variant: str
    solver: str           # 'builtin' or 'hs', the bundled HiGHS solver
    dims: str             # pinned `extract` dims line
    objective: float      # pinned weighted objective of the variant
    crossings: int        # pinned crossing count

    def write_feed(self, seed: int, feed_dir: Path) -> Path:
        tables = self.tables()
        if seed:
            relabel(tables, np.random.default_rng(seed))
        return write_gtfs(feed_dir, **tables)

    def commands(self, feed: Path, work: Path) -> list[tuple[str, list[str]]]:
        """The CLI calls of one pass, in order, as (stage, argv)."""
        graph, ordering, svg = (work / "graph.json", work / "ordering.json",
                                work / "map.svg")
        solver = (f"ext:{sys.executable} -m transitmap.lp_solve"
                  if self.solver == "hs" else self.solver)
        return [
            ("extract", ["extract", str(feed), str(graph)]),
            ("optimize", ["optimize", str(graph), str(ordering),
                          "--variant", self.variant, "--solver", solver]),
            ("render", ["render", str(graph), str(ordering), str(svg)]),
        ]


def relabel(tables: dict, rng: np.random.Generator) -> None:
    """Shuffle every table's rows and number every stop name."""
    for stop in tables["stops"]:
        stop["stop_name"] += f" {int(rng.integers(1000))}"
    for rows in tables.values():
        rng.shuffle(rows)


# ── instances ───────────────────────────────────────────────────────


def grid_tables() -> dict:
    """The acceptance test-10 feed: 235 stations, 296 edges, 15 lines,
    8 of them on the trunk."""
    return grid_feed_tables(np.random.default_rng(7015), cols=20, rows=16,
                            walk_hops=(26, 36))


def shapes_tables() -> dict:
    """A grid feed with shapes.txt.  Every route's shape runs from stop to
    stop with a point every SHAPE_STEP_M metres.  Between two stops it
    keeps a per-route distance beside the straight line, ramping from 0 at
    the stops, so routes on one street run a few metres apart and part
    where their stop sequences part.  Stops sit exactly on their shapes,
    as the line graph requires of edge ends."""
    rng = np.random.default_rng(2417)
    tables = grid_feed_tables(rng, cols=24, rows=18, n_routes=16,
                              trunk_lines=3, trunk_len=8, walk_hops=(22, 34))
    stops = {s["stop_id"]: s for s in tables["stops"]}
    seqs: dict[str, list[str]] = {}
    for row in tables["stop_times"]:
        seqs.setdefault(row["trip_id"], []).append(row["stop_id"])
    shapes = []
    for trip in tables["trips"]:
        shape_id = trip["shape_id"] = "s_" + trip["trip_id"]
        lateral = float(rng.uniform(-SHAPE_LATERAL_M, SHAPE_LATERAL_M))
        seq = [stops[sid] for sid in seqs[trip["trip_id"]]]
        pts = [(seq[0]["stop_lat"], seq[0]["stop_lon"])]
        for sa, sb in zip(seq, seq[1:]):
            a, b = _local(sa), _local(sb)
            length = float(np.linalg.norm(b - a))
            u = (b - a) / length
            normal = np.array([-u[1], u[0]])
            n = max(2, math.ceil(length / SHAPE_STEP_M))
            for s in np.arange(1, n) * (length / n):
                side = lateral * min(1.0, s / SHAPE_RAMP_M,
                                     (length - s) / SHAPE_RAMP_M)
                x, y = a + u * s + normal * side
                pts.append((LAT0 + y * DLAT, LON0 + x * DLON))
            pts.append((sb["stop_lat"], sb["stop_lon"]))
        shapes += [{"shape_id": shape_id, "shape_pt_sequence": i,
                    "shape_pt_lat": lat, "shape_pt_lon": lon}
                   for i, (lat, lon) in enumerate(pts)]
    tables["shapes"] = shapes
    # Express routes skip every other stop but keep the shape through
    # them, so their edges overlap the local routes' edges only in part.
    express = {t["trip_id"]
               for t in tables["trips"][EXPRESS_EVERY - 1::EXPRESS_EVERY]}
    last = {tid: len(seq) - 1 for tid, seq in seqs.items()}
    tables["stop_times"] = [
        row for row in tables["stop_times"]
        if row["trip_id"] not in express or row["stop_sequence"] % 2 == 0
        or row["stop_sequence"] == last[row["trip_id"]]]
    return tables


def _local(stop: dict) -> np.ndarray:
    return np.array([(stop["stop_lon"] - LON0) / DLON,
                     (stop["stop_lat"] - LAT0) / DLAT])


# ── the workloads ───────────────────────────────────────────────────

# Why each workload was chosen is in BENCHMARK.json and README.md.  The
# shapes pins are where the builtin search and HiGHS agree.
WORKLOADS = {wl.name: wl for wl in (
    Workload(name="grid-full-I", tables=grid_tables, variant="I",
             solver="hs", dims="235 | 235 | 296 | 15 | 8", objective=540.0,
             crossings=55),
    Workload(name="shapes-full-builtin", tables=shapes_tables, variant="I",
             solver="builtin", dims="232 | 232 | 286 | 16 | 4",
             objective=399.0, crossings=40),
)}
