"""End-to-end tests of the command-line pipeline: subcommand wiring,
artifact schemas, config precedence, and exit codes."""

import json
import math
import sys
import tempfile
import time
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from synth import (
    basic_feed_tables,
    grid_feed_tables,
    separation_chain_graph,
    seven_line_reduction_graph,
    write_gtfs,
)
from transitmap import cli
from transitmap.cli import PipelineConfig, main
from transitmap.errors import PreconditionViolated, SchemaViolation
from transitmap.ilp_model import Ordering, WeightPolicy
from transitmap.line_graph import load_line_graph, save_line_graph
from transitmap.optimize import brute_force, evaluate

DATA = Path(__file__).parent / "data"
SCIPY_SOLVER = f"ext:{sys.executable} -m transitmap.lp_solve"


@pytest.fixture()
def feed_dir(tmp_path):
    return write_gtfs(tmp_path / "feed", **basic_feed_tables())


def run(args):
    return main([str(a) for a in args])


def test_extract_writes_graph_and_prints_dims(feed_dir, tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert run(["extract", feed_dir, out]) == 0
    g = load_line_graph(out)
    g.validate()
    stations = sum(1 for n in g.nodes.values() if n.kind == "station")
    line = capsys.readouterr().out.splitlines()[0]
    assert line == (f"{stations} | {len(g.nodes)} | {len(g.edges)} | "
                    f"{len(g.lines)} | {g.max_lines_per_edge}")
    assert stations == 6  # the bus-only stop is filtered out
    assert len(g.lines) == 5


def test_extract_with_a_stop_55_km_away_stays_small(tmp_path, capsys):
    # Stop B 55 km south makes two 55 km edges, each swept at 5 m steps
    # against the other: 11 000 sweep points against 11 000 segments of
    # the merged path.  The nearest-segment kernel blocks its box tests,
    # so memory stays far below one dense box test of ~10^8 cells.
    tables = basic_feed_tables()
    for stop in tables["stops"]:
        if stop["stop_id"] == "B":
            stop["stop_lat"] = 46.5
    feed = write_gtfs(tmp_path / "feed", **tables)
    tracemalloc.start()
    try:
        code = run(["extract", feed, tmp_path / "g.json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 100e6
    assert capsys.readouterr().out.startswith("6 | ")


def test_extract_with_a_stop_at_latitude_0_exits_5(tmp_path, capsys):
    # Stop B typed at latitude 0 is about 5200 km from its neighbours;
    # the merge loop would resample those edges every 5 m.
    tables = basic_feed_tables()
    for stop in tables["stops"]:
        if stop["stop_id"] == "B":
            stop["stop_lat"] = 0.0
    feed = write_gtfs(tmp_path / "feed", **tables)
    t0 = time.monotonic()
    assert run(["extract", feed, tmp_path / "g.json"]) == 5
    assert time.monotonic() - t0 < 5.0
    assert not (tmp_path / "g.json").exists()
    err = capsys.readouterr().err
    assert "error: route r1: the edge from stop A to stop B is 52" in err
    assert "km long (limit 1000 km)" in err


def test_extract_and_full_show_the_feed_diagnostics(tmp_path, capsys):
    tables = basic_feed_tables()
    tables["stops"] += [{"stop_id": f"bad{i}", "stop_name": "Bad",
                         "stop_lat": "north", "stop_lon": 9.0}
                        for i in range(7)]
    feed = write_gtfs(tmp_path / "feed", **tables)
    clean = write_gtfs(tmp_path / "clean", **basic_feed_tables())
    assert run(["extract", clean, tmp_path / "g.json"]) == 0
    clean_out = capsys.readouterr()
    assert clean_out.err == "feed: 0 rows rejected\n"
    first = len(basic_feed_tables()["stops"]) + 2  # the header is row 1
    expected = "feed: 7 rows rejected\n" + "".join(
        f"  stops.txt:{first + i}: rejected (bad id or coordinates)\n"
        for i in range(5))
    assert run(["extract", feed, tmp_path / "g.json"]) == 0
    out = capsys.readouterr()
    assert out.err == expected
    assert out.out.splitlines()[0] == clean_out.out.splitlines()[0]
    assert run(["full", feed, tmp_path / "map.svg"]) == 0
    assert capsys.readouterr().err == expected


def test_extract_missing_stops_exits_3(tmp_path, capsys):
    tables = basic_feed_tables()
    del tables["stops"]
    feed = write_gtfs(tmp_path / "feed", **tables)
    assert run(["extract", feed, tmp_path / "g.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_missing_graph_file_exits_3(tmp_path, capsys):
    graph, ordering = tmp_path / "g.json", tmp_path / "o.json"
    ordering.write_text(json.dumps({"orderings": {}}))
    assert run(["optimize", graph, tmp_path / "o2.json"]) == 3
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 3
    assert capsys.readouterr().err.count("line graph file not found") == 2
    assert not (tmp_path / "o2.json").exists()
    assert not (tmp_path / "map.svg").exists()


def test_optimize_writes_ordering_and_summary(tmp_path, capsys):
    g = seven_line_reduction_graph()
    graph = tmp_path / "g.json"
    out = tmp_path / "ordering.json"
    save_line_graph(g, graph)
    assert run(["optimize", graph, out]) == 0
    payload = json.loads(out.read_text())
    o = Ordering({eid: tuple(v) for eid, v in payload["orderings"].items()})
    o.validate_for(g)
    breakdown = evaluate(g, o, WeightPolicy.from_graph(g))
    assert payload["objective"]["crossings"] == breakdown.crossing_count == 0
    text = capsys.readouterr().out
    assert "core: " in text and "model: " in text and "(variant I)" in text
    assert "crossings: 0" in text


@pytest.mark.parametrize("make_graph, variant, summary", [
    (seven_line_reduction_graph, "I",
     ["core: 9 nodes, 7 edges, 6 components",
      "model: 4 rows x 7 cols (variant I)",
      "crossings: 0, separations: 0"]),
    (seven_line_reduction_graph, "S",
     ["core: 9 nodes, 7 edges, 5 components",
      "model: 38 rows x 30 cols (variant S)",
      "crossings: 0, separations: 0"]),
    (separation_chain_graph, "I",
     ["core: 6 nodes, 5 edges, 5 components",
      "model: 3 rows x 4 cols (variant I)",
      "crossings: 2, separations: 0"]),
    (separation_chain_graph, "S",
     ["core: 6 nodes, 5 edges, 3 components",
      "model: 28 rows x 23 cols (variant S)",
      "crossings: 2, separations: 0"]),
    (seven_line_reduction_graph, "B",
     ["core: 9 nodes, 7 edges, 6 components",
      "model: 21 rows x 17 cols (variant B)",
      "crossings: 0, separations: 0"]),
    (separation_chain_graph, "B",
     ["core: 6 nodes, 5 edges, 5 components",
      "model: 14 rows x 10 cols (variant B)",
      "crossings: 2, separations: 0"]),
])
def test_optimize_summary_lines_are_pinned(make_graph, variant, summary,
                                           tmp_path, capsys):
    graph = tmp_path / "g.json"
    save_line_graph(make_graph(), graph)
    assert run(["optimize", "--variant", variant, "--solver", "builtin",
                graph, tmp_path / "ordering.json"]) == 0
    assert capsys.readouterr().out.splitlines() == summary


def test_optimize_variant_s_hits_brute_force_separation_count(tmp_path,
                                                              capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    out = tmp_path / "ordering.json"
    save_line_graph(g, graph)
    _, best = brute_force(g, WeightPolicy.from_graph(g),
                          include_separation=True)
    assert run(["optimize", "--variant", "S", graph, out]) == 0
    text = capsys.readouterr().out
    assert f"separations: {best.separation_count}" in text
    assert "(variant S)" in text


def test_render_reproduces_the_golden_svg(tmp_path):
    g = seven_line_reduction_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    out = tmp_path / "map.svg"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps(
        {"orderings": {eid: list(e.lines) for eid, e in g.edges.items()}}))
    assert run(["render", graph, ordering, out]) == 0
    assert out.read_bytes() == (DATA / "golden_map.svg").read_bytes()


@pytest.mark.parametrize("coord", ["x", "y"])
def test_non_finite_node_coordinate_exits_4(coord, feed_dir, tmp_path, capsys):
    # json reads NaN, and a NaN node passes the distance test against
    # its edges' path ends, since every comparison with NaN is False
    graph, ordering = tmp_path / "g.json", tmp_path / "o.json"
    assert run(["extract", feed_dir, graph]) == 0
    assert run(["optimize", graph, ordering]) == 0
    doc = json.loads(graph.read_text())
    next(n for n in doc["nodes"] if n["id"] == "A")[coord] = float("nan")
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["optimize", graph, tmp_path / "o2.json"]) == 4
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 4
    assert capsys.readouterr().err.count("non-finite coordinate") == 2
    assert not (tmp_path / "o2.json").exists()
    assert not (tmp_path / "map.svg").exists()


@pytest.mark.parametrize("coord", ["x", "y"])
def test_non_finite_path_point_exits_4(coord, feed_dir, tmp_path, capsys):
    # a NaN interior path point is a schema error like a NaN node, not a
    # geometry failure of the Polyline built from it
    graph, ordering = tmp_path / "g.json", tmp_path / "o.json"
    assert run(["extract", feed_dir, graph]) == 0
    assert run(["optimize", graph, ordering]) == 0
    doc = json.loads(graph.read_text())
    path = doc["edges"][0]["path"]
    path.insert(1, list(path[0]))
    path[1][0 if coord == "x" else 1] = float("nan")
    graph.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["optimize", graph, tmp_path / "o2.json"]) == 4
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 4
    assert capsys.readouterr().err.count("non-finite coordinate") == 2
    assert not (tmp_path / "o2.json").exists()
    assert not (tmp_path / "map.svg").exists()


def test_line_colour_that_is_not_rrggbb_exits_4(tmp_path, capsys):
    # the colour goes verbatim into stroke="...", so anything but #rrggbb
    # could write markup into the map
    graph, ordering = tmp_path / "g.json", tmp_path / "o.json"
    doc = json.loads((DATA / "golden_graph.json").read_text())
    doc["lines"][0]["color"] = '"/><script>x</script><x a="'
    graph.write_text(json.dumps(doc))
    ordering.write_text(json.dumps(
        {"orderings": {e["id"]: e["lines"] for e in doc["edges"]}}))
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 4
    assert "expected #rrggbb" in capsys.readouterr().err
    assert not (tmp_path / "map.svg").exists()


# A replacement for one field of a graph file: any small JSON value,
# NaN and the infinities included, as Python's json reads them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-1000, 1000)
    | st.floats(-1e4, 1e4) | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
_DELETE = "<delete>"


@st.composite
def graph_field_paths(draw):
    """A table, a record in it and a field of the record, then, while
    the value is a list, perhaps an entry of it (a line id, a path point,
    a coordinate)."""
    doc = json.loads((DATA / "golden_graph.json").read_text())
    table = draw(st.sampled_from(sorted(doc)))
    index = draw(st.integers(0, len(doc[table]) - 1))
    key = draw(st.sampled_from(sorted(doc[table][index])))
    path, value = [table, index, key], doc[table][index][key]
    while isinstance(value, list) and value and draw(st.booleans()):
        path.append(draw(st.integers(0, len(value) - 1)))
        value = value[path[-1]]
    return tuple(path)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(where=graph_field_paths(), value=st.just(_DELETE) | JSON_VALUES)
@example(where=("nodes", 0, "name"), value=5)
@example(where=("edges", 0, "path", 1), value={})
def test_mutated_graph_file_ends_in_a_typed_exit_code(where, value):
    doc = json.loads((DATA / "golden_graph.json").read_text())
    ordering = {"orderings": {e["id"]: e["lines"] for e in doc["edges"]}}
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    if value == _DELETE:
        del target[last]
    else:
        target[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        graph, order_path = Path(tmp) / "g.json", Path(tmp) / "o.json"
        graph.write_text(json.dumps(doc))
        order_path.write_text(json.dumps(ordering))
        assert run(["optimize", graph, Path(tmp) / "o2.json"]) in (0, 3, 4, 5)
        assert run(["render", graph, order_path,
                    Path(tmp) / "map.svg"]) in (0, 3, 4, 5)


def test_render_unknown_edge_exits_4(tmp_path, capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps({"orderings": {"nope": ["l1"]}}))
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 4
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("render", '{"orderings": "\xff"}'),
    ("render", "[" * 100_000),
    ("optimize", '{"k": "\xff"}'),
], ids=["ordering-latin1", "ordering-deep", "config-latin1"])
def test_unreadable_ordering_or_config_json_exits_4(command, text, tmp_path,
                                                    capsys):
    # a byte that is not UTF-8 and nesting too deep to parse end in a
    # schema violation, not a traceback
    g = separation_chain_graph()
    graph, bad = tmp_path / "g.json", tmp_path / "bad.json"
    save_line_graph(g, graph)
    bad.write_bytes(text.encode("latin-1"))
    argv = (["render", graph, bad, tmp_path / "map.svg"] if command == "render"
            else ["optimize", "--config", bad, graph, tmp_path / "o.json"])
    assert run(argv) == 4
    assert "is not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "map.svg").exists()
    assert not (tmp_path / "o.json").exists()


def test_missing_ordering_or_config_file_exits_3(tmp_path):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    save_line_graph(g, graph)
    assert run(["render", graph, tmp_path / "none.json",
                tmp_path / "map.svg"]) == 3
    assert run(["optimize", "--config", tmp_path / "none.json", graph,
                tmp_path / "o.json"]) == 3


@pytest.mark.parametrize("lines", [5, "l1", ["l1", 2]])
def test_render_ordering_entries_must_be_lists_of_line_ids(tmp_path, capsys,
                                                          lines):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps({"orderings": {min(g.edges): lines}}))
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 4
    assert "must map to a list of line ids" in capsys.readouterr().err


def test_render_curve_flag_switches_connections(tmp_path):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    out = tmp_path / "map.svg"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps(
        {eid: list(e.lines) for eid, e in g.edges.items()}))
    assert run(["render", "--curve", "straight", graph, ordering, out]) == 0
    conn_lines = [ln for ln in out.read_text().splitlines()
                  if 'id="conn-' in ln]
    assert conn_lines and all(" L " in ln for ln in conn_lines)


def test_full_pipeline_end_to_end(feed_dir, tmp_path, capsys):
    out = tmp_path / "map.svg"
    assert run(["full", feed_dir, out]) == 0
    ET.fromstring(out.read_text())
    text = capsys.readouterr().out
    for stage in ("extract: ", "optimize: ", "render: ", "total: "):
        assert stage in text


def test_seed_flag_is_inert(feed_dir, tmp_path):
    out1 = tmp_path / "m1.svg"
    out2 = tmp_path / "m2.svg"
    assert run(["full", "--seed", "1", feed_dir, out1]) == 0
    assert run(["full", "--seed", "2", feed_dir, out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_artifact_chain_feeds_render_unchanged(feed_dir, tmp_path):
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    out = tmp_path / "map.svg"
    assert run(["extract", feed_dir, graph]) == 0
    assert run(["optimize", graph, ordering]) == 0
    assert run(["render", graph, ordering, out]) == 0
    ET.fromstring(out.read_text())


def test_cli_flag_beats_config_file(tmp_path, capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    out = tmp_path / "map.svg"
    save_line_graph(g, graph)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variant": "B", "line_width": 8.0}))
    assert run(["optimize", "--config", config, graph, ordering]) == 0
    assert "(variant B)" in capsys.readouterr().out
    assert run(["render", "--config", config, "--line-width", "6",
                graph, ordering, out]) == 0
    doc = out.read_text()
    assert 'stroke-width="6.00"' in doc
    assert 'stroke-width="8.00"' not in doc


def test_solver_precedence_env_config_flag(tmp_path, monkeypatch, capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    save_line_graph(g, graph)
    monkeypatch.setenv("TRANSITMAP_SOLVER", "ext:/no/such/solver")
    assert run(["optimize", graph, tmp_path / "o1.json"]) == 6
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"solver": "builtin"}))
    assert run(["optimize", "--config", config, graph,
                tmp_path / "o2.json"]) == 0
    assert run(["optimize", "--solver", "builtin", graph,
                tmp_path / "o3.json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("body, mode, message", [
    ("printf 'x_ee1 \\377\\n' > \"$2\"\n", 0o755, "not UTF-8"),
    ("printf 'bad \\377\\376\\n' >&2\nexit 1\n", 0o755, "code 1: bad"),
    ("exit 0\n", 0o644, "not executable"),
], ids=["non_utf8_solution", "non_utf8_stderr", "not_executable"])
def test_misbehaving_external_solver_exits_6(body, mode, message, tmp_path,
                                             capsys):
    script = tmp_path / "solver.sh"
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(mode)
    graph = tmp_path / "g.json"
    save_line_graph(separation_chain_graph(), graph)
    assert run(["optimize", "--solver", f"ext:{script}", graph,
                tmp_path / "o.json"]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "o.json").exists()


def test_external_solver_through_cli_matches_builtin(tmp_path):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    save_line_graph(g, graph)
    assert run(["optimize", "--solver", SCIPY_SOLVER, graph,
                tmp_path / "ext.json"]) == 0
    assert run(["optimize", graph, tmp_path / "builtin.json"]) == 0
    ext = json.loads((tmp_path / "ext.json").read_text())
    builtin = json.loads((tmp_path / "builtin.json").read_text())
    # ties may break toward different orderings; the totals must agree
    for key in ("crossings", "separations", "weighted_total"):
        assert ext["objective"][key] == builtin["objective"][key]


def test_write_failure_exit_codes(tmp_path):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps(
        {eid: list(e.lines) for eid, e in g.edges.items()}))
    missing_dir = tmp_path / "no" / "map.svg"
    assert run(["render", graph, ordering, missing_dir]) == 3
    assert run(["render", graph, ordering, tmp_path]) == 7


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["optimize"]) == 2
    capsys.readouterr()


def test_config_validation():
    with pytest.raises(SchemaViolation):
        PipelineConfig(variant="Q")
    with pytest.raises(SchemaViolation):
        PipelineConfig(solver="simplex")
    with pytest.raises(SchemaViolation):
        PipelineConfig(solver="ext:   ")
    with pytest.raises(PreconditionViolated):
        PipelineConfig(d_hat=0.0)
    with pytest.raises(PreconditionViolated):
        PipelineConfig(k=0)
    with pytest.raises(PreconditionViolated):
        PipelineConfig(line_width=-1.0)


def test_unknown_config_key_exits_4(tmp_path, capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    save_line_graph(g, graph)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"linewidth": 4.0}))
    assert run(["optimize", "--config", config, graph,
                tmp_path / "o.json"]) == 4
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("values, code", [
    ({"d_hat": "5"}, 4),
    ({"d_hat": None}, 4),
    ({"k": 1.5}, 4),
    ({"k": True}, 4),
    ({"route_types": "x"}, 4),
    ({"route_types": [1, 2.5]}, 4),
    ({"line_width": "4"}, 4),
    ({"solver": 5}, 4),
    ({"d_hat": float("nan")}, 5),
    ({"sweep_step": float("nan")}, 5),
    ({"snap_tol": float("inf")}, 5),
    ({"buffer_radius": -1.0}, 5),
    ({"k": 0}, 5),
], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
def test_malformed_config_values_exit_with_typed_codes(values, code, tmp_path,
                                                        capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    save_line_graph(g, graph)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(values))  # NaN and Infinity as Python writes them
    assert run(["optimize", "--config", config, graph,
                tmp_path / "o.json"]) == code
    name = next(iter(values))
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_non_finite_flag_value_exits_5(tmp_path, capsys):
    graph = tmp_path / "g.json"
    save_line_graph(separation_chain_graph(), graph)
    assert run(["optimize", "--d-hat", "nan", graph, tmp_path / "o.json"]) == 5
    assert "d_hat" in capsys.readouterr().err


def test_time_limit_stops_a_hung_external_solver(tmp_path, capsys):
    # exec: the shell becomes sleep, so the timeout kills the sleeper
    # itself rather than leaving it running under a killed shell.
    script = tmp_path / "solver.sh"
    script.write_text("#!/bin/sh\nexec sleep 30\n")
    script.chmod(0o755)
    graph = tmp_path / "g.json"
    save_line_graph(separation_chain_graph(), graph)
    t0 = time.monotonic()
    assert run(["optimize", "--solver", f"ext:{script}", "--time-limit",
                "0.5", graph, tmp_path / "o.json"]) == 6
    assert time.monotonic() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "timed out after 0.5 seconds" in err
    assert not (tmp_path / "o.json").exists()


def test_time_limit_stops_the_builtin_solver(tmp_path, capsys):
    # The default solver does not finish the acceptance test-10 grid;
    # its search checks the deadline and fails as an external solver
    # call does.
    tables = grid_feed_tables(np.random.default_rng(7015), cols=20, rows=16,
                              walk_hops=(26, 36))
    feed = write_gtfs(tmp_path / "feed", **tables)
    graph = tmp_path / "g.json"
    assert run(["extract", feed, graph]) == 0
    capsys.readouterr()
    t0 = time.monotonic()
    assert run(["optimize", "--time-limit", "1", graph,
                tmp_path / "o.json"]) == 6
    assert time.monotonic() - t0 < 15.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "timed out after 1.0 seconds" in err
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("command", ["optimize", "full"])
@pytest.mark.parametrize("source", ["flag", "config", "unset"])
def test_time_limit_reaches_the_optimizer(command, source, feed_dir, tmp_path,
                                          monkeypatch, capsys):
    seen = []
    real = cli.optimize_pipeline

    def spy(*args, **kwargs):
        seen.append(kwargs.get("timeout"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "optimize_pipeline", spy)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"time_limit": 7.5}))
    extra = {"flag": ["--time-limit", "7.5"],
             "config": ["--config", config], "unset": []}[source]
    if command == "optimize":
        graph = tmp_path / "g.json"
        save_line_graph(separation_chain_graph(), graph)
        args = [graph, tmp_path / "o.json"]
    else:
        args = [feed_dir, tmp_path / "map.svg"]
    assert run([command, *extra, *args]) == 0
    assert seen == [None if source == "unset" else 7.5]
    capsys.readouterr()


@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0, float("inf"), "1"],
                         ids=["nan", "zero", "negative", "inf", "string"])
def test_time_limit_must_be_positive_and_finite(value, tmp_path, capsys):
    graph = tmp_path / "g.json"
    save_line_graph(separation_chain_graph(), graph)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"time_limit": value}))
    code = 4 if isinstance(value, str) else 5
    assert run(["optimize", "--config", config, graph,
                tmp_path / "o.json"]) == code
    assert "time_limit" in capsys.readouterr().err
    if code == 5:
        assert run(["optimize", "--time-limit", str(value), graph,
                    tmp_path / "o.json"]) == 5
        assert "time_limit" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()
