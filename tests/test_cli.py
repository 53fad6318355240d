"""End-to-end tests of the command-line pipeline: subcommand wiring,
artifact schemas, config precedence, and exit codes."""

import json
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from synth import (
    basic_feed_tables,
    separation_chain_graph,
    seven_line_reduction_graph,
    write_gtfs,
)
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


def test_extract_missing_stops_exits_3(tmp_path, capsys):
    tables = basic_feed_tables()
    del tables["stops"]
    feed = write_gtfs(tmp_path / "feed", **tables)
    assert run(["extract", feed, tmp_path / "g.json"]) == 3
    assert "error:" in capsys.readouterr().err


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
      "model: 30 rows x 27 cols (variant I)",
      "crossings: 0, separations: 0"]),
    (seven_line_reduction_graph, "S",
     ["core: 9 nodes, 7 edges, 5 components",
      "model: 86 rows x 62 cols (variant S)",
      "crossings: 0, separations: 0"]),
    (separation_chain_graph, "I",
     ["core: 6 nodes, 5 edges, 5 components",
      "model: 17 rows x 16 cols (variant I)",
      "crossings: 2, separations: 0"]),
    (separation_chain_graph, "S",
     ["core: 6 nodes, 5 edges, 3 components",
      "model: 61 rows x 44 cols (variant S)",
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


def test_render_unknown_edge_exits_4(tmp_path, capsys):
    g = separation_chain_graph()
    graph = tmp_path / "g.json"
    ordering = tmp_path / "o.json"
    save_line_graph(g, graph)
    ordering.write_text(json.dumps({"orderings": {"nope": ["l1"]}}))
    assert run(["render", graph, ordering, tmp_path / "map.svg"]) == 4
    assert "error:" in capsys.readouterr().err


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
