"""Reduction tests: hand-traced rule applications on small fixtures,
orientation fixups through unfold, and random-instance optimum
preservation against the exhaustive solver."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from transitmap import core_reduce
from transitmap.core_reduce import (
    BundleCollapse,
    ChainContraction,
    EdgeCut,
    ReductionMap,
    TerminusDetach,
    TerminusEdgeRemoval,
    _events,
    _pieces,
    prune,
    split_components,
    unfold,
)
from transitmap.errors import IncompleteSolution, MalformedOrdering
from transitmap.ilp_model import (
    NodeWeights,
    Ordering,
    WeightPolicy,
    compile_event_sites,
)
from transitmap.optimize import brute_force, evaluate, solve
from oracles import contract_chains_by_rescan, detach_termini_by_rescan
from synth import (
    crossing_separation_trade_graph,
    disjoint_union,
    grid_route_line_graph,
    lattice_line_graph,
    make_graph,
    parting_pieces_graph,
    random_line_graph,
    seven_line_reduction_graph,
)


def kinds(rmap):
    return [a["kind"] for a in rmap.to_dict()["actions"]]


# ── chain contraction ───────────────────────────────────────────────

def test_chain_contracts_to_single_edge():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (150.0, 0.0), "c": (300.0, 0.0),
               "d": (400.0, 0.0)},
        edges=[("e1", "a", "b", ("l1", "l2")),
               ("e2", "b", "c", ("l1", "l2")),
               ("e3", "c", "d", ("l1",))],
    )
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    core.validate()
    assert set(core.edges) == {"m0", "e3"}
    merged = core.edges["m0"]
    assert (merged.a, merged.b) == ("a", "c")
    assert merged.lines == ("l1", "l2")
    assert merged.path.length == pytest.approx(300.0)
    assert "b" not in core.nodes
    assert rmap.actions == [ChainContraction(
        node="b", edge_a="e1", edge_b="e2", merged_edge="m0",
        reversed_a=False, reversed_b=False)]


def test_bare_chain_reduces_away():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (150.0, 0.0), "c": (300.0, 0.0)},
        edges=[("e1", "a", "b", ("l1", "l2")),
               ("e2", "b", "c", ("l1", "l2"))],
    )
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    # the merged edge's two lines share one carrier, so they collapse to
    # a bundle, and the bundle ends at both endpoints, so the terminus
    # rule consumes the edge
    assert core.edges == {}
    assert kinds(rmap) == [
        "chain_contraction", "bundle_collapse", "terminus_edge_removal"]
    assert rmap.actions[2].edge == rmap.actions[0].merged_edge
    assert rmap.actions[2].lines == ("l1+l2",)


def test_rule1_requires_equal_line_sets():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "v": (150.0, 0.0), "b": (300.0, 0.0)},
        edges=[("e1", "a", "v", ("l1", "l2")), ("e2", "v", "b", ("l1",))],
    )
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    assert rmap.actions == []
    assert set(core.edges) == {"e1", "e2"}
    assert "v" in core.nodes


def test_rule1_refused_when_station_penalty_low():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (150.0, 0.0), "c": (300.0, 0.0),
               "d": (400.0, 0.0)},
        edges=[("e1", "a", "b", ("l1", "l2")),
               ("e2", "b", "c", ("l1", "l2")),
               ("e3", "c", "d", ("l1",))],
    )
    # same-continuation penalty at the degree-2 station b drops below the
    # split penalty at the endpoint stations, so a crossing moved off b
    # could get more expensive and the contraction must not happen
    cheap = WeightPolicy.from_graph(g, cross_same=1)
    assert cheap.for_node("b").same_cross < cheap.max_split_cross()
    core, rmap = prune(g, cheap)
    assert rmap.actions == []
    assert set(core.edges) == {"e1", "e2", "e3"}

    _, default_map = prune(g, WeightPolicy.from_graph(g))
    assert kinds(default_map) == ["chain_contraction"]


def test_triangle_stops_at_parallel_pair():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (400.0, 0.0), "c": (200.0, 300.0)},
        edges=[("e1", "a", "b", ("l1",)),
               ("e2", "b", "c", ("l1",)),
               ("e3", "c", "a", ("l1",))],
    )
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    core.validate()
    # one contraction leaves two parallel edges; merging further would
    # create a self-loop, so pruning stops
    assert kinds(rmap) == ["chain_contraction"]
    assert set(core.edges) == {"e2", "m0"}
    assert {core.edges["e2"].a, core.edges["e2"].b} == {"b", "c"}
    assert {core.edges["m0"].a, core.edges["m0"].b} == {"b", "c"}

    comps = split_components(core)
    assert [len(c.edges) for c in comps] == [2, 2]
    assert all(c.max_lines_per_edge == 1 for c in comps)


def test_prune_is_fixed_point():
    fixtures = [seven_line_reduction_graph()]
    rng = np.random.default_rng(911)
    fixtures += [random_line_graph(rng) for _ in range(4)]
    for g in fixtures:
        w = WeightPolicy.from_graph(g)
        core, _ = prune(g, w)
        again, second = prune(core, w)
        assert second.actions == []
        assert set(again.edges) == set(core.edges)
        assert set(again.nodes) == set(core.nodes)
        assert set(again.lines) == set(core.lines)


# ── bundle collapse ─────────────────────────────────────────────────

def test_bundle_collapse_records_members_and_weight():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "m": (200.0, 0.0), "b": (400.0, 0.0),
               "c": (250.0, 200.0)},
        edges=[("e1", "a", "m", ("l1", "l2", "l3")),
               ("e2", "m", "b", ("l1", "l2")),
               ("e3", "m", "c", ("l3",))],
    )
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    assert kinds(rmap) == ["bundle_collapse"]
    action = rmap.actions[0]
    assert action.members == ("l1", "l2")
    assert action.collapsed == "l1+l2"
    assert dict(action.reversal) == {"e1": False, "e2": False}
    assert core.edges["e1"].lines == ("l1+l2", "l3")
    assert core.edges["e2"].lines == ("l1+l2",)
    assert core.weight_of("l1+l2") == 2
    assert "l1" not in core.lines and "l2" not in core.lines


def test_terminus_edge_removal_requires_both_endpoints():
    g = make_graph(
        nodes={"h": (0.0, 0.0), "r": (0.0, 200.0), "t": (300.0, 0.0),
               "u": (500.0, 100.0), "p": (100.0, -300.0),
               "q": (400.0, -300.0)},
        edges=[("e1", "h", "r", ("lf",)),
               ("e2", "h", "t", ("lg",)),
               ("e3", "t", "u", ("lg", "lh")),
               ("e4", "p", "q", ("lx", "ly"))],
    )
    # e1 and e4 end every line at both endpoints; e2 keeps lg running
    # into e3 at t, so rule eligibility is per endpoint pair, not per
    # line count.  Without bundle collapse the multi-line removal shows
    # directly; with it, e4's lines collapse first (their carrier sets
    # are identical by construction) and the removal follows.
    core, rmap = prune(g, WeightPolicy.from_graph(g), collapse_bundles=False)
    assert kinds(rmap) == ["terminus_edge_removal", "terminus_edge_removal"]
    assert [a.edge for a in rmap.actions] == ["e1", "e4"]
    assert rmap.actions[1].lines == ("lx", "ly")
    assert set(core.edges) == {"e2", "e3"}
    assert core.degree("r") == 0
    assert "lf" in core.lines

    _, collapsed_map = prune(g, WeightPolicy.from_graph(g))
    assert kinds(collapsed_map) == [
        "bundle_collapse", "terminus_edge_removal", "terminus_edge_removal"]


# ── splitting ───────────────────────────────────────────────────────

def test_single_line_chain_splits_into_one_edge_components():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "m": (200.0, 0.0), "b": (400.0, 0.0)},
        edges=[("e1", "a", "m", ("l1",)), ("e2", "m", "b", ("l2",))],
    )
    rmap = ReductionMap()
    comps = split_components(g, rmap)
    assert len(comps) == 4
    assert all(len(c.edges) == 1 for c in comps)
    assert all(c.max_lines_per_edge == 1 for c in comps)
    assert kinds(rmap) == ["edge_cut", "edge_cut", "terminus_detach"]

    orderings = [Ordering({eid: c.edges[eid].lines for eid in c.edges})
                 for c in comps]
    out = unfold(orderings, rmap, g)
    assert out.lines_at("e1") == ("l1",)
    assert out.lines_at("e2") == ("l2",)


def test_cut_halves_meet_at_midpoint():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (400.0, 0.0), "c": (700.0, 0.0)},
        edges=[("e1", "a", "b", ("l1",)), ("e2", "b", "c", ("l1", "l2"))],
    )
    rmap = ReductionMap()
    comps = split_components(g, rmap)
    cut = rmap.actions[0]
    assert cut.edge == "e1"
    per_edge = {eid: c for c in comps for eid in c.edges}
    half_a, half_b = per_edge[cut.half_a], per_edge[cut.half_b]
    ea, eb = half_a.edges[cut.half_a], half_b.edges[cut.half_b]
    assert ea.a == "a" and eb.b == "b"
    assert ea.path.length == pytest.approx(200.0)
    assert eb.path.length == pytest.approx(200.0)
    assert np.allclose(ea.path.end, (200.0, 0.0))
    assert np.allclose(eb.path.start, (200.0, 0.0))
    # distinct dangling nodes keep the two sides disconnected
    assert ea.b != eb.a
    half_a.validate()
    half_b.validate()


# ── seven-line fixture, hand traced ─────────────────────────────────

def test_seven_line_fixture_prunes_to_core():
    g = seven_line_reduction_graph()
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    core.validate()
    assert kinds(rmap) == [
        "chain_contraction", "bundle_collapse", "terminus_edge_removal"]
    assert set(core.edges) == {"e0", "ec", "m0", "e3", "e4", "e5", "e8"}
    assert "u1" not in core.nodes
    bundle = rmap.actions[1]
    assert isinstance(bundle, BundleCollapse)
    assert bundle.members == ("la", "lb")
    assert bundle.collapsed == "la+lb"
    assert dict(bundle.reversal) == {"e0": False, "e3": False, "m0": False}
    assert core.weight_of("la+lb") == 2
    assert core.edges["m0"].lines == ("la+lb",)
    assert core.edges["e3"].lines == ("la+lb", "ld")
    assert isinstance(rmap.actions[2], TerminusEdgeRemoval)
    assert rmap.actions[2].edge == "e6"


def test_seven_line_fixture_splits_into_six_components():
    g = seven_line_reduction_graph()
    w = WeightPolicy.from_graph(g)
    core, rmap = prune(g, w)
    comps = split_components(core, rmap)
    assert sorted(len(c.edges) for c in comps) == [1, 1, 1, 2, 3, 3]
    all_edges = [eid for c in comps for eid in c.edges]
    assert len(all_edges) == len(set(all_edges))
    # the detached edge keeps its identity inside its component
    assert "e4" in all_edges
    carrier_comp = next(c for c in comps if "e3" in c.edges)
    assert carrier_comp.weight_of("la+lb") == 2
    for c in comps:
        c.validate()


def test_seven_line_fixture_solves_and_unfolds():
    g = seven_line_reduction_graph()
    w = WeightPolicy.from_graph(g)
    core, rmap = prune(g, w)
    comps = split_components(core, rmap)
    results = [solve(c, "I", w) for c in comps]
    out = unfold([ordering for ordering, _ in results], rmap, g)
    out.validate_for(g)
    breakdown = evaluate(g, out, w)
    assert breakdown.crossing_weight == sum(
        b.crossing_weight for _, b in results)
    assert breakdown.crossing_weight == 0.0
    # bundle members come back adjacent on every carrier edge
    for eid in ("e0", "e1", "e2", "e3"):
        assert abs(out.position(eid, "la") - out.position(eid, "lb")) == 1
    assert out.lines_at("e6") == ("lf",)


@pytest.mark.parametrize("collapse", [True, False], ids=["collapse", "keep"])
def test_piece_classes_match_compiled_sites(collapse):
    # The classifier reads only continuations, the site compiler prices
    # them; both must agree on every piece, and the one joined component
    # must carry exactly its pieces' sites: the parting pieces and at
    # most one coupled piece.
    rng = np.random.default_rng(4242)
    seen, joins = Counter(), 0
    for _ in range(100):
        g = random_line_graph(rng, n_nodes=int(rng.integers(8, 15)),
                              n_lines=int(rng.integers(4, 9)))
        w = WeightPolicy.from_graph(g)
        core, _ = prune(g, w, collapse_bundles=collapse)
        holders = 0
        for comp in split_components(core):
            pieces = _pieces(comp)
            piece_sites = [compile_event_sites(p, w) for p in pieces]
            for piece, sites in zip(pieces, piece_sites):
                kind = _events(piece)
                seen[kind] += 1
                assert (kind == "coupled") == bool(sites.same_cont)
                assert (kind == "parting") == (
                    not sites.same_cont and bool(sites.split))
                assert sites.separation or kind != "coupled"
            if any(_events(p) == "parting" for p in pieces):
                holders += 1
            if len(pieces) > 1:
                joins += 1
                classes = Counter(_events(p) for p in pieces)
                assert classes["parting"] >= 1 and classes["coupled"] <= 1
                assert classes["parting"] + classes["coupled"] == len(pieces)
                joined = compile_event_sites(comp, w)
                for kind in ("same_cont", "split", "separation"):
                    assert Counter(getattr(joined, kind)) == Counter(
                        s for ps in piece_sites for s in getattr(ps, kind))
        assert holders <= 1
    assert min(seen[k] for k in ("coupled", "parting", "none")) >= 10
    assert joins >= 3


@pytest.mark.parametrize("parting_first", [True, False])
def test_parting_pieces_join_the_first_coupled_piece(parting_first):
    graphs = [parting_pieces_graph(), crossing_separation_trade_graph()]
    g = disjoint_union(graphs if parting_first else graphs[::-1])
    core, _ = prune(g, WeightPolicy.from_graph(g))
    comps = split_components(core)
    classes = [sorted(_events(p) for p in _pieces(c)) for c in comps]
    assert ["coupled", "parting", "parting"] in classes
    assert classes.count(["coupled"]) == 1
    coupled = [min(p.edges) for c in comps for p in _pieces(c)
               if _events(p) == "coupled"]
    host = next(c for c, k in zip(comps, classes) if len(k) == 3)
    assert min(coupled) in {min(p.edges) for p in _pieces(host)}


# ── unfold mechanics ────────────────────────────────────────────────

def test_unfold_identity_map_returns_input():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "v": (200.0, 0.0), "b": (400.0, 0.0)},
        edges=[("e1", "a", "v", ("l1", "l2")), ("e2", "v", "b", ("l1", "l2"))],
    )
    o = Ordering({"e1": ("l2", "l1"), "e2": ("l1", "l2")})
    assert unfold([o], ReductionMap(), g) == o


def test_bundle_expansion_positions():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (400.0, 0.0)},
        edges=[("e1", "a", "b", ("la", "lb", "lc", "ld"))],
    )
    solved = Ordering({"e1": ("lc", "X", "ld")})
    forward = ReductionMap([BundleCollapse(
        members=("la", "lb"), collapsed="X", reversal=(("e1", False),))])
    out = unfold([solved], forward, g)
    assert out.lines_at("e1") == ("lc", "la", "lb", "ld")
    assert out.position("e1", "la") == 2
    assert out.position("e1", "lb") == 3

    flipped = ReductionMap([BundleCollapse(
        members=("la", "lb"), collapsed="X", reversal=(("e1", True),))])
    out2 = unfold([solved], flipped, g)
    assert out2.lines_at("e1") == ("lc", "lb", "la", "ld")


@pytest.mark.parametrize("flip_first", [False, True])
@pytest.mark.parametrize("flip_second", [False, True])
def test_chain_unfold_direction_fixups(flip_first, flip_second):
    e1 = ("e1", "v1", "a") if flip_first else ("e1", "a", "v1")
    e2 = ("e2", "b", "v1") if flip_second else ("e2", "v1", "b")
    g = make_graph(
        nodes={"a": (-200.0, 0.0), "v1": (0.0, 0.0), "b": (200.0, 0.0),
               "c": (350.0, 0.0)},
        edges=[e1 + (("l1", "l2"),), e2 + (("l1", "l2"),),
               ("e3", "b", "c", ("l1",))],
    )
    w = WeightPolicy.from_graph(g)
    core, rmap = prune(g, w)
    assert set(core.edges) == {"m0", "e3"}
    for perm in (("l1", "l2"), ("l2", "l1")):
        out = unfold([Ordering({"m0": perm, "e3": ("l1",)})], rmap, g)
        out.validate_for(g)
        # a wrong direction fixup would make the strands swap sides at
        # the contracted node, which evaluate prices as a crossing
        assert evaluate(g, out, w).crossing_weight == 0.0


def test_unfold_incomplete_raises():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (400.0, 0.0)},
        edges=[("e1", "a", "b", ("l1", "l2"))],
    )
    with pytest.raises(IncompleteSolution):
        unfold([], ReductionMap(), g)

    fixture = seven_line_reduction_graph()
    w = WeightPolicy.from_graph(fixture)
    core, rmap = prune(fixture, w)
    comps = split_components(core, rmap)
    orderings = [solve(c, "I", w)[0] for c in comps]
    with pytest.raises(IncompleteSolution):
        unfold(orderings[:-1], rmap, fixture)
    with pytest.raises(MalformedOrdering):
        unfold(orderings + [orderings[0]], rmap, fixture)


def test_reduction_map_round_trips_to_json():
    g = seven_line_reduction_graph()
    core, rmap = prune(g, WeightPolicy.from_graph(g))
    split_components(core, rmap)
    assert kinds(rmap) == [
        "chain_contraction", "bundle_collapse", "terminus_edge_removal",
        "edge_cut", "edge_cut", "edge_cut", "edge_cut", "terminus_detach"]
    text = json.dumps(rmap.to_dict(), sort_keys=True)
    assert json.loads(text) == rmap.to_dict()
    assert json.loads(text)["actions"][1]["members"] == ["la", "lb"]


def test_reduction_map_to_dict_lists_each_action_field():
    rmap = ReductionMap([
        ChainContraction(node="v", edge_a="e1", edge_b="e2", merged_edge="m0",
                         reversed_a=False, reversed_b=True),
        BundleCollapse(members=("la", "lb"), collapsed="la+lb",
                       reversal=(("e1", False), ("m0", True))),
        TerminusEdgeRemoval(edge="e3", lines=("l1", "l2")),
        EdgeCut(edge="e4", line="l1", half_a="c0", half_b="c1"),
        TerminusDetach(edge="e5", node="n1", fresh_node="q0"),
    ])
    assert rmap.to_dict() == {"actions": [
        {"kind": "chain_contraction", "node": "v", "edge_a": "e1",
         "edge_b": "e2", "merged_edge": "m0", "reversed_a": False,
         "reversed_b": True},
        {"kind": "bundle_collapse", "members": ["la", "lb"],
         "collapsed": "la+lb", "reversal": {"e1": False, "m0": True}},
        {"kind": "terminus_edge_removal", "edge": "e3",
         "lines": ["l1", "l2"]},
        {"kind": "edge_cut", "edge": "e4", "line": "l1", "half_a": "c0",
         "half_b": "c1"},
        {"kind": "terminus_detach", "edge": "e5", "node": "n1",
         "fresh_node": "q0"},
    ]}


# ── one sweep against the rescan loops ──────────────────────────────

def _sweep_family():
    """Graphs with cascading contractions (chains, lattice corridors),
    contractions that leave a neighbour two edges to one node (rings),
    each under the default weights and under random weights that block
    some degree-2 nodes or leave them out of the table."""
    rng = np.random.default_rng(6180)
    graphs = [seven_line_reduction_graph()]
    for _ in range(40):
        graphs.append(random_line_graph(
            rng, n_nodes=int(rng.integers(5, 13)),
            n_lines=int(rng.integers(1, 6))))
        graphs.append(lattice_line_graph(
            rng, size=int(rng.integers(2, 5)),
            n_lines=int(rng.integers(1, 7))))
    for _ in range(6):
        graphs.append(grid_route_line_graph(
            rng, cols=7, rows=5, n_routes=int(rng.integers(3, 8)),
            trunk_lines=2, trunk_len=3, max_per_edge=3, walk_hops=(4, 10)))
    for n in range(3, 8):
        # a ring line: contracting around the ring leaves two nodes with
        # two edges to each other; odd rings get a spur
        nodes = {f"n{i}": (1000.0 * math.cos(2 * math.pi * i / n),
                           1000.0 * math.sin(2 * math.pi * i / n))
                 for i in range(n)}
        edges = []
        for i in range(n):
            ends = (f"n{i}", f"n{(i + 1) % n}")
            if rng.random() < 0.5:
                ends = ends[::-1]
            edges.append((f"r{i}", *ends, ("l1", "l2")))
        if n % 2:
            nodes["t"] = (2000.0, 0.0)
            edges.append(("s0", "n0", "t", ("l1",)))
        graphs.append(make_graph(nodes=nodes, edges=edges))
    for g in graphs:
        yield g, WeightPolicy.from_graph(g)
        table = {}
        for nid in sorted(g.nodes):
            draw = rng.random()
            if draw < 0.1:
                continue
            table[nid] = NodeWeights(
                same_cross=1.0 if draw < 0.25 else 4.0, split_cross=2.0,
                separation=1.0 if draw > 0.85 else 3.0)
        yield g, WeightPolicy(table)


def _reduce(g, w, collapse):
    """The core, the reduction record and, per component, its node ids
    and the points of each edge's path."""
    core, rmap = prune(g, w, collapse_bundles=collapse)
    comps = split_components(core, rmap)
    return (core, json.dumps(rmap.to_dict(), sort_keys=True),
            [(sorted(c.nodes), {eid: e.path.pts.tobytes() for eid, e in c.edges.items()})
             for c in comps])


@pytest.mark.parametrize("collapse", [True, False], ids=["I", "S"])
def test_one_sweep_reductions_match_the_rescan_loops(collapse, monkeypatch):
    # Contraction and detach each find their actions in one sweep; the
    # loops that rebuild the graph and rescan after every change must
    # record the same actions and give the same components.
    seen = Counter()
    for g, w in _sweep_family():
        core, record, comps = _reduce(g, w, collapse)
        with monkeypatch.context() as m:
            m.setattr(core_reduce, "_contract_chains", contract_chains_by_rescan)
            m.setattr(core_reduce, "_detach_termini", detach_termini_by_rescan)
            _, want_record, want_comps = _reduce(g, w, collapse)
        assert record == want_record
        assert comps == want_comps
        actions = json.loads(record)["actions"]
        seen.update(a["kind"] for a in actions)
        # each single-line edge splits into its sub(0, 0.5) and sub(0.5, 1)
        halves = {eid: pts for _, paths in comps for eid, pts in paths.items()}
        for a in actions:
            if a["kind"] == "edge_cut":
                path = core.edges[a["edge"]].path
                assert halves[a["half_a"]] == path.sub(0.0, 0.5).pts.tobytes()
                assert halves[a["half_b"]] == path.sub(0.5, 1.0).pts.tobytes()
        merged = set()
        for a in actions:
            if a["kind"] == "chain_contraction":
                seen["cascade"] += bool({a["edge_a"], a["edge_b"]} & merged)
                merged.add(a["merged_edge"])
        for v in core.nodes:
            pair = core.incident(v)
            if len(pair) != 2:
                continue
            ea, eb = (core.edges[eid] for eid in pair)
            if ea.lines != eb.lines:
                continue
            if ea.other(v) == eb.other(v):
                seen["self-loop guard"] += bool(set(pair) & merged)
            else:
                seen["weight guard"] += 1
    assert min(seen[k] for k in (
        "chain_contraction", "terminus_edge_removal", "edge_cut",
        "terminus_detach", "cascade", "self-loop guard",
        "weight guard")) >= 3
    assert seen["bundle_collapse"] >= 3 if collapse else not seen["bundle_collapse"]


# ── optimum preservation ────────────────────────────────────────────

def test_pipeline_preserves_crossing_optimum():
    rng = np.random.default_rng(5303)
    for _ in range(12):
        g = random_line_graph(rng)
        w = WeightPolicy.from_graph(g)
        _, whole = brute_force(g, w, include_separation=False)
        core, rmap = prune(g, w, collapse_bundles=True)
        comps = split_components(core, rmap)
        results = [brute_force(c, w, include_separation=False)
                   for c in comps]
        total = sum(b.crossing_weight for _, b in results)
        assert total == pytest.approx(whole.crossing_weight)
        out = unfold([o for o, _ in results], rmap, g)
        assert evaluate(g, out, w).crossing_weight == pytest.approx(
            whole.crossing_weight)


def test_pipeline_preserves_full_objective_without_collapse():
    rng = np.random.default_rng(7167)
    for _ in range(12):
        g = random_line_graph(rng)
        w = WeightPolicy.from_graph(g)
        _, whole = brute_force(g, w, include_separation=True)
        core, rmap = prune(g, w, collapse_bundles=False)
        comps = split_components(core, rmap)
        results = [brute_force(c, w, include_separation=True) for c in comps]
        total = sum(b.weighted_objective for _, b in results)
        assert total == pytest.approx(whole.weighted_objective)
        out = unfold([o for o, _ in results], rmap, g)
        assert evaluate(g, out, w).weighted_objective == pytest.approx(
            whole.weighted_objective)
