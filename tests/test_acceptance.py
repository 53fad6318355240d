"""Acceptance suite: one test per contract point of the finished
pipeline, covering exact optimizer correctness, model-size scaling,
reduction soundness, geometric realization of the priced objective,
analytic geometry tolerances, rendering invariants, end-to-end time
budgets, and byte-stable artifacts."""

import json
import math
import os
import sys
import time
from itertools import combinations, permutations, product
from pathlib import Path

import numpy as np
import pytest

from synth import (
    basic_feed_tables,
    crossing_separation_trade_graph,
    forced_event_lattices,
    grid_feed_tables,
    grid_route_line_graph,
    lattice_line_graph,
    make_graph,
    random_line_graph,
    separation_chain_graph,
    seven_line_reduction_graph,
    smooth_polyline,
    two_edge_continuation_graph,
    wiggle_offset,
    write_gtfs,
)
from test_geometry import _fine_sweep_oracle
from test_render_svg import fired_pairs, geometric_counts
from transitmap.cli import main
from transitmap.core_reduce import BundleCollapse, prune
from transitmap.geometry import Polyline, shared_segments
from transitmap.ilp_model import (
    Ordering,
    WeightPolicy,
    build_baseline,
    build_improved,
    extract_ordering,
    model_dims,
    write_lp,
)
from transitmap.line_graph import save_line_graph
from transitmap.lp_solve import solve_lp_file
from transitmap.optimize import brute_force, evaluate, optimize_pipeline, solve
from transitmap.render_svg import RenderStyle, offset_lines

DATA = Path(__file__).parent / "data"
SCIPY_SOLVER = f"{sys.executable} -m transitmap.lp_solve"


def small_graph_family(n_graphs=200, first_seed=20_000):
    """Random line graphs small enough for exhaustive search: at most
    six edges, at most three lines per edge, node degree at most four."""
    graphs = []
    seed = first_seed
    while len(graphs) < n_graphs:
        g = random_line_graph(np.random.default_rng(seed))
        seed += 1
        if max(g.degree(n) for n in g.nodes) > 4:
            continue
        assert len(g.edges) <= 6 and g.max_lines_per_edge <= 3
        graphs.append(g)
    return graphs


def lp_file_optimum(g, model, w, tmp_path, tag):
    """Round-trip a model through its LP file and the bundled MILP
    solver, then price the decoded ordering with the evaluator."""
    model_path = tmp_path / f"{tag}.lp"
    out_path = tmp_path / f"{tag}.out"
    write_lp(model, model_path)
    assert solve_lp_file(model_path, out_path) == 0
    assignment = {}
    for line in out_path.read_text().splitlines():
        name, _, value = line.rpartition(" ")
        assignment[name] = float(value)
    return evaluate(g, extract_ordering(model, assignment), w)


def all_outcomes(g, w):
    """(crossings, separations) pairs over every ordering of g."""
    eids = sorted(g.edges)
    outcomes = set()
    for combo in product(*[list(permutations(g.edges[e].lines))
                           for e in eids]):
        b = evaluate(g, Ordering(dict(zip(eids, combo))), w)
        outcomes.add((b.crossing_count, b.separation_count))
    return outcomes


def test_01_improved_model_matches_exhaustive_search():
    # On 200 random instances the crossing optimum found through the
    # pair-order formulation equals the exhaustive-search optimum,
    # exactly and within a minute.  An externally configured solver
    # must reproduce the same optima.
    graphs = small_graph_family()
    started = time.perf_counter()
    positive = 0
    for g in graphs:
        w = WeightPolicy.from_graph(g)
        _, expected = brute_force(g, w, include_separation=False)
        _, got = solve(g, "I", w, backend="builtin")
        assert got.objective(False) == expected.objective(False)
        positive += expected.objective(False) > 0
    assert time.perf_counter() - started < 60.0

    # Only 3 of the 200 random graphs have a positive optimum.
    lattices = forced_event_lattices()
    for g in lattices:
        w = WeightPolicy.from_graph(g)
        _, expected = brute_force(g, w, include_separation=False)
        _, got = solve(g, "I", w, backend="builtin")
        assert got.objective(False) == expected.objective(False) > 0
        positive += 1
    assert positive >= 9

    external = os.environ.get("TRANSITMAP_SOLVER", "")
    if external and external != "builtin":
        backend = external[4:] if external.startswith("ext:") else external
        for g in graphs + lattices:
            w = WeightPolicy.from_graph(g)
            _, expected = brute_force(g, w, include_separation=False)
            _, got = solve(g, "I", w, backend=backend)
            assert got.objective(False) == expected.objective(False)


def test_02_baseline_and_improved_models_agree_without_separation(tmp_path):
    # Both formulations price crossings only (no separation term), so
    # their LP optima must coincide exactly on every instance.  Each
    # model goes through its written LP file and the bundled MILP
    # solver rather than the combinatorial backend.
    # The lattices after the random graphs force crossings.
    positive = 0
    for i, g in enumerate(small_graph_family() + forced_event_lattices()):
        w = WeightPolicy.from_graph(g)
        via_baseline = lp_file_optimum(g, build_baseline(g, w), w,
                                       tmp_path, f"b{i}")
        via_improved = lp_file_optimum(g, build_improved(g, w), w,
                                       tmp_path, f"i{i}")
        assert via_baseline.objective(False) == via_improved.objective(False)
        positive += via_improved.objective(False) > 0
    assert positive >= 9


def test_03_reduction_pipeline_preserves_the_optimum():
    # Prune, split, solve per component, and unfold; the re-priced
    # whole-graph ordering must reach the exhaustive optimum.  The
    # seven-line fixture additionally pins the parallel-pair collapse:
    # its two same-carrier lines merge into one core line.
    for seed in range(23_000, 23_060):
        g = random_line_graph(np.random.default_rng(seed))
        w = WeightPolicy.from_graph(g)
        _, expected = brute_force(g, w, include_separation=False)
        ordering = optimize_pipeline(g, "I", w, backend="builtin").ordering
        assert evaluate(g, ordering, w).objective(False) == \
            expected.objective(False)

    # Few small random graphs have a positive optimum; these lattices
    # force crossings under I and separations under S through the
    # reductions.
    for seed in (228, 323, 661, 712, 798, 2094):
        g = lattice_line_graph(np.random.default_rng(seed))
        w = WeightPolicy.from_graph(g)
        _, best_i = brute_force(g, w, include_separation=False)
        _, best_s = brute_force(g, w, include_separation=True)
        got_i = evaluate(
            g, optimize_pipeline(g, "I", w, backend="builtin").ordering, w)
        got_s = evaluate(
            g, optimize_pipeline(g, "S", w, backend="builtin").ordering, w)
        assert got_i.objective(False) == best_i.objective(False) > 0
        assert got_s.objective(True) == best_s.objective(True)
        assert got_s.separation_weight > 0

    g = seven_line_reduction_graph()
    w = WeightPolicy.from_graph(g)
    _, rmap = prune(g, w)
    collapses = [a for a in rmap.actions if isinstance(a, BundleCollapse)]
    assert len(collapses) == 1
    assert collapses[0].members == ("la", "lb")
    assert collapses[0].collapsed == "la+lb"
    core, _ = prune(g, w)
    core_lines = {line for e in core.edges.values() for line in e.lines}
    assert "la+lb" in core_lines
    assert "la" not in core_lines and "lb" not in core_lines
    _, expected = brute_force(g, w, include_separation=False)
    ordering = optimize_pipeline(g, "I", w, backend="builtin").ordering
    assert evaluate(g, ordering, w).objective(False) == \
        expected.objective(False)


def test_04_model_size_scaling():
    # The pair-order formulation stays within 12|E|M^2 rows and
    # 8|E|M^2 columns; the direct formulation grows like M^4 (log-log
    # slope within 0.5 of 4 on a fixture with one continuing pair);
    # and on a network of big-city dimensions the row count shrinks by
    # at least a factor of 15.
    for m in range(2, 7):
        fixtures = [
            two_edge_continuation_graph(m),
            grid_route_line_graph(np.random.default_rng(9100 + m),
                                  cols=8, rows=6, n_routes=m + 4,
                                  trunk_lines=m, trunk_len=4,
                                  max_per_edge=m, walk_hops=(6, 10)),
        ]
        for g in fixtures:
            assert g.max_lines_per_edge == m
            rows, cols = model_dims(build_improved(
                g, WeightPolicy.from_graph(g)))
            n_edges = len(g.edges)
            assert rows <= 12 * n_edges * m * m
            assert cols <= 8 * n_edges * m * m

    sizes = [6, 8, 10, 12, 14]
    row_counts = []
    for m in sizes:
        g = two_edge_continuation_graph(m)
        rows, _ = model_dims(build_baseline(g, WeightPolicy.from_graph(g)))
        row_counts.append(rows)
    slope = np.polyfit(np.log(sizes), np.log(row_counts), 1)[0]
    assert 3.5 <= slope <= 4.5

    g = grid_route_line_graph(np.random.default_rng(9040), cols=24, rows=22,
                              n_routes=26, trunk_lines=9, trunk_len=4,
                              max_per_edge=9, walk_hops=(18, 28))
    assert len(g.nodes) >= 300 and len(g.edges) >= 400
    assert len(g.lines) == 26 and g.max_lines_per_edge == 9
    w = WeightPolicy.from_graph(g)
    baseline_rows, _ = model_dims(build_baseline(g, w))
    improved_rows, _ = model_dims(build_improved(g, w))
    assert baseline_rows >= 15 * improved_rows


def test_05_order_block_encodes_exactly_the_permutations():
    # Exhaustive 0/1 enumeration: for an edge with n lines, the
    # assignments of the n(n-1) pair-order variables that satisfy the
    # order block (one "= 1" row per pair, two 3-cycle rows per triple)
    # are exactly the n! transitive tournaments, and they decode to the
    # n! distinct orderings.
    for n in (2, 3, 4):
        lines = tuple(f"l{i}" for i in range(1, n + 1))
        g = make_graph(nodes={"a": (0.0, 0.0), "b": (500.0, 0.0)},
                       edges=[("e1", "a", "b", lines)])
        m = build_improved(g, WeightPolicy.from_graph(g))
        block = [m.by_role[("before", "e1", a, b)]
                 for a in lines for b in lines if a != b]
        block_set = set(block)
        rows = [c for c in m.constraints
                if all(var in block_set for _, var in c.terms)]
        assert len(rows) == len(m.constraints) == (
            math.comb(n, 2) + 2 * math.comb(n, 3))
        col = {var: j for j, var in enumerate(block)}
        coef = np.zeros((len(rows), len(block)))
        for r, c in enumerate(rows):
            for value, var in c.terms:
                coef[r, col[var]] += value
        bits = np.arange(2 ** len(block), dtype=np.int64)
        candidates = ((bits[:, None] >> np.arange(len(block))) & 1
                      ).astype(float)
        lhs = candidates @ coef.T
        feasible = np.ones(len(bits), dtype=bool)
        for j, c in enumerate(rows):
            if c.relation == "<=":
                feasible &= lhs[:, j] <= c.rhs + 1e-9
            elif c.relation == ">=":
                feasible &= lhs[:, j] >= c.rhs - 1e-9
            else:
                feasible &= np.abs(lhs[:, j] - c.rhs) <= 1e-9
        tournaments = candidates[feasible]
        assert len(tournaments) == math.factorial(n)
        decoded = set()
        for row in tournaments:
            assignment = dict(zip(block, row.tolist()))
            decoded.add(extract_ordering(m, assignment).lines_at("e1"))
        assert decoded == set(permutations(lines))


def test_06_rendered_curves_realize_priced_crossings():
    # On 50 random fixtures with randomly shuffled orderings, the
    # connection curves drawn through each node cross transversally
    # exactly once for every pair the evaluator prices and never
    # otherwise.  Only pairs sharing an edge carry an event site, so
    # only those pairs are compared.
    rng = np.random.default_rng(60_606)
    style = RenderStyle()
    realized = 0
    for i in range(50):
        g = random_line_graph(np.random.default_rng(61_000 + i))
        ordering = Ordering({eid: tuple(rng.permutation(list(e.lines)))
                             for eid, e in g.edges.items()})
        w = WeightPolicy.from_graph(g)
        fired = fired_pairs(evaluate(g, ordering, w))
        for key, n_cross in geometric_counts(g, ordering, style).items():
            assert n_cross == (1 if key in fired else 0), key
            realized += n_cross
    assert realized >= 20  # the family must actually exercise crossings


def test_07_separation_variant_reaches_the_separation_optimum():
    # The separation-aware variant matches the exhaustive optimum of
    # the combined objective, and on the trade fixture it buys zero
    # separations at the cost of one extra crossing: the exhaustive
    # Pareto set confirms both outcomes are undominated.
    g = separation_chain_graph()
    w = WeightPolicy.from_graph(g)
    _, expected = brute_force(g, w, include_separation=True)
    _, got = solve(g, "S", w, backend="builtin")
    assert got.objective(True) == expected.objective(True)
    assert got.separation_count == min(s for _, s in all_outcomes(g, w))

    g = crossing_separation_trade_graph()
    w = WeightPolicy.from_graph(g)
    outcomes = all_outcomes(g, w)
    pareto = {o for o in outcomes
              if not any(p != o and p[0] <= o[0] and p[1] <= o[1]
                         for p in outcomes)}
    assert pareto == {(1, 1), (2, 0)}
    assert min(c for c, _ in outcomes) == 1
    assert all(c >= 2 for c, s in outcomes if s == 0)
    _, with_separation = solve(g, "S", w, backend="builtin")
    assert (with_separation.crossing_count,
            with_separation.separation_count) == (2, 0)
    _, crossings_only = solve(g, "I", w, backend="builtin")
    assert (crossings_only.crossing_count,
            crossings_only.separation_count) == (1, 1)

    # Lattices whose combined optimum pays a separation.
    separating = 0
    for g in forced_event_lattices():
        w = WeightPolicy.from_graph(g)
        _, expected = brute_force(g, w, include_separation=True)
        _, got = solve(g, "S", w, backend="builtin")
        assert got.objective(True) == expected.objective(True)
        separating += expected.separation_weight > 0
    assert separating == 6


def test_08_shared_segment_detection_matches_analytic_and_fine_oracles():
    # Analytic fixtures: boundaries land within two sweep steps of the
    # closed-form entry and exit points for full, empty, and partial
    # overlap.  A tenfold finer sweep then arbitrates 100 random pairs.
    dt = 0.005
    d_hat = 25.0
    a = Polyline([(0, 0), (1000, 0)])

    full = shared_segments(a, Polyline([(0, 10), (1000, 10)]),
                           d_hat=d_hat, dt=dt, k=2)
    assert len(full) == 1
    assert full[0].range_a == pytest.approx((0.0, 1.0), abs=2 * dt)
    assert full[0].range_b == pytest.approx((0.0, 1.0), abs=1e-9)

    assert shared_segments(a, Polyline([(0, 60), (1000, 60)]),
                           d_hat=d_hat, dt=dt, k=2) == []

    middle = shared_segments(a, Polyline([(300, 10), (700, 10)]),
                             d_hat=d_hat, dt=dt, k=2)
    assert len(middle) == 1
    shadow = math.sqrt(d_hat ** 2 - 10 ** 2)
    assert abs(middle[0].range_a[0] - (300 - shadow) / 1000) <= 2 * dt
    assert abs(middle[0].range_a[1] - (700 + shadow) / 1000) <= 2 * dt

    rng = np.random.default_rng(2027)
    dt = 0.01
    covered = 0
    for _ in range(100):
        base = smooth_polyline(rng, n_pts=30, step=40.0)
        other = wiggle_offset(rng, base, rng.uniform(5, 60), noise=8.0)
        got = [s.range_a for s in shared_segments(base, other, d_hat=d_hat,
                                                  dt=dt, k=2)]
        oracle = _fine_sweep_oracle(base, other, d_hat=d_hat, dt=dt, k=2)
        starts = [r[0] for r in oracle]
        ends = [r[1] for r in oracle]
        for g0, g1 in got:
            assert any(abs(g0 - s) <= 2 * dt for s in starts)
            assert any(abs(g1 - e) <= 2 * dt for e in ends)
        for e0, e1 in oracle:
            if e1 - e0 <= 4 * dt:
                continue  # below the coarse sweep's resolution
            mid = (e0 + e1) / 2
            assert any(g0 - dt <= mid <= g1 + dt for g0, g1 in got)
            covered += 1
    assert covered > 30  # the family must actually exercise overlaps


def test_09_band_spacing_and_centering():
    # On a straight edge the parallel bands sit one line width apart
    # and the bundle is centered: a single line renders on the edge
    # path itself, and any bundle's mean offset is the path.
    style = RenderStyle()
    w = style.line_width
    g = make_graph(
        nodes={"a": (0.0, 0.0), "v": (400.0, 0.0), "b": (800.0, 0.0)},
        edges=[("e1", "a", "v", ("l1", "l2", "l3")),
               ("e2", "v", "b", ("l1",))],
    )
    ordering = Ordering({"e1": ("l1", "l2", "l3"), "e2": ("l1",)})
    bands = offset_lines(g, ordering, style)

    triple = [bands[("e1", line)].resample(50) for line in ("l1", "l2", "l3")]
    for upper, lower in zip(triple, triple[1:]):
        gaps = np.linalg.norm(upper - lower, axis=1)
        assert np.all(np.abs(gaps - w) < 1e-6)
    center = np.mean(triple, axis=0)
    assert np.all(np.abs(center[:, 1] - 0.0) < 1e-6)

    single = bands[("e2", "l1")]
    assert np.allclose(single.pts, g.edges["e2"].path.pts, atol=1e-9)


def test_10_full_pipeline_meets_time_budget(tmp_path, capsys):
    # A synthetic network at big-terminus scale (at least 223 nodes,
    # 235 edges, 15 lines, 8 lines on the busiest edge) goes through
    # extract, optimize, and render in under a minute, and the
    # optimization stage alone finishes in under ten seconds with the
    # bundled MILP solver.
    rng = np.random.default_rng(7015)
    tables = grid_feed_tables(rng, cols=20, rows=16, walk_hops=(26, 36))
    feed = write_gtfs(tmp_path / "feed", **tables)
    out = tmp_path / "map.svg"

    started = time.perf_counter()
    assert main(["full", str(feed), str(out),
                 "--solver", f"ext:{SCIPY_SOLVER}"]) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert out.stat().st_size > 10_000

    dims_line = capsys.readouterr().out.splitlines()[0]
    dims = [int(tok) for tok in
            dims_line.split("(")[1].rstrip(")").split(" | ")]
    assert dims[1] >= 223 and dims[2] >= 235
    assert dims[3] == 15 and dims[4] == 8

    from transitmap.gtfs import build_raw_network, load_feed
    from transitmap.line_graph import construct_line_graph
    g = construct_line_graph(build_raw_network(load_feed(feed)))
    w = WeightPolicy.from_graph(g)
    started = time.perf_counter()
    optimize_pipeline(g, "I", w, backend=SCIPY_SOLVER)
    assert time.perf_counter() - started < 10.0


def test_11_stages_are_byte_reproducible(tmp_path):
    # Running any stage twice on the same input yields identical
    # bytes, and the artifacts match their checked-in golden files.
    feed = write_gtfs(tmp_path / "feed", **basic_feed_tables())
    graphs = [tmp_path / "g1.json", tmp_path / "g2.json"]
    for path in graphs:
        assert main(["extract", str(feed), str(path)]) == 0
    assert graphs[0].read_bytes() == graphs[1].read_bytes()
    assert graphs[0].read_bytes() == (DATA / "golden_graph.json").read_bytes()

    seven = tmp_path / "seven.json"
    save_line_graph(seven_line_reduction_graph(), seven)
    orderings = [tmp_path / "o1.json", tmp_path / "o2.json"]
    for path in orderings:
        # the golden ordering was produced by the builtin backend, so
        # pin it here against any environment-configured solver
        assert main(["optimize", "--solver", "builtin",
                     str(seven), str(path)]) == 0
    assert orderings[0].read_bytes() == orderings[1].read_bytes()
    assert orderings[0].read_bytes() == \
        (DATA / "golden_ordering.json").read_bytes()

    g = seven_line_reduction_graph()
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(
        {"orderings": {eid: list(e.lines) for eid, e in g.edges.items()}}))
    maps = [tmp_path / "m1.svg", tmp_path / "m2.svg"]
    for path in maps:
        assert main(["render", str(seven), str(identity), str(path)]) == 0
    assert maps[0].read_bytes() == maps[1].read_bytes()
    assert maps[0].read_bytes() == (DATA / "golden_map.svg").read_bytes()
