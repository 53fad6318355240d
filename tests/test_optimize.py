"""Evaluator and solver tests: frozen hand-derived objectives, oracle
equivalence between backends, and the external-solver bridge contract."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from transitmap.errors import (
    BudgetExceeded,
    Infeasible,
    MalformedOrdering,
    ObjectiveMismatch,
    SolverFailure,
)
from transitmap.ilp_model import NodeWeights, Ordering, WeightPolicy
from transitmap.optimize import (
    brute_force,
    evaluate,
    identity_ordering,
    optimize_pipeline,
    solve,
)
from synth import (
    double_y_graph,
    lattice_line_graph,
    make_graph,
    random_line_graph,
    separation_chain_graph,
    seven_line_reduction_graph,
)

SCIPY_SOLVER = f"{sys.executable} -m transitmap.lp_solve"


def corridor(lines):
    return make_graph(
        nodes={"a": (0.0, 0.0), "v": (100.0, 0.0), "b": (200.0, 0.0)},
        edges=[("e1", "a", "v", lines), ("e2", "v", "b", lines)],
    )


# ── evaluate ────────────────────────────────────────────────────────

def test_evaluate_single_edge_is_zero():
    g = make_graph(nodes={"a": (0.0, 0.0), "b": (300.0, 0.0)},
                   edges=[("e1", "a", "b", ("l1", "l2", "l3"))])
    w = WeightPolicy.from_graph(g)
    breakdown = evaluate(g, identity_ordering(g), w)
    assert breakdown.crossing_count == 0
    assert breakdown.separation_count == 0
    assert breakdown.weighted_objective == 0.0


def test_evaluate_corridor_crossing_cases():
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    same = evaluate(g, Ordering({"e1": ("l1", "l2"), "e2": ("l1", "l2")}), w)
    assert same.crossing_count == 0
    swapped = evaluate(g, Ordering({"e1": ("l1", "l2"), "e2": ("l2", "l1")}), w)
    assert swapped.crossing_count == 1
    assert swapped.crossing_weight == 8.0  # 4 * max degree at the station


def test_evaluate_separation_when_pair_is_pried_apart():
    g = corridor(("l1", "l2", "l3"))
    w = WeightPolicy.from_graph(g)
    breakdown = evaluate(
        g, Ordering({"e1": ("l1", "l2", "l3"), "e2": ("l1", "l3", "l2")}), w)
    fired = {(s.line_a, s.line_b) for s in breakdown.separation}
    # l3 moves between l1 and l2: that pair registers a separation, and
    # so does (l1, l3) whose members become adjacent; adjacency sets of
    # a 3-line edge always differ in an even number of pairs.
    assert ("l1", "l2") in fired
    assert breakdown.separation_count == 2


def test_evaluate_rejects_malformed_orderings():
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(MalformedOrdering):
        evaluate(g, Ordering({"e1": ("l1", "l2")}), w)
    with pytest.raises(MalformedOrdering):
        evaluate(g, Ordering({"e1": ("l1", "l1"), "e2": ("l1", "l2")}), w)


def test_breakdown_totals_match_event_lists():
    g = separation_chain_graph()
    w = WeightPolicy.from_graph(g)
    ordering = Ordering({
        "e1": ("l1", "l3"), "e2": ("l1", "l2", "l3"), "e3": ("l1", "l3"),
        "j2": ("l2",), "k2": ("l2",),
    })
    b = evaluate(g, ordering, w)
    assert b.crossing_count == len(b.same_cont) + len(b.split)
    assert b.separation_count == len(b.separation)
    total = sum(s.weight for group in (b.same_cont, b.split, b.separation)
                for s in group)
    assert b.weighted_objective == pytest.approx(total)
    assert b.objective(include_separation=False) == pytest.approx(
        b.crossing_weight)


# ── brute force ─────────────────────────────────────────────────────

def test_brute_force_single_edge_trivial():
    g = make_graph(nodes={"a": (0.0, 0.0), "b": (300.0, 0.0)},
                   edges=[("e1", "a", "b", ("l1", "l2"))])
    w = WeightPolicy.from_graph(g)
    ordering, breakdown = brute_force(g, w)
    assert breakdown.weighted_objective == 0.0
    assert ordering == identity_ordering(g)  # lexicographic tie-break


def test_brute_force_places_forced_crossing_at_cheapest_node():
    g = double_y_graph()
    w = WeightPolicy.from_graph(g)
    ordering, breakdown = brute_force(g, w)
    # The side swap costs one crossing somewhere; the auxiliary fork j1
    # charges 1 * deg = 3 while the station fork charges 9 and the
    # pass-through station 12.
    assert breakdown.weighted_objective == pytest.approx(3.0)
    assert breakdown.crossing_count == 1
    assert len(breakdown.split) == 1 and breakdown.split[0].node == "j1"
    assert ordering.lines_at("c1") == ("l2", "l1")
    assert ordering.lines_at("c2") == ("l2", "l1")


def test_brute_force_budget_guard():
    g = corridor(("l1", "l2", "l3"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(BudgetExceeded):
        brute_force(g, w, budget=5)


# ── solve: builtin backend against the exhaustive oracle ────────────

def test_builtin_solver_matches_brute_force_on_random_instances():
    instances = []
    for seed in range(25):
        g = random_line_graph(np.random.default_rng(7000 + seed))
        instances.append((seed, g, WeightPolicy.from_graph(g)))
    # Tie-heavy: uniform weights on a lattice whose forks are symmetric,
    # and up to 2.2 million orderings, enough that the search's bound
    # cuts branches on several instances.
    for seed in range(16):
        g = lattice_line_graph(np.random.default_rng(seed))
        if math.prod(math.factorial(len(e.lines))
                     for e in g.edges.values()) > 3_000_000:
            continue  # keeps brute_force's cost tensor small
        instances.append((f"lattice {seed}", g, WeightPolicy(
            {nid: NodeWeights(1.0, 1.0, 1.0) for nid in g.nodes})))
    assert len(instances) >= 25 + 10
    for seed, g, w in instances:
        for variant, include_sep in (("I", False), ("S", True)):
            expect_o, expect_b = brute_force(
                g, w, include_separation=include_sep)
            got_o, got_b = solve(g, variant, w, backend="builtin")
            assert got_b.objective(include_sep) == pytest.approx(
                expect_b.objective(include_sep)), f"seed {seed} variant {variant}"
            assert got_o == expect_o, f"seed {seed} variant {variant}"


def test_builtin_search_builds_no_table_across_two_edges():
    # Two 7-line edges have 5,040 permutations each; a table over both
    # would take 194 MiB.
    g = corridor(tuple(f"l{i}" for i in range(1, 8)))
    w = WeightPolicy.from_graph(g)
    tracemalloc.start()
    try:
        ordering, breakdown = solve(g, "S", w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert breakdown.weighted_objective == 0.0
    assert ordering == identity_ordering(g)
    assert peak < 50 * 2**20


def test_external_backend_agrees_with_builtin():
    for seed in (31, 32, 33, 34, 35):
        rng = np.random.default_rng(seed)
        g = random_line_graph(rng)
        w = WeightPolicy.from_graph(g)
        for variant in ("B", "I", "S"):
            include_sep = variant == "S"
            _, via_builtin = solve(g, variant, w, backend="builtin")
            _, via_milp = solve(g, variant, w, backend=SCIPY_SOLVER)
            assert via_milp.objective(include_sep) == pytest.approx(
                via_builtin.objective(include_sep)), f"seed {seed} {variant}"


def test_variant_s_avoids_separations_at_equal_crossing_cost():
    g = separation_chain_graph()
    w = WeightPolicy.from_graph(g)
    ordering_i, breakdown_i = solve(g, "I", w)
    ordering_s, breakdown_s = solve(g, "S", w)
    # Crossings cannot go below two splits at weight 3 each; the
    # crossing-only variant settles the tie lexicographically and lands
    # on the separating middle placement, the separation-aware variant
    # pays the same crossings but keeps l1 and l3 together.
    assert breakdown_i.crossing_weight == pytest.approx(6.0)
    assert breakdown_s.crossing_weight == pytest.approx(6.0)
    assert ordering_i.lines_at("e2") == ("l1", "l2", "l3")
    assert breakdown_i.separation_count == 2
    assert ordering_s.lines_at("e2") == ("l1", "l3", "l2")
    assert breakdown_s.separation_count == 0
    _, oracle = brute_force(g, w, include_separation=True)
    assert breakdown_s.weighted_objective == pytest.approx(
        oracle.weighted_objective)


def test_trivial_component_never_invokes_backend():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "v": (100.0, 0.0), "b": (200.0, 0.0)},
        edges=[("e1", "a", "v", ("l1",)), ("e2", "v", "b", ("l1",))],
    )
    w = WeightPolicy.from_graph(g)
    ordering, breakdown = solve(g, "I", w, backend="/definitely/not/a/solver")
    assert breakdown.weighted_objective == 0.0
    assert ordering == identity_ordering(g)


def test_unknown_variant_is_rejected():
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(ValueError):
        solve(g, "X", w)


def test_solve_is_deterministic():
    rng = np.random.default_rng(99)
    g = random_line_graph(rng)
    w = WeightPolicy.from_graph(g)
    first, _ = solve(g, "S", w)
    second, _ = solve(g, "S", w)
    assert first == second


# ── external bridge failure modes ───────────────────────────────────

def test_missing_solver_command_raises():
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(SolverFailure):
        solve(g, "I", w, backend="/definitely/not/a/solver")


def test_garbage_solution_file_raises(tmp_path):
    script = tmp_path / "garbage.py"
    script.write_text(
        "import sys\n"
        "open(sys.argv[2], 'w').write('not a pair at all\\n')\n")
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(SolverFailure):
        solve(g, "I", w, backend=f"{sys.executable} {script}")


def test_infeasible_exit_code_maps_to_infeasible(tmp_path):
    script = tmp_path / "infeasible.py"
    script.write_text("import sys\nsys.exit(2)\n")
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(Infeasible):
        solve(g, "I", w, backend=f"{sys.executable} {script}")


# A consistent assignment for corridor(("l1", "l2")) whose two edges
# order the lines differently, so the pair crosses at v.
CROSSING_ASSIGNMENT = [
    "x_ee1_ll1_le1 1", "x_ee1_ll1_le2 1",
    "x_ee1_ll2_le1 0", "x_ee1_ll2_le2 1",
    "x_ee1_ll1_b_ll2 1", "x_ee1_ll2_b_ll1 0",
    "x_ee2_ll1_le1 0", "x_ee2_ll1_le2 1",
    "x_ee2_ll2_le1 1", "x_ee2_ll2_le2 1",
    "x_ee2_ll1_b_ll2 0", "x_ee2_ll2_b_ll1 1",
]


def _canned_solver(tmp_path, lines) -> str:
    """An external-solver command that copies lines to the solution."""
    canned = tmp_path / "canned.sol"
    canned.write_text("\n".join(lines) + "\n")
    script = tmp_path / "cheat.py"
    script.write_text(
        "import shutil, sys\n"
        f"shutil.copy({str(canned)!r}, sys.argv[2])\n")
    return f"{sys.executable} {script}"


def test_objective_mismatch_is_detected(tmp_path):
    # A cheating solver returns a consistent ordering but claims the
    # crossing variable is zero; the evaluator cross-check must refuse.
    backend = _canned_solver(
        tmp_path, CROSSING_ASSIGNMENT + ["xc_nv_ee1_ee2_ll1_ll2 0"])
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(ObjectiveMismatch):
        solve(g, "I", w, backend=backend)


def test_non_finite_solution_value_is_a_solver_failure(tmp_path):
    # NaN compares false against every tolerance, so a NaN event
    # variable would slip past the objective cross-check.
    backend = _canned_solver(
        tmp_path, CROSSING_ASSIGNMENT + ["xc_nv_ee1_ee2_ll1_ll2 nan"])
    g = corridor(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    with pytest.raises(SolverFailure, match="finite"):
        solve(g, "I", w, backend=backend)


# ── structural properties ───────────────────────────────────────────

def test_removing_a_line_never_raises_the_crossing_optimum():
    from transitmap.line_graph import LGEdge, LineGraph

    def drop_line(g, line_id):
        edges = {}
        for eid, e in g.edges.items():
            rest = tuple(l for l in e.lines if l != line_id)
            if rest:
                edges[eid] = LGEdge(id=eid, a=e.a, b=e.b, lines=rest,
                                    path=e.path)
        lines = {lid: l for lid, l in g.lines.items() if lid != line_id}
        return LineGraph(nodes=g.nodes, edges=edges, lines=lines)

    for seed in range(12):
        rng = np.random.default_rng(8100 + seed)
        g = random_line_graph(rng)
        w = WeightPolicy.from_graph(g)
        _, full = brute_force(g, w, include_separation=False)
        present = sorted({l for e in g.edges.values() for l in e.lines})
        reduced = drop_line(g, present[0])
        _, less = brute_force(reduced, w, include_separation=False)
        assert less.crossing_weight <= full.crossing_weight + 1e-9


# ── full pipeline ───────────────────────────────────────────────────

def reduction_stable_star():
    """Three two-line edges around one hub: no rule of the reduction
    applies, so the pipeline must behave exactly like a direct solve."""
    return make_graph(
        nodes={"a": (-300.0, 0.0), "v": (0.0, 0.0), "b": (250.0, 200.0),
               "c": (250.0, -200.0)},
        edges=[("e1", "a", "v", ("l1", "l2")),
               ("e2", "v", "b", ("l1", "l3")),
               ("e3", "v", "c", ("l2", "l3"))],
    )


def test_pipeline_equals_direct_solve_on_core_graph():
    g = reduction_stable_star()
    w = WeightPolicy.from_graph(g)
    for variant in ("I", "S"):
        direct, _ = solve(g, variant, w)
        assert optimize_pipeline(g, variant, w).ordering == direct


def test_pipeline_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(20117)
    for _ in range(8):
        g = random_line_graph(rng)
        w = WeightPolicy.from_graph(g)
        for variant in ("I", "S"):
            include = variant == "S"
            out = optimize_pipeline(g, variant, w).ordering
            out.validate_for(g)
            achieved = evaluate(g, out, w).objective(
                include_separation=include)
            _, best = brute_force(g, w, include_separation=include)
            assert achieved == pytest.approx(
                best.objective(include_separation=include))


def test_pipeline_reduces_seven_line_fixture_to_zero_crossings():
    g = seven_line_reduction_graph()
    w = WeightPolicy.from_graph(g)
    out = optimize_pipeline(g, "I", w).ordering
    out.validate_for(g)
    breakdown = evaluate(g, out, w)
    assert breakdown.crossing_weight == 0.0
    for eid in ("e0", "e1", "e2", "e3"):
        assert abs(out.position(eid, "la") - out.position(eid, "lb")) == 1


def test_pipeline_agrees_across_backends():
    g = reduction_stable_star()
    w = WeightPolicy.from_graph(g)
    builtin = optimize_pipeline(g, "I", w).ordering
    external = optimize_pipeline(g, "I", w, backend=SCIPY_SOLVER).ordering
    assert evaluate(g, builtin, w).crossing_weight == pytest.approx(
        evaluate(g, external, w).crossing_weight)
