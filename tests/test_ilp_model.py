"""Model-construction tests: feasible sets, event semantics, dimensions,
LP round trips and ordering extraction."""

import itertools

import numpy as np
import pytest

from transitmap import lp_solve
from transitmap.errors import (
    InfeasibleAssignment,
    PreconditionViolated,
    SchemaViolation,
)
from transitmap.ilp_model import (
    IlpModel,
    NodeWeights,
    Ordering,
    WeightPolicy,
    arrives_left,
    build_baseline,
    build_improved,
    build_separation,
    compile_event_sites,
    extract_ordering,
    model_dims,
    read_lp,
    write_lp,
)
from synth import big_line_graph, make_graph

EVENT_KINDS = ("cross", "splitcross", "sepevent")


# ── fixtures ────────────────────────────────────────────────────────

def corridor_pair():
    # a --e1--> v --e2--> b, two lines throughout; v is a pass-through
    # station of degree 2.
    return make_graph(
        nodes={"a": (0.0, 0.0), "v": (100.0, 0.0), "b": (200.0, 0.0)},
        edges=[
            ("e1", "a", "v", ("l1", "l2")),
            ("e2", "v", "b", ("l1", "l2")),
        ],
    )


def corridor_triple():
    return make_graph(
        nodes={"a": (0.0, 0.0), "v": (100.0, 0.0), "b": (200.0, 0.0)},
        edges=[
            ("e1", "a", "v", ("l1", "l2", "l3")),
            ("e2", "v", "b", ("l1", "l2", "l3")),
        ],
    )


def split_y(swap_targets=False):
    # Two lines share the trunk e0 and diverge at v; l1 exits northeast,
    # l2 southeast (or swapped).
    up_line, dn_line = ("l2", "l1") if swap_targets else ("l1", "l2")
    return make_graph(
        nodes={
            "a": (-100.0, 0.0),
            "v": (0.0, 0.0),
            "up": (100.0, 100.0),
            "dn": (100.0, -100.0),
        },
        edges=[
            ("e0", "a", "v", ("l1", "l2")),
            ("eu", "v", "up", (up_line,)),
            ("ed", "v", "dn", (dn_line,)),
        ],
    )


def _perm_orderings(g, assignment):
    return Ordering({eid: tuple(seq) for eid, seq in assignment.items()})


def _truth_assignment(m, ordering):
    """Variable values implied by an ordering, for every non-event role."""
    values = {}
    pos = {eid: {line: i + 1 for i, line in enumerate(ordering.lines_at(eid))}
           for eid in m.edge_lines}
    for name, role in m.roles.items():
        kind = role[0]
        if kind == "pos":
            _, eid, line, p = role
            values[name] = 1.0 if pos[eid][line] == p else 0.0
        elif kind == "cum":
            _, eid, line, p = role
            values[name] = 1.0 if pos[eid][line] <= p else 0.0
        elif kind == "before":
            _, eid, a, b = role
            values[name] = 1.0 if pos[eid][a] < pos[eid][b] else 0.0
        elif kind == "apart":
            _, eid, a, b = role
            values[name] = 1.0 if abs(pos[eid][a] - pos[eid][b]) > 1 else 0.0
    return values


def _satisfies(m, values, atol=1e-9):
    """Check every constraint whose variables are all present in values."""
    for c in m.constraints:
        total = 0.0
        skip = False
        for coef, var in c.terms:
            if var not in values:
                skip = True
                break
            total += coef * values[var]
        if skip:
            continue
        if c.relation == "<=" and total > c.rhs + atol:
            return False
        if c.relation == ">=" and total < c.rhs - atol:
            return False
        if c.relation == "=" and abs(total - c.rhs) > atol:
            return False
    return True


def _implied_events(m, values):
    """Smallest feasible event-variable values given the base assignment."""
    lower = {name: 0.0 for name, role in m.roles.items()
             if role[0] in EVENT_KINDS}
    for c in m.constraints:
        event = None
        rest = 0.0
        usable = True
        for coef, var in c.terms:
            if var in lower:
                event = var if coef == -1.0 else None
                if event is None:
                    usable = False
                    break
            else:
                rest += coef * values[var]
        if usable and event is not None and c.relation == "<=":
            lower[event] = max(lower[event], rest - c.rhs)
    return lower


def _events_by_kind(m, values):
    out = {"cross": {}, "splitcross": {}, "sepevent": {}}
    for name, lb in _implied_events(m, values).items():
        role = m.roles[name]
        out[role[0]][role] = lb
    return out


# ── feasible sets equal permutation sets ────────────────────────────

def _single_edge(lines):
    return make_graph(
        nodes={"a": (0.0, 0.0), "b": (500.0, 0.0)},
        edges=[("e1", "a", "b", lines)],
    )


def _enumerate_feasible(m):
    names = [n for n, role in m.roles.items() if role[0] not in EVENT_KINDS]
    feasible = []
    for bits in itertools.product((0.0, 1.0), repeat=len(names)):
        values = dict(zip(names, bits))
        if _satisfies(m, values):
            feasible.append(values)
    return feasible


def test_improved_feasible_set_is_exactly_the_permutations():
    g = _single_edge(("l1", "l2", "l3"))
    m = build_improved(g, WeightPolicy.from_graph(g))
    feasible = _enumerate_feasible(m)
    # One feasible completion per permutation, nothing else: the order
    # variables cannot be set untruthfully.
    assert len(feasible) == 6
    decoded = set()
    for values in feasible:
        ordering = extract_ordering(m, values)
        seq = ordering.lines_at("e1")
        decoded.add(seq)
        positions = {line: i + 1 for i, line in enumerate(seq)}
        for name, role in m.roles.items():
            if role[0] == "before":
                _, _, a, b = role
                expected = 1.0 if positions[a] < positions[b] else 0.0
                assert values[name] == expected
    assert decoded == set(itertools.permutations(("l1", "l2", "l3")))


def test_baseline_feasible_set_is_exactly_the_permutations():
    g = _single_edge(("l1", "l2", "l3"))
    m = build_baseline(g, WeightPolicy.from_graph(g))
    feasible = _enumerate_feasible(m)
    assert len(feasible) == 6
    decoded = {extract_ordering(m, v).lines_at("e1") for v in feasible}
    assert decoded == set(itertools.permutations(("l1", "l2", "l3")))


def test_separation_two_lines_pins_adjacency_variable_to_zero():
    g = _single_edge(("l1", "l2"))
    m = build_separation(g, WeightPolicy.from_graph(g))
    feasible = _enumerate_feasible(m)
    assert len(feasible) == 2
    apart = m.by_role[("apart", "e1", "l1", "l2")]
    assert all(v[apart] == 0.0 for v in feasible)


def test_separation_adjacency_variables_are_exact_for_three_lines():
    g = _single_edge(("l1", "l2", "l3"))
    m = build_separation(g, WeightPolicy.from_graph(g))
    for perm in itertools.permutations(("l1", "l2", "l3")):
        ordering = Ordering({"e1": perm})
        truth = _truth_assignment(m, ordering)
        assert _satisfies(m, truth)
        # Forcing the non-adjacent pair to claim adjacency breaks the
        # distance rows; claiming separation for an adjacent pair breaks
        # the per-edge cap.
        outer = tuple(sorted((perm[0], perm[2])))
        inner = tuple(sorted((perm[0], perm[1])))
        broken = dict(truth)
        broken[m.by_role[("apart", "e1") + outer]] = 0.0
        assert not _satisfies(m, broken)
        broken = dict(truth)
        broken[m.by_role[("apart", "e1") + inner]] = 1.0
        assert not _satisfies(m, broken)


# ── event semantics on hand-built fixtures ──────────────────────────

@pytest.mark.parametrize("builder", [build_baseline, build_improved])
def test_continuation_crossing_truth_table(builder):
    g = corridor_pair()
    m = builder(g, WeightPolicy.from_graph(g))
    expected = {
        (("l1", "l2"), ("l1", "l2")): 0.0,  # same order along the walk
        (("l1", "l2"), ("l2", "l1")): 1.0,
        (("l2", "l1"), ("l1", "l2")): 1.0,
        (("l2", "l1"), ("l2", "l1")): 0.0,
    }
    role = ("cross", "v", "e1", "e2", "l1", "l2")
    for (seq1, seq2), want in expected.items():
        truth = _truth_assignment(m, Ordering({"e1": seq1, "e2": seq2}))
        assert _satisfies(m, truth)
        assert _implied_events(m, truth)[m.by_role[role]] == want


@pytest.mark.parametrize("builder", [build_baseline, build_improved])
@pytest.mark.parametrize("swap", [False, True])
def test_split_crossing_truth_table(builder, swap):
    # Walking into the fork, the line that exits on the left must arrive
    # on the left; anything else costs a crossing.
    g = split_y(swap_targets=swap)
    m = builder(g, WeightPolicy.from_graph(g))
    role = ("splitcross", "v", "e0", "l1", "l2")
    stubs = {"eu": g.edges["eu"].lines, "ed": g.edges["ed"].lines}
    for seq in (("l1", "l2"), ("l2", "l1")):
        truth = _truth_assignment(m, Ordering({"e0": seq, **stubs}))
        assert _satisfies(m, truth)
        left_line = seq[0]
        crossing = 0.0 if (left_line == "l1") != swap else 1.0
        assert _implied_events(m, truth)[m.by_role[role]] == crossing


def test_baseline_and_improved_agree_on_all_triple_corridor_orderings():
    g = corridor_triple()
    w = WeightPolicy.from_graph(g)
    mb = build_baseline(g, w)
    mi = build_improved(g, w)
    perms = list(itertools.permutations(("l1", "l2", "l3")))
    for seq1 in perms:
        for seq2 in perms:
            ordering = Ordering({"e1": seq1, "e2": seq2})
            events_b = _events_by_kind(mb, _truth_assignment(mb, ordering))
            events_i = _events_by_kind(mi, _truth_assignment(mi, ordering))
            assert events_b["cross"] == events_i["cross"]


def test_separation_events_on_triple_corridor():
    g = corridor_triple()
    m = build_separation(g, WeightPolicy.from_graph(g))
    truth = _truth_assignment(
        m, Ordering({"e1": ("l1", "l2", "l3"), "e2": ("l1", "l3", "l2")}))
    events = _events_by_kind(m, truth)
    assert events["sepevent"] == {
        ("sepevent", "v", "e1", "e2", "l1", "l2"): 1.0,
        ("sepevent", "v", "e1", "e2", "l1", "l3"): 1.0,
        ("sepevent", "v", "e1", "e2", "l2", "l3"): 0.0,
    }
    # The lone crossing is (l2, l3); max degree is 2, so it is priced at
    # 4 * 2 and each separation at 3 * 2.
    assert events["cross"][("cross", "v", "e1", "e2", "l2", "l3")] == 1.0
    total = sum(m.variables[m.by_role[r]].objective * v
                for kind in events.values() for r, v in kind.items())
    assert total == pytest.approx(8.0 + 2 * 6.0)


# ── event sites ─────────────────────────────────────────────────────

def test_corridor_sites_and_weights():
    g = corridor_pair()
    sites = compile_event_sites(g, WeightPolicy.from_graph(g))
    assert len(sites.same_cont) == 1 and len(sites.separation) == 1
    assert not sites.split
    site = sites.same_cont[0]
    assert (site.node, site.edge_a, site.edge_b) == ("v", "e1", "e2")
    assert site.weight == 8.0  # 4 * max degree at a degree-2 station
    assert sites.separation[0].weight == 6.0


def test_split_site_orientation_flag():
    for swap in (False, True):
        g = split_y(swap_targets=swap)
        sites = compile_event_sites(g, WeightPolicy.from_graph(g))
        assert len(sites.split) == 1 and not sites.same_cont
        site = sites.split[0]
        assert (site.node, site.edge) == ("v", "e0")
        # l1's target is the clockwise-first (left) branch exactly when
        # it exits northeast.
        assert site.a_clockwise_first is (not swap)
        assert site.weight == 9.0  # hub station of degree 3, factor 3


def test_parallel_edges_host_sites_at_both_endpoints():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "b": (400.0, 0.0)},
        edges=[
            ("p1", "a", "b", ("l1", "l2"), ((0.0, 0.0), (200.0, 120.0), (400.0, 0.0))),
            ("p2", "a", "b", ("l1", "l2"), ((0.0, 0.0), (200.0, -120.0), (400.0, 0.0))),
        ],
    )
    sites = compile_event_sites(g, WeightPolicy.from_graph(g))
    assert {(s.node, s.edge_a, s.edge_b) for s in sites.same_cont} == {
        ("a", "p1", "p2"), ("b", "p1", "p2"),
    }
    assert len(sites.separation) == 2 and not sites.split


def test_line_on_three_incident_edges_has_no_continuation():
    g = make_graph(
        nodes={"c": (0.0, 0.0), "n1": (100.0, 0.0), "n2": (-50.0, 90.0),
               "n3": (-50.0, -90.0)},
        edges=[
            ("s1", "c", "n1", ("l1", "l2")),
            ("s2", "c", "n2", ("l1", "l2")),
            ("s3", "c", "n3", ("l1",)),
        ],
    )
    sites = compile_event_sites(g, WeightPolicy.from_graph(g))
    # l1 touches three edges at c, so only l2 continues and no pair event
    # can form.
    assert sites == compile_event_sites(g, WeightPolicy.from_graph(g))
    assert not sites.same_cont and not sites.split and not sites.separation


def test_weight_policy_from_graph_values():
    g = split_y()
    w = WeightPolicy.from_graph(g)
    assert w.for_node("v") == NodeWeights(36.0, 9.0, 9.0)  # hub, degree 3
    g2 = corridor_pair()
    w2 = WeightPolicy.from_graph(g2)
    assert w2.for_node("v") == NodeWeights(8.0, 2.0, 6.0)
    aux = make_graph(
        nodes={"a": (0.0, 0.0), "v": (100.0, 0.0), "b": (200.0, 0.0)},
        edges=[("e1", "a", "v", ("l1",)), ("e2", "v", "b", ("l1",))],
        aux=("v",),
    )
    wa = WeightPolicy.from_graph(aux)
    assert wa.for_node("v") == NodeWeights(8.0, 2.0, 6.0)
    with pytest.raises(PreconditionViolated):
        WeightPolicy({"v": NodeWeights(0.0, 1.0, 1.0)})


def test_arrival_indicator_orientation():
    g = corridor_pair()
    e1, e2 = g.edges["e1"], g.edges["e2"]
    # e1 runs into v, e2 runs out of it; position 1 is leftmost along the
    # canonical direction, so the two ends read positions oppositely.
    assert arrives_left(e1, "v", 1, 2) is True
    assert arrives_left(e1, "a", 1, 2) is False
    assert arrives_left(e2, "v", 1, 2) is False
    assert arrives_left(e2, "b", 1, 2) is True


# ── dimensions ──────────────────────────────────────────────────────

def test_single_edge_dims_by_hand():
    g2 = _single_edge(("l1", "l2"))
    w2 = WeightPolicy.from_graph(g2)
    assert model_dims(build_baseline(g2, w2)) == (4, 4)
    assert model_dims(build_improved(g2, w2)) == (7, 6)
    assert model_dims(build_separation(g2, w2)) == (10, 7)


def test_corridor_dims_by_hand():
    g = corridor_pair()
    w = WeightPolicy.from_graph(g)
    # Improved: per edge 7 rows and 6 columns, plus one crossing variable
    # with its two event rows.
    assert model_dims(build_improved(g, w)) == (16, 13)
    # Baseline: per edge 4 rows and 4 columns, plus 2 * C(2,2)^2 aligned
    # position combinations for the single continuing pair.
    assert model_dims(build_baseline(g, w)) == (10, 9)


def test_baseline_event_row_counts():
    g = corridor_triple()
    m = build_baseline(g, WeightPolicy.from_graph(g))
    per_event = {}
    for c in m.constraints:
        for coef, var in c.terms:
            if coef == -1.0 and m.roles[var][0] == "cross":
                per_event[var] = per_event.get(var, 0) + 1
    # 2 * C(3,2) * C(3,2) aligned combinations for each of the 3 pairs.
    assert list(per_event.values()) == [18, 18, 18]

    gs = split_y()
    ms = build_baseline(gs, WeightPolicy.from_graph(gs))
    split_rows = [
        c for c in ms.constraints
        if any(ms.roles[v][0] == "splitcross" for _, v in c.terms)
    ]
    assert len(split_rows) == 1  # C(2,2) crossing-side combinations


def test_dims_bounds_on_random_graph():
    rng = np.random.default_rng(4157)
    g = big_line_graph(rng)
    w = WeightPolicy.from_graph(g)
    n_edges = len(g.edges)
    m_cap = g.max_lines_per_edge
    for builder in (build_improved, build_separation):
        rows, cols = model_dims(builder(g, w))
        assert rows <= 12 * n_edges * m_cap ** 2
        assert cols <= 8 * n_edges * m_cap ** 2


def test_dims_add_over_disjoint_components():
    def shifted(prefix, dx):
        nodes = {f"{prefix}{n}": (x + dx, y)
                 for n, (x, y) in (("a", (0.0, 0.0)), ("v", (100.0, 0.0)),
                                   ("b", (200.0, 0.0)))}
        edges = [(f"{prefix}e1", f"{prefix}a", f"{prefix}v", ("l1", "l2")),
                 (f"{prefix}e2", f"{prefix}v", f"{prefix}b", ("l1", "l2"))]
        return nodes, edges

    n1, e1 = shifted("p", 0.0)
    n2, e2 = shifted("q", 1000.0)
    combined = make_graph(nodes={**n1, **n2}, edges=e1 + e2)
    single = corridor_pair()
    for builder in (build_baseline, build_improved, build_separation):
        rows1, cols1 = model_dims(builder(single, WeightPolicy.from_graph(single)))
        rows2, cols2 = model_dims(builder(combined, WeightPolicy.from_graph(combined)))
        assert (rows2, cols2) == (2 * rows1, 2 * cols1)


def test_empty_graph_yields_empty_model():
    g = make_graph(nodes={"a": (0.0, 0.0)}, edges=[])
    m = build_improved(g, WeightPolicy.from_graph(g))
    assert model_dims(m) == (0, 0)


# ── naming, LP round trip, extraction ───────────────────────────────

def test_variable_name_grammar():
    m = IlpModel("I")
    assert m.add_variable(("cum", "e1", "l1", 2)) == "x_ee1_ll1_le2"
    assert m.add_variable(("before", "e1", "l1", "l2")) == "x_ee1_ll1_b_ll2"
    assert m.add_variable(("pos", "e2", "l1", 1)) == "x_ee2_ll1_p1"
    assert m.add_variable(("apart", "e2", "l1", "l2")) == "x_ee2_ll1_nb_ll2"
    assert (m.add_variable(("cross", "v", "e1", "e2", "l1", "l2"))
            == "xc_nv_ee1_ee2_ll1_ll2")
    assert m.add_variable(("splitcross", "v", "e1", "l1", "l2")) == "xs_nv_ee1_ll1_ll2"
    assert (m.add_variable(("sepevent", "v", "e1", "e2", "l1", "l2"))
            == "xp_nv_ee1_ee2_ll1_ll2")


def test_variable_name_sanitization_and_collisions():
    m = IlpModel("I")
    first = m.add_variable(("cum", "hbf:3", "s.1", 1))
    second = m.add_variable(("cum", "hbf.3", "s.1", 1))
    assert first == "x_ehbf_3_ls_1_le1"
    assert second == "x_ehbf_3_2_ls_1_le1"
    assert first != second


def test_lp_round_trip_preserves_structure(tmp_path):
    g = corridor_triple()
    m = build_separation(g, WeightPolicy.from_graph(g))
    path = tmp_path / "model.lp"
    write_lp(m, path)
    parsed = read_lp(path)
    assert model_dims(parsed) == model_dims(m)
    # Columns come in order of first use: objective, constraints, Binary.
    assert list(parsed.variables) == list(dict.fromkeys(
        [n for n, v in m.variables.items() if v.objective]
        + [n for c in m.constraints for _, n in c.terms] + list(m.variables)))
    for name, var in m.variables.items():
        assert parsed.variables[name].objective == pytest.approx(var.objective)

    def canon(model):
        return sorted(
            (tuple(sorted(c.terms, key=lambda t: t[1])), c.relation, c.rhs)
            for c in model.constraints
        )

    assert canon(parsed) == canon(m)


def test_lp_round_trip_without_objective(tmp_path):
    g = _single_edge(("l1", "l2"))
    m = build_improved(g, WeightPolicy.from_graph(g))
    path = tmp_path / "plain.lp"
    write_lp(m, path)
    parsed = read_lp(path)
    assert model_dims(parsed) == model_dims(m)
    assert all(v.objective == 0.0 for v in parsed.variables.values())


@pytest.mark.parametrize("text", [
    "Maximize\n obj: x + y\nSubject To\n c1: x + y <= 1\n"
    "Binary\n x y\nEnd\n",
    "max: x + y\nSubject To\n c1: x + y <= 1\nBinary\n x y\nEnd\n",
    "Minimize\n obj: x\nSubject To\n c1: x + y\nBinary\n x y\nEnd\n",
    "Minimize\n obj: 1 x\nSubject To\n c0: 1 x + 1 y <= 1\nBinary\n x y\n"
    "End\n c1: 1 x + 1 y >= 2\n",
    "Minimize\n obj: 1 x\nSubject To\n c0: 1 x + 1 y >= 1\nBinary\n x\n"
    "End\n",
    "Minimize\n obj: 1 x\nSubject To\n c0: 1 x + 1 y >= 1\nBinary\n x y\n",
    "Minimize\n obj: 1 x\nSubject To\n c0: 1 x =< 1\nBinary\n x\nEnd\n",
    "Minimize\n obj: 1 x\nSubject To\n c0: 1 x <= one\nBinary\n x\nEnd\n",
], ids=["maximize", "objective_outside_a_section", "no_relation",
        "constraint_after_end", "undeclared_variable", "no_end",
        "reversed_relation", "non_numeric_rhs"])
def test_unsupported_lp_is_a_schema_violation(tmp_path, capsys, text):
    path, out = tmp_path / "model.lp", tmp_path / "solution.out"
    path.write_text(text)
    with pytest.raises(SchemaViolation):
        read_lp(path)
    assert lp_solve.main([str(path), str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing_model", "unwritable_solution"])
def test_lp_solve_file_errors_exit_3(tmp_path, capsys, case):
    model, out = tmp_path / "model.lp", tmp_path / "solution.out"
    if case == "missing_model":
        model = tmp_path / "absent.lp"
    else:
        g = _single_edge(("l1", "l2"))
        write_lp(build_improved(g, WeightPolicy.from_graph(g)), model)
        out = tmp_path / "no_such_dir" / "solution.out"
    assert lp_solve.main([str(model), str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_builders_are_deterministic(tmp_path):
    g = corridor_triple()
    w = WeightPolicy.from_graph(g)
    p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
    write_lp(build_separation(g, w), p1)
    write_lp(build_separation(g, w), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_extract_ordering_round_trips_every_permutation():
    g = make_graph(
        nodes={"a": (0.0, 0.0), "v": (100.0, 0.0), "b": (200.0, 0.0)},
        edges=[("e1", "a", "v", ("l1", "l2", "l3")), ("e2", "v", "b", ("l1", "l2"))],
    )
    w = WeightPolicy.from_graph(g)
    for builder in (build_baseline, build_improved, build_separation):
        m = builder(g, w)
        for seq1 in itertools.permutations(("l1", "l2", "l3")):
            for seq2 in itertools.permutations(("l1", "l2")):
                ordering = Ordering({"e1": seq1, "e2": seq2})
                truth = _truth_assignment(m, ordering)
                assert extract_ordering(m, truth) == ordering


def test_extract_ordering_rejects_broken_assignments():
    g = _single_edge(("l1", "l2"))
    w = WeightPolicy.from_graph(g)
    mi = build_improved(g, w)
    truth = _truth_assignment(mi, Ordering({"e1": ("l1", "l2")}))
    truth[mi.by_role[("cum", "e1", "l2", 1)]] = 1.0  # both lines claim slot 1
    with pytest.raises(InfeasibleAssignment):
        extract_ordering(mi, truth)

    mb = build_baseline(g, w)
    truth = _truth_assignment(mb, Ordering({"e1": ("l1", "l2")}))
    del truth[mb.by_role[("pos", "e1", "l1", 1)]]
    with pytest.raises(InfeasibleAssignment):
        extract_ordering(mb, truth)


def test_ordering_validation():
    g = corridor_pair()
    Ordering({"e1": ("l2", "l1"), "e2": ("l1", "l2")}).validate_for(g)
    with pytest.raises(Exception) as err:
        Ordering({"e1": ("l1", "l2")}).validate_for(g)
    assert "e2" in str(err.value)
    with pytest.raises(Exception):
        Ordering({"e1": ("l1", "l1"), "e2": ("l1", "l2")}).validate_for(g)


def test_single_line_edge_models():
    g = _single_edge(("l1",))
    w = WeightPolicy.from_graph(g)
    assert model_dims(build_improved(g, w)) == (1, 1)
    m = build_improved(g, w)
    truth = _truth_assignment(m, Ordering({"e1": ("l1",)}))
    assert _satisfies(m, truth)
    assert extract_ordering(m, truth).lines_at("e1") == ("l1",)
