"""Line-ordering semantics and the three integer-program formulations.

Orientation convention, shared by the evaluator, the model builders and
the renderer:

* Positions: each edge gets a bijection from its line set onto 1..n;
  position 1 is the leftmost line when walking the edge's path in its
  canonical direction.
* Arrival indicator: for lines A, B on edge e meeting node v, "A arrives
  left of B" holds when pos(A) < pos(B) if the canonical direction points
  into v, and when pos(A) > pos(B) if it points out of v.
* A pair continuing from e to e' across v crosses exactly when its
  arrival indicators on e and on e' are equal (the node mirrors the
  left/right frame between arriving and departing).
* A pair on e splitting at v into distinct target edges tA != tB crosses
  exactly when the arrival indicator disagrees with the clockwise order
  of the targets, where targets are ranked by sweeping clockwise from
  e's own departure direction at v (ties broken by edge id).
* A separation event for a pair continuing e -> e' exists when the pair
  sits at adjacent positions in exactly one of the two edges.

The model container, its variable-name grammar and the LP file dialect
live in `lp_dialect`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from .errors import (
    InfeasibleAssignment,
    MalformedOrdering,
    PreconditionViolated,
)
# read_lp and write_lp stay importable from here with the model builders
from .lp_dialect import IlpModel, read_lp, write_lp  # noqa: F401

if TYPE_CHECKING:
    from .line_graph import LGEdge, LineGraph

TWO_PI = 2.0 * math.pi


# ── orderings ───────────────────────────────────────────────────────

class Ordering:
    """Per-edge line sequences; index 0 of each tuple is position 1."""

    def __init__(self, orderings: dict[str, tuple[str, ...]]) -> None:
        self._seq = {eid: tuple(lines) for eid, lines in orderings.items()}
        self._pos = {
            eid: {line: i + 1 for i, line in enumerate(lines)}
            for eid, lines in self._seq.items()
        }

    def edges(self) -> tuple[str, ...]:
        return tuple(sorted(self._seq))

    def lines_at(self, edge_id: str) -> tuple[str, ...]:
        return self._seq[edge_id]

    def position(self, edge_id: str, line: str) -> int:
        return self._pos[edge_id][line]

    def to_dict(self) -> dict[str, list[str]]:
        return {eid: list(self._seq[eid]) for eid in sorted(self._seq)}

    def validate_for(self, g: LineGraph) -> None:
        for eid, e in g.edges.items():
            seq = self._seq.get(eid)
            if seq is None:
                raise MalformedOrdering(f"no ordering for edge {eid!r}")
            if sorted(seq) != list(e.lines) or len(set(seq)) != len(seq):
                raise MalformedOrdering(
                    f"ordering for edge {eid!r} is not a bijection onto its lines"
                )

    def __eq__(self, other) -> bool:
        return isinstance(other, Ordering) and self._seq == other._seq

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._seq.items())))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {'<'.join(v)}" for k, v in sorted(self._seq.items()))
        return f"Ordering({inner})"


def arrives_left(edge: LGEdge, node_id: str, pos_a: int, pos_b: int) -> bool:
    """True when the line at pos_a arrives at node_id to the left of the
    line at pos_b, under the position-1-leftmost convention."""
    return (pos_a < pos_b) if node_id == edge.b else (pos_a > pos_b)


# ── weights ─────────────────────────────────────────────────────────

@dataclass(frozen=True)
class NodeWeights:
    same_cross: float
    split_cross: float
    separation: float


class WeightPolicy:
    """Per-node event penalties, frozen from the graph they were derived
    on.  Reduced graphs keep node ids, so the same policy prices events
    identically before and after reduction."""

    def __init__(self, node_weights: dict[str, NodeWeights]) -> None:
        for nid, nw in node_weights.items():
            if not all(0 < v < math.inf
                       for v in (nw.same_cross, nw.split_cross, nw.separation)):
                raise PreconditionViolated(
                    f"node {nid!r} has a non-positive or non-finite event weight"
                )
        self._node = dict(node_weights)

    @classmethod
    def from_graph(
        cls,
        g: LineGraph,
        cross_same: float = 4.0,
        cross_split: float = 1.0,
        separation: float = 3.0,
        hub_cross_same: float = 12.0,
        hub_cross_split: float = 3.0,
        hub_separation: float = 3.0,
    ) -> "WeightPolicy":
        """Degree-scaled penalties: plain nodes pay factor * deg(v);
        degree-2 stations pay the maximum possible penalty so events
        never migrate into them; higher-degree stations pay the hub
        factors."""
        max_deg = max((g.degree(n) for n in g.nodes), default=0)
        table: dict[str, NodeWeights] = {}
        for nid in sorted(g.nodes):
            node = g.nodes[nid]
            deg = g.degree(nid)
            if deg == 0:
                continue  # no incident edges, no events to price
            if node.kind == "station" and deg == 2:
                table[nid] = NodeWeights(
                    same_cross=cross_same * max_deg,
                    split_cross=cross_split * max_deg,
                    separation=separation * max_deg,
                )
            elif node.kind == "station":
                table[nid] = NodeWeights(
                    same_cross=hub_cross_same * deg,
                    split_cross=hub_cross_split * deg,
                    separation=hub_separation * deg,
                )
            else:
                table[nid] = NodeWeights(
                    same_cross=cross_same * deg,
                    split_cross=cross_split * deg,
                    separation=separation * deg,
                )
        return cls(table)

    def for_node(self, node_id: str) -> NodeWeights:
        return self._node[node_id]

    def max_split_cross(self) -> float:
        return max((nw.split_cross for nw in self._node.values()), default=0.0)

    def max_separation(self) -> float:
        return max((nw.separation for nw in self._node.values()), default=0.0)


# ── event sites ─────────────────────────────────────────────────────

@dataclass(frozen=True)
class SameContinuationSite:
    """Pair {line_a, line_b} continues edge_a -> edge_b across node."""
    node: str
    edge_a: str
    edge_b: str
    line_a: str
    line_b: str
    weight: float


@dataclass(frozen=True)
class SplitSite:
    """Pair {line_a, line_b} on edge diverges at node into two different
    target edges; a_clockwise_first records whether line_a's target comes
    before line_b's when sweeping clockwise from edge's departure
    direction."""
    node: str
    edge: str
    line_a: str
    line_b: str
    a_clockwise_first: bool
    weight: float


@dataclass(frozen=True)
class SeparationSite:
    """Pair {line_a, line_b} continues edge_a -> edge_b; separation fires
    when adjacency holds on exactly one side."""
    node: str
    edge_a: str
    edge_b: str
    line_a: str
    line_b: str
    weight: float


@dataclass(frozen=True)
class EventSites:
    same_cont: tuple[SameContinuationSite, ...]
    split: tuple[SplitSite, ...]
    separation: tuple[SeparationSite, ...]


def _clockwise_first(g: LineGraph, node: str, ref_edge: str,
                     target_a: str, target_b: str) -> bool:
    ref = g.departure_angle(ref_edge, node)
    rank_a = ((ref - g.departure_angle(target_a, node)) % TWO_PI, target_a)
    rank_b = ((ref - g.departure_angle(target_b, node)) % TWO_PI, target_b)
    return rank_a < rank_b


def compile_event_sites(g: LineGraph, weights: WeightPolicy) -> EventSites:
    """Enumerate every potential event with its weight.  Weights carry
    the line-multiplicity product so collapsed lines price correctly."""
    same: list[SameContinuationSite] = []
    split: list[SplitSite] = []
    sep: list[SeparationSite] = []
    for v in sorted(g.nodes):
        cont = g.continuations_at(v)
        if len(cont) < 2:
            continue
        nw = weights.for_node(v)
        for a, b in combinations(sorted(cont), 2):
            mult = g.weight_of(a) * g.weight_of(b)
            ca, cb = cont[a], cont[b]
            if ca == cb:
                e1, e2 = ca
                same.append(SameContinuationSite(
                    node=v, edge_a=e1, edge_b=e2, line_a=a, line_b=b,
                    weight=nw.same_cross * mult,
                ))
                sep.append(SeparationSite(
                    node=v, edge_a=e1, edge_b=e2, line_a=a, line_b=b,
                    weight=nw.separation * mult,
                ))
            else:
                shared = set(ca) & set(cb)
                for e in sorted(shared):
                    ta = ca[0] if ca[1] == e else ca[1]
                    tb = cb[0] if cb[1] == e else cb[1]
                    split.append(SplitSite(
                        node=v, edge=e, line_a=a, line_b=b,
                        a_clockwise_first=_clockwise_first(g, v, e, ta, tb),
                        weight=nw.split_cross * mult,
                    ))
    return EventSites(same_cont=tuple(same), split=tuple(split),
                      separation=tuple(sep))


def model_dims(m: IlpModel) -> tuple[int, int]:
    return (len(m.constraints), len(m.variables))


# ── builders ────────────────────────────────────────────────────────
# Each builder compiles the event sites of (g, weights) unless the caller
# passes the ones it has already compiled.

def _sorted_edges(g: LineGraph) -> list[LGEdge]:
    return [g.edges[eid] for eid in sorted(g.edges)]


def build_baseline(g: LineGraph, weights: WeightPolicy,
                   sites: EventSites | None = None) -> IlpModel:
    """Direct position-assignment formulation; events are priced by
    enumerating every position combination that realizes them."""
    m = IlpModel("B")
    if sites is None:
        sites = compile_event_sites(g, weights)
    for e in _sorted_edges(g):
        n = len(e.lines)
        m.edge_lines[e.id] = e.lines
        for line in e.lines:
            for p in range(1, n + 1):
                m.add_variable(("pos", e.id, line, p))
        for line in e.lines:
            m.add_constraint(
                [(1.0, m.by_role[("pos", e.id, line, p)]) for p in range(1, n + 1)],
                "=", 1.0)
        for p in range(1, n + 1):
            m.add_constraint(
                [(1.0, m.by_role[("pos", e.id, line, p)]) for line in e.lines],
                "=", 1.0)

    for s in sites.same_cont:
        xc = m.add_variable(("cross", s.node, s.edge_a, s.edge_b, s.line_a, s.line_b),
                            objective=s.weight)
        e1, e2 = g.edges[s.edge_a], g.edges[s.edge_b]
        n1, n2 = len(e1.lines), len(e2.lines)
        for i in range(1, n1 + 1):
            for j in range(1, n1 + 1):
                if i == j:
                    continue
                for i2 in range(1, n2 + 1):
                    for j2 in range(1, n2 + 1):
                        if i2 == j2:
                            continue
                        if (arrives_left(e1, s.node, i, j)
                                != arrives_left(e2, s.node, i2, j2)):
                            continue
                        m.add_constraint([
                            (1.0, m.by_role[("pos", e1.id, s.line_a, i)]),
                            (1.0, m.by_role[("pos", e1.id, s.line_b, j)]),
                            (1.0, m.by_role[("pos", e2.id, s.line_a, i2)]),
                            (1.0, m.by_role[("pos", e2.id, s.line_b, j2)]),
                            (-1.0, xc),
                        ], "<=", 3.0)

    for s in sites.split:
        xs = m.add_variable(("splitcross", s.node, s.edge, s.line_a, s.line_b),
                            objective=s.weight)
        e = g.edges[s.edge]
        n = len(e.lines)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                if arrives_left(e, s.node, i, j) == s.a_clockwise_first:
                    continue  # this combination realizes no crossing
                m.add_constraint([
                    (1.0, m.by_role[("pos", e.id, s.line_a, i)]),
                    (1.0, m.by_role[("pos", e.id, s.line_b, j)]),
                    (-1.0, xs),
                ], "<=", 1.0)
    return m


def _order_var(m: IlpModel, edge: LGEdge, node: str, line_a: str, line_b: str,
               arriving: bool) -> str:
    """Order variable that equals the arrival indicator of (line_a,
    line_b) at node when arriving=True, or its complement otherwise."""
    into = (node == edge.b)
    if arriving == into:
        return m.by_role[("before", edge.id, line_a, line_b)]
    return m.by_role[("before", edge.id, line_b, line_a)]


def _build_order_core(m: IlpModel, g: LineGraph, sites: EventSites) -> None:
    """Per edge, a tournament of `before` variables kept transitive by
    the two 3-cycle rows of every line triple (the linear-ordering
    polytope's facets); then the crossing events, one order variable per
    edge and O(1) rows each."""
    for e in _sorted_edges(g):
        m.edge_lines[e.id] = e.lines
        for a, b in combinations(e.lines, 2):
            x_ab = m.add_variable(("before", e.id, a, b))
            x_ba = m.add_variable(("before", e.id, b, a))
            m.add_constraint([(1.0, x_ab), (1.0, x_ba)], "=", 1.0)
        for a, b, c in combinations(e.lines, 3):
            for u, v, w in ((a, b, c), (a, c, b)):
                m.add_constraint([
                    (1.0, m.by_role[("before", e.id, u, v)]),
                    (1.0, m.by_role[("before", e.id, v, w)]),
                    (1.0, m.by_role[("before", e.id, w, u)]),
                ], "<=", 2.0)

    for s in sites.same_cont:
        xc = m.add_variable(("cross", s.node, s.edge_a, s.edge_b, s.line_a, s.line_b),
                            objective=s.weight)
        n_e = _order_var(m, g.edges[s.edge_a], s.node, s.line_a, s.line_b,
                         arriving=True)
        q_e2 = _order_var(m, g.edges[s.edge_b], s.node, s.line_a, s.line_b,
                          arriving=False)
        m.add_constraint([(1.0, n_e), (-1.0, q_e2), (-1.0, xc)], "<=", 0.0)
        m.add_constraint([(-1.0, n_e), (1.0, q_e2), (-1.0, xc)], "<=", 0.0)

    for s in sites.split:
        xs = m.add_variable(("splitcross", s.node, s.edge, s.line_a, s.line_b),
                            objective=s.weight)
        # crossing <=> arrival indicator != a_clockwise_first, so the
        # variable that is 1 exactly in the crossing case is the arrival
        # indicator's complement when a_clockwise_first, else itself
        bad = _order_var(m, g.edges[s.edge], s.node, s.line_a, s.line_b,
                         arriving=not s.a_clockwise_first)
        m.add_constraint([(1.0, bad), (-1.0, xs)], "<=", 0.0)


def build_improved(g: LineGraph, weights: WeightPolicy,
                   sites: EventSites | None = None) -> IlpModel:
    """Pair-order formulation: one variable per ordered line pair and
    edge, kept a linear order by 3-cycle rows, so every event reads one
    order variable per edge with O(1) rows and every coefficient is
    ±1."""
    m = IlpModel("I")
    if sites is None:
        sites = compile_event_sites(g, weights)
    _build_order_core(m, g, sites)
    return m


def build_separation(g: LineGraph, weights: WeightPolicy,
                     sites: EventSites | None = None) -> IlpModel:
    """Improved formulation plus adjacency tracking: per pair and edge an
    `apart` variable that betweenness rows force to 1 whenever a third
    line sits between the pair, a per-edge cap that then pins every one
    of them, and separation events that price adjacency changes across
    nodes."""
    m = IlpModel("S")
    if sites is None:
        sites = compile_event_sites(g, weights)
    _build_order_core(m, g, sites)
    for e in _sorted_edges(g):
        n = len(e.lines)
        if n < 2:
            continue
        pair_vars = []
        for a, b in combinations(e.lines, 2):
            x_nb = m.add_variable(("apart", e.id, a, b))
            pair_vars.append(x_nb)
            for c in e.lines:
                if c in (a, b):
                    continue
                for u, v in ((a, b), (b, a)):
                    m.add_constraint([
                        (1.0, m.by_role[("before", e.id, u, c)]),
                        (1.0, m.by_role[("before", e.id, c, v)]),
                        (-1.0, x_nb),
                    ], "<=", 1.0)
        cap = math.comb(n, 2) - (n - 1)
        m.add_constraint([(1.0, v) for v in pair_vars], "<=", float(cap))

    for s in sites.separation:
        xp = m.add_variable(("sepevent", s.node, s.edge_a, s.edge_b,
                             s.line_a, s.line_b), objective=s.weight)
        nb1 = m.by_role[("apart", s.edge_a, s.line_a, s.line_b)]
        nb2 = m.by_role[("apart", s.edge_b, s.line_a, s.line_b)]
        m.add_constraint([(1.0, nb1), (-1.0, nb2), (-1.0, xp)], "<=", 0.0)
        m.add_constraint([(-1.0, nb1), (1.0, nb2), (-1.0, xp)], "<=", 0.0)
    return m


# ── decoding ────────────────────────────────────────────────────────

def extract_ordering(m: IlpModel, assignment: dict[str, float]) -> Ordering:
    """Decode a solver assignment back into per-edge line sequences."""
    def value(role: tuple) -> float:
        name = m.by_role.get(role)
        if name is None or name not in assignment:
            raise InfeasibleAssignment(f"assignment lacks a value for {role!r}")
        return assignment[name]

    orderings: dict[str, tuple[str, ...]] = {}
    for eid, lines in m.edge_lines.items():
        n = len(lines)
        slots: dict[int, str] = {}
        for line in lines:
            if m.variant == "B":
                hits = [p for p in range(1, n + 1)
                        if value(("pos", eid, line, p)) > 0.5]
                if len(hits) != 1:
                    raise InfeasibleAssignment(
                        f"line {line!r} on edge {eid!r} occupies {len(hits)} positions"
                    )
                pos = hits[0]
            else:
                pos = 1 + sum(1 for other in lines if other != line
                              and value(("before", eid, other, line)) > 0.5)
            if pos in slots:
                raise InfeasibleAssignment(
                    f"edge {eid!r}: lines {slots[pos]!r} and {line!r} share "
                    f"position {pos}"
                )
            slots[pos] = line
        if sorted(slots) != list(range(1, n + 1)):
            raise InfeasibleAssignment(f"edge {eid!r}: positions not contiguous")
        orderings[eid] = tuple(slots[p] for p in range(1, n + 1))
    return Ordering(orderings)
