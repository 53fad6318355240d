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

Variable-name grammar (stable; external solution files are keyed by it):
position `x_e<edge>_l<line>_p<pos>`, cumulative `x_e<edge>_l<line>_le<p>`,
order `x_e<edge>_l<A>_b_l<B>` (A before B), in-edge separation
`x_e<edge>_l<A>_nb_l<B>` (A not beside B), and the objective events
`xc_n<node>_e<e1>_e<e2>_l<A>_l<B>` (continuation crossing),
`xs_n<node>_e<edge>_l<A>_l<B>` (split crossing),
`xp_n<node>_e<e1>_e<e2>_l<A>_l<B>` (separation).  Ids are sanitized to
[A-Za-z0-9_] with a collision counter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    InfeasibleAssignment,
    MalformedOrdering,
    PreconditionViolated,
    SchemaViolation,
)
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
            if min(nw.same_cross, nw.split_cross, nw.separation) <= 0:
                raise PreconditionViolated(
                    f"node {nid!r} has a non-positive event weight"
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


# ── model container ─────────────────────────────────────────────────

@dataclass
class Variable:
    """A binary model variable; every formulation here is a 0-1 program."""
    name: str
    objective: float = 0.0


@dataclass
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]
    relation: str  # "<=", ">=", "="
    rhs: float


class IlpModel:
    def __init__(self, variant: str) -> None:
        self.variant = variant
        self.variables: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.roles: dict[str, tuple] = {}
        self.by_role: dict[tuple, str] = {}
        self.edge_lines: dict[str, tuple[str, ...]] = {}
        self._tokens: dict[str, str] = {}
        self._used_tokens: set[str] = set()

    def _token(self, raw: str) -> str:
        if raw in self._tokens:
            return self._tokens[raw]
        base = re.sub(r"[^A-Za-z0-9]", "_", raw) or "id"
        tok = base
        counter = 2
        while tok in self._used_tokens:
            tok = f"{base}_{counter}"
            counter += 1
        self._tokens[raw] = tok
        self._used_tokens.add(tok)
        return tok

    def _name_for(self, role: tuple) -> str:
        kind = role[0]
        t = self._token
        if kind == "pos":
            _, e, l, p = role
            return f"x_e{t(e)}_l{t(l)}_p{p}"
        if kind == "cum":
            _, e, l, p = role
            return f"x_e{t(e)}_l{t(l)}_le{p}"
        if kind == "before":
            _, e, a, b = role
            return f"x_e{t(e)}_l{t(a)}_b_l{t(b)}"
        if kind == "apart":
            _, e, a, b = role
            return f"x_e{t(e)}_l{t(a)}_nb_l{t(b)}"
        if kind == "cross":
            _, v, e1, e2, a, b = role
            return f"xc_n{t(v)}_e{t(e1)}_e{t(e2)}_l{t(a)}_l{t(b)}"
        if kind == "splitcross":
            _, v, e, a, b = role
            return f"xs_n{t(v)}_e{t(e)}_l{t(a)}_l{t(b)}"
        if kind == "sepevent":
            _, v, e1, e2, a, b = role
            return f"xp_n{t(v)}_e{t(e1)}_e{t(e2)}_l{t(a)}_l{t(b)}"
        raise ValueError(f"unknown variable role kind {kind!r}")

    def add_variable(self, role: tuple, objective: float = 0.0) -> str:
        if role in self.by_role:
            raise ValueError(f"duplicate variable role {role!r}")
        name = self._name_for(role)
        self.variables[name] = Variable(name=name, objective=objective)
        self.roles[name] = role
        self.by_role[role] = name
        return name

    def add_constraint(self, terms, relation: str, rhs: float) -> None:
        for _, var in terms:
            if var not in self.variables:
                raise ValueError(f"constraint references unknown variable {var!r}")
        self.constraints.append(Constraint(
            name=f"c{len(self.constraints)}",
            terms=tuple(terms), relation=relation, rhs=float(rhs),
        ))


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


def _cumulative_sum_terms(m: IlpModel, edge_id: str, line: str, n: int,
                          sign: float):
    return [(sign, m.by_role[("cum", edge_id, line, p)]) for p in range(1, n + 1)]


def _order_var(m: IlpModel, edge: LGEdge, node: str, line_a: str, line_b: str,
               arriving: bool) -> str:
    """Order variable that equals the arrival indicator of (line_a,
    line_b) at node when arriving=True, or its complement otherwise."""
    into = (node == edge.b)
    if arriving == into:
        return m.by_role[("before", edge.id, line_a, line_b)]
    return m.by_role[("before", edge.id, line_b, line_a)]


def _build_cumulative_core(m: IlpModel, g: LineGraph, sites: EventSites) -> None:
    for e in _sorted_edges(g):
        n = len(e.lines)
        m.edge_lines[e.id] = e.lines
        for line in e.lines:
            for p in range(1, n + 1):
                m.add_variable(("cum", e.id, line, p))
        for line in e.lines:
            for p in range(1, n):
                m.add_constraint([
                    (1.0, m.by_role[("cum", e.id, line, p)]),
                    (-1.0, m.by_role[("cum", e.id, line, p + 1)]),
                ], "<=", 0.0)
        for p in range(1, n + 1):
            m.add_constraint(
                [(1.0, m.by_role[("cum", e.id, line, p)]) for line in e.lines],
                "=", float(p))
        for a, b in combinations(e.lines, 2):
            x_ab = m.add_variable(("before", e.id, a, b))
            x_ba = m.add_variable(("before", e.id, b, a))
            diff = (_cumulative_sum_terms(m, e.id, a, n, 1.0)
                    + _cumulative_sum_terms(m, e.id, b, n, -1.0))
            m.add_constraint(diff + [(float(n), x_ba)], ">=", 0.0)
            m.add_constraint([(-c, v) for c, v in diff] + [(float(n), x_ab)],
                             ">=", 0.0)
            m.add_constraint([(1.0, x_ab), (1.0, x_ba)], "=", 1.0)

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
    """Cumulative-variable formulation: order comparisons become single
    variables, shrinking the model to a constant number of rows per line
    pair per edge."""
    m = IlpModel("I")
    if sites is None:
        sites = compile_event_sites(g, weights)
    _build_cumulative_core(m, g, sites)
    return m


def build_separation(g: LineGraph, weights: WeightPolicy,
                     sites: EventSites | None = None) -> IlpModel:
    """Improved formulation plus adjacency tracking: per-edge variables
    flag pairs that are not side by side, a per-edge cardinality cap
    pins them exactly, and separation events price adjacency changes
    across nodes."""
    m = IlpModel("S")
    if sites is None:
        sites = compile_event_sites(g, weights)
    _build_cumulative_core(m, g, sites)
    for e in _sorted_edges(g):
        n = len(e.lines)
        if n < 2:
            continue
        pair_vars = []
        for a, b in combinations(e.lines, 2):
            x_nb = m.add_variable(("apart", e.id, a, b))
            pair_vars.append(x_nb)
            diff = (_cumulative_sum_terms(m, e.id, a, n, 1.0)
                    + _cumulative_sum_terms(m, e.id, b, n, -1.0))
            m.add_constraint(diff + [(-float(n), x_nb)], "<=", 1.0)
            m.add_constraint([(-c, v) for c, v in diff] + [(-float(n), x_nb)],
                             "<=", 1.0)
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


# ── LP file round trip ──────────────────────────────────────────────

def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _expr(terms) -> str:
    parts: list[str] = []
    for coef, var in terms:
        if coef < 0:
            parts.append(f"- {_fmt(-coef)} {var}")
        elif parts:
            parts.append(f"+ {_fmt(coef)} {var}")
        else:
            parts.append(f"{_fmt(coef)} {var}")
    return " ".join(parts)


def write_lp(m: IlpModel, path) -> None:
    lines = ["Minimize"]
    obj_terms = [(v.objective, v.name) for v in m.variables.values()
                 if v.objective != 0.0]
    lines.append(f" obj: {_expr(obj_terms)}" if obj_terms else " obj:")
    lines.append("Subject To")
    for c in m.constraints:
        lines.append(f" {c.name}: {_expr(c.terms)} {c.relation} {_fmt(c.rhs)}")
    binaries = list(m.variables)
    if binaries:
        lines.append("Binary")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[i:i + 8]))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADERS = (["Minimize"], ["Subject", "To"], ["Binary"], ["End"])
_LAYOUTS = (["Minimize", "Subject", "End"],
            ["Minimize", "Subject", "Binary", "End"])
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _number(token: str) -> float:
    """A finite number as _fmt writes it."""
    if not _NUMBER.fullmatch(token) or not math.isfinite(float(token)):
        raise SchemaViolation(f"LP number expected, got {token!r}")
    return float(token)


def _terms(tokens: list[str]) -> list[tuple[float, str]]:
    """Parse `[- c v | c v] (+ c v | - c v)*`, or nothing, into
    (coefficient, name) pairs."""
    if tokens[:1] not in ([], ["-"]):
        tokens = ["+"] + tokens
    if len(tokens) % 3:
        raise SchemaViolation(f"malformed LP expression {' '.join(tokens)!r}")
    terms = []
    for sign, coef, name in zip(tokens[::3], tokens[1::3], tokens[2::3]):
        if (sign not in ("+", "-") or coef.startswith("-")
                or not re.fullmatch(_NAME, name)):
            raise SchemaViolation(
                f"malformed LP term {' '.join((sign, coef, name))!r}")
        terms.append((-_number(coef) if sign == "-" else _number(coef), name))
    return terms


def read_lp(path) -> IlpModel:
    """Read an LP file in exactly the dialect write_lp writes: `Minimize`,
    one `obj:` line, `Subject To`, one `name: expression relation rhs`
    line per constraint, `Binary` lines declaring every variable once, and
    `End` as the last line.  Anything else raises SchemaViolation.

    Columns are ordered by first use (objective, then constraints, then
    the Binary lines); that order decides which of several tied optima a
    solver returns."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh.read().splitlines()]
    heads = [i for i, row in enumerate(rows) if row in _HEADERS]
    if ([rows[i][0] for i in heads] not in _LAYOUTS or heads[:2] != [0, 2]
            or heads[-1] != len(rows) - 1 or rows[1][:1] != ["obj:"]):
        raise SchemaViolation(
            "an LP file must read Minimize, obj:, Subject To, its "
            "constraints, Binary, its variables and End, in this order")
    declared = [name for row in rows[heads[2] + 1:-1] for name in row]
    if (len(set(declared)) != len(declared)
            or not all(re.fullmatch(_NAME, name) for name in declared)):
        raise SchemaViolation("Binary lines must declare each variable once")
    binary = set(declared)
    m = IlpModel("?")

    def use(name: str) -> Variable:
        if name not in binary:
            raise SchemaViolation(f"variable {name!r} is not declared Binary")
        return m.variables.setdefault(name, Variable(name=name))

    for coef, name in _terms(rows[1][1:]):
        use(name).objective += coef
    for row in rows[3:heads[2]]:
        if (len(row) < 4 or not re.fullmatch(_NAME + ":", row[0])
                or row[-2] not in ("<=", ">=", "=")):
            raise SchemaViolation(f"malformed constraint {' '.join(row)!r}")
        terms = _terms(row[1:-2])
        for _, name in terms:
            use(name)
        m.constraints.append(Constraint(name=row[0][:-1], terms=tuple(terms),
                                        relation=row[-2], rhs=_number(row[-1])))
    for name in declared:
        use(name)
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
                pos = 1 + sum(1 for p in range(1, n + 1)
                              if value(("cum", eid, line, p)) < 0.5)
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
