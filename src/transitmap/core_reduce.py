"""Instance reduction for the line-ordering problem.

prune() shrinks a line graph to its core without changing the optimal
objective:

* chain contraction: a degree-2 node whose two incident edges carry the
  same line set hosts no unavoidable events, so the node is dropped and
  the edges merge into one.
* bundle collapse: lines that share an identical carrier edge set admit
  an optimal solution where they run adjacent in one fixed order, so the
  group becomes a single line weighted by its member count.
* terminus edge removal: an edge whose lines all end at both endpoints
  cannot influence any event, so its ordering is arbitrary.

Every change is recorded as a reversible action in a ReductionMap, and
unfold() replays the record backwards to translate an ordering of the
core into an ordering of the original graph.  Chain contraction is only
sound when events moved off the deleted node cannot get more expensive
elsewhere; nodes whose weights violate that are left alone.

split_components() counts the core's independently solvable components
by cutting single-line edges and detaching termini; the core is solved
whole, so nothing of the split is recorded or unfolded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

import numpy as np

from .errors import IncompleteSolution, MalformedOrdering, SchemaViolation
from .geometry import Polyline
from .gtfs import TransitLine
from .ilp_model import Ordering, WeightPolicy
from .line_graph import LGEdge, LGNode, LineGraph

__all__ = [
    "BundleCollapse",
    "ChainContraction",
    "ReductionMap",
    "TerminusEdgeRemoval",
    "prune",
    "split_components",
    "unfold",
]


# ── reversible actions ───────────────────────────────────────────────


@dataclass(frozen=True)
class ChainContraction:
    """A degree-2 node was removed and its two edges merged.

    The merged edge runs from edge_a's far endpoint to edge_b's far
    endpoint.  reversed_a / reversed_b say whether the merged ordering
    must be flipped to match the canonical direction of the original
    edge."""

    kind: ClassVar[str] = "chain_contraction"
    node: str
    edge_a: str
    edge_b: str
    merged_edge: str
    reversed_a: bool
    reversed_b: bool


@dataclass(frozen=True)
class BundleCollapse:
    """Lines with identical carrier edges were replaced by one line.

    members is the recorded expansion order (lexicographic).  reversal
    maps each carrier edge to True when the block must be expanded in
    reverse there to stay geometrically consistent with the carriers'
    canonical directions."""

    kind: ClassVar[str] = "bundle_collapse"
    members: tuple[str, ...]
    collapsed: str
    reversal: tuple[tuple[str, bool], ...]


@dataclass(frozen=True)
class TerminusEdgeRemoval:
    """An edge whose lines all terminate at both endpoints was removed."""

    kind: ClassVar[str] = "terminus_edge_removal"
    edge: str
    lines: tuple[str, ...]


_Action = ChainContraction | BundleCollapse | TerminusEdgeRemoval


@dataclass
class ReductionMap:
    """Ordered record of reductions, replayable in reverse by unfold()."""

    actions: list[_Action] = field(default_factory=list)

    def record(self, action: _Action) -> None:
        self.actions.append(action)

    def to_dict(self) -> dict:
        """The record as JSON-ready data: per action its kind and its
        fields, tuples as lists and a bundle's reversal as an edge ->
        flag object."""
        actions = []
        for action in self.actions:
            entry = {"kind": action.kind}
            for f in fields(action):
                value = getattr(action, f.name)
                if f.name == "reversal":
                    value = dict(value)
                elif isinstance(value, tuple):
                    value = list(value)
                entry[f.name] = value
            actions.append(entry)
        return {"actions": actions}


class _IdMaker:
    """Fresh ids with a fixed prefix, skipping anything already taken."""

    def __init__(self, prefix: str, taken: set[str]) -> None:
        self.prefix = prefix
        self.taken = taken
        self.n = 0

    def __call__(self) -> str:
        while f"{self.prefix}{self.n}" in self.taken:
            self.n += 1
        out = f"{self.prefix}{self.n}"
        self.taken.add(out)
        return out


# ── pruning ──────────────────────────────────────────────────────────


def _terminates(g: LineGraph, line: str, node_id: str) -> bool:
    """True when node_id is an endpoint of line's travel (one carrier)."""
    count = 0
    for eid in g.incident(node_id):
        if line in g.edges[eid].lines:
            count += 1
    return count == 1


def _contract_chains(
    nodes: dict[str, LGNode],
    edges: dict[str, LGEdge],
    weights: WeightPolicy,
    new_edge_id: _IdMaker,
    rmap: ReductionMap,
) -> bool:
    """Merge edge pairs across degree-2 nodes with equal line sets.

    Skips nodes where the move could raise the objective (penalty below
    the global maximum a displaced event might land on), nodes whose
    contraction would create a self-loop, and nodes missing from the
    weight table.

    One sweep over the node ids in order reaches the fixed point.  The
    merged edge carries the lines of the two it replaces, so a
    contraction leaves every other node's degree and line sets as they
    were and can make no node a candidate; at most it gives a neighbour
    two edges to one node, which the self-loop guard then refuses.  The
    sweep thus contracts the nodes that rescanning from the smallest id
    after every contraction would, in the same order."""
    max_split = weights.max_split_cross()
    max_sep = weights.max_separation()
    incident: dict[str, list[str]] = {v: [] for v in nodes}
    for eid, e in edges.items():
        incident[e.a].append(eid)
        incident[e.b].append(eid)
    did = False
    for v in sorted(nodes):
        if len(incident[v]) != 2:
            continue
        ea_id, eb_id = sorted(incident[v])
        ea, eb = edges[ea_id], edges[eb_id]
        if ea.lines != eb.lines:
            continue
        u, w = ea.other(v), eb.other(v)
        if u == w:
            continue
        try:
            nw = weights.for_node(v)
        except KeyError:
            continue
        if nw.same_cross < max_split or nw.separation < max_sep:
            continue
        del edges[ea_id], edges[eb_id], nodes[v]
        # reversed().pts without the polyline: no segment of a polyline
        # is _EPS or shorter, so reversing one drops no point
        pa = ea.path.pts if ea.b == v else ea.path.pts[::-1]
        pb = eb.path.pts if eb.a == v else eb.path.pts[::-1]
        mid = new_edge_id()
        edges[mid] = LGEdge(id=mid, a=u, b=w, lines=ea.lines,
                            path=Polyline._owning(np.concatenate((pa, pb))))
        incident[u][incident[u].index(ea_id)] = mid
        incident[w][incident[w].index(eb_id)] = mid
        rmap.record(
            ChainContraction(
                node=v,
                edge_a=ea_id,
                edge_b=eb_id,
                merged_edge=mid,
                reversed_a=ea.b != v,
                reversed_b=eb.a != v,
            )
        )
        did = True
    return did


def _orientation_flags(g: LineGraph, carrier: tuple[str, ...]) -> dict[str, bool]:
    """Expansion-reversal flag per carrier edge of one bundle.

    Walking a continuation from edge e1 into e2 at node n preserves the
    physical strand order exactly when the arrival indicators of the two
    edges differ, which fixes e2's flag from e1's by parity.  Around a
    carrier cycle each edge contributes each of its endpoints once, so
    the parities always close up and the seed choice per stretch (False
    at the smallest edge id) is free."""
    carrier_set = set(carrier)
    adj: dict[str, list[tuple[str, str]]] = {eid: [] for eid in carrier}
    seen_nodes: set[str] = set()
    for eid in carrier:
        for nid in (g.edges[eid].a, g.edges[eid].b):
            if nid in seen_nodes:
                continue
            seen_nodes.add(nid)
            inc = [x for x in g.incident(nid) if x in carrier_set]
            if len(inc) == 2:
                adj[inc[0]].append((inc[1], nid))
                adj[inc[1]].append((inc[0], nid))
    flags: dict[str, bool] = {}
    for seed in carrier:
        if seed in flags:
            continue
        flags[seed] = False
        stack = [seed]
        while stack:
            e1 = stack.pop()
            for e2, nid in adj[e1]:
                into1 = 1 if g.edges[e1].b == nid else 0
                into2 = 1 if g.edges[e2].b == nid else 0
                f2 = (1 + into1 + into2 + int(flags[e1])) % 2 == 1
                if e2 in flags:
                    if flags[e2] != f2:
                        raise SchemaViolation(
                            f"inconsistent bundle orientation at node {nid!r}"
                        )
                else:
                    flags[e2] = f2
                    stack.append(e2)
    return flags


def _collapse_bundles(
    nodes: dict[str, LGNode],
    edges: dict[str, LGEdge],
    lines: dict[str, TransitLine],
    weight: dict[str, int],
    rmap: ReductionMap,
) -> bool:
    """Replace every group of lines with identical carriers by one line."""
    carriers: dict[str, list[str]] = {lid: [] for lid in lines}
    for eid in sorted(edges):
        for lid in edges[eid].lines:
            carriers[lid].append(eid)
    groups: dict[tuple[str, ...], list[str]] = {}
    for lid, ce in carriers.items():
        if ce:
            groups.setdefault(tuple(ce), []).append(lid)
    cur = LineGraph(nodes, edges, lines)
    did = False
    for carrier, group in sorted(groups.items()):
        if len(group) < 2:
            continue
        members = tuple(sorted(group))
        cid = "+".join(members)
        while cid in lines:
            cid += "_"
        flags = _orientation_flags(cur, carrier)
        label = "+".join(lines[m].label for m in members)
        color = lines[members[0]].color
        total = sum(weight.get(m, 1) for m in members)
        member_set = set(members)
        for m in members:
            lines.pop(m)
            weight.pop(m, None)
        lines[cid] = TransitLine(id=cid, label=label, color=color)
        weight[cid] = total
        for eid in carrier:
            e = edges[eid]
            kept = [lid for lid in e.lines if lid not in member_set] + [cid]
            edges[eid] = LGEdge(
                id=eid, a=e.a, b=e.b, lines=tuple(sorted(kept)), path=e.path
            )
        rmap.record(
            BundleCollapse(
                members=members,
                collapsed=cid,
                reversal=tuple((eid, flags[eid]) for eid in sorted(flags)),
            )
        )
        did = True
    return did


def _drop_terminus_edges(
    nodes: dict[str, LGNode],
    edges: dict[str, LGEdge],
    lines: dict[str, TransitLine],
    rmap: ReductionMap,
) -> bool:
    """Remove edges whose lines all terminate at both endpoints.

    Candidates never share a line with another incident edge, so one
    sweep over a snapshot is safe."""
    cur = LineGraph(nodes, edges, lines)
    doomed = []
    for eid in sorted(edges):
        e = edges[eid]
        if all(
            _terminates(cur, lid, e.a) and _terminates(cur, lid, e.b)
            for lid in e.lines
        ):
            doomed.append(eid)
    for eid in doomed:
        rmap.record(TerminusEdgeRemoval(edge=eid, lines=edges[eid].lines))
        edges.pop(eid)
    return bool(doomed)


def prune(
    g: LineGraph, weights: WeightPolicy, collapse_bundles: bool = True
) -> tuple[LineGraph, ReductionMap]:
    """Reduce g to its ordering-relevant core.

    Applies chain contraction, bundle collapse, and terminus edge
    removal to a fixed point.  collapse_bundles=False keeps every line
    distinct, which objectives that price separation events need: a
    collapsed block hides which member sits at the block boundary, so
    adjacency with outside lines would be priced wrong."""
    g.validate()
    nodes = dict(g.nodes)
    edges = dict(g.edges)
    lines = dict(g.lines)
    weight = dict(g.line_weight)
    rmap = ReductionMap()
    new_edge_id = _IdMaker("m", set(edges))
    changed = True
    while changed:
        changed = _contract_chains(nodes, edges, weights, new_edge_id, rmap)
        if collapse_bundles:
            changed = _collapse_bundles(nodes, edges, lines, weight, rmap) or changed
        changed = _drop_terminus_edges(nodes, edges, lines, rmap) or changed
    return LineGraph(nodes, edges, lines, weight), rmap


# ── splitting ────────────────────────────────────────────────────────


def _subgraph(g: LineGraph, edge_ids) -> LineGraph:
    """g restricted to edge_ids, their endpoints and their lines, with
    every table sorted."""
    eids = sorted(edge_ids)
    nids = sorted({nid for eid in eids for nid in (g.edges[eid].a, g.edges[eid].b)})
    lids = sorted({lid for eid in eids for lid in g.edges[eid].lines})
    return LineGraph(
        {nid: g.nodes[nid] for nid in nids},
        {eid: g.edges[eid] for eid in eids},
        {lid: g.lines[lid] for lid in lids},
        {lid: g.line_weight[lid] for lid in lids if lid in g.line_weight},
    )


def _pieces(g: LineGraph) -> list[LineGraph]:
    """The connected pieces of g that have edges."""
    pieces: list[LineGraph] = []
    seen: set[str] = set()
    for start in sorted(g.nodes):
        if start in seen or g.degree(start) == 0:
            continue
        seen.add(start)
        piece_edges: set[str] = set()
        stack = [start]
        while stack:
            nid = stack.pop()
            for eid in g.incident(nid):
                piece_edges.add(eid)
                other = g.edges[eid].other(nid)
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        pieces.append(_subgraph(g, piece_edges))
    return pieces


def _events(g: LineGraph) -> str:
    """How g's lines meet: "coupled" when at some node two lines continue
    along the same edge pair, where continuation and separation sites
    arise; else "parting" when at some node two lines continue along
    different edge pairs that share an edge, where split sites arise;
    else "none"."""
    kind = "none"
    for v in g.nodes:
        pairs = list(g.continuations_at(v).values())
        if len(set(pairs)) < len(pairs):
            return "coupled"
        ends = [eid for pair in pairs for eid in pair]
        if len(set(ends)) < len(ends):
            kind = "parting"
    return kind


def _detach_termini(
    nodes: dict[str, LGNode],
    edges: dict[str, LGEdge],
    lines: dict[str, TransitLine],
    new_node_id: _IdMaker,
) -> None:
    """Re-point every edge whose lines all terminate at an endpoint of
    degree above one to a fresh dangling node there.

    One pass over the edge ids, end a before end b, finds every detach.
    An edge leaves node v only when no other edge at v shares one of its
    lines, so whether the lines of v's other edges end at v is the same
    before and after, and v's degree only drops: a detach can make no
    end a candidate, and the pass detaches the ends that rescanning from
    the first edge after every detach would, in the same order."""
    cur = LineGraph(nodes, edges, lines)
    degree = {v: cur.degree(v) for v in nodes}
    for eid in sorted(edges):
        e = edges[eid]
        for v in (e.a, e.b):
            if degree[v] <= 1:
                continue
            if not all(_terminates(cur, lid, v) for lid in e.lines):
                continue
            fresh = new_node_id()
            nodes[fresh] = LGNode(id=fresh, kind="aux", x=nodes[v].x, y=nodes[v].y)
            e = edges[eid] = replace(e, a=fresh) if v == e.a else replace(e, b=fresh)
            degree[v] -= 1


def split_components(
    core: LineGraph, reduction: ReductionMap | None = None
) -> list[LineGraph]:
    """Split a pruned graph into independently solvable components.

    Single-line edges are cut into two dangling halves, each with the
    edge's own path, and edges whose lines all terminate at a node of
    degree above one are re-pointed to a fresh dangling node there.
    Neither moves an event site, so the pipeline solves the core whole
    and calls this only for the component count, which the benchmark
    checks against its solver processes.  reduction is ignored; the
    benchmark's instance description still passes it.

    Each connected piece is one component, except that every piece
    whose lines only part (split sites but no continuation sites, see
    _events) joins the component of the coupled piece with the smallest
    edge id, or, when no piece is coupled, one shared component of
    their own; either is possibly disconnected.  A parting piece prices
    each edge's order on its own, so solving it together with other
    pieces gives each edge the same lexicographically first optimum as
    solving it apart.  Components come back sorted by their smallest
    edge id, with node and line tables restricted to what each touches."""
    nodes = dict(core.nodes)
    edges = dict(core.edges)
    new_edge_id = _IdMaker("c", set(edges))
    new_node_id = _IdMaker("q", set(nodes))

    for e in [edges[eid] for eid in sorted(edges) if len(edges[eid].lines) == 1]:
        na, nb, ha, hb = new_node_id(), new_node_id(), new_edge_id(), new_edge_id()
        (xa, ya), (xb, yb) = e.path.end.tolist(), e.path.start.tolist()
        nodes[na] = LGNode(id=na, kind="aux", x=xa, y=ya)
        nodes[nb] = LGNode(id=nb, kind="aux", x=xb, y=yb)
        del edges[e.id]
        edges[ha], edges[hb] = replace(e, id=ha, b=na), replace(e, id=hb, a=nb)

    _detach_termini(nodes, edges, core.lines, new_node_id)

    fin = LineGraph(nodes, edges, core.lines, core.line_weight)
    comps: list[LineGraph] = []
    parting: list[LineGraph] = []
    coupled: list[LineGraph] = []
    for piece in _pieces(fin):
        kind = _events(piece)
        (parting if kind == "parting" else comps).append(piece)
        if kind == "coupled":
            coupled.append(piece)
    if parting and coupled:
        host = min(coupled, key=lambda c: min(c.edges))
        comps = [c for c in comps if c is not host]
        parting.append(host)
    if len(parting) > 1:
        parting = [_subgraph(fin, [eid for p in parting for eid in p.edges])]
    comps += parting
    comps.sort(key=lambda c: min(c.edges))
    return comps


# ── unfolding ────────────────────────────────────────────────────────


def unfold(ordering: Ordering, reduction: ReductionMap, g: LineGraph) -> Ordering:
    """Translate an ordering of the pruned core back to the original graph.

    Replays the recorded actions newest first: removed edges get their
    lines in lexicographic order, collapsed lines expand in the recorded
    member order (reversed where the carrier runs counter to the
    propagation seed), and merged chain edges hand their sequence to
    both original edges with the recorded direction fixups.  Raises
    IncompleteSolution when an edge of g ends up without an ordering."""
    merged = {eid: ordering.lines_at(eid) for eid in ordering.edges()}

    for action in reversed(reduction.actions):
        if isinstance(action, TerminusEdgeRemoval):
            merged[action.edge] = tuple(sorted(action.lines))
        elif isinstance(action, BundleCollapse):
            for eid, flipped in action.reversal:
                seq = merged.get(eid)
                if seq is None:
                    raise IncompleteSolution(
                        f"no ordering for bundle carrier {eid!r}"
                    )
                if action.collapsed not in seq:
                    raise MalformedOrdering(
                        f"carrier {eid!r} lost collapsed line {action.collapsed!r}"
                    )
                i = seq.index(action.collapsed)
                block = tuple(reversed(action.members)) if flipped else action.members
                merged[eid] = seq[:i] + block + seq[i + 1 :]
        elif isinstance(action, ChainContraction):
            seq = merged.pop(action.merged_edge, None)
            if seq is None:
                raise IncompleteSolution(
                    f"no ordering for merged edge {action.merged_edge!r}"
                )
            merged[action.edge_a] = (
                tuple(reversed(seq)) if action.reversed_a else seq
            )
            merged[action.edge_b] = (
                tuple(reversed(seq)) if action.reversed_b else seq
            )
        else:
            raise SchemaViolation(
                f"unknown reduction action {type(action).__name__}"
            )

    missing = sorted(set(g.edges) - set(merged))
    if missing:
        raise IncompleteSolution(f"no ordering for edges {missing!r}")
    out = Ordering({eid: merged[eid] for eid in g.edges})
    out.validate_for(g)
    return out
