"""Solving layer: objective evaluation, exhaustive search, a built-in
branch-and-bound, and a bridge to external MILP solvers.

All solvers share one source of truth for event semantics: the event
sites compiled by ilp_model and the arrival-indicator convention defined
there.  External solutions are decoded and re-priced by the evaluator;
any disagreement raises ObjectiveMismatch instead of returning silently
wrong results.
"""

from __future__ import annotations

import itertools
import math
import shlex
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_reduce import prune, split_components, unfold
from .errors import (
    BudgetExceeded,
    Infeasible,
    ObjectiveMismatch,
    SolverFailure,
)
from .ilp_model import (
    EventSites,
    IlpModel,
    Ordering,
    SameContinuationSite,
    SeparationSite,
    SplitSite,
    WeightPolicy,
    arrives_left,
    build_baseline,
    build_improved,
    build_separation,
    compile_event_sites,
    extract_ordering,
    model_dims,
    write_lp,
)
from .line_graph import LineGraph

VARIANTS = ("B", "I", "S")
_BUILDERS = {"B": build_baseline, "I": build_improved, "S": build_separation}


# ── objective evaluation ────────────────────────────────────────────

@dataclass(frozen=True)
class ObjectiveBreakdown:
    """Realized events under one ordering; each entry is the event site
    that fired, weight included."""

    same_cont: tuple[SameContinuationSite, ...]
    split: tuple[SplitSite, ...]
    separation: tuple[SeparationSite, ...]

    @property
    def crossing_count(self) -> int:
        return len(self.same_cont) + len(self.split)

    @property
    def separation_count(self) -> int:
        return len(self.separation)

    @property
    def crossing_weight(self) -> float:
        return (sum(s.weight for s in self.same_cont)
                + sum(s.weight for s in self.split))

    @property
    def separation_weight(self) -> float:
        return sum(s.weight for s in self.separation)

    @property
    def weighted_objective(self) -> float:
        return self.crossing_weight + self.separation_weight

    def objective(self, include_separation: bool = True) -> float:
        if include_separation:
            return self.weighted_objective
        return self.crossing_weight

    def to_dict(self) -> dict:
        def event(site, edges):
            return {"node": site.node, "edges": list(edges),
                    "lines": [site.line_a, site.line_b],
                    "weight": site.weight}

        return {
            "crossings": self.crossing_count,
            "separations": self.separation_count,
            "weighted_crossings": self.crossing_weight,
            "weighted_separations": self.separation_weight,
            "weighted_total": self.weighted_objective,
            "events": {
                "continuation_crossings": [
                    event(s, (s.edge_a, s.edge_b)) for s in self.same_cont],
                "split_crossings": [
                    event(s, (s.edge,)) for s in self.split],
                "separations": [
                    event(s, (s.edge_a, s.edge_b)) for s in self.separation],
            },
        }


# Per-edge indicators of a site: p maps each line to its position on
# edge eid, or to an array of positions for an array of answers.
def _arrival(g: LineGraph, s, eid: str, p):
    return arrives_left(g.edges[eid], s.node, p[s.line_a], p[s.line_b])


def _adjacent(g: LineGraph, s, eid: str, p):
    return abs(p[s.line_a] - p[s.line_b]) == 1


# A pair site compares its indicator across its two edges: a
# continuation crossing fires where the arrival sides are equal, a
# separation where adjacency holds on one edge only.
_CONTINUATION = (_arrival, True)
_SEPARATION = (_adjacent, False)


def _fires_pair(g: LineGraph, s, pos, indicator, fires_on_equal: bool):
    return ((indicator(g, s, s.edge_a, pos[s.edge_a])
             == indicator(g, s, s.edge_b, pos[s.edge_b])) == fires_on_equal)


def _fires_split(g: LineGraph, s: SplitSite, pos):
    return _arrival(g, s, s.edge, pos[s.edge]) != s.a_clockwise_first


def _positions(o: Ordering, edge_ids) -> dict[str, dict[str, int]]:
    return {eid: {line: i + 1 for i, line in enumerate(o.lines_at(eid))}
            for eid in edge_ids}


def evaluate(g: LineGraph, o: Ordering, w: WeightPolicy,
             sites: EventSites | None = None) -> ObjectiveBreakdown:
    """Count and price every event realized by the ordering."""
    o.validate_for(g)
    if sites is None:
        sites = compile_event_sites(g, w)
    pos = _positions(o, g.edges)
    return ObjectiveBreakdown(
        same_cont=tuple(s for s in sites.same_cont
                        if _fires_pair(g, s, pos, *_CONTINUATION)),
        split=tuple(s for s in sites.split if _fires_split(g, s, pos)),
        separation=tuple(s for s in sites.separation
                         if _fires_pair(g, s, pos, *_SEPARATION)),
    )


def identity_ordering(g: LineGraph) -> Ordering:
    """Lexicographically smallest ordering: every edge in line-id order."""
    return Ordering({eid: e.lines for eid, e in g.edges.items()})


# ── exhaustive search ───────────────────────────────────────────────

def brute_force(g: LineGraph, w: WeightPolicy, budget: int = 10_000_000,
                include_separation: bool = True,
                sites: EventSites | None = None,
                ) -> tuple[Ordering, ObjectiveBreakdown]:
    """Global minimum over the full product of per-edge permutations,
    evaluated as one cost tensor; first minimum in lexicographic order
    wins."""
    if sites is None:
        sites = compile_event_sites(g, w)
    axes = [eid for eid in sorted(g.edges) if len(g.edges[eid].lines) > 1]
    perms = {eid: sorted(itertools.permutations(g.edges[eid].lines))
             for eid in axes}
    total = 1
    for eid in axes:
        total *= len(perms[eid])
        if total > budget:
            raise BudgetExceeded(
                f"ordering space exceeds the enumeration budget of {budget}")

    if not axes:
        ordering = identity_ordering(g)
        return ordering, evaluate(g, ordering, w, sites)

    axis_of = {eid: i for i, eid in enumerate(axes)}
    shape = tuple(len(perms[eid]) for eid in axes)
    pos_tab = {
        eid: [{line: i + 1 for i, line in enumerate(perm)}
              for perm in perms[eid]]
        for eid in axes
    }
    cost = np.zeros(shape)

    def add_pair_table(eid1, eid2, weight, fire) -> None:
        a1, a2 = axis_of[eid1], axis_of[eid2]
        table = np.zeros((shape[a1], shape[a2]))
        for i, p1 in enumerate(pos_tab[eid1]):
            for j, p2 in enumerate(pos_tab[eid2]):
                if fire(p1, p2):
                    table[i, j] = weight
        expand = [1] * len(shape)
        expand[a1], expand[a2] = shape[a1], shape[a2]
        if a1 > a2:
            table = np.swapaxes(table, 0, 1)
        np.add(cost, table.reshape(expand), out=cost)

    for s in sites.same_cont:
        e1, e2 = g.edges[s.edge_a], g.edges[s.edge_b]
        add_pair_table(
            s.edge_a, s.edge_b, s.weight,
            lambda p1, p2, s=s, e1=e1, e2=e2: (
                arrives_left(e1, s.node, p1[s.line_a], p1[s.line_b])
                == arrives_left(e2, s.node, p2[s.line_a], p2[s.line_b])))
    for s in sites.split:
        e = g.edges[s.edge]
        axis = axis_of[s.edge]
        vec = np.zeros(shape[axis])
        for i, p in enumerate(pos_tab[s.edge]):
            left = arrives_left(e, s.node, p[s.line_a], p[s.line_b])
            if left != s.a_clockwise_first:
                vec[i] = s.weight
        expand = [1] * len(shape)
        expand[axis] = shape[axis]
        cost += vec.reshape(expand)
    if include_separation:
        for s in sites.separation:
            add_pair_table(
                s.edge_a, s.edge_b, s.weight,
                lambda p1, p2, s=s: (
                    (abs(p1[s.line_a] - p1[s.line_b]) == 1)
                    != (abs(p2[s.line_a] - p2[s.line_b]) == 1)))

    flat = int(np.argmin(cost))
    index = np.unravel_index(flat, shape)
    chosen = {eid: perms[eid][index[axis_of[eid]]] for eid in axes}
    for eid, e in g.edges.items():
        chosen.setdefault(eid, e.lines)
    ordering = Ordering(chosen)
    return ordering, evaluate(g, ordering, w, sites)


# ── built-in branch and bound ───────────────────────────────────────

def _branch_and_bound(g: LineGraph, sites: EventSites,
                      include_separation: bool) -> tuple[Ordering, float]:
    """Depth-first search over per-edge permutations, edges in id order
    and permutations in lexicographic order.  Each priced site becomes,
    once, vectors over its edges' permutations, charged at its later
    edge's level: a split site a cost vector, a pair site its two edges'
    indicator vectors, firing where they compare as its rule says.  A
    level prices all its permutations in one vector expression; a branch
    is cut once its cost plus every later level's least split cost
    reaches the best found.  That bound is admissible, so the first
    optimum found is the lexicographically smallest, as in brute_force."""
    order = [eid for eid in sorted(g.edges) if len(g.edges[eid].lines) > 1]
    level_of = {eid: i for i, eid in enumerate(order)}
    cols, split_cost = {}, []
    for eid in order:
        lines = sorted(g.edges[eid].lines)
        # Lexicographic rows of line indices; argsort gives line positions.
        pos = np.argsort(list(itertools.permutations(range(len(lines)))),
                         axis=1) + 1
        cols[eid] = {line: pos[:, k] for k, line in enumerate(lines)}
        split_cost.append(np.zeros(len(pos)))
    for s in sites.split:
        split_cost[level_of[s.edge]] += s.weight * _fires_split(g, s, cols)
    rules = [(s, *_CONTINUATION) for s in sites.same_cont]
    if include_separation:
        rules += [(s, *_SEPARATION) for s in sites.separation]
    # Per level: weights, the later edge's indicator rows, and per row
    # the earlier edge's level and indicator, negated if the rule fires on
    # equal sides, so a row fires where it differs from that at the pick.
    charged = [([], [], []) for _ in order]
    for s, indicator, fires_on_equal in rules:
        first, last = sorted((s.edge_a, s.edge_b), key=level_of.get)
        weights, rows, earlier = charged[level_of[last]]
        weights.append(s.weight)
        rows.append(indicator(g, s, last, cols[last]))
        earlier.append((level_of[first],
                        indicator(g, s, first, cols[first]) != fires_on_equal))
    charged = [(np.array(w), np.array(r), e) for w, r, e in charged]
    least = [cost.min() for cost in split_cost]
    rest = np.cumsum([0.0] + least[::-1])[::-1].tolist()
    picks = [0] * len(order)
    best = [np.inf, None]

    def dfs(level: int, cur: float) -> None:
        if level == len(order):
            best[:] = cur, picks[:]
            return
        weights, rows, earlier = charged[level]
        cost = split_cost[level]
        if earlier:
            target = np.array([vec[picks[lv]] for lv, vec in earlier])
            cost = cost + weights @ (rows != target[:, None])
        for i, c in enumerate(cost.tolist()):
            if cur + c + rest[level + 1] < best[0]:
                picks[level] = i
                dfs(level + 1, cur + c)

    dfs(0, 0.0)
    final = {eid: e.lines for eid, e in g.edges.items()}
    for eid, pick in zip(order, best[1]):
        final[eid] = tuple(sorted(cols[eid],
                                  key=lambda line: cols[eid][line][pick]))
    return Ordering(final), float(best[0])


# ── external bridge ─────────────────────────────────────────────────

def _run_external(model, command: str, timeout: float | None) -> dict[str, float]:
    """Invoke `<command> <model.lp> <solution.out>`; the solution file is
    one `name value` pair per line.  Exit code 2 means the model is
    infeasible; any other nonzero exit is a solver failure."""
    with tempfile.TemporaryDirectory(prefix="transitmap-") as tmp:
        lp_path = Path(tmp) / "model.lp"
        out_path = Path(tmp) / "solution.out"
        write_lp(model, lp_path)
        argv = shlex.split(command) + [str(lp_path), str(out_path)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  timeout=timeout)
        except FileNotFoundError as exc:
            raise SolverFailure(f"solver command not found: {exc}") from exc
        except subprocess.TimeoutExpired as exc:
            raise SolverFailure(
                f"solver timed out after {timeout} seconds") from exc
        if proc.returncode == 2:
            raise Infeasible(
                "solver reported an infeasible model; this signals a bug "
                "in model construction")
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout or "").strip()[-500:]
            raise SolverFailure(
                f"solver exited with code {proc.returncode}: {tail}")
        if not out_path.exists():
            raise SolverFailure("solver produced no solution file")
        assignment: dict[str, float] = {}
        for lineno, raw in enumerate(out_path.read_text().splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SolverFailure(
                    f"solution line {lineno} is not a name-value pair: {raw!r}")
            try:
                value = float(parts[1])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise SolverFailure(
                    f"solution line {lineno} has no finite value: {raw!r}")
            assignment[parts[0]] = value
    return assignment


def _model_objective(model, assignment: dict[str, float]) -> float:
    return sum(v.objective * assignment.get(name, 0.0)
               for name, v in model.variables.items())


# ── solving ─────────────────────────────────────────────────────────

def solve(g: LineGraph, variant: str, w: WeightPolicy,
          backend: str = "builtin", timeout: float | None = None,
          sites: EventSites | None = None, model: IlpModel | None = None,
          ) -> tuple[Ordering, ObjectiveBreakdown]:
    """Find an ordering minimizing the variant's objective (crossings
    for B and I, crossings plus separations for S) and return it with
    the evaluator's breakdown.  The solver's claimed objective is always
    cross-checked against the evaluator.

    sites and model, when given, must be compile_event_sites(g, w) and
    the variant's model built on them; they are compiled and built here
    otherwise, the model only for an external backend."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{', '.join(VARIANTS)}")
    if sites is None:
        sites = compile_event_sites(g, w)
    include_separation = variant == "S"
    priced_sites = (sites.same_cont or sites.split
                    or (include_separation and sites.separation))
    if not priced_sites:
        # Nothing can cost anything, so the lexicographic identity wins
        # without invoking any backend.
        ordering = identity_ordering(g)
        return ordering, evaluate(g, ordering, w, sites)

    if backend == "builtin":
        ordering, claimed = _branch_and_bound(g, sites, include_separation)
    else:
        if model is None:
            model = _BUILDERS[variant](g, w, sites)
        assignment = _run_external(model, backend, timeout)
        ordering = extract_ordering(model, assignment)
        claimed = _model_objective(model, assignment)

    breakdown = evaluate(g, ordering, w, sites)
    achieved = breakdown.objective(include_separation=include_separation)
    if abs(claimed - achieved) > 1e-6:
        raise ObjectiveMismatch(
            f"solver objective {claimed} disagrees with evaluator "
            f"objective {achieved}; orientation conventions are out of sync")
    return ordering, breakdown


# ── full pipeline ───────────────────────────────────────────────────

@dataclass(frozen=True)
class PipelineResult:
    """An optimized ordering of the whole graph with the evaluator's
    breakdown of it, the size of the reduced core, and the variant's
    model size summed over the core's components."""

    ordering: Ordering
    breakdown: ObjectiveBreakdown
    core_nodes: int
    core_edges: int
    components: int
    model_rows: int
    model_cols: int


def optimize_pipeline(g: LineGraph, variant: str, w: WeightPolicy,
                      backend: str = "builtin",
                      timeout: float | None = None) -> PipelineResult:
    """Reduce g to its core, solve each split component concurrently,
    and unfold the results into an ordering of g, returned with its
    breakdown and the core and model sizes.

    Bundle collapse stays off for the separation-aware variant: a
    collapsed block hides which member line faces an outside neighbor,
    so separation events would be priced wrong.  The unfolded ordering
    is re-priced on g and must match the summed component objectives."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{', '.join(VARIANTS)}")
    include_separation = variant == "S"
    core, reduction = prune(g, w, collapse_bundles=not include_separation)
    components = split_components(core, reduction)
    # Each component's sites and model are made once: the models give
    # the model size, and solve reuses both.
    sites = [compile_event_sites(comp, w) for comp in components]
    models = [_BUILDERS[variant](comp, w, s)
              for comp, s in zip(components, sites)]
    rows = sum(model_dims(m)[0] for m in models)
    cols = sum(model_dims(m)[1] for m in models)
    results: list[tuple[Ordering, ObjectiveBreakdown]] = []
    if components:
        with ThreadPoolExecutor(max_workers=min(8, len(components))) as pool:
            results = list(pool.map(
                lambda comp, s, m: solve(comp, variant, w, backend=backend,
                                         timeout=timeout, sites=s, model=m),
                components, sites, models))
    ordering = unfold([o for o, _ in results], reduction, g)
    claimed = sum(b.objective(include_separation=include_separation)
                  for _, b in results)
    breakdown = evaluate(g, ordering, w)
    achieved = breakdown.objective(include_separation=include_separation)
    if abs(claimed - achieved) > 1e-6:
        raise ObjectiveMismatch(
            f"unfolded objective {achieved} disagrees with the summed "
            f"component objectives {claimed}; the reduction lost events")
    return PipelineResult(
        ordering=ordering, breakdown=breakdown,
        core_nodes=len(core.nodes), core_edges=len(core.edges),
        components=len(components), model_rows=rows, model_cols=cols)
