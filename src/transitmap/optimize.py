"""Solving layer: objective evaluation, one compiled objective read by
two exact searches (exhaustive and a built-in branch-and-bound), and a
bridge to external MILP solvers.  A pipeline run solves its whole core
in one solver call: one search, or one external solver process.

All solvers share one source of truth for event semantics: the event
sites compiled by ilp_model and the arrival-indicator convention defined
there.  Every ordering a solver returns is re-priced by the evaluator;
any disagreement raises ObjectiveMismatch instead of returning silently
wrong results.
"""

from __future__ import annotations

import itertools
import math
import shlex
import subprocess
import tempfile
import time
# unused by the package: perfbench/tracing.py patches it by name
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
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


def evaluate(g: LineGraph, o: Ordering, w: WeightPolicy,
             sites: EventSites | None = None) -> ObjectiveBreakdown:
    """Count and price every event realized by the ordering."""
    o.validate_for(g)
    if sites is None:
        sites = compile_event_sites(g, w)
    pos = o.positions()
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


# ── compiled objective ──────────────────────────────────────────────

# Objective values closer than this tie, and ties go to the first
# ordering in lexicographic order: the searches add weights in
# different orders, so equal sums may differ in their last bits.
_TIE = 1e-9


def _factors(g: LineGraph, sites: EventSites, include_separation: bool):
    """The objective as factors over per-edge permutations, read by both
    exact searches.  Returns the multi-line edges in id order, each as a
    position column per line over its permutations in lexicographic
    order; one split-cost vector per such edge; and one (weight, earlier
    level, its indicator negated where the site fires on equal sides,
    later level, its indicator) tuple per priced pair site, which fires
    where its two indicators differ.  A level indexes the edges in id
    order."""
    cols = {}
    for eid in sorted(g.edges):
        lines = sorted(g.edges[eid].lines)
        if len(lines) > 1:
            # Lexicographic rows of line indices; argsort gives positions.
            pos = np.argsort(list(itertools.permutations(range(len(lines)))),
                             axis=1) + 1
            cols[eid] = {line: pos[:, k] for k, line in enumerate(lines)}
    level_of = {eid: i for i, eid in enumerate(cols)}
    split_cost = [np.zeros(math.factorial(len(col))) for col in cols.values()]
    for s in sites.split:
        split_cost[level_of[s.edge]] += s.weight * _fires_split(g, s, cols)
    rules = [(s, *_CONTINUATION) for s in sites.same_cont]
    if include_separation:
        rules += [(s, *_SEPARATION) for s in sites.separation]
    pairs = []
    for s, indicator, fires_on_equal in rules:
        first, last = sorted((s.edge_a, s.edge_b), key=level_of.get)
        pairs.append((s.weight, level_of[first],
                      indicator(g, s, first, cols[first]) != fires_on_equal,
                      level_of[last], indicator(g, s, last, cols[last])))
    return cols, split_cost, pairs


def _decode(g: LineGraph, cols, picks) -> Ordering:
    """The ordering taking permutation picks[k] on level k of cols;
    single-line edges keep their line."""
    final = {eid: e.lines for eid, e in g.edges.items()}
    for (eid, col), pick in zip(cols.items(), picks):
        final[eid] = tuple(sorted(col, key=lambda line: col[line][pick]))
    return Ordering(final)


def _cost_tensor(split_cost, pairs) -> np.ndarray:
    """The dense sum of the factors: one axis per level, one cell per
    ordering."""
    axes = np.ix_(*(np.arange(len(vec)) for vec in split_cost))
    cost = np.zeros([len(vec) for vec in split_cost])
    for vec, at in zip(split_cost, axes):
        cost += vec[at]
    for weight, first, earlier, last, later in pairs:
        cost += weight * (earlier[axes[first]] != later[axes[last]])
    return cost


def _checked(g: LineGraph, ordering: Ordering, w: WeightPolicy,
             sites: EventSites, include_separation: bool,
             claimed: float) -> ObjectiveBreakdown:
    """The evaluator's breakdown of ordering, which must price it at the
    objective the search claimed."""
    breakdown = evaluate(g, ordering, w, sites)
    achieved = breakdown.objective(include_separation=include_separation)
    if abs(claimed - achieved) > 1e-6:
        raise ObjectiveMismatch(
            f"solver objective {claimed} disagrees with evaluator "
            f"objective {achieved}; orientation conventions are out of sync")
    return breakdown


# ── exhaustive search ───────────────────────────────────────────────

def brute_force(g: LineGraph, w: WeightPolicy, budget: int = 10_000_000,
                include_separation: bool = True,
                sites: EventSites | None = None,
                ) -> tuple[Ordering, ObjectiveBreakdown]:
    """Global minimum over the full product of per-edge permutations,
    evaluated as one cost tensor; the first ordering in lexicographic
    order within _TIE of the minimum wins.  The budget is checked before
    anything is built."""
    if math.prod(math.factorial(len(e.lines))
                 for e in g.edges.values()) > budget:
        raise BudgetExceeded(
            f"ordering space exceeds the enumeration budget of {budget}")
    if sites is None:
        sites = compile_event_sites(g, w)
    cols, split_cost, pairs = _factors(g, sites, include_separation)
    cost = _cost_tensor(split_cost, pairs)
    picks = np.unravel_index(int(np.argmax(cost <= cost.min() + _TIE)),
                             cost.shape)
    ordering = _decode(g, cols, picks)
    return ordering, _checked(g, ordering, w, sites, include_separation,
                              float(cost[picks]))


# ── built-in branch and bound ───────────────────────────────────────

def _branch_and_bound(g: LineGraph, sites: EventSites,
                      include_separation: bool,
                      timeout: float | None = None) -> tuple[Ordering, float]:
    """Depth-first search over the levels of _factors, one group of
    levels at a time.  A group is a class of the levels that priced pair
    sites link, so the optima are a product of the groups' optima, and
    the lexicographically smallest one is that of each group; a level
    linked to none is a group of its own.  Within a group, edges go in
    id order and permutations in lexicographic order.  A pair site is
    charged at its later edge's level.  A level prices all its
    permutations in one vector expression; a branch is cut once its
    cost plus every later level's least split cost in the group comes
    within _TIE of the best found.  That bound is admissible, so the
    first optimum found is the lexicographically smallest, as in
    brute_force.  Past timeout seconds the search fails."""
    cols, split_cost, pairs = _factors(g, sites, include_separation)
    # Per level: weights, the later edge's indicator rows, and per row
    # the earlier edge's level and indicator, so a row fires where it
    # differs from that at the pick.
    charged = [([], [], []) for _ in cols]
    group = list(range(len(cols)))

    def find(lv: int) -> int:
        while group[lv] != lv:
            lv = group[lv]
        return lv

    for weight, first, earlier, last, later in pairs:
        weights, rows, prior = charged[last]
        weights.append(weight)
        rows.append(later)
        prior.append((first, earlier))
        group[find(last)] = find(first)
    charged = [(np.array(w), np.array(r), e) for w, r, e in charged]
    groups: dict[int, list[int]] = {}
    for lv in range(len(cols)):
        groups.setdefault(find(lv), []).append(lv)
    least = [float(cost.min()) for cost in split_cost]
    picks = [0] * len(cols)
    total = 0.0
    deadline = None if timeout is None else time.monotonic() + timeout

    def dfs(search, rest, best, k: int, cur: float) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise SolverFailure(f"solver timed out after {timeout} seconds")
        if k == len(search):
            best[:] = cur, picks[:]
            return
        level = search[k]
        weights, rows, earlier = charged[level]
        cost = split_cost[level]
        if earlier:
            target = np.array([vec[picks[lv]] for lv, vec in earlier])
            cost = cost + weights @ (rows != target[:, None])
        for i, c in enumerate(cost.tolist()):
            if cur + c + rest[k + 1] < best[0] - _TIE:
                picks[level] = i
                dfs(search, rest, best, k + 1, cur + c)

    for search in groups.values():
        rest = np.cumsum([0.0] + [least[lv] for lv in search[::-1]])[::-1].tolist()
        best = [np.inf, None]
        dfs(search, rest, best, 0, 0.0)
        total += best[0]
        picks[:] = best[1]
    return _decode(g, cols, picks), total


# ── external bridge ─────────────────────────────────────────────────

def _run_external(model, command: str, timeout: float | None) -> dict[str, float]:
    """Invoke `<command> <model.lp> <solution.out>`; the solution file is
    one `name value` pair per line, in UTF-8.  Exit code 2 means the model
    is infeasible; any other nonzero exit, a command that cannot be
    started, running past timeout seconds and an unreadable solution are
    solver failures.

    A pipeline run makes one such call for its whole core, so it starts
    at most one solver process.  On timeout only the started process is
    killed, not processes it started in turn: a wrapper script should
    `exec` its solver, or the solver keeps running after the failure."""
    with tempfile.TemporaryDirectory(prefix="transitmap-") as tmp:
        lp_path = Path(tmp) / "model.lp"
        out_path = Path(tmp) / "solution.out"
        write_lp(model, lp_path)
        argv = shlex.split(command) + [str(lp_path), str(out_path)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True,
                                  errors="replace", timeout=timeout)
        except FileNotFoundError as exc:
            raise SolverFailure(f"solver command not found: {exc}") from exc
        except PermissionError as exc:
            raise SolverFailure(f"solver command not executable: {exc}") from exc
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
        try:
            text = out_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise SolverFailure(f"solution file is not UTF-8: {exc}") from exc
        assignment: dict[str, float] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
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
        ordering, claimed = _branch_and_bound(g, sites, include_separation,
                                              timeout)
    else:
        if model is None:
            model = _BUILDERS[variant](g, w, sites)
        assignment = _run_external(model, backend, timeout)
        ordering = extract_ordering(model, assignment)
        claimed = _model_objective(model, assignment)
    return ordering, _checked(g, ordering, w, sites, include_separation,
                              claimed)


# ── full pipeline ───────────────────────────────────────────────────

@dataclass(frozen=True)
class PipelineResult:
    """An optimized ordering of the whole graph with the evaluator's
    breakdown of it, the size of the reduced core, its component count,
    and the size of the variant's model of the core."""

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
    """Reduce g to its core, solve the core in one solve call, and
    unfold the result into an ordering of g, returned with its breakdown
    and the core and model sizes.  The core is split into components
    only to count them.

    Bundle collapse stays off for the separation-aware variant: a
    collapsed block hides which member line faces an outside neighbor,
    so separation events would be priced wrong.  The unfolded ordering
    is re-priced on g and must match the objective solved on the core."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of "
                         f"{', '.join(VARIANTS)}")
    include_separation = variant == "S"
    core, reduction = prune(g, w, collapse_bundles=not include_separation)
    sites = compile_event_sites(core, w)
    model = _BUILDERS[variant](core, w, sites)
    rows, cols = model_dims(model)
    solved, core_breakdown = solve(core, variant, w, backend=backend,
                                   timeout=timeout, sites=sites, model=model)
    ordering = unfold(solved, reduction, g)
    claimed = core_breakdown.objective(include_separation=include_separation)
    breakdown = evaluate(g, ordering, w)
    achieved = breakdown.objective(include_separation=include_separation)
    if abs(claimed - achieved) > 1e-6:
        raise ObjectiveMismatch(
            f"unfolded objective {achieved} disagrees with the solved "
            f"core objective {claimed}; the reduction lost events")
    return PipelineResult(
        ordering=ordering, breakdown=breakdown,
        core_nodes=len(core.nodes), core_edges=len(core.edges),
        components=len(split_components(core)), model_rows=rows,
        model_cols=cols)
