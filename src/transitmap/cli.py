"""Command-line pipeline orchestration.

Subcommands compose the library stages and exchange inspectable JSON
artifacts: `extract` turns a GTFS feed into a line-graph JSON file,
`optimize` computes per-edge line orderings for a line-graph file,
`render` draws orderings as an SVG map, and `full` chains all three.

Every subcommand is a pure function of its inputs and configuration:
identical inputs produce identical artifacts, exit codes, and bytes.
Settings come from CLI flags, then a JSON config file (--config), then
built-in defaults; the external solver may also be supplied through
the TRANSITMAP_SOLVER environment variable, which ranks between the
config file and the defaults.

Exit codes map error classes: 0 success, 2 usage errors, 3 missing
input files, 4 schema or format violations, 5 precondition and
geometry failures, 6 solver failures, 7 other I/O errors, 1 anything
unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

from .errors import (
    BudgetExceeded,
    DanglingReference,
    DegenerateSegment,
    ImplausibleEdge,
    IncompleteSolution,
    Infeasible,
    InfeasibleAssignment,
    MalformedOrdering,
    MalformedRow,
    MissingFile,
    NonTermination,
    ObjectiveMismatch,
    PreconditionViolated,
    ProjectionFailure,
    SchemaViolation,
    ShapeMismatch,
    SolverFailure,
    TransitMapError,
)
from .gtfs import build_raw_network, load_feed
from .ilp_model import Ordering, WeightPolicy
from .line_graph import (
    LineGraph,
    construct_line_graph,
    load_line_graph,
    save_line_graph,
)
from .optimize import VARIANTS, PipelineResult, optimize_pipeline
from .render_svg import RenderStyle, render_map

__all__ = ["PipelineConfig", "main"]

SOLVER_ENV = "TRANSITMAP_SOLVER"
_SHOWN_DIAGNOSTICS = 5

_EXIT_BY_ERROR: tuple[tuple[type, int], ...] = (
    (MissingFile, 3),
    ((SchemaViolation, MalformedRow, MalformedOrdering, DanglingReference,
      ShapeMismatch), 4),
    ((PreconditionViolated, DegenerateSegment, ProjectionFailure,
      ImplausibleEdge), 5),
    ((SolverFailure, Infeasible, InfeasibleAssignment, NonTermination,
      BudgetExceeded, ObjectiveMismatch, IncompleteSolution), 6),
)


def _check_positive(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Real):
        raise SchemaViolation(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and value > 0):
        raise PreconditionViolated(
            f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline settings shared by all subcommands.  Every field is
    checked against the preconditions of the module that consumes it
    before any stage runs."""

    snap_tol: float = 100.0
    d_hat: float = 25.0
    sweep_step: float = 5.0
    k: int = 2
    min_seg_len: float = 50.0
    route_types: tuple[int, ...] = (0, 1, 2)
    cross_same: float = 4.0
    cross_split: float = 1.0
    separation: float = 3.0
    hub_cross_same: float = 12.0
    hub_cross_split: float = 3.0
    hub_separation: float = 3.0
    variant: str = "I"
    solver: str = "builtin"
    time_limit: float | None = None
    line_width: float = 4.0
    curve: str = "cubic-curve"
    buffer_radius: float | None = None
    max_expansion: float | None = None

    def __post_init__(self) -> None:
        # A value of the wrong type is a schema violation (exit 4); a
        # number of the right type out of range, NaN and infinities
        # included, violates a precondition (exit 5).
        for name in ("snap_tol", "d_hat", "sweep_step", "min_seg_len",
                     "cross_same", "cross_split", "separation",
                     "hub_cross_same", "hub_cross_split", "hub_separation",
                     "line_width"):
            _check_positive(name, getattr(self, name))
        for name in ("time_limit", "buffer_radius", "max_expansion"):
            if getattr(self, name) is not None:
                _check_positive(name, getattr(self, name))
        if isinstance(self.k, bool) or not isinstance(self.k, Integral):
            raise SchemaViolation(f"k must be an integer, got {self.k!r}")
        if self.k < 1:
            raise PreconditionViolated("k must be at least 1")
        if not (isinstance(self.route_types, tuple) and all(
                isinstance(v, Integral) and not isinstance(v, bool)
                for v in self.route_types)):
            raise SchemaViolation(
                f"route_types must be a list of integers, got "
                f"{self.route_types!r}")
        if self.variant not in VARIANTS:
            raise SchemaViolation(
                f"unknown variant {self.variant!r}; expected B, I, or S")
        if not isinstance(self.solver, str) or (
                self.solver != "builtin" and not self.solver.startswith("ext:")):
            raise SchemaViolation(
                f"unknown solver {self.solver!r}; expected 'builtin' or "
                "'ext:<command>'")
        if self.solver.startswith("ext:") and not self.solver[4:].strip():
            raise SchemaViolation("empty external solver command")
        self.render_style()  # validates the curve kind

    def backend(self) -> str:
        if self.solver == "builtin":
            return "builtin"
        return self.solver[4:].strip()

    def weight_policy(self, g: LineGraph) -> WeightPolicy:
        return WeightPolicy.from_graph(
            g, cross_same=self.cross_same, cross_split=self.cross_split,
            separation=self.separation, hub_cross_same=self.hub_cross_same,
            hub_cross_split=self.hub_cross_split,
            hub_separation=self.hub_separation)

    def render_style(self) -> RenderStyle:
        return RenderStyle(line_width=self.line_width, curve=self.curve,
                           buffer_radius=self.buffer_radius,
                           max_expansion=self.max_expansion)


_CONFIG_FIELDS = {f.name for f in fields(PipelineConfig)}


def _read_json(path, what: str):
    """The JSON value in the file at path.  A file that is not UTF-8
    JSON, or that nests too deep to parse, is a schema violation; a
    missing file stays a FileNotFoundError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaViolation(f"{what} {path} is not valid JSON: {exc}") from exc


def _load_config_file(path: Path) -> dict:
    raw = _read_json(path, "config file")
    if not isinstance(raw, dict):
        raise SchemaViolation(f"config file {path} must hold a JSON object")
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise SchemaViolation(
            f"unknown config keys: {', '.join(sorted(unknown))}")
    if isinstance(raw.get("route_types"), list):
        raw["route_types"] = tuple(raw["route_types"])
    return raw


def _assemble_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then config file, then environment solver, then CLI
    flags; later sources win, except the environment variable which
    only applies when neither the file nor a flag names a solver."""
    values: dict = {}
    if args.config is not None:
        values.update(_load_config_file(Path(args.config)))
    env_solver = os.environ.get(SOLVER_ENV)
    if env_solver and "solver" not in values:
        values["solver"] = env_solver
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    return PipelineConfig(**values)


# ── subcommands ─────────────────────────────────────────────────────


def _extract_graph(gtfs_dir: str, cfg: PipelineConfig) -> LineGraph:
    """The line graph of the feed.  The count of feed rows rejected, and
    the first _SHOWN_DIAGNOSTICS of their diagnostics, go to stderr."""
    feed = load_feed(gtfs_dir)
    print(f"feed: {len(feed.diagnostics)} rows rejected", file=sys.stderr)
    for line in feed.diagnostics[:_SHOWN_DIAGNOSTICS]:
        print(f"  {line}", file=sys.stderr)
    raw = build_raw_network(feed, snap_tol=cfg.snap_tol,
                            route_types=cfg.route_types)
    return construct_line_graph(raw, d_hat=cfg.d_hat,
                                sweep_step=cfg.sweep_step, k=cfg.k,
                                min_seg_len=cfg.min_seg_len)


def _dims_line(g: LineGraph) -> str:
    return (f"{g.station_count()} | {len(g.nodes)} | {len(g.edges)} | "
            f"{len(g.lines)} | {g.max_lines_per_edge}")


def cmd_extract(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    t0 = time.perf_counter()
    g = _extract_graph(args.gtfs_dir, cfg)
    save_line_graph(g, args.out)
    print(_dims_line(g))
    print(f"extracted in {time.perf_counter() - t0:.2f} s")
    return 0


def _optimize_graph(g: LineGraph, cfg: PipelineConfig) -> PipelineResult:
    return optimize_pipeline(g, cfg.variant, cfg.weight_policy(g),
                             backend=cfg.backend(), timeout=cfg.time_limit)


def _summary(result: PipelineResult, cfg: PipelineConfig) -> str:
    return (
        f"core: {result.core_nodes} nodes, {result.core_edges} edges, "
        f"{result.components} components\n"
        f"model: {result.model_rows} rows x {result.model_cols} cols "
        f"(variant {cfg.variant})\n"
        f"crossings: {result.breakdown.crossing_count}, "
        f"separations: {result.breakdown.separation_count}")


def _write_ordering(result: PipelineResult, path) -> None:
    payload = {"orderings": result.ordering.to_dict(),
               "objective": result.breakdown.to_dict()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_optimize(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    result = _optimize_graph(load_line_graph(args.graph), cfg)
    _write_ordering(result, args.out)
    print(_summary(result, cfg))
    return 0


def _read_ordering(path) -> Ordering:
    raw = _read_json(path, "ordering file")
    if not isinstance(raw, dict):
        raise SchemaViolation(f"ordering file {path} must hold a JSON object")
    table = raw.get("orderings", raw)
    if not isinstance(table, dict):
        raise SchemaViolation(f"ordering file {path}: 'orderings' must map "
                              "edge ids to line sequences")
    for eid, lines in table.items():
        if not (isinstance(lines, list)
                and all(isinstance(line, str) for line in lines)):
            raise SchemaViolation(f"ordering file {path}: edge {eid!r} must "
                                  "map to a list of line ids")
    return Ordering({eid: tuple(lines) for eid, lines in table.items()})


def cmd_render(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    g = load_line_graph(args.graph)
    ordering = _read_ordering(args.ordering)
    doc = render_map(g, ordering, cfg.render_style(), out=args.out)
    print(f"wrote {args.out} ({len(doc)} bytes)")
    return 0


def cmd_full(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    t0 = time.perf_counter()
    g = _extract_graph(args.gtfs_dir, cfg)
    t1 = time.perf_counter()
    print(f"extract: {t1 - t0:.2f} s ({_dims_line(g)})")
    result = _optimize_graph(g, cfg)
    t2 = time.perf_counter()
    print(f"optimize: {t2 - t1:.2f} s")
    print(_summary(result, cfg))
    render_map(g, result.ordering, cfg.render_style(), out=args.out)
    t3 = time.perf_counter()
    print(f"render: {t3 - t2:.2f} s")
    print(f"total: {t3 - t0:.2f} s")
    return 0


# ── argument parsing and dispatch ───────────────────────────────────


def _route_types_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"route types must be comma-separated integers, got {text!r}")


def _shared_flags() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="FILE",
                        help="JSON file with PipelineConfig fields")
    shared.add_argument("--d-hat", dest="d_hat", type=float,
                        help="shared-segment distance threshold in meters")
    shared.add_argument("--snap-tol", dest="snap_tol", type=float,
                        help="station snapping tolerance in meters")
    shared.add_argument("--sweep-step", dest="sweep_step", type=float,
                        help="sweep sampling step in meters")
    shared.add_argument("--min-seg-len", dest="min_seg_len", type=float,
                        help="minimum shared-segment length in meters")
    shared.add_argument("--route-types", dest="route_types",
                        type=_route_types_arg,
                        help="comma-separated GTFS route types to keep")
    shared.add_argument("--variant", choices=VARIANTS,
                        help="ordering model: B baseline, I improved, "
                        "S improved with separation penalties")
    shared.add_argument("--solver",
                        help="'builtin' or 'ext:<command>' taking an LP file "
                        "and a solution path")
    shared.add_argument("--time-limit", dest="time_limit", type=float,
                        metavar="SECONDS",
                        help="seconds each solver call may run before the "
                        "run fails with exit 6 (default: no limit)")
    shared.add_argument("--line-width", dest="line_width", type=float,
                        help="rendered line width in meters")
    shared.add_argument("--curve",
                        choices=("cubic-curve", "arc", "straight"),
                        help="inner connection curve kind")
    shared.add_argument("--seed", type=int, default=None,
                        help="accepted for interface stability; every stage "
                        "is deterministic, so the value is ignored")
    return shared


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transitmap",
        description="Geographically accurate transit maps from GTFS feeds")
    shared = _shared_flags()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[shared],
                       help="GTFS feed directory to line-graph JSON")
    p.add_argument("gtfs_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("optimize", parents=[shared],
                       help="line-graph JSON to line-ordering JSON")
    p.add_argument("graph")
    p.add_argument("out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("render", parents=[shared],
                       help="line graph plus ordering to SVG map")
    p.add_argument("graph")
    p.add_argument("ordering")
    p.add_argument("out")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("full", parents=[shared],
                       help="GTFS feed directory to SVG map")
    p.add_argument("gtfs_dir")
    p.add_argument("out")
    p.set_defaults(func=cmd_full)
    return parser


def _exit_code_for(exc: Exception) -> int:
    for types, code in _EXIT_BY_ERROR:
        if isinstance(exc, types):
            return code
    if isinstance(exc, FileNotFoundError):
        return 3
    if isinstance(exc, OSError):
        return 7
    return 1


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _assemble_config(args)
        return args.func(args, cfg)
    except (TransitMapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
