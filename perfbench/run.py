"""Benchmark of the transitmap CLI: extract -> optimize -> render.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-full-I --seed 1 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary
    python3 perfbench/run.py --self-test         # fast check of the harness

One client in a closed loop: one process and one thread call
`transitmap.cli.main` in process, each command only after the previous
one returned, and passes repeat while the next one is expected to end
within `--seconds` (at least two passes, so that every pass can be
compared with the first).  Every call is timed from outside and its
output checked.  `--trace 1` instead alternates untraced and traced
passes and reports per-layer figures recorded around the package's
public functions (see tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Artifacts, spans and the
full result go to `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 7
MIN_PASSES = 2
STAGES = ("extract", "optimize", "render")


def _require_checkout() -> None:
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "transitmap" / "cli.py", TESTS / "synth.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a transitmap checkout, missing "
              f"{', '.join(missing)} under {ROOT}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    # the bundled solver runs as `python -m transitmap.lp_solve`; the
    # package is not installed, so its children need src on the path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(
            os.pathsep) if p])


def load_metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


# ── measuring ───────────────────────────────────────────────────────


def setup_sample() -> float:
    """Wall time for a fresh interpreter to import the CLI."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import transitmap.cli"],
                   check=True)
    return time.perf_counter() - t0


def _sha(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.is_file() else None


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


class Run:
    """Passes of one workload, with their timings and check results."""

    def __init__(self, wl, feed: Path, work: Path, tracer=None) -> None:
        self.wl, self.feed, self.work = wl, feed, work
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.traced: list[dict] = []
        self.traced_pipeline: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.first_hashes: dict[str, str | None] | None = None
        self.objectives: list[float] = []

    def fail(self, pass_no: int, stage: str, why: str) -> None:
        self.failures.append(f"pass {pass_no} {stage}: {why}")

    def one_pass(self, traced: bool, after_call=None) -> None:
        from transitmap.cli import main
        from tracing import instrument, layer_metrics

        pass_no = len(self.samples.get("pipeline_s", [])) \
            + len(self.traced_pipeline) + 1
        if self.tracer is not None:
            self.tracer.run = pass_no
        times: list[tuple[str, float]] = []
        outputs: dict[str, str] = {}
        ok: dict[str, bool] = {}
        with instrument(self.tracer) if traced else nullcontext():
            for stage, argv in self.wl.commands(self.feed, self.work):
                out, err = io.StringIO(), io.StringIO()
                gc.collect()  # start on a clean heap, as a CLI process does
                cpu0 = os.times()
                with (self.tracer.span(f"cli.{stage}") if traced
                      else nullcontext({})) as attrs:
                    t0 = time.perf_counter()
                    with redirect_stdout(out), redirect_stderr(err):
                        try:
                            code = main(argv)
                        except Exception:  # a crash is a failed call
                            traceback.print_exc(file=err)
                            code = "exception"
                    times.append((stage, time.perf_counter() - t0))
                cpu1 = os.times()
                # os.times() counts in clock ticks; rounding drops float noise
                attrs["child_cpu_s"] = round(
                    cpu1.children_user + cpu1.children_system
                    - cpu0.children_user - cpu0.children_system, 2)
                attrs["child_peak_rss_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
                self.attempted += 1
                outputs[stage] = out.getvalue()
                ok[stage] = code == 0
                if after_call is not None:
                    after_call()
                if code != 0:
                    self.fail(pass_no, stage, f"exit {code}: "
                              f"{err.getvalue().strip()[-300:]}")
                    break
        self._check(pass_no, outputs, ok)
        pipeline = sum(t for _, t in times)
        if traced:
            run_spans = [s for s in self.tracer.spans if s.run == pass_no]
            counts = {k[1]: v for k, v in self.tracer.counts.items()
                      if k[0] == pass_no}
            self.traced.append(layer_metrics(run_spans, counts))
            self.traced_pipeline.append(pipeline)
            return
        for stage, t in times:
            self.samples.setdefault(f"{stage}_s", []).append(t)
        self.samples.setdefault("pipeline_s", []).append(pipeline)

    def _check(self, pass_no: int, outputs: dict[str, str],
               ok: dict[str, bool]) -> None:
        """Check one pass's artifacts; a failed check counts against the
        command that wrote the artifact, once per command."""
        wl, work = self.wl, self.work
        graph, ordering, svg = (work / "graph.json", work / "ordering.json",
                                work / "map.svg")
        bad: dict[str, str] = {}

        if ok.get("extract"):
            dims = outputs["extract"].splitlines()[0]
            if dims != _dims_of(graph):
                bad["extract"] = f"dims line {dims!r} does not match the graph"
            elif dims != wl.dims:
                bad["extract"] = f"dims {dims!r}, pinned {wl.dims!r}"
        if ok.get("optimize"):
            why = _check_ordering(graph, ordering)
            objective = json.loads(ordering.read_text())["objective"]
            value = objective["weighted_total" if wl.variant == "S"
                              else "weighted_crossings"]
            self.objectives.append(value)
            if why:
                bad["optimize"] = why
            elif (value != wl.objective
                  or objective["crossings"] != wl.crossings):
                bad["optimize"] = (
                    f"objective {value} with {objective['crossings']} "
                    f"crossings, pinned {wl.objective} with "
                    f"{wl.crossings}")
        if ok.get("render"):
            text = svg.read_text(encoding="utf-8")
            size = len(text.encode("utf-8"))
            if not text.startswith("<svg") or f"({size} bytes)" \
                    not in outputs["render"]:
                bad["render"] = "SVG missing or its size not as reported"

        hashes = {"extract": _sha(graph), "optimize": _sha(ordering),
                  "render": _sha(svg)}
        if self.first_hashes is None:
            self.first_hashes = hashes
        else:
            for stage, digest in hashes.items():
                if ok.get(stage) and digest != self.first_hashes[stage]:
                    bad.setdefault(stage, "artifact bytes differ from pass 1")
        for stage, why in bad.items():
            self.fail(pass_no, stage, why)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _dims_of(graph_path: Path) -> str:
    """The `extract` dims line recomputed from the written graph."""
    g = json.loads(graph_path.read_text(encoding="utf-8"))
    stations = sum(1 for n in g["nodes"] if n["kind"] == "station")
    max_lines = max((len(e["lines"]) for e in g["edges"]), default=0)
    return (f"{stations} | {len(g['nodes'])} | {len(g['edges'])} | "
            f"{len(g['lines'])} | {max_lines}")


def _check_ordering(graph_path: Path, ordering_path: Path) -> str | None:
    edges = {e["id"]: e["lines"] for e in
             json.loads(graph_path.read_text(encoding="utf-8"))["edges"]}
    table = json.loads(ordering_path.read_text(encoding="utf-8"))["orderings"]
    if set(table) != set(edges):
        return "ordering does not cover exactly the graph's edges"
    for eid, lines in table.items():
        if sorted(lines) != sorted(edges[eid]):
            return f"ordering of edge {eid} is not a permutation of its lines"
    return None


# ── instance description ────────────────────────────────────────────


def instance_info(graph_path: Path, variant: str) -> dict:
    """Dimensions of the graph a pass extracted and of its core, found
    with the library after the measured passes."""
    from tracing import log10_orderings
    from transitmap.core_reduce import prune, split_components
    from transitmap.ilp_model import (WeightPolicy, build_improved,
                                      build_separation, compile_event_sites,
                                      model_dims)
    from transitmap.line_graph import load_line_graph

    g = load_line_graph(graph_path)
    w = WeightPolicy.from_graph(g)
    core, reduction = prune(g, w, collapse_bundles=variant != "S")
    comps = split_components(core, reduction)
    build = build_separation if variant == "S" else build_improved
    rows = cols = priced = 0
    for comp in comps:
        r, c = model_dims(build(comp, w))
        rows, cols = rows + r, cols + c
        sites = compile_event_sites(comp, w)
        if sites.same_cont or sites.split or (variant == "S"
                                              and sites.separation):
            priced += 1
    return {
        "stations": g.station_count(),
        "nodes": len(g.nodes), "edges": len(g.edges), "lines": len(g.lines),
        "max_lines_per_edge": g.max_lines_per_edge,
        "core_edges": len(core.edges), "components": len(comps),
        "priced_components": priced,
        "max_log10_orderings": round(max(
            (log10_orderings(c) for c in comps), default=0.0), 2),
        "model_rows": rows, "model_cols": cols,
    }


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


# ── one workload ────────────────────────────────────────────────────


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS
    from tracing import Tracer

    e2e_spec, layer_spec = load_metric_specs()
    wl = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None  # re-read TMPDIR: solver model files stay here

    feed = wl.write_feed(seed, work / "feed")
    run = Run(wl, feed, work, tracer=Tracer() if trace else None)
    # set-up samples are taken between the calls, spread over the run
    setup: list[float] = []
    sample = None if trace else (lambda: setup.append(setup_sample()))
    setup_sample()  # unmeasured: fills the bytecode cache
    started = time.perf_counter()
    rounds = 0
    while True:
        if trace:
            run.one_pass(traced=False)
            run.one_pass(traced=True)
        else:
            run.one_pass(traced=False, after_call=sample)
        rounds += 1
        passes = len(run.samples.get("pipeline_s", []))
        elapsed = time.perf_counter() - started
        # stop before a round that would end after --seconds
        if run.failures or ((trace or passes >= MIN_PASSES) and
                            elapsed * (rounds + 1) / rounds > seconds):
            break
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    peak = max(_rss_mb(resource.RUSAGE_SELF),
               _rss_mb(resource.RUSAGE_CHILDREN))

    info = {"workload": name, "seed": seed, "environment": environment()}
    if not run.failures:
        info["instance"] = instance_info(work / "graph.json", wl.variant)
        if trace and wl.solver == "hs":
            procs = {m["lp_solve.processes"] for m in run.traced}
            if procs != {info["instance"]["priced_components"]}:
                run.fail(0, "optimize", f"{procs} solver processes for "
                         f"{info['instance']['priced_components']} priced "
                         "components")

    if trace:
        per_pass = run.traced
        metrics = {k: _median([m[k] for m in per_pass])
                   for k in per_pass[0]} if per_pass else {}
        metrics["trace.overhead_s"] = (_median(run.traced_pipeline)
                                       - _median(run.samples["pipeline_s"]))
        for stage in STAGES:
            metrics[f"cli.{stage}_s"] = _median(run.samples[f"{stage}_s"])
        spec = layer_spec
    else:
        metrics = {k: _median(v) for k, v in run.samples.items()}
        metrics["setup_s"] = _median(setup)
        metrics["peak_rss_mb"] = peak
        metrics["objective"] = _median(run.objectives)
        spec = e2e_spec
    samples = dict(run.samples, setup_s=setup, objective=run.objectives)

    print(f"workload {name}  seed {seed}  trace {int(trace)}  "
          f"passes {len(run.samples.get('pipeline_s', []))} untraced"
          + (f", {len(run.traced)} traced" if trace else ""))
    print("environment " + json.dumps(info["environment"], sort_keys=True))
    if "instance" in info:
        print("instance " + json.dumps(info["instance"], sort_keys=True))
    for key in spec:
        spread = ""
        if not trace:
            values = samples.get(key, [metrics[key]])
            spread = (f"  median of n={len(values)}, "
                      f"min {min(values):.6g}, max {max(values):.6g}")
        print(f"  {key:36s} {metrics.get(key, 0.0):14.6g} "
              f"{spec[key]['unit']}{spread}")
    if not trace:
        # stage times are reported, without a bound, by --trace 1
        for stage in STAGES:
            values = samples[f"{stage}_s"]
            print(f"  {'(cli.' + stage + '_s)':36s} "
                  f"{_median(values):14.6g} s  median of n={len(values)}, "
                  f"min {min(values):.6g}, max {max(values):.6g}")
    if trace and wl.solver != "hs":
        print("  lp_solve.* are 0: the builtin solver starts no processes")
    error_rate = run.failed / max(run.attempted, 1)
    print(f"  error_rate {error_rate:.4g} ({run.failed} of {run.attempted} "
          "calls failed a check or exited nonzero)")
    for why in run.failures:
        print(f"  FAILED {why}")

    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": spec[k]["unit"]}
                    for k in spec},
    }
    info.update(samples=run.samples, setup_samples=setup,
                traced_passes=run.traced, failures=run.failures,
                result=result)
    (work / "result.json").write_text(json.dumps(info, indent=1, default=str))
    if trace:
        (work / "spans.json").write_text(json.dumps(
            [vars(s) for s in run.tracer.spans], default=str))
    for leftover in ("feed", "tmp"):
        shutil.rmtree(work / leftover, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; exits nonzero if any fails."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    _require_checkout()
    if args.self_test:
        from selftest import self_test
        return self_test()
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected all or "
                     f"one of {', '.join(WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
