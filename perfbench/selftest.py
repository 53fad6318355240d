"""Fast self-test of the benchmark harness on the tiny basic feed of
`tests/synth.py`: it prints every end-to-end metric with its unit, must
fail when the pinned dims or objective are wrong, and must record a span
in every layer the feed reaches.  Run it with
`python3 perfbench/run.py --self-test`; it exits 0 when all of that holds.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import shutil
import tempfile
from pathlib import Path

from synth import basic_feed_tables

import run as bench
from tracing import Tracer
from workloads import Workload

BASIC = Workload(
    name="basic", tables=basic_feed_tables, variant="I", solver="hs",
    dims="6 | 6 | 5 | 5 | 2", objective=0.0, crossings=0)

# Layers the basic feed reaches.  Its core is empty, so no component is
# solved and no solver process starts: lp_solve is not among them.
REACHED = {"cli", "gtfs", "line_graph", "geometry", "core_reduce",
           "ilp_model", "optimize", "render_svg"}


def _passes(wl: Workload, work, tracer=None) -> bench.Run:
    feed = wl.write_feed(0, work / "feed")
    run = bench.Run(wl, feed, work, tracer=tracer)
    run.one_pass(traced=False)
    run.one_pass(traced=tracer is not None)
    return run


def self_test() -> int:
    e2e_spec, _ = bench.load_metric_specs()
    bench.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.WORK))
    problems = []
    try:
        tracer = Tracer()
        good = _passes(BASIC, work, tracer)
        if good.failures:
            problems.append(f"correct pins failed: {good.failures}")
        metrics = {k: bench._median(v) for k, v in good.samples.items()}
        metrics["setup_s"] = bench.setup_sample()
        metrics["peak_rss_mb"] = bench._rss_mb(resource.RUSAGE_SELF)
        metrics["objective"] = bench._median(good.objectives)
        for name, spec in e2e_spec.items():
            if name not in metrics:
                problems.append(f"end-to-end metric {name} not measured")
            print(f"  {name:16s} {metrics.get(name, float('nan')):12.6g} "
                  f"{spec['unit']}")

        layers = {s.name.split(".")[0] for s in tracer.spans}
        if not REACHED <= layers:
            problems.append(f"no span in layers {sorted(REACHED - layers)}")
        print(f"  spans: {len(tracer.spans)} in layers {sorted(layers)}")

        for field, wrong in (("dims", "6 | 6 | 5 | 5 | 3"),
                             ("objective", 1.0)):
            bad = _passes(dataclasses.replace(BASIC, **{field: wrong}), work)
            if not bad.failures:
                problems.append(f"a wrong pinned {field} was not caught")
            print(f"  wrong {field} pin caught: {bad.failures[:1]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"SELF-TEST FAILED: {p}")
    print(json.dumps({"self_test": "failed" if problems else "passed"}))
    return 1 if problems else 0
