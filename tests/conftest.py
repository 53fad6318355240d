import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path

import pytest

# make tests/ importable as plain modules (synth.py etc.)
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True, scope="session")
def _package_on_child_path():
    """External-solver tests start `python -m transitmap.lp_solve` as a
    child process, which needs the package on its path as well."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(__file__).parent.parent / "src"),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def workload_artifacts(tmp_path_factory):
    """Per benchmark workload of perfbench/workloads.py, the directory of
    its run-seed-0 artifacts, made by transitmap.cli.main as a benchmark
    pass makes them: graph.json for both, and ordering.json and map.svg
    for the workloads on the builtin solver (an `ext:` solver may break
    ties another way)."""
    from transitmap.cli import main
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        feed = wl.write_feed(0, work / "feed")
        for stage, argv in wl.commands(feed, work):
            if stage != "extract" and wl.solver != "builtin":
                break
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, f"{name} {stage}"
        out[name] = work
    return out
