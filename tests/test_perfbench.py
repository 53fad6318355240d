"""The benchmark harness in perfbench/ wraps the package's public
functions and `subprocess.run` from outside, so a library change can
break it; its self-test must pass on every change.  The bytes its
workloads write are pinned here too."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == {"self_test": "passed"}


# sha256 of each benchmark workload's run-seed-0 artifacts, frozen from
# the commit before polylines became canonical: the benchmark itself only
# checks that every pass writes the bytes of its first pass
_WORKLOAD_SHA = {
    ("grid-full-I", "graph.json"):
        "79f5c44187ed8843803f460747488cea8b2e890c21507981dc5e686dd090167a",
    ("shapes-full-builtin", "graph.json"):
        "86bb69f74e618e929110df4d07c375af0e21a816af7b30a63fedeb276986a62f",
    ("shapes-full-builtin", "ordering.json"):
        "109d9b0ff9306a8108ee394f7cce7d05ae07e3bd14bd63249040535185cc2a68",
    ("shapes-full-builtin", "map.svg"):
        "7abca65a165cfdaeea21c154fee89d39a8f48393a815a6bf1ab5945b3654ba70",
}


def test_workload_artifact_bytes_are_pinned(workload_artifacts):
    got = {(name, f): hashlib.sha256((work / f).read_bytes()).hexdigest()
           for name, work in workload_artifacts.items()
           for f in ("graph.json", "ordering.json", "map.svg")
           if (work / f).exists()}
    assert got == _WORKLOAD_SHA
