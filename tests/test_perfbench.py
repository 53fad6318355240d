"""The benchmark harness in perfbench/ wraps the package's public
functions and `subprocess.run` from outside, so a library change can
break it; its self-test must pass on every change."""

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
