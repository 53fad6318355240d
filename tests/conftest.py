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
