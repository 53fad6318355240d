"""Bundled MILP backend: reads a 0-1 program from an LP file in the
dialect that `lp_dialect.write_lp` writes, solves it with HiGHS, and
writes one `name 0|1` pair per line.

HiGHS is reached through the Python bindings that scipy ships as the
extension module `scipy/optimize/_highspy/_core`.  The module is loaded
from its file, without importing `scipy.optimize`: that package's init
also loads scipy.linalg, scipy.sparse, scipy.special and more, which
took about 0.65 s of a 0.9 s solver process on the acceptance feed,
where HiGHS itself solves in about 0.012 s.  `read_lp` checks the dialect
and gives the column names; HiGHS then reads the same file with its own
LP reader, which must give the columns in `read_lp`'s order (HiGHS could
pick another of tied optima otherwise).  The solution comes back as a
list, so the process imports neither numpy nor any of scipy's Python
modules.

Usage: python3 -m transitmap.lp_solve <model.lp> <solution.out>

Exit codes follow the external-solver contract: 0 solved, 2 infeasible,
anything else is a failure.  A model file that is missing, unreadable or
in any other dialect, an unwritable solution path, HiGHS bindings that
cannot be found, a file HiGHS reads into other columns, and a solve
that ends in any status but optimal or infeasible exit with 3 after one
`error:` line on stderr.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import os
import sys
import tempfile

from .errors import SchemaViolation, SolverFailure
from .lp_dialect import read_lp

_CORE = "scipy.optimize._highspy._core"


def _highs():
    """HiGHS's bindings module, loaded from scipy's package directory
    without running any of scipy's package inits."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")
    for folder in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_CORE, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                # a later `import scipy.optimize` in this process then
                # reuses the module instead of initialising it again
                sys.modules[_CORE] = module
                return module
    # imported here: importlib.metadata costs about 40 ms at start-up
    from importlib.metadata import PackageNotFoundError, version
    try:
        found = f"scipy {version('scipy')}"
    except PackageNotFoundError:
        found = "no installed scipy"
    raise SolverFailure(f"HiGHS bindings (scipy/optimize/_highspy/_core) "
                        f"not found in {found}; scipy>=1.17 ships them")


def _read_model(h, highs, model_path) -> None:
    """Load the model file into highs with HiGHS's own LP reader.  HiGHS
    picks its reader by the file's suffix, so a path without `.lp` is
    read through a `.lp`-named link to it."""
    path = str(model_path)
    if path.endswith(".lp"):
        status = highs.readModel(path)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            link = os.path.join(tmp, "model.lp")
            os.symlink(os.path.abspath(path), link)
            status = highs.readModel(link)
    # kWarning reports a repeated term, which HiGHS sums as read_lp does
    if status == h.HighsStatus.kError:
        raise SolverFailure(f"HiGHS cannot read {path}")


def solve_lp_file(model_path: str, out_path: str) -> int:
    names = list(read_lp(model_path).variables)
    lines = []
    if names:
        h = _highs()
        highs = h._Highs()
        highs.setOptionValue("log_to_console", False)
        _read_model(h, highs, model_path)
        cols = [highs.getColName(j)[1] for j in range(highs.getNumCol())]
        if cols != names:
            raise SolverFailure("HiGHS read the columns in another order "
                                "than read_lp")
        highs.run()
        status = highs.getModelStatus()
        if status == h.HighsModelStatus.kInfeasible:
            print("model is infeasible", file=sys.stderr)
            return 2
        if status != h.HighsModelStatus.kOptimal:
            print(f"error: solve failed: {highs.modelStatusToString(status)}",
                  file=sys.stderr)
            return 3
        lines = [f"{name} {int(round(value))}\n"
                 for name, value in zip(names, highs.getSolution().col_value)]
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m transitmap.lp_solve",
        description="Solve a 0-1 program in transitmap's LP dialect with "
                    "HiGHS.")
    parser.add_argument("model", help="input model, as write_lp writes it")
    parser.add_argument("solution", help="output file of name value pairs")
    args = parser.parse_args(argv)
    try:
        return solve_lp_file(args.model, args.solution)
    except (OSError, UnicodeDecodeError, SchemaViolation, SolverFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
