"""Bundled MILP backend: reads a 0-1 program from an LP file in the
dialect that `ilp_model.write_lp` writes, solves it with scipy's HiGHS
interface, and writes one `name 0|1` pair per line.

Usage: python3 -m transitmap.lp_solve <model.lp> <solution.out>

Exit codes follow the external-solver contract: 0 solved, 2 infeasible,
anything else is a failure.  A model file that is missing, unreadable or
in any other dialect, an unwritable solution path, or a failed solve
exits with 3 after one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import SchemaViolation
from .ilp_model import read_lp


def solve_lp_file(model_path: str, out_path: str) -> int:
    model = read_lp(model_path)
    names = list(model.variables)
    lines = []
    if names:
        index = {name: i for i, name in enumerate(names)}
        objective = np.array([model.variables[n].objective for n in names])
        rows, cols, coefs = [], [], []
        con_lo, con_hi = [], []
        for i, con in enumerate(model.constraints):
            for coef, var in con.terms:
                rows.append(i)
                cols.append(index[var])
                coefs.append(coef)
            con_lo.append(-np.inf if con.relation == "<=" else con.rhs)
            con_hi.append(np.inf if con.relation == ">=" else con.rhs)
        matrix = sparse.csr_matrix(
            (coefs, (rows, cols)), shape=(len(model.constraints), len(names)))
        result = milp(c=objective, integrality=1, bounds=Bounds(0, 1),
                      constraints=LinearConstraint(matrix, con_lo, con_hi))
        if result.status == 2:
            print("model is infeasible", file=sys.stderr)
            return 2
        if not result.success:
            print(f"error: solve failed: {result.message}", file=sys.stderr)
            return 3
        lines = [f"{name} {int(round(value))}\n"
                 for name, value in zip(names, result.x)]
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
    except (OSError, UnicodeDecodeError, SchemaViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
