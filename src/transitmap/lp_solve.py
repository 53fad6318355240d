"""Bundled MILP backend: reads an LP file, solves it with scipy's HiGHS
interface, and writes one `name value` pair per line.

Usage: python3 -m transitmap.lp_solve <model.lp> <solution.out>

Exit codes follow the external-solver contract: 0 solved, 2 infeasible,
anything else is a failure; an unreadable model or a failed solve exits
with 3.
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
    if not names:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("")
        return 0
    index = {name: i for i, name in enumerate(names)}
    objective = np.array([model.variables[n].objective for n in names])
    integrality = np.array(
        [1 if model.variables[n].integral else 0 for n in names])
    lower = np.array([model.variables[n].lb for n in names])
    upper = np.array([model.variables[n].ub for n in names])

    rows, cols, coefs = [], [], []
    con_lo, con_hi = [], []
    for i, con in enumerate(model.constraints):
        for coef, var in con.terms:
            rows.append(i)
            cols.append(index[var])
            coefs.append(coef)
        if con.relation == "<=":
            con_lo.append(-np.inf)
            con_hi.append(con.rhs)
        elif con.relation == ">=":
            con_lo.append(con.rhs)
            con_hi.append(np.inf)
        else:
            con_lo.append(con.rhs)
            con_hi.append(con.rhs)

    kwargs = {
        "integrality": integrality,
        "bounds": Bounds(lower, upper),
    }
    if model.constraints:
        matrix = sparse.csr_matrix(
            (coefs, (rows, cols)), shape=(len(model.constraints), len(names)))
        kwargs["constraints"] = LinearConstraint(matrix, con_lo, con_hi)
    result = milp(c=objective, **kwargs)
    if result.status == 2:
        print("model is infeasible", file=sys.stderr)
        return 2
    if not result.success:
        print(f"solve failed: {result.message}", file=sys.stderr)
        return 3

    with open(out_path, "w", encoding="utf-8") as fh:
        for name, value in zip(names, result.x):
            if integrality[index[name]]:
                fh.write(f"{name} {int(round(value))}\n")
            else:
                fh.write(f"{name} {float(value)!r}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m transitmap.lp_solve",
        description="Solve an LP-format integer program with HiGHS.")
    parser.add_argument("model", help="input model in LP format")
    parser.add_argument("solution", help="output file of name value pairs")
    args = parser.parse_args(argv)
    try:
        return solve_lp_file(args.model, args.solution)
    except SchemaViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
