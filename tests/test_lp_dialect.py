"""Property tests of the LP artifact: write_lp → read_lp keeps every
model of random line graphs, and mutated LP files are either read as a
model or rejected with SchemaViolation, never misread into a crash.  The
bundled solver writes the same solution bytes as the scipy.optimize.milp
reference in tests/oracles.py."""

import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transitmap import lp_solve
from transitmap.errors import SchemaViolation
from transitmap.ilp_model import (
    WeightPolicy,
    build_baseline,
    build_improved,
    build_separation,
)
from transitmap.lp_dialect import read_lp, write_lp
from oracles import milp_solve_lp_file
from synth import random_line_graph

BUILDERS = {"B": build_baseline, "I": build_improved, "S": build_separation}
SEEDS = st.integers(0, 2**32 - 1)
VARIANTS = st.sampled_from(sorted(BUILDERS))


def _model(seed: int, variant: str):
    g = random_line_graph(np.random.default_rng(seed))
    return BUILDERS[variant](g, WeightPolicy.from_graph(g))


def _lp_lines(model) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        write_lp(model, path)
        return path.read_text().splitlines()


@settings(max_examples=15, deadline=None)
@given(seed=SEEDS, variant=VARIANTS)
def test_write_then_read_keeps_the_model(seed, variant):
    m = _model(seed, variant)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.lp"
        write_lp(m, path)
        parsed = read_lp(path)
    first_use = dict.fromkeys(
        [n for n, v in m.variables.items() if v.objective]
        + [n for c in m.constraints for _, n in c.terms] + list(m.variables))
    assert list(parsed.variables) == list(first_use)
    assert {n: v.objective for n, v in parsed.variables.items()} == {
        n: v.objective for n, v in m.variables.items()}
    assert parsed.constraints == m.constraints


@st.composite
def mutated_lp(draw):
    """An LP file of a random model with one line dropped, duplicated or
    swapped, one number replaced by a word, or one constraint given a
    term whose variable no Binary line declares.  The flag says whether
    the mutation must be rejected."""
    lines = _lp_lines(_model(draw(SEEDS), draw(VARIANTS)))
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "swap", "word", "undeclared"]))
    i = draw(st.integers(0, len(lines) - 1))
    must_reject = kind in ("word", "undeclared")
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        rows = [k for k, line in enumerate(lines)
                if line.startswith(" c") and ":" in line]
        if not rows:
            return "\n".join(lines) + "\n", False
        k = draw(st.sampled_from(rows))
        tokens = lines[k].split(" ")
        if kind == "word":
            numeric = [t for t, tok in enumerate(tokens)
                       if tok[:1].isdigit()]
            tokens[draw(st.sampled_from(numeric))] = "one"
        else:
            tokens[-2:-2] = ["+", "1", "undeclared_var"]
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n", must_reject


@settings(max_examples=40, deadline=None)
@given(case=mutated_lp())
def test_mutated_lp_is_read_or_rejected(case):
    text, must_reject = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "model.lp", Path(tmp) / "solution.out"
        path.write_text(text)
        try:
            read_lp(path)
            rejected = False
        except SchemaViolation:
            rejected = True
        assert rejected or not must_reject
        code = lp_solve.main([str(path), str(out)])
    assert code == 3 if rejected else code in (0, 2)


def test_solver_child_loads_no_graph_or_scipy_package_modules(tmp_path):
    # Every external solve starts `python -m transitmap.lp_solve`; the
    # LP reader needs no line graph, feed or geometry code, and HiGHS's
    # bindings load without scipy's package inits, whose scipy.optimize
    # and scipy.sparse imports used to take most of the process's time.
    # HiGHS reads the model file itself and returns the solution as a
    # list, so a solve loads no numpy either.  The LP dialect is a module
    # of its own, so the model builders in ilp_model are not compiled.
    model, out = tmp_path / "model.lp", tmp_path / "solution.out"
    model.write_text("Minimize\n obj: 1 x - 1 y\nSubject To\n"
                     " c0: 1 x + 1 y >= 1\nBinary\n x y\nEnd\n")
    code = ("import sys, transitmap.lp_solve as s; "
            f"assert s.main([{str(model)!r}, {str(out)!r}]) == 0; "
            "print(*sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    loaded = proc.stdout.split()
    assert "transitmap.lp_solve" in loaded and lp_solve._CORE in loaded
    assert out.read_text() == "x 0\ny 1\n"
    for name in ("line_graph", "gtfs", "geometry", "ilp_model"):
        assert f"transitmap.{name}" not in loaded
    for name in ("scipy", "scipy.optimize", "scipy.sparse", "numpy"):
        assert name not in loaded


def test_solver_exits_3_when_highs_reads_other_columns(tmp_path, capsys,
                                                       monkeypatch):
    # HiGHS could return another of tied optima for another column order,
    # so an order that differs from read_lp's is an error, not a solve.
    path, out = tmp_path / "model.lp", tmp_path / "solution.out"
    path.write_text("Minimize\n obj: 1 x + 1 y\nSubject To\n"
                    " c0: 1 x + 1 y >= 1\nBinary\n x y\nEnd\n")

    def reversed_columns(p):
        model = read_lp(p)
        model.variables = dict(reversed(model.variables.items()))
        return model

    monkeypatch.setattr(lp_solve, "read_lp", reversed_columns)
    assert lp_solve.main([str(path), str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def _both_solutions(path: Path) -> tuple:
    """(exit code, solution text) of the bundled solver and of the milp
    reference on one LP file."""
    got = []
    for solver in (lp_solve.solve_lp_file, milp_solve_lp_file):
        out = path.with_suffix(f".{solver.__name__}.out")
        code = solver(path, out)
        got.append((code, out.read_text() if out.exists() else None))
    return tuple(got)


@pytest.mark.parametrize("variant", sorted(BUILDERS))
def test_solver_writes_the_milp_reference_bytes(tmp_path, variant):
    # Among tied optima HiGHS returns the same one from the bindings as
    # through milp, so the orderings and maps stay byte for byte.
    for seed in range(6):
        for kwargs in ({}, {"n_nodes": 7, "n_lines": 8,
                            "max_lines_per_edge": 4}):
            g = random_line_graph(np.random.default_rng(seed), **kwargs)
            path = tmp_path / f"s{seed}_{len(kwargs)}.lp"
            write_lp(BUILDERS[variant](g, WeightPolicy.from_graph(g)), path)
            ours, reference = _both_solutions(path)
            assert ours[0] == 0 and ours == reference, f"seed {seed} {kwargs}"


@pytest.mark.parametrize("objective, rows, code, solution, name", [
    ("1 x", [" c0: 1 x + 1 x >= 2"], 0, "x 1\n", "model.lp"),
    ("1 x + 1 y", [" c0: 1 x + 1 y >= 3"], 2, None, "model.lp"),
    ("1 x - 1 y", [], 0, "x 0\ny 1\n", "model.lp"),
    # HiGHS picks its reader by suffix; a model named otherwise still solves
    ("1 x - 1 y", [" c0: 1 x + 1 y <= 1"], 0, "x 0\ny 1\n", "model"),
], ids=["repeated_variable", "infeasible", "no_constraints", "no_lp_suffix"])
def test_solver_on_hand_made_models(tmp_path, objective, rows, code, solution,
                                    name):
    path = tmp_path / name
    names = [token for token in objective.split() if token.isidentifier()]
    path.write_text("\n".join(["Minimize", f" obj: {objective}",
                               "Subject To", *rows, "Binary",
                               " " + " ".join(names), "End"]) + "\n")
    ours, reference = _both_solutions(path)
    assert ours == reference == (code, solution)
    assert lp_solve.main([str(path), str(tmp_path / "main.out")]) == code


def test_solver_without_highs_bindings_exits_3(tmp_path, capsys, monkeypatch):
    # Without scipy/optimize/_highspy/_core the one error line names the
    # installed scipy; there is no fallback solve path.
    path, out = tmp_path / "model.lp", tmp_path / "solution.out"
    path.write_text("Minimize\n obj: 1 x\nSubject To\nBinary\n x\nEnd\n")
    monkeypatch.delitem(sys.modules, lp_solve._CORE, raising=False)
    monkeypatch.setattr(lp_solve.importlib.util, "find_spec", lambda _: None)
    assert lp_solve.main([str(path), str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "scipy 1." in err[0]
    assert not out.exists()
