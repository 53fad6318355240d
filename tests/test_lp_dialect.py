"""Property tests of the LP artifact: write_lp → read_lp keeps every
model of random line graphs, and mutated LP files are either read as a
model or rejected with SchemaViolation, never misread into a crash."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from transitmap import lp_solve
from transitmap.errors import SchemaViolation
from transitmap.ilp_model import (
    WeightPolicy,
    build_baseline,
    build_improved,
    build_separation,
    read_lp,
    write_lp,
)
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
