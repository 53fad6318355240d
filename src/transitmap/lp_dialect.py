"""The 0-1 program container and its LP file dialect.

`IlpModel` holds binary variables, named by their role, and linear
constraints; `write_lp` writes it as an LP file and `read_lp` reads back
exactly what `write_lp` writes.  The model builders in `ilp_model` fill
the container; the bundled solver (`lp_solve`) imports only this module,
so a solver process compiles none of the builders.

Variable-name grammar (stable; external solution files are keyed by it):
position `x_e<edge>_l<line>_p<pos>`, order `x_e<edge>_l<A>_b_l<B>`
(A before B), in-edge separation
`x_e<edge>_l<A>_nb_l<B>` (A not beside B), and the objective events
`xc_n<node>_e<e1>_e<e2>_l<A>_l<B>` (continuation crossing),
`xs_n<node>_e<edge>_l<A>_l<B>` (split crossing),
`xp_n<node>_e<e1>_e<e2>_l<A>_l<B>` (separation).  Ids are sanitized to
[A-Za-z0-9_] with a collision counter.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import SchemaViolation


# ── model container ─────────────────────────────────────────────────

@dataclass
class Variable:
    """A binary model variable; every formulation here is a 0-1 program."""
    name: str
    objective: float = 0.0


@dataclass
class Constraint:
    name: str
    terms: tuple[tuple[float, str], ...]
    relation: str  # "<=", ">=", "="
    rhs: float


class IlpModel:
    def __init__(self, variant: str) -> None:
        self.variant = variant
        self.variables: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self.roles: dict[str, tuple] = {}
        self.by_role: dict[tuple, str] = {}
        self.edge_lines: dict[str, tuple[str, ...]] = {}
        self._tokens: dict[str, str] = {}
        self._used_tokens: set[str] = set()

    def _token(self, raw: str) -> str:
        if raw in self._tokens:
            return self._tokens[raw]
        base = re.sub(r"[^A-Za-z0-9]", "_", raw) or "id"
        tok = base
        counter = 2
        while tok in self._used_tokens:
            tok = f"{base}_{counter}"
            counter += 1
        self._tokens[raw] = tok
        self._used_tokens.add(tok)
        return tok

    def _name_for(self, role: tuple) -> str:
        kind = role[0]
        t = self._token
        if kind == "pos":
            _, e, l, p = role
            return f"x_e{t(e)}_l{t(l)}_p{p}"
        if kind == "before":
            _, e, a, b = role
            return f"x_e{t(e)}_l{t(a)}_b_l{t(b)}"
        if kind == "apart":
            _, e, a, b = role
            return f"x_e{t(e)}_l{t(a)}_nb_l{t(b)}"
        if kind == "cross":
            _, v, e1, e2, a, b = role
            return f"xc_n{t(v)}_e{t(e1)}_e{t(e2)}_l{t(a)}_l{t(b)}"
        if kind == "splitcross":
            _, v, e, a, b = role
            return f"xs_n{t(v)}_e{t(e)}_l{t(a)}_l{t(b)}"
        if kind == "sepevent":
            _, v, e1, e2, a, b = role
            return f"xp_n{t(v)}_e{t(e1)}_e{t(e2)}_l{t(a)}_l{t(b)}"
        raise ValueError(f"unknown variable role kind {kind!r}")

    def add_variable(self, role: tuple, objective: float = 0.0) -> str:
        if role in self.by_role:
            raise ValueError(f"duplicate variable role {role!r}")
        name = self._name_for(role)
        self.variables[name] = Variable(name=name, objective=objective)
        self.roles[name] = role
        self.by_role[role] = name
        return name

    def add_constraint(self, terms, relation: str, rhs: float) -> None:
        for _, var in terms:
            if var not in self.variables:
                raise ValueError(f"constraint references unknown variable {var!r}")
        self.constraints.append(Constraint(
            name=f"c{len(self.constraints)}",
            terms=tuple(terms), relation=relation, rhs=float(rhs),
        ))


# ── LP file round trip ──────────────────────────────────────────────

def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(x)


def _expr(terms) -> str:
    parts: list[str] = []
    for coef, var in terms:
        if coef < 0:
            parts.append(f"- {_fmt(-coef)} {var}")
        elif parts:
            parts.append(f"+ {_fmt(coef)} {var}")
        else:
            parts.append(f"{_fmt(coef)} {var}")
    return " ".join(parts)


def write_lp(m: IlpModel, path) -> None:
    lines = ["Minimize"]
    obj_terms = [(v.objective, v.name) for v in m.variables.values()
                 if v.objective != 0.0]
    lines.append(f" obj: {_expr(obj_terms)}" if obj_terms else " obj:")
    lines.append("Subject To")
    for c in m.constraints:
        lines.append(f" {c.name}: {_expr(c.terms)} {c.relation} {_fmt(c.rhs)}")
    binaries = list(m.variables)
    if binaries:
        lines.append("Binary")
        for i in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[i:i + 8]))
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


_HEADERS = (["Minimize"], ["Subject", "To"], ["Binary"], ["End"])
_LAYOUTS = (["Minimize", "Subject", "End"],
            ["Minimize", "Subject", "Binary", "End"])
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = re.compile(r"-?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?")


def _number(token: str) -> float:
    """A finite number as _fmt writes it."""
    if not _NUMBER.fullmatch(token) or not math.isfinite(float(token)):
        raise SchemaViolation(f"LP number expected, got {token!r}")
    return float(token)


def _terms(tokens: list[str]) -> list[tuple[float, str]]:
    """Parse `[- c v | c v] (+ c v | - c v)*`, or nothing, into
    (coefficient, name) pairs."""
    if tokens[:1] not in ([], ["-"]):
        tokens = ["+"] + tokens
    if len(tokens) % 3:
        raise SchemaViolation(f"malformed LP expression {' '.join(tokens)!r}")
    terms = []
    for sign, coef, name in zip(tokens[::3], tokens[1::3], tokens[2::3]):
        if (sign not in ("+", "-") or coef.startswith("-")
                or not re.fullmatch(_NAME, name)):
            raise SchemaViolation(
                f"malformed LP term {' '.join((sign, coef, name))!r}")
        terms.append((-_number(coef) if sign == "-" else _number(coef), name))
    return terms


def read_lp(path) -> IlpModel:
    """Read an LP file in exactly the dialect write_lp writes: `Minimize`,
    one `obj:` line, `Subject To`, one `name: expression relation rhs`
    line per constraint, `Binary` lines declaring every variable once, and
    `End` as the last line.  Anything else raises SchemaViolation.

    Columns are ordered by first use (objective, then constraints, then
    the Binary lines); that order decides which of several tied optima a
    solver returns."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh.read().splitlines()]
    heads = [i for i, row in enumerate(rows) if row in _HEADERS]
    if ([rows[i][0] for i in heads] not in _LAYOUTS or heads[:2] != [0, 2]
            or heads[-1] != len(rows) - 1 or rows[1][:1] != ["obj:"]):
        raise SchemaViolation(
            "an LP file must read Minimize, obj:, Subject To, its "
            "constraints, Binary, its variables and End, in this order")
    declared = [name for row in rows[heads[2] + 1:-1] for name in row]
    if (len(set(declared)) != len(declared)
            or not all(re.fullmatch(_NAME, name) for name in declared)):
        raise SchemaViolation("Binary lines must declare each variable once")
    binary = set(declared)
    m = IlpModel("?")

    def use(name: str) -> Variable:
        if name not in binary:
            raise SchemaViolation(f"variable {name!r} is not declared Binary")
        return m.variables.setdefault(name, Variable(name=name))

    for coef, name in _terms(rows[1][1:]):
        use(name).objective += coef
    for row in rows[3:heads[2]]:
        if (len(row) < 4 or not re.fullmatch(_NAME + ":", row[0])
                or row[-2] not in ("<=", ">=", "=")):
            raise SchemaViolation(f"malformed constraint {' '.join(row)!r}")
        terms = _terms(row[1:-2])
        for _, name in terms:
            use(name)
        m.constraints.append(Constraint(name=row[0][:-1], terms=tuple(terms),
                                        relation=row[-2], rhs=_number(row[-1])))
    for name in declared:
        use(name)
    return m
