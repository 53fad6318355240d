"""Exception hierarchy for the transitmap pipeline.

Every stage raises a subclass of TransitMapError so the CLI can map
failures to stable exit codes (see cli._EXIT_BY_ERROR).
"""

from __future__ import annotations


class TransitMapError(Exception):
    """Base class for all pipeline errors."""


# ── feed ingestion ──────────────────────────────────────────────────

class MissingFile(TransitMapError):
    """A mandatory feed file is absent."""


class MalformedRow(TransitMapError):
    """A CSV row is structurally broken (arity or encoding)."""


class DanglingReference(TransitMapError):
    """A row references an id that does not exist in the feed."""


class ProjectionFailure(TransitMapError):
    """A coordinate cannot be projected (outside the projectable domain)."""


class ShapeMismatch(TransitMapError):
    """A stop lies farther from its trip's shape than the snap tolerance."""


class ImplausibleEdge(TransitMapError):
    """A station-to-station edge is too long to be real: a stop or shape
    coordinate is wrong."""


# ── geometry ────────────────────────────────────────────────────────

class DegenerateSegment(TransitMapError):
    """A polyline collapsed below representable length."""


# ── graph construction / serialization ──────────────────────────────

class SchemaViolation(TransitMapError):
    """A graph or ordering document violates the JSON schema."""


class NonTermination(TransitMapError):
    """Segment merging exceeded its safety bound."""


# ── optimization ────────────────────────────────────────────────────

class PreconditionViolated(TransitMapError):
    """A reduction or model precondition does not hold for the input."""


class MalformedOrdering(TransitMapError):
    """An ordering is not a bijection onto an edge's line set."""


class InfeasibleAssignment(TransitMapError):
    """A solver assignment does not decode to a valid ordering."""


class Infeasible(TransitMapError):
    """A model reported infeasible; signals a model construction bug."""


class IncompleteSolution(TransitMapError):
    """A component ordering is missing during unfolding."""


class BudgetExceeded(TransitMapError):
    """Exhaustive search would exceed the configured enumeration budget."""


class SolverFailure(TransitMapError):
    """The external solver failed, timed out, or returned garbage."""


class ObjectiveMismatch(TransitMapError):
    """A solver's claimed objective disagrees with the ground-truth evaluator."""
