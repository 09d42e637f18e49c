"""Error types raised across the library.

Two families matter to callers: InputError for malformed files, rows, or
values handed in from outside (CLI exit code 2), and DomainError for
well-formed inputs that violate a model-level contract (CLI exit code 1).
Every file loader opens its input through open_text, so bytes that are not
UTF-8 become that loader's InputError rather than a UnicodeDecodeError, and
every JSON loader parses through load_json, so a parse error reads the same
from each of them.
"""

import json
from contextlib import contextmanager


class ToolError(Exception):
    """Base for everything this package raises on purpose."""

    exit_code = 1

    @property
    def kind(self) -> str:
        return type(self).__name__


class DomainError(ToolError):
    """Well-formed input, but the requested computation is not admissible."""

    exit_code = 1


class InputError(ToolError):
    """Malformed or out-of-contract external input (files, rows, flags)."""

    exit_code = 2


@contextmanager
def open_text(path, error: type, newline=None):
    """Open an input file as UTF-8 text; bytes that are not UTF-8 raise error.

    Decoding is lazy, so the failure can surface anywhere in the with-body;
    it is turned into the loader's own InputError there, not a traceback.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline=newline)
    except ValueError as exc:  # a NUL byte in the path
        raise error(f"{path}: {exc}") from None
    try:
        with fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_json(path, error: type):
    """Parse a JSON file; text that is not JSON raises error, as does nesting
    beyond the parser's recursion limit or an integer beyond the digit limit."""
    try:
        with open_text(path, error) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None


class FloatRangeExceeded(DomainError):
    """A result that leaves the float range: a stationary distribution whose
    computation does, the total weight of a graph's edges, or an exact sum
    such as a path's cost or a plan's objective."""


# graph construction and analysis

class DuplicateNodeId(DomainError):
    pass


class UnknownEndpoint(DomainError):
    pass


class DuplicateEdge(DomainError):
    pass


class SelfLoop(DomainError):
    pass


class NonPositiveWeight(DomainError):
    pass


class InvalidNodeValue(DomainError):
    pass


class CycleDetected(DomainError):
    def __init__(self, message, cycle=None):
        super().__init__(message)
        self.cycle = tuple(cycle or ())


class EmptyGraph(DomainError):
    pass


class GraphFormatError(InputError):
    """Graph file violates the documented JSON layout (unknown/missing keys, bad types)."""


# allocation

class UnknownNode(DomainError):
    pass


class CostPrecisionError(DomainError):
    """A cost or budget carries more than two decimal places."""


class CostResolutionExceeded(DomainError):
    """Quantized DP table would exceed the configured cell bound."""


class NegativeBudget(DomainError):
    pass


# path finding

class NoFeasiblePath(DomainError):
    pass


class InvalidQuery(DomainError):
    pass


# feedback

class EmptyPlan(DomainError):
    pass


class MissingOutcome(DomainError):
    pass


class UnknownEdge(DomainError):
    pass


class MetricsExhausted(DomainError):
    """Fewer metrics reports supplied than configured iterations."""


class MetricOutOfRange(DomainError):
    pass


class MetricsFormatError(InputError):
    pass


# markov

class NegativeCount(DomainError):
    pass


class ShapeMismatch(DomainError):
    pass


class EmptyCounts(DomainError):
    pass


class StateMismatch(DomainError):
    pass


class CountsFormatError(InputError):
    pass


class ChainTooLarge(DomainError):
    """A counts file with more states than MAX_STATES, or a step count whose
    work (steps x states^2) is beyond MAX_STEP_WORK."""


# learner

class PartitionMismatch(DomainError):
    pass


class AllMissingColumn(DomainError):
    pass


class EmptyFitSet(DomainError):
    pass


class DegenerateSplit(DomainError):
    pass


class EmptyTrainingSet(DomainError):
    pass


class MissingFeature(DomainError):
    pass


class InsufficientSamples(DomainError):
    pass


class BadParams(DomainError):
    pass


class ModelFormatError(InputError):
    pass


# cohort

class SchemaViolation(InputError):
    def __init__(self, row, column, reason):
        super().__init__(f"row {row}, column {column!r}: {reason}")
        self.row = row
        self.column = column
        self.reason = reason


class DuplicateStudentId(InputError):
    pass


class InvalidProfile(DomainError):
    pass


# scenario files

class ScenarioFormatError(InputError):
    pass
