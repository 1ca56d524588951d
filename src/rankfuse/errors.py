"""Exception taxonomy shared across the package.

The CLI maps ValidationError (and subclasses) to exit code 1 and every other
failure to exit code 2, so anything that means "the caller handed us bad
input" must derive from ValidationError.
"""

from __future__ import annotations


class RankfuseError(Exception):
    """Base class for all package-specific failures."""


class ValidationError(RankfuseError, ValueError):
    """Bad input from the caller: malformed values, conflicting flags, etc."""


class DimensionError(ValidationError):
    """Shape or length mismatch between operands."""


class DatasetParseError(ValidationError):
    """Malformed text input (dataset, sidecar, metrics, config, `rank`
    request files) or binary container (index, checkpoint). Carries the 1-based
    line number of a text file, or None for a binary one, and the file's
    path when the raiser gives it."""

    def __init__(self, line_no: int | None, message: str, path=None):
        prefix = "" if path is None else f"{path}: "
        where = "" if line_no is None else f"line {line_no}: "
        super().__init__(prefix + where + message)
        self.line_no = line_no
        self.detail = message
        self.path = path


class DependencyError(ValidationError):
    """A required input artifact (checkpoint, index, split file) is missing."""


class DegenerateDistributionError(RankfuseError, ValueError):
    """KL divergence is undefined: q has zero mass where p has support."""


class GraphError(RankfuseError, RuntimeError):
    """Backward was asked about a value the tape never produced."""


class TrainingError(RankfuseError, RuntimeError):
    """Training cannot proceed (degenerate labels, non-finite loss, ...)."""


class EmbeddingLookupError(ValidationError, LookupError):
    """Index lookup failed and no encoder parameters were given to fall back on."""


class UndefinedMetricError(ValidationError):
    """Metric is undefined for the split or checkpoint given (e.g. AUC of a
    split with one class)."""
