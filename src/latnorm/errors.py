"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so keep the hierarchy flat and
the meanings narrow.
"""

from __future__ import annotations


class LatnormError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(LatnormError):
    """Operands live over different point sets or fiber layouts."""


class IncompleteCoverError(LatnormError):
    """A family of idempotents fails to cover every point."""


class SizeCapError(LatnormError):
    """A net or grid construction would exceed its configured size cap, or
    a traversal's distance table cannot be allocated."""


class CapExceededError(LatnormError):
    """An enumeration exceeded its configured cap.

    ``enumerate_group`` caps the group order; orbit walks, and with them
    ``latnorm analyze``, cap the orbit size only.
    """


class ConstructionError(LatnormError):
    """A constructive witness could not be assembled from the given data."""


class InfeasibleTruncationError(LatnormError):
    """The requested mass budget is below the truncation's tail mass."""


class IterationLimitError(LatnormError):
    """An iterative solver hit its iteration cap before certifying.

    Carries the best values found so far in ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class OutputError(LatnormError):
    """The report could not be written to the ``--out`` path or to stdout."""


class SchemaError(LatnormError):
    """Input document failed validation; ``diagnostics`` lists each issue."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))
