"""Exception hierarchy shared across the toolkit.

Every failure the estimators, data loaders, or solvers can signal is a
subclass of :class:`UlsError`, so callers (notably the CLI) can map the whole
family onto a stable exit code while still matching individual conditions.
"""


class UlsError(Exception):
    """Base class for all toolkit errors."""


class NotPositiveDefinite(UlsError):
    """A matrix required to be SPD failed factorization or a pivot check."""


class DimensionMismatch(UlsError):
    """Operands have incompatible shapes."""


class SingularGram(UlsError):
    """A Gram matrix is singular or numerically indefinite (e.g. n < p)."""


class IndefiniteObjective(UlsError):
    """A fit objective is not strictly convex for the supplied weight."""


class Diverged(UlsError):
    """Gradient descent iterates escaped the stability bound."""


class NotConverged(UlsError):
    """An iterative fit hit its iteration cap before reaching tolerance."""


class EmptyDataset(UlsError):
    """An operation that needs at least one sample received none."""


class SubsampleTooLarge(UlsError):
    """Requested subsample size exceeds the available rows."""


class ParseError(UlsError):
    """A CSV cell failed to parse; the message names the row and column."""


class SchemaMismatch(UlsError):
    """A file header or JSON payload does not match the expected schema."""


class InsufficientData(UlsError):
    """Too few rows to run the requested procedure (e.g. CV folds)."""


class NoFeasibleLambda(UlsError):
    """Every candidate regularization weight was infeasible."""


class HeldOutOverflow(UlsError, ValueError):
    """Cross-validation's held-out error overflows at every feasible weight.

    A ValueError too, which matters only to ``unlearn``'s exit code (2, as on
    bad input); ``simulate`` and ``bench`` count it as the method's failure."""


class DegenerateDirection(UlsError):
    """The inference direction vector is zero."""
