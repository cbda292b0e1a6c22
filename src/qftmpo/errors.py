"""Exception types shared across the package."""


class QftmpoError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(QftmpoError, ValueError):
    """Axis or bond dimensions disagree with what an operation requires."""


class NumericalError(QftmpoError, RuntimeError):
    """Linear algebra failed or produced non-finite values."""


class ResourceLimitError(QftmpoError, RuntimeError):
    """A dense materialization would exceed the configured size limit."""


class NonAdjacentGateError(QftmpoError, ValueError):
    """Two-site operation requested on non-neighbouring sites.

    Chain-level operations act on nearest neighbours only; routing a
    long-range gate is the caller's job (insert explicit swaps).
    """

