"""Exception types raised at the public boundaries of the package."""


class FermientError(Exception):
    """Base class for all package errors."""


class InvalidModeSetError(FermientError, ValueError):
    """Mode set has the wrong particle count or uses modes outside the basis."""


class NonDisjointError(FermientError, ValueError):
    """Two mode sets that must be disjoint share a mode."""


class RangeError(FermientError, IndexError):
    """Rank index outside [0, dim)."""


class ShapeError(FermientError, ValueError):
    """Matrix shape/symmetry requirement violated."""


class NotPSDError(FermientError, ValueError):
    """Matrix is materially non positive semidefinite."""


class NormalizationError(FermientError, ValueError):
    """State or density matrix fails a normalization requirement."""


class CapacityError(FermientError, RuntimeError):
    """Requested object exceeds a hard capacity guard (never silently truncated)."""


class NumericalError(FermientError, ArithmeticError):
    """A computed result failed its accuracy check (eigen-residual, square root)."""
