"""Exception types shared across the package."""


class ContactDualityError(Exception):
    """Base class for all package-specific errors."""


class CapExceeded(ContactDualityError):
    """Requested particle number exceeds the group-enumeration cap."""


class QuadratureNotConverged(ContactDualityError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class GridTooCoarse(ContactDualityError):
    """Grid does not resolve a boundary face well enough for the stencil."""


class IndexOutOfRange(ContactDualityError):
    """Boundary-face index outside 1..n-1."""


class UnsupportedCoupling(ContactDualityError):
    """Coupling model not admissible for the requested construction."""


class UnsupportedN(ContactDualityError):
    """Operation restricted to a particular particle number."""


class NotConverged(ContactDualityError):
    """Iterative eigensolver did not converge."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class LevelsOutOfRange(ContactDualityError, ValueError):
    """Eigenpair count outside 1 .. operator dimension - 2."""


class ConfigError(ContactDualityError):
    """Invalid experiment configuration; message names the offending key."""
