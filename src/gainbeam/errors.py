"""Exceptions and warnings shared across the propagators and the harness."""


class NumericalAbortError(RuntimeError):
    """A propagation could not continue: gain overflow, loss underflow or width collapse.

    ``z`` is where it stopped, and ``partial`` holds the samples taken before it.
    """

    def __init__(self, message, z=None, partial=None):
        super().__init__(message)
        self.z = z
        self.partial = partial


class WidthCollapseError(NumericalAbortError):
    """The complex width parameter left the upper half-plane (Im B <= 0).

    The Gaussian beam ansatz is only normalizable for Im B > 0, so
    propagation cannot continue past this point.
    """


class ConfigError(ValueError):
    """A scenario or filter configuration failed validation."""


class BoundaryContaminationWarning(UserWarning):
    """More than the allowed fraction of |psi|^2 sits at the edge of the grid."""


class NarrowGridWarning(UserWarning):
    """A grid edge lies closer than six beam widths to the beam center."""
