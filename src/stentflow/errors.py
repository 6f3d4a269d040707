"""Exception types raised across the package."""


class StentflowError(Exception):
    """Base class for all package errors."""


class NonIntegerReciprocal(StentflowError):
    """eps is not the reciprocal of an integer."""


class MeshQualityFailure(StentflowError):
    """Generated mesh violates the minimum-angle threshold."""


class PeriodicMismatch(StentflowError):
    """Strip traces do not match, or a strip mesh has no mirror half."""


class ConflictingConstraints(StentflowError):
    """Two boundary conditions disagree at a shared DOF."""


class UnassembledTag(StentflowError):
    """A boundary tag has no boundary-condition assignment."""


class PointLocationFailure(StentflowError):
    """A query point could not be located inside a mesh."""


class NonConvergence(StentflowError):
    """Iterative solver exhausted its iteration budget; ``diagnostics`` holds
    the solver's record of the last iterate."""

    def __init__(self, message, diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConstraintMismatch(StentflowError):
    """A system's constrained pattern differs from the operator it meets."""


class MeshMismatch(StentflowError):
    """Two solutions expected on the same mesh live on different meshes."""


class CompatibilityFailure(StentflowError):
    """Dirichlet data violates the divergence-free compatibility condition."""


class ConfigError(StentflowError):
    """Invalid or unknown configuration input."""
