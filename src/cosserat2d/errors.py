"""Exception types shared across the package."""


class Cosserat2DError(Exception):
    """Base class for all package-specific errors."""


class DegenerateDeformation(Cosserat2DError):
    """Deformation gradient with non-positive determinant; no polar factor exists."""


class ZeroDenominator(Cosserat2DError):
    """A closed-form expression was evaluated at a vanishing denominator."""


class NoRealBranch(Cosserat2DError):
    """The dispersion cubic has no real nonnegative root for the requested wavenumber."""


class ImaginarySpeed(Cosserat2DError):
    """Negative radicand in a wave-speed formula."""


class InfeasibleDensity(Cosserat2DError):
    """A constructed special solution implies a non-positive density."""


class NonFiniteState(Cosserat2DError):
    """A field state stopped being finite during time integration."""


class WorkerExited(Cosserat2DError):
    """A forked worker of a computation exited before it answered."""


class ConfigError(Cosserat2DError):
    """Malformed or invalid scenario configuration."""


class IoError(Cosserat2DError):
    """Failed to read or write an artifact file."""
