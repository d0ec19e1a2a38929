"""Material parameters and model selection."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class MaterialParams:
    """Constitutive constants of the planar micropolar model.

    ``lam`` is the Lamé constant usually written with a lowercase lambda
    (reserved word in Python); starred chiral moduli carry the ``_s`` suffix.
    """

    mu: float = 1.0            # shear modulus, > 0
    lam: float = 1.0           # Lamé lambda
    mu_c: float = 1.0          # couple modulus, >= 0
    L_c: float = 0.1           # characteristic length, >= 0
    chi: float = 0.0           # rotation-dilatation interaction coupling
    rho: float = 1.0           # mass density, > 0
    rho_rot: float = 1.0       # rotational density, > 0
    mu_s: float = 0.0          # starred shear modulus
    lam_s: float = 0.0         # starred Lamé lambda
    mu_c_s: float = 0.0        # starred couple modulus
    m1: float = 0.0            # symmetric-part mixing constant
    m2: float = 0.0            # trace mixing constant
    m3: float = 0.0            # skew-part mixing constant

    def __post_init__(self):
        if not self.mu > 0:
            raise ConfigError(f"mu must be positive, got {self.mu}")
        if self.mu_c < 0:
            raise ConfigError(f"mu_c must be nonnegative, got {self.mu_c}")
        if self.L_c < 0:
            raise ConfigError(f"L_c must be nonnegative, got {self.L_c}")
        if not self.rho > 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if not self.rho_rot > 0:
            raise ConfigError(f"rho_rot must be positive, got {self.rho_rot}")

    def replace(self, **kwargs) -> "MaterialParams":
        return dataclasses.replace(self, **kwargs)


NONCHIRAL = "nonchiral"
CHIRAL = "chiral"
POLAR_COUPLING = "polar"
SKEW_COUPLING = "skew"

#: Energy terms active under each selector (see :mod:`cosserat2d.energy`).
_NONCHIRAL_TERMS = ("elastic", "curvature", "interaction")
_CHIRAL_TERMS = ("elastic", "curvature", "chiral_elastic", "mixing", "coupling2")


@dataclass(frozen=True)
class ModelSelector:
    """Which energy functional the simulation/verification runs on.

    * ``nonchiral``: elastic + curvature + interaction + one coupling term,
      the coupling being either the polar-misalignment form (``polar``) or the
      skew form (``skew``).
    * ``chiral``: elastic + curvature + starred elastic + mixing + skew
      coupling; no interaction term.
    """

    kind: str = NONCHIRAL
    coupling: str = POLAR_COUPLING

    def __post_init__(self):
        if self.kind not in (NONCHIRAL, CHIRAL):
            raise ConfigError(f"unknown model kind {self.kind!r}")
        if self.coupling not in (POLAR_COUPLING, SKEW_COUPLING):
            raise ConfigError(f"unknown coupling choice {self.coupling!r}")

    @classmethod
    def nonchiral(cls, coupling: str = POLAR_COUPLING) -> "ModelSelector":
        return cls(kind=NONCHIRAL, coupling=coupling)

    @classmethod
    def chiral(cls) -> "ModelSelector":
        return cls(kind=CHIRAL)

    @property
    def is_chiral(self) -> bool:
        return self.kind == CHIRAL

    def active_terms(self) -> tuple[str, ...]:
        if self.is_chiral:
            return _CHIRAL_TERMS
        coupling = "coupling" if self.coupling == POLAR_COUPLING else "coupling2"
        return _NONCHIRAL_TERMS + (coupling,)
