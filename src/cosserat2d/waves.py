"""Plane-wave analysis of the linearized chiral model.

Everything here works in the linear-model convention: rotation variable
``phi = -theta``, rotational inertia ``varrho_rot = 4 * rho_rot``, rotational
stiffness ``gamma = 2 * d1`` with ``d1 = mu * L_c**2``, and a single chiral
modulus ``A`` tying the starred constants together
(``mu_s = A``, ``lam_s = -2A``, ``mu_c_s = -A``, ``m1/2 + m2 = -A``).

The wave matrix is the pencil ``K(k) - omega**2 D`` with ``K(k)`` Hermitian
and ``D = diag(rho, rho, varrho_rot)``. Because ``rho > 0`` and
``varrho_rot > 0`` (``WaveParams`` rejects anything else), ``D`` is positive
definite and the pencil is singular exactly when ``x = omega**2`` is an
eigenvalue of the Hermitian matrix ``D^-1/2 K(k) D^-1/2``. So the squared
frequencies are all real, and they are the roots of the dispersion cubic
(kept in closed form as an independent check). Each eigenvector mapped
through ``D^-1/2`` is an amplitude triple annihilating the wave matrix; a
double root yields two ``D``-orthogonal polarizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LinearDerivatives, linear_chiral_forces
from .errors import (
    ConfigError,
    ImaginarySpeed,
    InfeasibleDensity,
    NoRealBranch,
    ZeroDenominator,
)
from .materials import MaterialParams


@dataclass(frozen=True)
class WaveParams:
    """Parameters of the linearized chiral model in wave conventions."""

    a: float = 0.5
    gamma: float = 0.02
    mu: float = 1.0
    lam: float = 1.0
    mu_c: float = 1.0
    rho: float = 1.0
    varrho_rot: float = 4.0

    def __post_init__(self):
        if not self.rho > 0.0:
            raise ConfigError("wave parameter rho must be positive")
        if not self.varrho_rot > 0.0:
            raise ConfigError("wave parameter varrho_rot must be positive")

    @property
    def d1(self) -> float:
        """Rotational stiffness in material form: gamma = 2 * d1."""
        return 0.5 * self.gamma

    @classmethod
    def from_material(cls, p: MaterialParams) -> "WaveParams":
        """Read off the wave parameters of a material (chiral modulus from
        the starred shear modulus, per the preset identification)."""
        return cls(a=p.mu_s, gamma=2.0 * p.mu * p.L_c**2, mu=p.mu, lam=p.lam,
                   mu_c=p.mu_c, rho=p.rho, varrho_rot=4.0 * p.rho_rot)

    def realizable(self) -> bool:
        """A**2 < mu_c (lam + 2 mu): implied density and the longitudinal
        speed are both positive-real exactly under this inequality."""
        return self.a**2 < self.mu_c * (self.lam + 2.0 * self.mu)


def liu_material(wp: WaveParams) -> MaterialParams:
    """The preset material whose linearized equations carry ``wp``.

    Starred constants are slaved to the single chiral modulus and the mixing
    constants satisfy ``m1/2 + m2 = -A`` (with ``m1 = 0`` chosen here).
    """
    return MaterialParams(
        mu=wp.mu, lam=wp.lam, mu_c=wp.mu_c,
        L_c=math.sqrt(wp.gamma / (2.0 * wp.mu)), chi=0.0,
        rho=wp.rho, rho_rot=0.25 * wp.varrho_rot,
        mu_s=wp.a, lam_s=-2.0 * wp.a, mu_c_s=-wp.a,
        m1=0.0, m2=-wp.a, m3=0.0)


@dataclass(frozen=True)
class WaveBranch:
    """One dispersion branch sample with its nullspace amplitude triple."""

    k: float
    omega: float
    u_hat: complex
    v_hat: complex
    phi_hat: complex

    def amplitudes(self) -> np.ndarray:
        return np.array([self.u_hat, self.v_hat, self.phi_hat])


def wave_matrix(k: float, omega: float, wp: WaveParams) -> np.ndarray:
    """Hermitian 3x3 system matrix acting on (u_hat, v_hat, phi_hat)."""
    x = omega**2
    p_l = k**2 * (wp.lam + 2.0 * wp.mu)
    q_t = k**2 * (wp.mu + wp.mu_c)
    s_r = wp.gamma * k**2 + 4.0 * wp.mu_c + 4.0 * wp.a
    return np.array([
        [p_l - wp.rho * x, -wp.a * k**2, 2.0j * wp.a * k],
        [-wp.a * k**2, q_t - wp.rho * x, -2.0j * k * wp.mu_c],
        [-2.0j * wp.a * k, 2.0j * k * wp.mu_c, s_r - wp.varrho_rot * x],
    ])


def dispersion_cubic(k: float, wp: WaveParams) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of det(wave_matrix) as a polynomial in
    ``x = omega**2``; exact closed-form expansion of the 3x3 determinant."""
    a, mu_c, rho, varrho = wp.a, wp.mu_c, wp.rho, wp.varrho_rot
    p_l = k**2 * (wp.lam + 2.0 * wp.mu)
    q_t = k**2 * (wp.mu + mu_c)
    s_r = wp.gamma * k**2 + 4.0 * mu_c + 4.0 * a
    c3 = -(rho**2) * varrho
    c2 = rho**2 * s_r + rho * varrho * (p_l + q_t)
    c1 = (-rho * s_r * (p_l + q_t) - varrho * p_l * q_t
          + 4.0 * mu_c**2 * k**2 * rho + a**2 * k**4 * varrho
          + 4.0 * a**2 * k**2 * rho)
    c0 = (p_l * q_t * s_r - 4.0 * mu_c**2 * k**2 * p_l - a**2 * k**4 * s_r
          - 4.0 * a**2 * k**2 * q_t + 8.0 * a**2 * k**4 * mu_c)
    return c3, c2, c1, c0


def _phase_normalize(z: np.ndarray) -> np.ndarray:
    """Rotate the global phase so u_hat, v_hat are real and phi_hat is
    imaginary (possible because the matrix is real except for the
    imaginary phi couplings), then fix the overall sign."""
    j = int(np.argmax(np.abs(z)))
    if abs(z[j]) == 0.0:
        return z
    if j < 2:
        factor = z[j] / abs(z[j])
    else:
        factor = z[2] / (1j * abs(z[2]))
    z = z / factor
    for lead in (z[0].real, z[1].real, z[2].imag):
        if abs(lead) > 1e-12:
            if lead < 0.0:
                z = -z
            break
    return z


def dispersion_branches(k: float, wp: WaveParams) -> list[WaveBranch]:
    """All branches omega >= 0 with singular wave matrix at this wavenumber,
    sorted by omega; raises NoRealBranch if no squared frequency is >= 0."""
    stiffness = wave_matrix(k, 0.0, wp)
    if not np.all(np.isfinite(stiffness)):
        raise NoRealBranch(
            f"wave matrix is not finite at k = {float(k)!r}")
    d_inv_sqrt = 1.0 / np.sqrt([wp.rho, wp.rho, wp.varrho_rot])
    scaled = d_inv_sqrt[:, None] * stiffness * d_inv_sqrt
    squared_frequencies, vectors = np.linalg.eigh(scaled)
    branches = []
    for x, y in zip(squared_frequencies, vectors.T):
        if x < 0.0:
            continue
        z = d_inv_sqrt * y
        z = _phase_normalize(z / np.linalg.norm(z))
        branches.append(WaveBranch(k=k, omega=math.sqrt(x),
                                   u_hat=complex(z[0]), v_hat=complex(z[1]),
                                   phi_hat=complex(z[2])))
    if not branches:
        raise NoRealBranch(
            f"wave matrix has no nonnegative squared frequency at k = "
            f"{float(k)!r}")
    return branches


def amplitude_ratio(k: float, omega: float, wp: WaveParams) -> float:
    """Displacement amplitude ratio u_hat / v_hat on a branch:
    ``A (k^2 mu - rho omega^2) / (A^2 k^2 - mu_c (k^2 (lam + 2 mu) - rho omega^2))``.
    Identically zero for A = 0 (pure transverse)."""
    if wp.a == 0.0:
        return 0.0
    num = wp.a * (k**2 * wp.mu - wp.rho * omega**2)
    den = wp.a**2 * k**2 - wp.mu_c * (k**2 * (wp.lam + 2.0 * wp.mu)
                                      - wp.rho * omega**2)
    if den == 0.0:
        raise ZeroDenominator("amplitude ratio denominator vanishes")
    return num / den


def phase_velocity(ratio: float, wp: WaveParams) -> float:
    """Phase velocity as a function of the amplitude ratio r = u_hat/v_hat:
    ``v(r) = sqrt((r (mu_c (lam + 2 mu) - A^2) + A mu) / (rho (mu_c r + A)))``."""
    num = ratio * (wp.mu_c * (wp.lam + 2.0 * wp.mu) - wp.a**2) + wp.a * wp.mu
    den = wp.rho * (wp.mu_c * ratio + wp.a)
    if den == 0.0:
        raise ZeroDenominator("phase velocity denominator vanishes")
    radicand = num / den
    if radicand < 0.0:
        raise ImaginarySpeed(f"squared phase velocity is negative: {radicand!r}")
    return math.sqrt(radicand)


def vt(wp: WaveParams) -> float:
    """Transverse limit (ratio -> 0) of the phase velocity: sqrt(mu/rho)."""
    return math.sqrt(wp.mu / wp.rho)


def vl(wp: WaveParams) -> float:
    """Longitudinal limit (ratio -> inf): sqrt((lam+2mu)/rho - A^2/(rho mu_c)),
    real exactly when A^2 < mu_c (lam + 2 mu)."""
    if wp.mu_c == 0.0:
        raise ZeroDenominator("longitudinal limit undefined for mu_c = 0")
    radicand = (wp.lam + 2.0 * wp.mu) / wp.rho - wp.a**2 / (wp.rho * wp.mu_c)
    if radicand < 0.0:
        raise ImaginarySpeed(
            "longitudinal speed imaginary: A^2 exceeds mu_c (lam + 2 mu)")
    return math.sqrt(radicand)


def transverse_free_solution(k: float, omega: float, wp: WaveParams):
    """The special wave with zero transverse displacement.

    Returns ``(u_over_phi, rho_implied, varrho_implied)``: the displacement
    amplitude per unit rotation amplitude (with a quarter-period phase shift
    between the two), and the densities at which the wave
    ``u = u_hat cos(kx - omega t), v = 0, phi = -phi_hat sin(kx - omega t)``
    solves the linear equations exactly.
    """
    if wp.mu_c == 0.0:
        raise ZeroDenominator(
            "only the trivial solution exists when mu_c = 0")
    if wp.a == 0.0:
        raise ZeroDenominator(
            "transverse-free wave needs a nonzero chiral modulus")
    if not k > 0.0 or not omega > 0.0:
        raise ZeroDenominator(
            "transverse-free wave needs k > 0 and omega > 0")
    u_over_phi = -2.0 * wp.mu_c / (wp.a * k)
    rho_implied = k**2 * (wp.mu_c * (wp.lam + 2.0 * wp.mu) - wp.a**2) / (
        wp.mu_c * omega**2)
    varrho_implied = (wp.gamma * k**2 + 4.0 * wp.a) / omega**2
    if rho_implied <= 0.0:
        raise InfeasibleDensity(
            f"implied translational density is not positive: {rho_implied!r}")
    if varrho_implied <= 0.0:
        raise InfeasibleDensity(
            f"implied rotational density is not positive: {varrho_implied!r}")
    return u_over_phi, rho_implied, varrho_implied


def transverse_free_residual(k: float, omega: float, wp: WaveParams,
                             phi_amplitude: float = 1.0) -> float:
    """Max relative residual of the transverse-free wave in the linearized
    equations evaluated at the implied densities, sampled analytically over
    one period (no grid truncation involved)."""
    u_over_phi, rho_implied, varrho_implied = transverse_free_solution(k, omega, wp)
    u_hat = u_over_phi * phi_amplitude
    p = liu_material(wp).replace(rho=rho_implied, rho_rot=0.25 * varrho_implied)

    worst = 0.0
    scale = 0.0
    for xk in (0.0, 0.3, 1.1, 2.4, 3.9, 5.2):
        for tw in (0.0, 0.7, 1.9, 4.4):
            ph = xk - tw  # = k*x - omega*t at x = xk/k, t = tw/omega
            cos_p, sin_p = math.cos(ph), math.sin(ph)
            zero = 0.0
            d = LinearDerivatives(
                u1x=-u_hat * k * sin_p, u1y=zero, u2x=zero, u2y=zero,
                u1xx=-u_hat * k**2 * cos_p, u1yy=zero, u1xy=zero,
                u2xx=zero, u2yy=zero, u2xy=zero,
                phi=-phi_amplitude * sin_p,
                phi_x=-phi_amplitude * k * cos_p, phi_y=zero,
                phi_xx=phi_amplitude * k**2 * sin_p, phi_yy=zero)
            f1, f2, f3 = linear_chiral_forces(d, p)
            u1_tt = -u_hat * omega**2 * cos_p
            phi_tt = phi_amplitude * omega**2 * sin_p
            res = (rho_implied * u1_tt - f1, -f2, varrho_implied * phi_tt - f3)
            worst = max(worst, *(abs(v) for v in res))
            scale = max(scale, abs(rho_implied * u1_tt),
                        abs(varrho_implied * phi_tt), abs(f1), abs(f3))
    if scale == 0.0:
        return 0.0 if worst == 0.0 else math.inf
    return worst / scale


def velocity_curve(wp: WaveParams, samples: int = 100):
    """(ratio, velocity) samples of the velocity law from ratio 0 to the
    longitudinal asymptote (last row has ratio = inf); rows where the law is
    singular or imaginary are skipped."""
    ratios = [0.0] + [math.tan(0.5 * math.pi * j / samples)
                      for j in range(1, samples)]
    rows = []
    for r in ratios:
        try:
            rows.append((r, phase_velocity(r, wp)))
        except (ZeroDenominator, ImaginarySpeed):
            continue
    try:
        rows.append((math.inf, vl(wp)))
    except (ZeroDenominator, ImaginarySpeed):
        pass
    return rows
