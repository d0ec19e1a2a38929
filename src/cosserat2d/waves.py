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
double root yields two ``D``-orthogonal polarizations.  A sweep over many
wavenumbers solves these eigenproblems stacked (:func:`dispersion_sweep`);
one wavenumber ``k`` is ``dispersion_sweep([k], wp)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import linear_chiral_forces
from .errors import (
    ConfigError,
    ImaginarySpeed,
    InfeasibleDensity,
    ZeroDenominator,
)
from .materials import MaterialParams
from .report import BLOCK_ROWS, VerificationReport


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


def wave_matrix(k, omega, wp: WaveParams) -> np.ndarray:
    """Hermitian 3x3 system matrix acting on (u_hat, v_hat, phi_hat); with
    ``k`` an array, the stack of shape ``k.shape + (3, 3)``."""
    k2, x = k * k, omega * omega
    p_l = k2 * (wp.lam + 2.0 * wp.mu)
    q_t = k2 * (wp.mu + wp.mu_c)
    s_r = wp.gamma * k2 + 4.0 * wp.mu_c + 4.0 * wp.a
    m = np.empty(np.shape(k) + (3, 3), dtype=complex)
    m[..., 0, 0] = p_l - wp.rho * x
    m[..., 0, 1] = m[..., 1, 0] = -wp.a * k2
    m[..., 0, 2] = 2.0j * wp.a * k
    m[..., 1, 1] = q_t - wp.rho * x
    m[..., 1, 2] = -2.0j * k * wp.mu_c
    m[..., 2, 0] = -2.0j * wp.a * k
    m[..., 2, 1] = 2.0j * k * wp.mu_c
    m[..., 2, 2] = s_r - wp.varrho_rot * x
    return m


def dispersion_cubic(k: float, wp: WaveParams) -> tuple[float, float, float, float]:
    """Coefficients (c3, c2, c1, c0) of det(wave_matrix) as a polynomial in
    ``x = omega**2``; exact closed-form expansion of the 3x3 determinant."""
    a, mu_c, rho, varrho = wp.a, wp.mu_c, wp.rho, wp.varrho_rot
    k2 = k * k
    k4 = k2 * k2
    p_l = k2 * (wp.lam + 2.0 * wp.mu)
    q_t = k2 * (wp.mu + mu_c)
    s_r = wp.gamma * k2 + 4.0 * mu_c + 4.0 * a
    c3 = -(rho**2) * varrho
    c2 = rho**2 * s_r + rho * varrho * (p_l + q_t)
    c1 = (-rho * s_r * (p_l + q_t) - varrho * p_l * q_t
          + 4.0 * mu_c**2 * k2 * rho + a**2 * k4 * varrho
          + 4.0 * a**2 * k2 * rho)
    c0 = (p_l * q_t * s_r - 4.0 * mu_c**2 * k2 * p_l - a**2 * k4 * s_r
          - 4.0 * a**2 * k2 * q_t + 8.0 * a**2 * k4 * mu_c)
    return c3, c2, c1, c0


class BranchTable(NamedTuple):
    """The branches of a wavenumber sweep, one row per branch: wavenumber
    by wavenumber, each by increasing ``omega``."""

    k: np.ndarray
    #: The branch's place among the branches of its wavenumber.
    index: np.ndarray
    omega: np.ndarray
    #: ``(u_hat, v_hat, phi_hat)`` of each row, shape ``(rows, 3)``.
    amplitudes: np.ndarray
    #: One message per wavenumber without a branch, in sweep order.
    missing: list[str]


def _phase_normalize(z: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each triple on the last axis so u_hat,
    v_hat are real and phi_hat is imaginary (possible because the matrix is
    real except for the imaginary phi couplings), then fix the overall
    sign: the first of u_hat.real, v_hat.real, phi_hat.imag above 1e-12 in
    size is positive.  The largest component sets the phase."""
    j = np.argmax(np.abs(z), axis=-1)[..., None]
    lead = np.take_along_axis(z, j, axis=-1)
    # The size of one complex number is its hypot, which the array abs
    # does not always reproduce.
    size = np.hypot(lead.real, lead.imag)
    z = z / np.where(j < 2, lead / size, lead / (1j * size))
    leads = np.stack([z[..., 0].real, z[..., 1].real, z[..., 2].imag], axis=-1)
    big = np.abs(leads) > 1e-12
    first = np.take_along_axis(np.where(big, leads, 0.0),
                               np.argmax(big, axis=-1)[..., None], axis=-1)
    return np.where(first < 0.0, -z, z)


def _branch_block(ks, wp: WaveParams) -> BranchTable:
    """:func:`dispersion_sweep` of one block of wavenumbers."""
    k = np.asarray(ks, dtype=float)
    # Past about k = 1e154 the matrix overflows; it is then reported missing.
    with np.errstate(over="ignore", invalid="ignore"):
        stiffness = wave_matrix(k, 0.0, wp)
    finite = np.isfinite(stiffness).all(axis=(-2, -1))
    d_inv_sqrt = 1.0 / np.sqrt([wp.rho, wp.rho, wp.varrho_rot])
    scaled = d_inv_sqrt[:, None] * stiffness[finite] * d_inv_sqrt
    squared_frequencies, vectors = np.linalg.eigh(scaled)
    # One amplitude triple per (wavenumber, branch).
    z = d_inv_sqrt * np.swapaxes(vectors, -2, -1)
    z = _phase_normalize(z / np.linalg.norm(z, axis=-1)[..., None])
    real = ~(squared_frequencies < 0.0)
    found = np.zeros(k.shape, dtype=bool)
    found[finite] = real.any(axis=-1)
    missing = [
        f"wave matrix is not finite at k = {value!r}" if not is_finite else
        f"wave matrix has no nonnegative squared frequency at k = {value!r}"
        for value, is_finite in zip(k[~found].tolist(), finite[~found])]
    return BranchTable(
        k=np.broadcast_to(k[finite][:, None], real.shape)[real],
        index=(np.cumsum(real, axis=-1) - 1)[real],
        omega=np.sqrt(squared_frequencies[real]),
        amplitudes=z[real],
        missing=missing)


def dispersion_sweep(ks, wp: WaveParams) -> BranchTable:
    """All branches ``omega >= 0`` with singular wave matrix at each
    wavenumber of ``ks``, by one stacked eigenproblem per block of
    :data:`~cosserat2d.report.BLOCK_ROWS` wavenumbers.

    ``x = omega**2`` runs over the eigenvalues ``x >= 0`` of
    ``D^-1/2 K(k) D^-1/2``; each eigenvector mapped through ``D^-1/2`` and
    normalized is the amplitude triple, its phase and sign fixed by
    :func:`_phase_normalize`.  A wavenumber whose matrix is not finite, or
    that has no branch, is named in :attr:`BranchTable.missing`.
    """
    blocks = [_branch_block(ks[start:start + BLOCK_ROWS], wp)
              for start in range(0, len(ks), BLOCK_ROWS)]
    return BranchTable(
        *(np.concatenate(column) for column in zip(*(b[:4] for b in blocks))),
        missing=[message for b in blocks for message in b.missing])


def _ratio_terms(k, omega, wp: WaveParams):
    """Numerator and denominator of :func:`amplitude_ratio`."""
    k2, x = k * k, omega * omega
    num = wp.a * (k2 * wp.mu - wp.rho * x)
    den = wp.a**2 * k2 - wp.mu_c * (k2 * (wp.lam + 2.0 * wp.mu) - wp.rho * x)
    return num, den


def amplitude_ratio(k: float, omega: float, wp: WaveParams) -> float:
    """Displacement amplitude ratio u_hat / v_hat on a branch:
    ``A (k^2 mu - rho omega^2) / (A^2 k^2 - mu_c (k^2 (lam + 2 mu) - rho omega^2))``.
    Identically zero for A = 0 (pure transverse)."""
    if wp.a == 0.0:
        return 0.0
    num, den = _ratio_terms(k, omega, wp)
    if den == 0.0:
        raise ZeroDenominator("amplitude ratio denominator vanishes")
    return num / den


def amplitude_ratios(k: np.ndarray, omega: np.ndarray,
                     wp: WaveParams) -> np.ndarray:
    """:func:`amplitude_ratio` of each ``(k, omega)`` pair of two arrays,
    ``nan`` where its denominator vanishes."""
    if wp.a == 0.0:
        return np.zeros(len(k))
    num, den = _ratio_terms(k, omega, wp)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den == 0.0, np.nan, num / den)


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
    k2, x = k * k, omega * omega
    if 0.0 in (wp.a * k, wp.mu_c * x):  # a product underflowed
        raise ZeroDenominator(
            f"transverse-free wave denominator underflows to 0 at "
            f"k = {k!r}, omega = {omega!r}")
    u_over_phi = -2.0 * wp.mu_c / (wp.a * k)
    rho_implied = k2 * (wp.mu_c * (wp.lam + 2.0 * wp.mu) - wp.a**2) / (
        wp.mu_c * x)
    varrho_implied = (wp.gamma * k2 + 4.0 * wp.a) / x
    if rho_implied <= 0.0:
        raise InfeasibleDensity(
            f"implied translational density is not positive: {rho_implied!r}")
    if varrho_implied <= 0.0:
        raise InfeasibleDensity(
            f"implied rotational density is not positive: {varrho_implied!r}")
    return u_over_phi, rho_implied, varrho_implied


def transverse_free_residual(k: float, omega: float, wp: WaveParams) -> float:
    """Largest relative residual over one period of the transverse-free wave
    in the linearized equations at the implied densities (no grid involved).

    The wave is the real part of ``(u_hat, 0, i) exp(i(kx - omega t))``, on
    which ``d/dx`` is a factor ``ik``, ``d/dy`` is 0, ``d2/dx2`` is ``-k**2``
    and ``d2/dt2`` is ``-omega**2``; the largest value of each equation over
    the period is the modulus of its complex amplitude.
    """
    u_over_phi, rho_implied, varrho_implied = transverse_free_solution(k, omega, wp)
    p = liu_material(replace(wp, rho=rho_implied, varrho_rot=varrho_implied))
    f1, f2, f3 = linear_chiral_forces(
        u_over_phi, 0.0, 1j, lambda f: 1j * k * f, lambda f: 0.0,
        lambda f: -(k * k) * f, lambda f: 0.0, p)
    inertia_u = -rho_implied * (omega * omega) * u_over_phi
    inertia_phi = -varrho_implied * (omega * omega) * 1j
    worst = max(abs(inertia_u - f1), abs(f2), abs(inertia_phi - f3))
    return worst / max(abs(inertia_u), abs(inertia_phi), abs(f1), abs(f3))


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


def wave_identity_report() -> VerificationReport:
    """Plane-wave identities on a fixed realizable preset: branch residuals,
    the ratio/velocity loop, the two speed limits, curve monotonicity, and
    the transverse-displacement-free wave."""
    wp = WaveParams()

    def errors(k, omega, vec):
        coeffs = dispersion_cubic(k, wp)
        x = omega * omega
        value = abs(((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x
                    + coeffs[3])
        det_scale = max(abs(coeffs[0] * x**3), abs(coeffs[1] * x**2),
                        abs(coeffs[2] * x), abs(coeffs[3]), 1e-300)
        m = wave_matrix(k, omega, wp)
        speed = phase_velocity(amplitude_ratio(k, omega, wp), wp)
        return {
            "wave_determinant_residual": value / det_scale,
            "wave_nullspace_residual": float(np.linalg.norm(m @ vec))
            / (float(np.linalg.norm(m)) * float(np.linalg.norm(vec))),
            "wave_velocity_loop_closure": abs(speed - omega / k) / (omega / k),
        }

    table = dispersion_sweep((0.3, 1.0, 2.7), wp)
    report = VerificationReport()
    rows = [errors(*row) for row in zip(
        table.k.tolist(), table.omega.tolist(), table.amplitudes)]
    report.add_maxima({name: [row[name] for row in rows] for name in rows[0]},
                      1e-10, wave_velocity_loop_closure=1e-8)

    report.add("wave_transverse_speed_limit",
               abs(phase_velocity(0.0, wp) - vt(wp)) / vt(wp), 1e-8)
    report.add("wave_longitudinal_speed_limit",
               abs(phase_velocity(1e12, wp) - vl(wp)) / vl(wp), 1e-8)

    curve = velocity_curve(wp, samples=200)
    finite = [v for r, v in curve if math.isfinite(r)]
    increasing = all(b >= a for a, b in zip(finite, finite[1:]))
    decreasing = all(b <= a for a, b in zip(finite, finite[1:]))
    report.flag("wave_velocity_curve_monotone", increasing or decreasing)

    tf_worst = max(transverse_free_residual(1.2, 0.9, wp),
                   transverse_free_residual(0.7, 1.3, wp))
    report.add("wave_transverse_free_residual", tf_worst, 1e-10)
    return report


def realizability_flag_report() -> VerificationReport:
    """Convention indicator row of :meth:`WaveParams.realizable`: the
    inequality ``A^2 < mu_c (lam + 2 mu)`` holds for the preset and fails
    for ``A = 2``, so its orientation is the corrected one (see the README
    notes)."""
    report = VerificationReport()
    good = WaveParams().realizable()
    bad = WaveParams(a=2.0).realizable()
    report.flag("flag_realizability_inequality_orientation", good and not bad)
    return report
