"""Plane-wave layer: cubic-vs-determinant, branch residuals, amplitude laws,
velocity asymptotes, and the transverse-free special wave."""

import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from conftest import reference_branches
from cosserat2d import waves
from cosserat2d.dynamics import linear_chiral_forces
from cosserat2d.errors import (
    ImaginarySpeed,
    InfeasibleDensity,
    NoRealBranch,
    ZeroDenominator,
)
from cosserat2d.waves import (
    WaveParams,
    amplitude_ratio,
    amplitude_ratios,
    dispersion_cubic,
    dispersion_sweep,
    liu_material,
    phase_velocity,
    transverse_free_residual,
    transverse_free_solution,
    velocity_curve,
    vl,
    vt,
    wave_matrix,
)


def random_wave_params(rng, chiral_fraction=0.6):
    """Random parameters with the longitudinal branch kept real
    (a^2 < mu_c (lam + 2 mu), with margin)."""
    mu = rng.uniform(0.3, 2.0)
    lam = rng.uniform(0.3, 2.0)
    mu_c = rng.uniform(0.3, 2.0)
    bound = math.sqrt(mu_c * (lam + 2.0 * mu))
    a = rng.uniform(-chiral_fraction, chiral_fraction) * bound
    return WaveParams(a=a, gamma=rng.uniform(0.01, 0.5), mu=mu, lam=lam,
                      mu_c=mu_c, rho=rng.uniform(0.5, 2.0),
                      varrho_rot=rng.uniform(1.0, 4.0))


def _poly(coeffs, x):
    c3, c2, c1, c0 = coeffs
    return ((c3 * x + c2) * x + c1) * x + c0


def test_cubic_matches_numerical_determinant():
    rng = np.random.default_rng(50)
    for _ in range(40):
        wp = random_wave_params(rng)
        k = rng.uniform(0.2, 3.0)
        x = rng.uniform(0.0, 10.0)
        m = wave_matrix(k, math.sqrt(x), wp)
        det = np.linalg.det(m)
        scale = max(np.max(np.abs(m)) ** 3, 1e-30)
        assert abs(det.imag) < 1e-12 * scale
        coeffs = dispersion_cubic(k, wp)
        assert abs(det.real - _poly(coeffs, x)) < 1e-12 * scale


def test_wave_matrix_is_exactly_hermitian():
    rng = np.random.default_rng(51)
    for _ in range(20):
        wp = random_wave_params(rng)
        m = wave_matrix(rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0), wp)
        npt.assert_array_equal(m, m.conj().T)


def test_stacked_wave_matrix_is_bitwise_the_scalar_matrices():
    rng = np.random.default_rng(61)
    # Enough wavenumbers that a few squares by the scalar power k**2 would
    # differ from k * k in the last bit.  k * k is finite at 1.3e154 and
    # overflows at 1.4e154; the scalar calls take Python floats, whose
    # products overflow to inf without a warning.
    ks = np.concatenate([rng.uniform(0.0, 60.0, 3000),
                         [0.0, 1.3e154, 1.4e154]])
    omegas = rng.uniform(0.0, 20.0, len(ks))
    for wp in (WaveParams(), random_wave_params(rng)):
        with np.errstate(over="ignore"):
            stack = wave_matrix(ks, omegas, wp)
        assert stack.shape == (len(ks), 3, 3)
        assert not np.isfinite(stack[-1]).all()
        for m, k, omega in zip(stack, ks.tolist(), omegas.tolist()):
            assert m.tobytes() == wave_matrix(k, omega, wp).tobytes()


def test_cubic_leading_coefficient_is_negative():
    rng = np.random.default_rng(52)
    for _ in range(10):
        wp = random_wave_params(rng)
        c3, _, _, _ = dispersion_cubic(rng.uniform(0.1, 3.0), wp)
        assert c3 == -(wp.rho**2) * wp.varrho_rot
        assert c3 < 0.0


def test_branches_annihilate_the_matrix():
    rng = np.random.default_rng(53)
    for _ in range(25):
        wp = random_wave_params(rng)
        k = rng.uniform(0.3, 3.0)
        table = dispersion_sweep([k], wp)
        assert len(table.omega), "expected at least one branch"
        omegas = table.omega.tolist()
        assert omegas == sorted(omegas)
        for omega, z in zip(omegas, table.amplitudes):
            assert omega >= 0.0
            m = wave_matrix(k, omega, wp)
            scale = max(np.max(np.abs(m)) ** 3, 1e-30)
            assert abs(np.linalg.det(m).real) < 1e-10 * scale
            npt.assert_allclose(np.linalg.norm(z), 1.0, rtol=1e-12)
            residual = np.linalg.norm(m @ z)
            assert residual < 1e-10 * max(np.max(np.abs(m)), 1e-30)
        # no root is missing: one branch per nonnegative real root
        roots = np.roots(dispersion_cubic(k, wp))
        real = np.sort(roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real)
        real = real[real >= 0.0]
        assert len(omegas) == len(real)
        npt.assert_allclose([omega**2 for omega in omegas], real, rtol=1e-10)


def test_double_root_gives_two_orthogonal_polarizations():
    wp = WaveParams()
    table = dispersion_sweep([0.0], wp)
    npt.assert_allclose(
        table.omega,
        [0.0, 0.0, math.sqrt(4.0 * (wp.mu_c + wp.a) / wp.varrho_rot)],
        rtol=1e-14, atol=0.0)
    for omega in table.omega.tolist():
        assert math.copysign(1.0, omega) == 1.0
    static = table.amplitudes[:2]
    assert abs(np.vdot(static[0], static[1])) < 1e-14
    m = wave_matrix(0.0, 0.0, wp)
    for z in static:
        npt.assert_allclose(np.linalg.norm(z), 1.0, rtol=1e-14)
        assert np.linalg.norm(m @ z) < 1e-14


def test_branch_phase_normalization():
    rng = np.random.default_rng(54)
    for _ in range(15):
        wp = random_wave_params(rng)
        table = dispersion_sweep([rng.uniform(0.3, 3.0)], wp)
        for u_hat, v_hat, phi_hat in table.amplitudes.tolist():
            assert abs(u_hat.imag) < 1e-12
            assert abs(v_hat.imag) < 1e-12
            assert abs(phi_hat.real) < 1e-12
            for lead in (u_hat.real, v_hat.real, phi_hat.imag):
                if abs(lead) > 1e-12:
                    assert lead > 0.0
                    break


def test_branches_even_in_wavenumber():
    rng = np.random.default_rng(55)
    for _ in range(10):
        wp = random_wave_params(rng)
        k = rng.uniform(0.3, 3.0)
        fwd = dispersion_sweep([k], wp).omega
        bwd = dispersion_sweep([-k], wp).omega
        npt.assert_allclose(fwd, bwd, rtol=1e-12, atol=1e-14)


def test_ratio_velocity_loop_closes_on_every_branch():
    rng = np.random.default_rng(56)
    for _ in range(20):
        wp = random_wave_params(rng)
        k = rng.uniform(0.3, 3.0)
        table = dispersion_sweep([k], wp)
        for omega, (u_hat, v_hat, _) in zip(table.omega.tolist(),
                                            table.amplitudes.tolist()):
            if omega < 1e-12:
                continue
            r = amplitude_ratio(k, omega, wp)
            v = phase_velocity(r, wp)
            npt.assert_allclose(v, omega / k, rtol=1e-8)
            # the nullspace amplitudes realize the same ratio
            if abs(v_hat) > 1e-8:
                npt.assert_allclose(u_hat.real / v_hat.real, r,
                                    rtol=1e-7, atol=1e-9)


def test_zero_chiral_modulus_decouples_longitudinal_branch():
    wp = WaveParams(a=0.0, gamma=0.02, mu=1.0, lam=1.0, mu_c=1.0,
                    rho=1.0, varrho_rot=4.0)
    assert amplitude_ratio(1.3, 0.9, wp) == 0.0
    assert vt(wp) == 1.0
    npt.assert_allclose(vl(wp), math.sqrt(3.0), rtol=1e-15)
    k = 1.7
    table = dispersion_sweep([k], wp)
    longitudinal = [omega for omega, (u_hat, v_hat, phi_hat)
                    in zip(table.omega.tolist(), table.amplitudes.tolist())
                    if abs(u_hat) > 0.99 and abs(v_hat) < 1e-10
                    and abs(phi_hat) < 1e-10]
    assert len(longitudinal) == 1
    npt.assert_allclose(longitudinal[0], k * math.sqrt(3.0), rtol=1e-12)


def test_velocity_curve_runs_between_the_two_asymptotes():
    wp = WaveParams()  # defaults: a=0.5, mu=lam=mu_c=rho=1
    rows = velocity_curve(wp, samples=60)
    assert rows[0] == (0.0, vt(wp))
    assert rows[-1][0] == math.inf
    npt.assert_allclose(rows[-1][1], vl(wp), rtol=1e-15)
    velocities = [v for _, v in rows]
    diffs = np.diff(velocities)
    assert np.all(diffs > 0.0), "curve should rise from vt to vl here"
    assert min(velocities) == velocities[0]
    assert max(velocities) == velocities[-1]


def test_realizability_inequality_is_strict():
    assert WaveParams(a=1.0, mu=1.0, lam=1.0, mu_c=1.0).realizable()
    exact = WaveParams(a=math.sqrt(3.0), mu=1.0, lam=1.0, mu_c=1.0)
    assert not exact.realizable() or exact.a**2 < 3.0  # sqrt rounding aside
    assert not WaveParams(a=2.0, mu=1.0, lam=1.0, mu_c=1.0).realizable()
    with pytest.raises(ImaginarySpeed):
        vl(WaveParams(a=2.0, mu=1.0, lam=1.0, mu_c=1.0))
    with pytest.raises(ZeroDenominator):
        vl(WaveParams(a=0.0, mu_c=0.0))


def test_transverse_free_wave_solves_the_equations():
    rng = np.random.default_rng(57)
    for _ in range(20):
        wp = random_wave_params(rng)
        # keep both implied densities positive: a > 0 suffices here
        wp = WaveParams(a=abs(wp.a) + 0.05, gamma=wp.gamma, mu=wp.mu,
                        lam=wp.lam, mu_c=wp.mu_c, rho=wp.rho,
                        varrho_rot=wp.varrho_rot)
        if not wp.realizable():
            continue
        k = rng.uniform(0.3, 3.0)
        omega = rng.uniform(0.3, 3.0)
        assert transverse_free_residual(k, omega, wp) < 1e-10


def test_transverse_free_solution_values():
    wp = WaveParams(a=0.5, gamma=0.02, mu=1.0, lam=1.0, mu_c=1.0,
                    rho=1.0, varrho_rot=4.0)
    k, omega = 2.0, 1.5
    u_over_phi, rho_i, varrho_i = transverse_free_solution(k, omega, wp)
    npt.assert_allclose(u_over_phi, -2.0 * 1.0 / (0.5 * 2.0), rtol=1e-15)
    npt.assert_allclose(rho_i, 4.0 * (3.0 - 0.25) / (1.0 * 2.25), rtol=1e-15)
    npt.assert_allclose(varrho_i, (0.02 * 4.0 + 2.0) / 2.25, rtol=1e-15)


def test_transverse_free_error_paths():
    base = dict(gamma=0.02, mu=1.0, lam=1.0, rho=1.0, varrho_rot=4.0)
    with pytest.raises(ZeroDenominator,
                       match="only the trivial solution exists when mu_c = 0"):
        transverse_free_solution(1.0, 1.0, WaveParams(a=0.5, mu_c=0.0, **base))
    with pytest.raises(ZeroDenominator, match="chiral modulus"):
        transverse_free_solution(1.0, 1.0, WaveParams(a=0.0, mu_c=1.0, **base))
    with pytest.raises(ZeroDenominator):
        transverse_free_solution(-1.0, 1.0, WaveParams(a=0.5, mu_c=1.0, **base))
    with pytest.raises(ZeroDenominator):
        transverse_free_solution(1.0, 0.0, WaveParams(a=0.5, mu_c=1.0, **base))
    # gamma k^2 + 4a <= 0 makes the implied rotational density non-positive
    with pytest.raises(InfeasibleDensity):
        transverse_free_solution(
            1.0, 1.0, WaveParams(a=-0.5, mu_c=1.0, **base))
    with pytest.raises(InfeasibleDensity, match=re.escape(
            "implied rotational density is not positive: -3.98")):
        transverse_free_solution(1.0, 1.0, WaveParams(a=-1.0))
    # a**2 > mu_c (lam + 2 mu) makes the implied translational one so
    with pytest.raises(InfeasibleDensity, match="^" + re.escape(
            "implied translational density is not positive: -1.0") + "$"):
        transverse_free_solution(1.0, 1.0, WaveParams(a=2.0))
    # omega**2 underflows to 0: a typed error, not a ZeroDivisionError
    with pytest.raises(ZeroDenominator, match="underflows to 0"):
        transverse_free_solution(1.0, 1e-200, WaveParams())
    with pytest.raises(ZeroDenominator, match="underflows to 0"):
        transverse_free_solution(1e-200, 1.0, WaveParams(a=1e-200))


def test_no_real_branch_is_reported():
    # An unstable (negative definite) modulus set: every squared frequency
    # is negative, so no propagating branch exists.  Unreachable for mu > 0,
    # where the longitudinal diagonal entry forces a positive eigenvalue.
    wp = WaveParams(a=-1.0, gamma=0.1, mu=-1.0, lam=-2.0, mu_c=-3.0,
                    rho=1.0, varrho_rot=4.0)
    table = dispersion_sweep([1.0], wp)
    assert len(table.omega) == 0
    assert table.missing == [
        "wave matrix has no nonnegative squared frequency at k = 1.0"]
    # a non-finite wavenumber, or one whose square overflows, has no branch
    # either (a message, not a crash)
    for k in (math.nan, math.inf, 1e200):
        table = dispersion_sweep([k], WaveParams())
        assert len(table.omega) == 0
        assert table.missing == [f"wave matrix is not finite at k = {k!r}"]


def reference_sweep(ks, wp):
    """The rows and missing messages of a sweep, one wavenumber at a time
    (:func:`conftest.reference_branches`)."""
    rows, missing = [], []
    for k in ks:
        try:
            # a huge k overflows the matrix: no branch, and no warning
            with np.errstate(over="ignore", invalid="ignore"):
                branches = reference_branches(k, wp)
        except NoRealBranch as exc:
            missing.append(str(exc))
            continue
        rows += [(k, index, omega, z)
                 for index, (omega, z) in enumerate(branches)]
    return rows, missing


def assert_sweep_matches_reference(ks, wp):
    """The stacked sweep gives the per-wavenumber bits: wavenumbers,
    branch indices, omega and the full complex amplitudes."""
    table = dispersion_sweep(ks, wp)
    rows, missing = reference_sweep(ks, wp)
    assert table.missing == missing
    k, index, omega, z = (np.array(c) for c in zip(*rows)) if rows else (
        np.zeros(0), np.zeros(0, int), np.zeros(0), np.zeros((0, 3), complex))
    assert table.k.tobytes() == k.tobytes()
    assert table.index.tolist() == index.tolist()
    assert table.omega.tobytes() == omega.tobytes()
    assert table.amplitudes.tobytes() == z.tobytes()


# nan and inf have no branch; a negative chiral modulus leaves two branches
# at k = 2 pi and none of the unstable set has any; k = 0 is a double root.
SWEEP_CASES = [
    (WaveParams(), [0.0, 0.5, -1.0]),
    (WaveParams(), [1.0, math.nan, 2.0, math.inf, -math.inf]),
    (WaveParams(a=-0.9), np.linspace(0.0, 4.0 * math.pi, 41)),
    (WaveParams(a=-1.0, gamma=0.1, mu=-1.0, lam=-2.0, mu_c=-3.0), [0.5, 1.0]),
    (WaveParams(), np.array([1.0, 1e200, 1e300])),
]


@pytest.mark.parametrize("wp, ks", SWEEP_CASES)
def test_sweep_is_bitwise_the_per_wavenumber_loop(wp, ks):
    assert_sweep_matches_reference(ks, wp)


def test_sweep_of_random_parameters_is_bitwise_the_per_wavenumber_loop():
    rng = np.random.default_rng(59)
    for _ in range(20):
        wp = random_wave_params(rng, chiral_fraction=1.2)
        ks = np.linspace(rng.uniform(0.0, 1.0), rng.uniform(1.0, 60.0), 300)
        assert_sweep_matches_reference(ks, wp)


def test_sweep_blocks_do_not_change_the_rows(monkeypatch):
    wp = WaveParams(a=-0.9)
    ks = np.linspace(0.0, 12.0, 50)
    whole = dispersion_sweep(ks, wp)
    monkeypatch.setattr(waves, "BLOCK_ROWS", 7)
    blocked = dispersion_sweep(ks, wp)
    for column, other in zip(whole, blocked):
        assert np.asarray(column).tobytes() == np.asarray(other).tobytes()
    assert_sweep_matches_reference(ks, wp)


def test_amplitude_ratios_are_the_scalar_ratios():
    rng = np.random.default_rng(60)
    for _ in range(10):
        wp = random_wave_params(rng)
        table = dispersion_sweep(np.linspace(0.05, 30.0, 200), wp)
        ratios = amplitude_ratios(table.k, table.omega, wp)
        expected = []
        for k, omega in zip(table.k, table.omega.tolist()):
            try:
                expected.append(amplitude_ratio(k, omega, wp))
            except ZeroDenominator:
                expected.append(math.nan)
        assert ratios.tobytes() == np.array(expected).tobytes()
    # a vanishing denominator reads nan; A = 0 reads zero
    wp = WaveParams(a=1.0, mu_c=1.0, lam=1.0, mu=1.0, rho=2.0)
    with pytest.raises(ZeroDenominator):
        amplitude_ratio(1.0, 1.0, wp)
    assert np.isnan(amplitude_ratios(np.array([1.0]), np.array([1.0]), wp)[0])
    assert amplitude_ratios(np.array([1.0, 2.0]), np.array([0.5, 1.0]),
                            WaveParams(a=0.0)).tolist() == [0.0, 0.0]


def test_material_round_trip_preserves_wave_parameters():
    rng = np.random.default_rng(58)
    for _ in range(10):
        wp = random_wave_params(rng)
        p = liu_material(wp)
        assert p.mu_s == wp.a
        assert p.lam_s == -2.0 * wp.a
        assert p.mu_c_s == -wp.a
        npt.assert_allclose(0.5 * p.m1 + p.m2, -wp.a, rtol=0, atol=1e-15)
        back = WaveParams.from_material(p)
        npt.assert_allclose(back.gamma, wp.gamma, rtol=1e-14)
        for name in ("a", "mu", "lam", "mu_c", "rho", "varrho_rot"):
            npt.assert_allclose(getattr(back, name), getattr(wp, name),
                                rtol=1e-15)


def test_wave_params_validation():
    with pytest.raises(Exception):
        WaveParams(rho=0.0)
    with pytest.raises(Exception):
        WaveParams(varrho_rot=-1.0)


def _linear_forces_symbol(k, p):
    """The matrix of :func:`linear_chiral_forces` on the Fourier mode
    ``exp(ikx)`` of ``(u1, u2, phi)``: ``d/dx = ik``, ``d/dy = 0``."""
    columns = [linear_chiral_forces(*unit, lambda f: 1j * k * f,
                                    lambda f: 0j, lambda f: -k**2 * f,
                                    lambda f: 0j, p)
               for unit in np.eye(3, dtype=complex)]
    return np.array(columns).T


def test_linear_forces_symbol_is_the_wave_matrix_with_the_angle_flipped():
    # ROADMAP item 1, mismatch 1: the linear forces and the wave matrix
    # agree except for the sign of the rotation variable, -S K S with
    # S = diag(1, 1, -1), not -K.  Settling item 1 flips this assertion.
    flip = np.diag([1.0, 1.0, -1.0])
    rng = np.random.default_rng(61)
    for _ in range(40):
        wp = random_wave_params(rng)
        p = liu_material(wp)
        for k in rng.uniform(0.1, 5.0, size=5):
            symbol = _linear_forces_symbol(k, p)
            stiffness = wave_matrix(k, 0.0, wp)
            scale = np.max(np.abs(stiffness))
            assert (np.max(np.abs(symbol + flip @ stiffness @ flip))
                    <= 1e-14 * scale)
            # -K misses by twice each entry that couples u to phi; the
            # u2-phi entry, 2 k mu_c, is never zero here.
            coupling = np.abs(stiffness[:2, 2])
            assert coupling[1] > 0.0
            assert np.all(np.abs((symbol + stiffness)[:2, 2])
                          >= 1.9 * coupling)


@pytest.mark.parametrize("slot", [1, 2], ids=["rho", "varrho_rot"])
def test_transverse_free_residual_sees_a_wrong_density(monkeypatch, slot):
    exact = waves.transverse_free_solution

    def off_by_1e_6(k, omega, wp):
        solution = list(exact(k, omega, wp))
        solution[slot] *= 1.0 + 1e-6
        return tuple(solution)

    monkeypatch.setattr(waves, "transverse_free_solution", off_by_1e_6)
    assert transverse_free_residual(1.2, 0.9, WaveParams()) >= 1e-7
