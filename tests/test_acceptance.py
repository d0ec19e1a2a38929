"""Acceptance gate: nine pinned guarantees, self-contained and tolerance-pinned.

1. Assembled accelerations are the discrete energy gradient to 1e-10
   relative (1e-8 with the regularized coupled-gradient term active).
2. Every energy term's analytic variation matches central finite
   differences of its discrete total at 50 random nodes to 1e-6 relative.
3. Uniform equilibria: trivial angles zero the residual to 1e-14 across 100
   random parameter sets; infeasibility and the constructed vanishing-sum
   root behave exactly as documented; the quarter-turn special angle is
   tied to a vanishing couple modulus.
4. The single-modulus linearized equations match a hand-written assembly of
   every printed coefficient (including the -4(mu_c+A)phi zeroth-order
   term) to 1e-13 relative on 20 random states.
5. Dispersion branches zero the cubic to 1e-10 relative, their amplitude
   triples annihilate the wave matrix to 1e-10, and the ratio/velocity law
   runs monotonically between its two asymptotes (1e-8 at the endpoints).
6. The transverse-displacement-free wave solves the linearized equations to
   1e-10 at 20 random wavenumber/frequency pairs, and degenerates exactly
   as documented when the couple modulus vanishes.
7. The three-dimensional reduction checks all pass (strict small-angle
   variant to 1e-10) within 5 seconds.
8. The integrator: relative energy drift below 0.1% over 1000 steps at
   dt = 0.1 h / c_l, exact time reversibility to 1e-13, and a standing-wave
   frequency within 1% of the dispersion prediction at nx = 128.
9. Every CSV artifact is byte-identical across repeated runs.
"""

import json
import math
import time

import numpy as np
import pytest

from cosserat2d.cli import main
from cosserat2d.dynamics import (
    homogeneous_residual,
    homogeneous_roots,
    rhs_chiral,
    rhs_linear_chiral,
    rhs_nonlinear,
    step_leapfrog,
)
from cosserat2d.energy import ALL_TERMS, analytic_variations, potential_total
from cosserat2d.errors import ZeroDenominator
from cosserat2d.fields import FieldState, Grid, ddx, ddxx, ddy, ddyy
from cosserat2d.materials import MaterialParams, ModelSelector
from cosserat2d.reduction3d import (
    default_planar_sample,
    full_reduction_report,
    second_problem_check,
)
from cosserat2d.rng import random_smooth_state
from cosserat2d.waves import (
    WaveParams,
    amplitude_ratio,
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


def _rel(diff, reference):
    num = float(np.max(np.abs(diff)))
    den = float(np.max(np.abs(reference)))
    return num / den if den > 0.0 else (0.0 if num == 0.0 else math.inf)


def _random_params(rng, chiral=False, **overrides):
    kwargs = dict(mu=0.5 + rng.random(), lam=1.5 * rng.random(),
                  mu_c=0.2 + rng.random(), L_c=0.05 + 0.2 * rng.random(),
                  rho=0.5 + rng.random(), rho_rot=0.5 + rng.random())
    if chiral:
        kwargs.update(mu_s=rng.random() - 0.5, lam_s=rng.random() - 0.5,
                      mu_c_s=rng.random() - 0.5, m1=rng.random() - 0.5,
                      m2=rng.random() - 0.5, m3=rng.random() - 0.5)
    kwargs.update(overrides)
    return MaterialParams(**kwargs)


# --------------------------------------------------------------------------
# Criterion 1: accelerations are the exact discrete energy gradient
# --------------------------------------------------------------------------

def test_criterion_1_variational_consistency():
    started = time.monotonic()
    grid = Grid(nx=32, ny=32, lx=2.0, ly=2.0)
    rng = np.random.default_rng(1001)
    cases = []
    for i in range(8):
        cases.append((_random_params(rng), ModelSelector.nonchiral("polar"),
                      1e-10))
    for i in range(4):
        cases.append((_random_params(rng), ModelSelector.nonchiral("skew"),
                      1e-10))
    for i in range(4):
        cases.append((_random_params(rng, chi=0.5 + rng.random()),
                      ModelSelector.nonchiral("polar"), 1e-8))
    for i in range(4):
        cases.append((_random_params(rng, chiral=True),
                      ModelSelector.chiral(), 1e-10))
    assert len(cases) == 20

    for index, (p, sel, tol) in enumerate(cases):
        state = random_smooth_state(grid, seed=5000 + index, amplitude=0.05,
                                    modes=3)
        if sel.is_chiral:
            acc = rhs_chiral(state, p)
        else:
            acc = rhs_nonlinear(state, p, coupling=sel.coupling)
        dv_du, dv_dth = analytic_variations(state, p, sel.active_terms())
        assert _rel(p.rho * acc.acc_u + dv_du, dv_du) < tol, index
        assert _rel(2.0 * p.rho_rot * acc.acc_theta + dv_dth, dv_dth) < tol, \
            index
    assert time.monotonic() - started < 30.0


# --------------------------------------------------------------------------
# Criterion 2: per-term finite-difference gradient check
# --------------------------------------------------------------------------

def test_criterion_2_per_term_fd_gradients():
    grid = Grid(nx=16, ny=16, lx=2.0, ly=2.0)
    state = random_smooth_state(grid, seed=2024, amplitude=0.1, modes=3)
    p = MaterialParams(mu=1.1, lam=0.7, mu_c=0.6, L_c=0.25, chi=0.6,
                       rho=1.0, rho_rot=1.0, mu_s=0.4, lam_s=0.3,
                       mu_c_s=-0.2, m1=0.3, m2=-0.15, m3=0.2)
    step = 1e-6
    area = grid.cell_area
    rng = np.random.default_rng(77)

    for term in ALL_TERMS:
        terms = (term,)
        dv_du, dv_dth = analytic_variations(state, p, terms)
        worst = 0.0
        scale = 0.0
        for _ in range(50):
            name = ("u1", "u2", "theta")[rng.integers(0, 3)]
            i = int(rng.integers(0, grid.nx))
            j = int(rng.integers(0, grid.ny))
            analytic = (dv_dth[i, j] if name == "theta"
                        else dv_du[0 if name == "u1" else 1, i, j])
            plus, minus = state.copy(), state.copy()
            getattr(plus, name)[i, j] += step
            getattr(minus, name)[i, j] -= step
            fd = (potential_total(plus, p, terms)
                  - potential_total(minus, p, terms)) / (2.0 * step)
            worst = max(worst, abs(analytic * area - fd))
            scale = max(scale, abs(fd), abs(analytic * area))
        assert scale > 0.0, term
        assert worst / scale < 1e-6, term


# --------------------------------------------------------------------------
# Criterion 3: uniform equilibria
# --------------------------------------------------------------------------

def test_criterion_3_uniform_equilibria():
    rng = np.random.default_rng(31)

    # trivial angles across 100 random parameter sets, both model kinds
    for trial in range(100):
        chiral = trial % 2 == 1
        p = _random_params(rng, chiral=chiral)
        sel = ModelSelector.chiral() if chiral else ModelSelector.nonchiral(
            ("polar", "skew")[trial % 4 // 2])
        assert abs(homogeneous_residual(0.0, p, sel)) < 1e-14
        assert abs(homogeneous_residual(math.pi, p, sel)) < 1e-14

    # positive couple modulus leaves only the trivial equilibria
    for _ in range(25):
        p = _random_params(rng)  # mu_c >= 0.2, lam + mu > 0 by construction
        roots = homogeneous_roots(p, ModelSelector.nonchiral("polar"))
        assert not roots.feasible
        assert roots.nontrivial_cos is not None and roots.nontrivial_cos > 1.0
        assert sorted(roots.all_roots()) == sorted([0.0, math.pi])

    # vanishing-sum construction: the nontrivial cosine is exactly zero and
    # the residual vanishes there to 1e-12
    for trial in range(20):
        base = _random_params(rng, chiral=True, m3=0.4 + rng.random())
        m2 = -0.5 * (base.mu + base.lam + base.mu_s + base.lam_s + base.m1)
        p = base.replace(m2=m2)
        sel = ModelSelector.chiral()
        roots = homogeneous_roots(p, sel)
        assert roots.feasible
        assert roots.nontrivial_cos == 0.0
        worst = max(abs(homogeneous_residual(r, p, sel))
                    for r in roots.all_roots())
        assert worst < 1e-12

    # the quarter turn is an equilibrium-adjacent special angle only without
    # a couple modulus: the residual there is lam + mu, plus mu_c otherwise
    for _ in range(20):
        mu, lam = 0.5 + rng.random(), 1.5 * rng.random()
        sel = ModelSelector.nonchiral("polar")
        clean = homogeneous_residual(
            0.5 * math.pi, MaterialParams(mu=mu, lam=lam, mu_c=0.0), sel)
        assert abs(clean - (lam + mu)) < 1e-13
        shifted = homogeneous_residual(
            0.5 * math.pi, MaterialParams(mu=mu, lam=lam, mu_c=0.3), sel)
        assert abs(shifted - (lam + mu + 0.3)) < 1e-13


# --------------------------------------------------------------------------
# Criterion 4: linearized single-modulus equations, coefficient by
# coefficient
# --------------------------------------------------------------------------

def _hand_assembled_linear_forces(state, p):
    g = state.grid
    u1, u2 = state.u1, state.u2
    phi = -state.theta
    a = p.mu_s
    gamma = 2.0 * p.mu * p.L_c**2
    mu, lam, mu_c = p.mu, p.lam, p.mu_c

    u1xy = ddy(ddx(u1, g), g)
    u2xy = ddy(ddx(u2, g), g)
    phi_x, phi_y = ddx(phi, g), ddy(phi, g)

    f1 = ((lam + 2.0 * mu) * ddxx(u1, g) + (mu + mu_c) * ddyy(u1, g)
          + (lam + mu - mu_c) * u2xy
          - a * (-2.0 * u1xy + ddxx(u2, g) - ddyy(u2, g))
          + 2.0 * a * phi_x + 2.0 * mu_c * phi_y)
    f2 = ((mu + mu_c) * ddxx(u2, g) + (lam + 2.0 * mu) * ddyy(u2, g)
          + (lam + mu - mu_c) * u1xy
          - a * (ddxx(u1, g) - ddyy(u1, g) + 2.0 * u2xy)
          - 2.0 * mu_c * phi_x + 2.0 * a * phi_y)
    f3 = (gamma * (ddxx(phi, g) + ddyy(phi, g))
          - 4.0 * (mu_c + a) * phi
          + 2.0 * mu_c * (ddx(u2, g) - ddy(u1, g))
          - 2.0 * a * (ddx(u1, g) + ddy(u2, g)))
    return f1, f2, f3


def test_criterion_4_linear_chiral_coefficients():
    grid = Grid(nx=12, ny=10, lx=1.9, ly=1.3)
    rng = np.random.default_rng(404)
    for trial in range(20):
        wp = WaveParams(a=rng.uniform(-1.0, 1.0),
                        gamma=rng.uniform(0.01, 0.4),
                        mu=rng.uniform(0.4, 1.6), lam=rng.uniform(0.4, 1.6),
                        mu_c=rng.uniform(0.4, 1.6), rho=rng.uniform(0.5, 2.0),
                        varrho_rot=rng.uniform(1.0, 4.0))
        p = liu_material(wp)
        state = random_smooth_state(grid, seed=7000 + trial, amplitude=1.0,
                                    modes=2)
        out = rhs_linear_chiral(state, p)
        f1, f2, f3 = _hand_assembled_linear_forces(state, p)
        scale = max(np.max(np.abs(f1)), np.max(np.abs(f2)),
                    np.max(np.abs(f3)))
        assert scale > 0.0
        assert np.max(np.abs(p.rho * out.acc_u[0] - f1)) < 1e-13 * scale
        assert np.max(np.abs(p.rho * out.acc_u[1] - f2)) < 1e-13 * scale
        assert np.max(np.abs(-4.0 * p.rho_rot * out.acc_theta - f3)) \
            < 1e-13 * scale


# --------------------------------------------------------------------------
# Criterion 5: dispersion branches and the velocity law
# --------------------------------------------------------------------------

def _branch_residuals(wp, wavenumbers):
    det_worst = 0.0
    null_worst = 0.0
    for k in wavenumbers:
        coeffs = dispersion_cubic(k, wp)
        table = dispersion_sweep([k], wp)
        assert not table.missing
        for omega, z in zip(table.omega.tolist(), table.amplitudes):
            x = omega**2
            value = abs(((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x
                        + coeffs[3])
            scale = max(abs(coeffs[0] * x**3), abs(coeffs[1] * x**2),
                        abs(coeffs[2] * x), abs(coeffs[3]), 1e-300)
            det_worst = max(det_worst, value / scale)
            m = wave_matrix(k, omega, wp)
            null_worst = max(null_worst, float(
                np.linalg.norm(m @ z)
                / (np.linalg.norm(m) * np.linalg.norm(z))))
    return det_worst, null_worst


def test_criterion_5_dispersion_branches_and_velocity_law():
    rng = np.random.default_rng(505)
    ks = list(np.linspace(0.25, 4.0, 8))

    params = [WaveParams()]
    while len(params) < 11:
        mu = rng.uniform(0.4, 1.6)
        lam = rng.uniform(0.4, 1.6)
        mu_c = rng.uniform(0.4, 1.6)
        a = rng.uniform(0.05, 0.7) * math.sqrt(mu_c * (lam + 2.0 * mu))
        params.append(WaveParams(a=a, gamma=rng.uniform(0.01, 0.4), mu=mu,
                                 lam=lam, mu_c=mu_c, rho=rng.uniform(0.5, 2.0),
                                 varrho_rot=rng.uniform(1.0, 4.0)))

    for wp in params:
        det_worst, null_worst = _branch_residuals(wp, ks)
        assert det_worst < 1e-10
        assert null_worst < 1e-10

        assert abs(phase_velocity(0.0, wp) - vt(wp)) / vt(wp) < 1e-8
        assert abs(phase_velocity(1e12, wp) - vl(wp)) / vl(wp) < 1e-8

        curve = velocity_curve(wp, samples=150)
        assert curve[0][0] == 0.0
        assert abs(curve[0][1] - vt(wp)) / vt(wp) < 1e-8
        assert curve[-1][0] == math.inf
        assert abs(curve[-1][1] - vl(wp)) / vl(wp) < 1e-8
        vs = [v for _, v in curve]
        slack = 1e-12 * max(vs)
        rising = all(b >= a - slack for a, b in zip(vs, vs[1:]))
        falling = all(b <= a + slack for a, b in zip(vs, vs[1:]))
        assert rising or falling


# --------------------------------------------------------------------------
# Criterion 6: the transverse-displacement-free wave
# --------------------------------------------------------------------------

def test_criterion_6_transverse_free_wave():
    rng = np.random.default_rng(606)
    checked = 0
    while checked < 20:
        mu = rng.uniform(0.4, 1.6)
        lam = rng.uniform(0.4, 1.6)
        mu_c = rng.uniform(0.4, 1.6)
        a = rng.uniform(0.05, 0.7) * math.sqrt(mu_c * (lam + 2.0 * mu))
        wp = WaveParams(a=a, gamma=rng.uniform(0.01, 0.4), mu=mu, lam=lam,
                        mu_c=mu_c, rho=rng.uniform(0.5, 2.0),
                        varrho_rot=rng.uniform(1.0, 4.0))
        k = rng.uniform(0.3, 3.0)
        omega = rng.uniform(0.3, 3.0)
        assert transverse_free_residual(k, omega, wp) < 1e-10
        checked += 1

    with pytest.raises(ZeroDenominator,
                       match="only the trivial solution exists when mu_c = 0"):
        transverse_free_solution(1.0, 1.0, WaveParams(a=0.5, mu_c=0.0))


# --------------------------------------------------------------------------
# Criterion 7: three-dimensional reduction checks
# --------------------------------------------------------------------------

def test_criterion_7_reduction_checks():
    started = time.monotonic()
    report = full_reduction_report()
    assert report.all_pass, [c.name for c in report.failures()]

    # strict variant: drive the small-rotation comparison down to 1e-10 by
    # shrinking the probe angles (the remainder is first order in them)
    strict = second_problem_check(default_planar_sample(n_points=40, seed=71),
                                  small_factor=2e-11)
    assert strict.all_pass
    row = {c.name: c for c in strict.checks}[
        "small_rotation_matches_leading_order"]
    assert row.max_abs_error < 1e-10
    assert time.monotonic() - started < 5.0


# --------------------------------------------------------------------------
# Criterion 8: integrator quality
# --------------------------------------------------------------------------

def _standing_wave_setup(amp=0.01):
    nx = 128
    grid = Grid(nx=nx, ny=4, lx=2.0 * math.pi, ly=2.0 * math.pi * 4 / nx)
    wp = WaveParams(a=0.0, gamma=0.02, mu=1.0, lam=1.0, mu_c=0.0, rho=1.0,
                    varrho_rot=4.0)
    p = liu_material(wp)
    x, _ = grid.coords()
    state = FieldState.zero(grid)
    state.u2 = amp * np.cos(2.0 * x)
    return grid, p, state


def _transverse_energy(state, p):
    # quadratic energy of the u2-only transverse mode: the 3-point second
    # difference pairs with the squared forward difference by parts
    g = state.grid
    kinetic = 0.5 * p.rho * np.sum(state.v2**2)
    forward = (np.roll(state.u2, -1, axis=0) - state.u2) / g.hx
    potential = 0.5 * p.mu * np.sum(forward**2)
    return (kinetic + potential) * g.cell_area


def test_criterion_8a_energy_drift_below_tenth_percent():
    grid, p, state = _standing_wave_setup()
    dt = 0.1 * grid.hx / math.sqrt((p.lam + 2.0 * p.mu) / p.rho)
    e0 = _transverse_energy(state, p)
    assert e0 > 0.0
    acc = rhs_linear_chiral(state, p)
    for _ in range(1000):
        state, acc = step_leapfrog(state, dt, rhs_linear_chiral, p, acc)
    e1 = _transverse_energy(state, p)
    assert abs(e1 - e0) / e0 < 1e-3
    # the decoupled channels stay exactly silent
    assert np.max(np.abs(state.u1)) == 0.0
    assert np.max(np.abs(state.theta)) == 0.0


def test_criterion_8b_exact_time_reversibility():
    grid, p, state0 = _standing_wave_setup()
    dt = 0.1 * grid.hx / math.sqrt((p.lam + 2.0 * p.mu) / p.rho)
    state = state0.copy()  # the stepper overwrites the state it is given
    acc = rhs_linear_chiral(state, p)
    for _ in range(100):
        state, acc = step_leapfrog(state, dt, rhs_linear_chiral, p, acc)
    for _ in range(100):
        state, acc = step_leapfrog(state, -dt, rhs_linear_chiral, p, acc)
    for name in ("u1", "u2", "theta", "v1", "v2", "omega"):
        diff = np.max(np.abs(getattr(state, name) - getattr(state0, name)))
        assert diff < 1e-13, name


def test_criterion_8c_standing_wave_frequency_within_one_percent():
    grid, p, state = _standing_wave_setup()
    omega_expected = 2.0 * math.sqrt(p.mu / p.rho)
    period = 2.0 * math.pi / omega_expected
    dt = period / 200.0
    steps = 2000  # ten periods

    probe = [state.u2[0, 1]]
    acc = rhs_linear_chiral(state, p)
    for _ in range(steps):
        state, acc = step_leapfrog(state, dt, rhs_linear_chiral, p, acc)
        probe.append(state.u2[0, 1])

    crossings = []
    for i in range(len(probe) - 1):
        if probe[i] == 0.0 or probe[i] * probe[i + 1] >= 0.0:
            continue
        t = i * dt + dt * probe[i] / (probe[i] - probe[i + 1])
        crossings.append(t)
    assert len(crossings) >= 15
    omega_measured = math.pi * (len(crossings) - 1) / (crossings[-1]
                                                       - crossings[0])
    assert abs(omega_measured - omega_expected) / omega_expected < 0.01


# --------------------------------------------------------------------------
# Criterion 9: byte-identical artifacts across runs
# --------------------------------------------------------------------------

def test_criterion_9_byte_identical_outputs(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps({
        "grid": {"nx": 8, "ny": 8, "lx": 1.0, "ly": 1.0},
        "sim": {"dt": 0.002, "steps": 4, "output_every": 2},
        "initial": {"kind": "random_smooth", "seed": 3, "amplitude": 0.02,
                    "modes": 2},
    }))
    commands = [
        ["simulate", "--config", str(cfg_path)],
        ["dispersion", "--svg"],
        ["homogeneous"],
        ["verify"],
        ["reduce3d"],
    ]
    for index, argv in enumerate(commands):
        out_a = tmp_path / f"a{index}"
        out_b = tmp_path / f"b{index}"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        names_a = sorted(f.name for f in out_a.iterdir())
        names_b = sorted(f.name for f in out_b.iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                name
