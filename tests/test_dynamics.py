"""Equations of motion: variational exactness, uniform equilibria, the
linearized chiral system, and the symplectic integrator.

The central guarantee is that the assembled accelerations are exactly the
negative discrete energy gradient (inertia rho for displacement, 2*rho_rot
for the angle); everything else is cross-checked against hand-derived
closed forms assembled independently inside the tests.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from cosserat2d import dynamics, energy, workers
from cosserat2d.dynamics import (
    _fd_nodes,
    _fd_step,
    homogeneous_residual,
    homogeneous_roots,
    linear_chiral_forces,
    rhs_chiral,
    rhs_linear_chiral,
    rhs_nonlinear,
    step_leapfrog,
    verify_variational_consistency,
)
from cosserat2d.energy import (
    ALL_TERMS,
    analytic_variations,
    energy_breakdown,
    potential_total,
    total_energy,
)
from cosserat2d.errors import DegenerateDeformation, NonFiniteState
from cosserat2d.fields import (
    FieldState,
    Grid,
    ddx,
    ddxx,
    ddy,
    ddyy,
    deformation_gradients,
    node_window,
)
from cosserat2d.materials import MaterialParams, ModelSelector
from cosserat2d.rng import random_smooth_state

from conftest import random_material


def model_cases(rng):
    return [
        (random_material(rng), ModelSelector.nonchiral("polar"), 1e-10),
        (random_material(rng), ModelSelector.nonchiral("skew"), 1e-10),
        (random_material(rng, chi=0.8), ModelSelector.nonchiral("polar"), 1e-8),
        # the chiral model has no interaction term, so chi leaves it at 1e-10
        (random_material(rng, chiral=True, chi=0.3), ModelSelector.chiral(),
         1e-10),
    ]


def test_accelerations_are_exact_energy_gradients():
    grid = Grid(nx=16, ny=16, lx=2.0, ly=2.0)
    rng = np.random.default_rng(101)
    for index, (p, sel, tol) in enumerate(model_cases(rng)):
        state = random_smooth_state(grid, seed=40 + index, amplitude=0.05,
                                    modes=3)
        report = verify_variational_consistency(state, p, sel)
        rows = {c.name: c for c in report.checks}
        assert rows["acc_u_vs_energy_gradient"].max_abs_error < tol
        assert rows["acc_theta_vs_energy_gradient"].max_abs_error < tol
        assert rows["theta_inertia_factor_is_two"].max_abs_error < 1e-8
        for name in ("acc_u_vs_energy_gradient", "acc_theta_vs_energy_gradient",
                     "theta_inertia_factor_is_two"):
            assert rows[name].tolerance == tol, (index, name)
        assert report.all_pass, [c.name for c in report.failures()]


@pytest.mark.parametrize("kind, amplitude, chi", [
    ("polar", 0.3, 0.0), ("skew", 0.3, 0.5), ("skew", 2.0, 0.5),
    ("chiral", 0.3, 0.0), ("chiral", 2.0, 0.0)])
def test_accelerations_are_exact_energy_gradients_at_large_deformation(
        kind, amplitude, chi):
    # Criterion 1's comparison far from the reference state: at amplitude
    # 2.0 the displacement gradient reaches about 6 and det F changes sign
    # (so only the skew-coupled models run there).
    grid = Grid(nx=48, ny=36, lx=1.3)
    state = random_smooth_state(grid, seed=17, amplitude=amplitude, modes=3)
    rng = np.random.default_rng(29)
    if kind == "chiral":
        p, sel = random_material(rng, chiral=True), ModelSelector.chiral()
        acc = rhs_chiral(state, p)
    else:
        p, sel = random_material(rng, chi=chi), ModelSelector.nonchiral(kind)
        acc = rhs_nonlinear(state, p, coupling=kind)
    tol = 1e-8 if "interaction" in energy._live_terms(sel.active_terms(), p) \
        else 1e-10
    dv_du, dv_dth = analytic_variations(state, p, sel.active_terms())
    assert dynamics._relative_max_error(p.rho * acc.acc_u + dv_du, dv_du) < tol
    assert dynamics._relative_max_error(
        2.0 * p.rho_rot * acc.acc_theta + dv_dth, dv_dth) < tol


def test_polar_kernel_names_the_degenerate_node():
    # The kernel checks det F from the entries of F before it takes the
    # polar factor, and names the node with the smallest determinant.
    grid = Grid(nx=8, ny=8)
    state = FieldState.zero(grid)
    state.u1[4, 4] = -1.3 * 2.0 * grid.hx  # d_x u1 = -1.3 at node (3, 4)
    with pytest.raises(DegenerateDeformation,
                       match=r"^det\(F\) <= 1e-12 at node \(3, 4\) "
                             r"\(det F = -0\.3\); polar factor undefined$"):
        rhs_nonlinear(state, MaterialParams(), coupling="polar")


def test_interaction_gradient_skip_row_at_unregularized_kink():
    grid = Grid(nx=8, ny=8)
    p = MaterialParams(chi=0.5)
    sel = ModelSelector.nonchiral("polar")
    report = verify_variational_consistency(FieldState.zero(grid), p, sel,
                                            eps_reg=0.0)
    names = [c.name for c in report.checks]
    assert any("skipped" in n and "interaction" in n for n in names)
    assert report.all_pass


def test_verify_differentiates_each_term_once(monkeypatch):
    # One gradient pass per term, never one of the whole energy: the passes
    # serve both the finite-difference rows and, summed, the acc_* rows.
    grid = Grid(nx=16, ny=16)
    state = random_smooth_state(grid, seed=21, amplitude=0.05, modes=3)
    original = dynamics.analytic_variations
    calls = []

    def counted(s, p, terms, eps_reg):
        calls.append(tuple(terms))
        return original(s, p, terms, eps_reg)

    monkeypatch.setattr(dynamics, "analytic_variations", counted)
    rng = np.random.default_rng(74)
    for p, sel in ((random_material(rng, chi=0.3), ModelSelector.nonchiral("polar")),
                   (random_material(rng, chi=0.3), ModelSelector.nonchiral("skew")),
                   (random_material(rng, chiral=True), ModelSelector.chiral())):
        calls.clear()
        report = verify_variational_consistency(state, p, sel)
        assert report.all_pass, [c.name for c in report.failures()]
        assert calls == [(term,) for term in sel.active_terms()]
    # at chi = 0 the interaction term has no energy to differentiate
    calls.clear()
    verify_variational_consistency(state, random_material(rng),
                                   ModelSelector.nonchiral("polar"))
    assert calls == [("elastic",), ("curvature",), ("coupling",)]


def uniform_state(grid, theta0):
    state = FieldState.zero(grid)
    state.theta += theta0
    return state


def test_uniform_rotation_acceleration_matches_potential_derivative():
    grid = Grid(nx=8, ny=6)
    rng = np.random.default_rng(7)
    for _ in range(8):
        theta0 = rng.uniform(-3.1, 3.1)

        # Non-chiral, polar coupling: V(theta)/area = 2(mu+lam)(cos t - 1)^2
        # + 4 mu_c (1 - cos t); acceleration = -V'(theta) / (2 rho_rot).
        p = random_material(rng)
        out = rhs_nonlinear(uniform_state(grid, theta0), p, coupling="polar")
        dv = (4.0 * (p.mu + p.lam) * (1.0 - math.cos(theta0))
              + 4.0 * p.mu_c) * math.sin(theta0)
        npt.assert_allclose(out.acc_theta,
                            -dv / (2.0 * p.rho_rot), rtol=1e-12, atol=1e-13)
        npt.assert_allclose(out.acc_u, 0.0, atol=1e-12)

        # Chiral: V(theta)/area = 2 B (cos t - 1)^2 + 2 C sin^2 t with
        # B, C the stiffness sums.
        pc = random_material(rng, chiral=True)
        b = pc.mu + pc.lam + pc.mu_s + pc.lam_s + pc.m1 + 2.0 * pc.m2
        c = pc.mu_c + pc.mu_c_s + pc.m3
        out = rhs_chiral(uniform_state(grid, theta0), pc)
        dv = (-4.0 * b * (math.cos(theta0) - 1.0) * math.sin(theta0)
              + 4.0 * c * math.sin(theta0) * math.cos(theta0))
        npt.assert_allclose(out.acc_theta, -dv / (2.0 * pc.rho_rot),
                            rtol=1e-11, atol=1e-12)
        npt.assert_allclose(out.acc_u, 0.0, atol=1e-12)


def test_uniform_residual_roots_and_quarter_turn_example():
    rng = np.random.default_rng(8)
    sel = ModelSelector.nonchiral("polar")
    for _ in range(100):
        p = random_material(rng)
        assert abs(homogeneous_residual(0.0, p, sel)) < 1e-14
        assert abs(homogeneous_residual(math.pi, p, sel)) < 1e-14
        # with a positive couple modulus the only cosine root is beyond 1
        roots = homogeneous_roots(p, sel)
        assert not roots.feasible
        npt.assert_allclose(roots.nontrivial_cos,
                            1.0 + p.mu_c / (p.lam + p.mu), rtol=1e-13)
        assert roots.all_roots() == [0.0, math.pi]

    # The quarter-turn residual equals lam + mu exactly when mu_c = 0
    # (with a couple modulus it picks up + mu_c).
    p0 = MaterialParams(mu=1.3, lam=0.4, mu_c=0.0)
    npt.assert_allclose(homogeneous_residual(0.5 * math.pi, p0, sel),
                        p0.lam + p0.mu, rtol=1e-15)
    p1 = p0.replace(mu_c=0.25)
    npt.assert_allclose(homogeneous_residual(0.5 * math.pi, p1, sel),
                        p1.lam + p1.mu + p1.mu_c, rtol=1e-15)

    # mu_c = 0 makes the nontrivial cosine root land exactly on theta = 0.
    roots0 = homogeneous_roots(p0, sel)
    assert roots0.feasible and roots0.nontrivial_cos == 1.0


def test_chiral_uniform_roots_zero_the_residual():
    rng = np.random.default_rng(9)
    sel = ModelSelector.chiral()
    found_feasible = 0
    for _ in range(200):
        p = random_material(rng, chiral=True)
        roots = homogeneous_roots(p, sel)
        for root in roots.all_roots():
            assert abs(homogeneous_residual(root, p, sel)) < 1e-12
        if roots.feasible and roots.nontrivial_cos is not None:
            found_feasible += 1
    assert found_feasible > 10  # the sampler does hit feasible branches


@pytest.mark.parametrize("sel, p, cosine", [
    # B = mu + lam = -1, C = mu_c = 1/2: cos t = 1 + C / B
    (ModelSelector.nonchiral("polar"),
     MaterialParams(mu=0.5, lam=-1.5, mu_c=0.5), 0.5),
    # B = 1, C = 3: cos t = 1 + C / (B - C)
    (ModelSelector.nonchiral("skew"),
     MaterialParams(mu=0.5, lam=0.5, mu_c=3.0), -0.5),
    (ModelSelector.chiral(), MaterialParams(mu=0.5, lam=0.5, mu_c=3.0), -0.5),
    # B = 0, C = 1/2: the quarter turn
    (ModelSelector.chiral(),
     MaterialParams(mu=1.0, lam=1.0, mu_c=1.0, mu_s=1.0, lam_s=-2.0,
                    mu_c_s=-1.0, m1=0.0, m2=-0.5, m3=0.5), 0.0),
], ids=["polar", "skew", "chiral-as-skew", "chiral"])
def test_uniform_roots_are_equilibria_of_the_kernel(sel, p, cosine):
    # Every reported uniform root must stop the matching kernel's angle.
    roots = homogeneous_roots(p, sel)
    assert roots.feasible and roots.nontrivial_cos == pytest.approx(
        cosine, abs=1e-15)
    grid = Grid(nx=8, ny=8)
    scale = (abs(p.mu) + abs(p.lam) + abs(p.mu_c) + abs(p.mu_s)
             + abs(p.lam_s) + abs(p.mu_c_s) + abs(p.m2) + abs(p.m3))
    assert len(roots.all_roots()) == 4
    for root in roots.all_roots():
        state = uniform_state(grid, root)
        acc = (rhs_chiral(state, p) if sel.is_chiral
               else rhs_nonlinear(state, p, coupling=sel.coupling))
        assert np.max(np.abs(acc.acc_theta)) * p.rho_rot < 1e-15 * scale, root


def test_chiral_balanced_stiffness_construction():
    # Choosing m2 = -(mu + lam + mu_s + lam_s + m1)/2 zeroes the
    # (cos t - 1)^2 stiffness B in exact float arithmetic, so the cosine
    # root sits exactly at a quarter turn.
    rng = np.random.default_rng(10)
    sel = ModelSelector.chiral()
    for _ in range(50):
        base = random_material(rng, chiral=True)
        m2 = -(base.mu + base.lam + base.mu_s + base.lam_s + base.m1) / 2.0
        p = base.replace(m2=m2, m3=abs(base.m3))
        b = p.mu + p.lam + p.mu_s + p.lam_s + p.m1 + 2.0 * p.m2
        assert b == 0.0
        roots = homogeneous_roots(p, sel)
        assert roots.feasible
        assert abs(roots.nontrivial_cos) < 1e-12
        assert abs(homogeneous_residual(math.acos(roots.nontrivial_cos),
                                        p, sel)) < 1e-12


def liu_material_random(rng):
    """Material whose linearization must reproduce the single-modulus
    chiral equations, with the mixing split drawn at random."""
    a = rng.uniform(-0.8, 0.8)
    m1 = rng.uniform(-0.6, 0.6)
    return MaterialParams(
        mu=0.5 + rng.random(), lam=rng.random(), mu_c=0.1 + rng.random(),
        L_c=0.05 + 0.3 * rng.random(), rho=0.5 + rng.random(),
        rho_rot=0.25 * (0.5 + rng.random()),
        mu_s=a, lam_s=-2.0 * a, mu_c_s=-a, m1=m1, m2=-a - 0.5 * m1, m3=0.0)


def assemble_single_modulus_forces(state, p):
    """Independent assembly of the single-chiral-modulus equations:
    every coefficient written out by hand."""
    g = state.grid
    u1, u2 = state.u1, state.u2
    phi = -state.theta
    a = p.mu_s
    gamma = 2.0 * p.mu * p.L_c**2
    mu, lam, mu_c = p.mu, p.lam, p.mu_c

    u1x, u1y = ddx(u1, g), ddy(u1, g)
    u2x, u2y = ddx(u2, g), ddy(u2, g)
    u1xy = ddy(ddx(u1, g), g)
    u2xy = ddy(ddx(u2, g), g)
    phi_x, phi_y = ddx(phi, g), ddy(phi, g)

    f1 = ((lam + 2 * mu) * ddxx(u1, g) + (mu + mu_c) * ddyy(u1, g)
          + (lam + mu - mu_c) * u2xy
          - a * (-2.0 * u1xy + ddxx(u2, g) - ddyy(u2, g))
          + 2.0 * a * phi_x + 2.0 * mu_c * phi_y)
    f2 = ((mu + mu_c) * ddxx(u2, g) + (lam + 2 * mu) * ddyy(u2, g)
          + (lam + mu - mu_c) * u1xy
          - a * (ddxx(u1, g) - ddyy(u1, g) + 2.0 * u2xy)
          - 2.0 * mu_c * phi_x + 2.0 * a * phi_y)
    f3 = (gamma * (ddxx(phi, g) + ddyy(phi, g))
          - 4.0 * (mu_c + a) * phi
          + 2.0 * mu_c * (u2x - u1y)
          - 2.0 * a * (u1x + u2y))
    return f1, f2, f3


def test_linear_chiral_rhs_matches_hand_assembled_equations():
    grid = Grid(nx=12, ny=10, lx=1.7, ly=2.3)
    rng = np.random.default_rng(11)
    for trial in range(20):
        p = liu_material_random(rng)
        state = random_smooth_state(grid, seed=300 + trial, amplitude=1.0,
                                    modes=2)
        out = rhs_linear_chiral(state, p)
        f1, f2, f3 = assemble_single_modulus_forces(state, p)

        scale = max(np.max(np.abs(f1)), np.max(np.abs(f2)),
                    np.max(np.abs(f3)), 1e-9)
        assert np.max(np.abs(p.rho * out.acc_u[0] - f1)) < 1e-13 * scale
        assert np.max(np.abs(p.rho * out.acc_u[1] - f2)) < 1e-13 * scale
        # the angle equation carries inertia 4 rho_rot and phi = -theta
        assert np.max(np.abs(-4.0 * p.rho_rot * out.acc_theta - f3)) < 1e-13 * scale


def linear_forces_at_once(u1, u2, phi, dx, dy, dxx, dyy, p):
    """The linear chiral forces with every derivative taken once, before
    the sums, and each force summed as one expression in the library's
    term order: the bitwise reference of
    :func:`dynamics.linear_chiral_forces`, which takes each derivative
    inside the sum that reads it.  The operators are those the library
    function takes: grid stencils or Fourier multipliers."""
    u1x, u1y, u2x, u2y = dx(u1), dy(u1), dx(u2), dy(u2)
    phi_x, phi_y = dx(phi), dy(phi)
    u1xy, u2xy = dy(u1x), dy(u2x)
    u1xx, u1yy, u2xx, u2yy = dxx(u1), dyy(u1), dxx(u2), dyy(u2)
    c_uxx = p.lam + 2.0 * p.mu + p.mu_s + p.mu_c_s
    c_uyy = p.mu + p.mu_c + p.lam_s + 2.0 * p.mu_s
    c_cross = p.lam + p.mu - p.mu_c - p.lam_s - p.mu_s + p.mu_c_s
    c_m = 0.5 * p.m1 + p.m2
    c_phi_grad = 2.0 * (2.0 * p.lam_s + 2.0 * p.mu_s - p.mu_c_s)
    c_phi_rot = 2.0 * p.mu_c
    d1 = p.mu * p.L_c**2
    f1 = (c_uxx * u1xx + c_uyy * u1yy + c_cross * u2xy
          + c_m * (-2.0 * u1xy + u2xx - u2yy)
          - c_phi_grad * phi_x + c_phi_rot * phi_y)
    f2 = (c_uyy * u2xx + c_uxx * u2yy + c_cross * u1xy
          + c_m * (u1xx - u1yy + 2.0 * u2xy)
          - c_phi_rot * phi_x - c_phi_grad * phi_y)
    f3 = (2.0 * d1 * (dxx(phi) + dyy(phi))
          + 4.0 * (2.0 * p.lam_s + 2.0 * p.mu_s - p.mu_c_s - p.mu_c) * phi
          + 2.0 * p.mu_c * (u2x - u1y)
          - 2.0 * (p.mu_c_s - 2.0 * p.lam_s - 2.0 * p.mu_s) * (u1x + u2y))
    return f1, f2, f3


def linear_accelerations_at_once(state, p):
    """:func:`linear_forces_at_once` on the grid stencils, converted to
    accelerations of ``(u, theta)`` as :func:`rhs_linear_chiral` does."""
    g = state.grid
    f1, f2, f3 = linear_forces_at_once(
        state.u1, state.u2, -state.theta,
        lambda f: ddx(f, g), lambda f: ddy(f, g),
        lambda f: ddxx(f, g), lambda f: ddyy(f, g), p)
    return np.stack([f1, f2]) / p.rho, -f3 / (4.0 * p.rho_rot)


def test_linear_chiral_rhs_is_bitwise_the_one_expression_sums():
    grid = Grid(nx=12, ny=10, lx=1.7, ly=2.3)
    rng = np.random.default_rng(12)
    for trial in range(5):
        p = random_material(rng, chiral=True)
        state = random_smooth_state(grid, seed=320 + trial, amplitude=1.0,
                                    modes=2)
        acc_u, acc_theta = linear_accelerations_at_once(state, p)
        out = rhs_linear_chiral(state, p)
        assert out.acc_u.tobytes() == acc_u.tobytes()
        assert out.acc_theta.tobytes() == acc_theta.tobytes()
    # The scalar multipliers of one Fourier mode: those of
    # waves.transverse_free_residual (d/dy = 0 on a real and a zero
    # displacement), and a mode with ky != 0 on complex amplitudes.  Each
    # force has the value and the type of the one-expression sum.
    for _ in range(20):
        p = random_material(rng, chiral=True)
        kx, ky = rng.uniform(0.1, 5.0, size=2)
        u1, u2, phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        for args in (
                (float(u1.real), 0.0, 1j, lambda f: 1j * kx * f,
                 lambda f: 0.0, lambda f: -(kx * kx) * f, lambda f: 0.0),
                (complex(u1), complex(u2), complex(phi),
                 lambda f: 1j * kx * f, lambda f: 1j * ky * f,
                 lambda f: -(kx * kx) * f, lambda f: -(ky * ky) * f)):
            forces = linear_chiral_forces(*args, p)
            expected = linear_forces_at_once(*args, p)
            assert [repr(f) for f in forces] == [repr(f) for f in expected]
            assert ([type(f) for f in forces]
                    == [type(f) for f in expected])


def test_curl_free_displacement_sources_only_the_gradient_channel():
    # u = grad psi has (discretely) vanishing curl, so the angle equation
    # is forced purely through the divergence coupling.
    grid = Grid(nx=24, ny=24, lx=2 * np.pi, ly=2 * np.pi)
    x, y = grid.coords()
    psi = 0.3 * np.sin(x + 0.5 * y) + 0.2 * np.cos(2.0 * y)
    state = FieldState.zero(grid)
    state.u1 = ddx(psi, grid)
    state.u2 = ddy(psi, grid)

    p = liu_material_random(np.random.default_rng(12))
    out = rhs_linear_chiral(state, p)

    curl = ddx(state.u2, grid) - ddy(state.u1, grid)
    assert np.max(np.abs(curl)) < 1e-14  # commuting shift stencils

    # source = -2 (mu_c_s - 2 lam_s - 2 mu_s) div u, which for the slaved
    # starred moduli (a, -2a, -a) collapses to -2a div u
    a = p.mu_s
    div_u = ddx(state.u1, grid) + ddy(state.u2, grid)
    expected_f3 = -2.0 * a * div_u
    f3 = -4.0 * p.rho_rot * out.acc_theta
    npt.assert_allclose(f3, expected_f3, rtol=0,
                        atol=1e-12 * max(1.0, float(np.max(np.abs(expected_f3)))))


def test_momentum_is_conserved_by_the_stencil_divergence():
    grid = Grid(nx=14, ny=12, lx=1.0, ly=1.3)
    rng = np.random.default_rng(13)
    state = random_smooth_state(grid, seed=77, amplitude=0.08, modes=3)
    cases = [
        lambda s, p: rhs_nonlinear(s, p, coupling="polar"),
        lambda s, p: rhs_nonlinear(s, p, coupling="skew"),
        rhs_chiral,
    ]
    for rhs in cases:
        p = random_material(rng, chiral=True, chi=0.3)
        out = rhs(state, p)
        total = np.abs(np.sum(out.acc_u, axis=(1, 2)))
        scale = np.sum(np.abs(out.acc_u))
        assert np.all(total < 1e-12 * max(scale, 1.0))


def test_rhs_rejects_unknown_coupling():
    grid = Grid(nx=6, ny=6)
    with pytest.raises(ValueError):
        rhs_nonlinear(FieldState.zero(grid), MaterialParams(),
                      coupling="both")


def test_chiral_kernel_with_zero_chiral_moduli_is_the_skew_model():
    # The chiral model is the skew-coupled non-chiral model plus the starred
    # and mixing terms; with those moduli at zero the two share every bit.
    grid = Grid(nx=12, ny=10, lx=2.0, ly=1.5)
    state = random_smooth_state(grid, seed=21, amplitude=0.05, modes=3)
    p = random_material(np.random.default_rng(8), chiral=True, chi=0.0,
                        mu_s=0.0, lam_s=0.0, mu_c_s=0.0, m1=0.0, m2=0.0, m3=0.0)
    chiral = rhs_chiral(state, p)
    skew = rhs_nonlinear(state, p, coupling="skew")
    npt.assert_array_equal(chiral.acc_u, skew.acc_u)
    npt.assert_array_equal(chiral.acc_theta, skew.acc_theta)
    assert sorted(skew.potential) == ["coupling2", "curvature", "elastic"]
    for term in skew.potential:
        assert chiral.potential[term] == skew.potential[term]
    assert chiral.potential["chiral_elastic"] == 0.0
    assert chiral.potential["mixing"] == 0.0


def test_fd_rows_fail_when_no_difference_can_be_taken():
    # A finite-difference row has no signal when the energy overflows
    # (amplitude 1e4 with mu = 1e300) or when the state is so large that
    # the step is lost to rounding (amplitude 1e150); neither is a pass.
    grid = Grid(nx=16, ny=16)
    sel = ModelSelector.nonchiral("skew")
    cases = [(1e150, MaterialParams(chi=0.3), "fd_gradient_curvature"),
             (1e4, MaterialParams(mu=1e300, chi=0.3), "fd_gradient_elastic")]
    for amplitude, p, row in cases:
        state = random_smooth_state(grid, seed=3, amplitude=amplitude)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = verify_variational_consistency(state, p, sel)
        check = {c.name: c for c in report.checks}[row]
        assert check.max_abs_error == math.inf
        assert not check.passed


def _central_difference(state, p, term, name, node, step, window):
    """(V(s + step e) - V(s - step e)) / 2 step for the unknown ``name`` at
    ``node``, with ``V`` the total of ``term``: with ``window``, on the 3x3
    window around the node, from a stack of the two moved 5x5 blocks."""
    moved = []
    for sign in (1.0, -1.0):
        field = getattr(state, name).copy()
        field[node] += sign * step
        moved.append(dataclasses.replace(state, **{name: field}))
    if not window:
        totals = [potential_total(m, p, (term,)) for m in moved]
    else:
        index = node_window(state.grid, node)
        blocks = {n: np.stack([getattr(m, n)[index] for m in moved])
                  for n in ("u1", "u2", "theta")}
        totals = potential_total(dataclasses.replace(state, **blocks), p,
                                 (term,), window=[node, node])
    return (totals[0] - totals[1]) / (2.0 * step)


def test_window_difference_equals_full_grid_difference():
    # The 3x3 window holds every density a nodal step changes, so its
    # central difference is the whole grid's, less the other nodes' rounding.
    grid = Grid(nx=16, ny=16)
    state = random_smooth_state(grid, seed=9, amplitude=0.05, modes=3)
    p = random_material(np.random.default_rng(71), chiral=True, chi=0.4)
    nodes = _fd_nodes(grid)
    for term in ALL_TERMS:
        pairs = []
        for name in ("u1", "u2", "theta"):
            steps = _fd_step(state, term, name, nodes)
            for node, step in zip(nodes, steps):
                pairs.append(
                    (_central_difference(state, p, term, name, node, step, True),
                     _central_difference(state, p, term, name, node, step, False)))
        scale = max(abs(full) for _, full in pairs)
        assert scale > 0.0, term
        for window, full in pairs:
            assert abs(window - full) <= 1e-8 * scale, (term, window, full)


def test_fd_rows_pass_where_a_periodic_patch_would_degenerate():
    # The whole grid is a valid polar state (min det F = 0.082), but a
    # periodic patch around a node would join far-apart displacements at its
    # wrapped edge; the window builds F only where the grid has it.
    grid = Grid(nx=16, ny=16)
    x, y = grid.coords()
    state = FieldState.zero(grid)
    state.u1 = 0.15 * np.sin(2.0 * np.pi * x)
    state.theta = 0.01 * np.cos(2.0 * np.pi * (x + 2.0 * y))
    f, _ = deformation_gradients(state)
    assert float(np.min(f[0, 0] * f[1, 1] - f[0, 1] * f[1, 0])) == \
        pytest.approx(0.082, abs=1e-3)
    report = verify_variational_consistency(
        state, MaterialParams(chi=0.3), ModelSelector.nonchiral("polar"))
    check = {c.name: c for c in report.checks}["fd_gradient_coupling"]
    assert check.passed
    assert report.all_pass, [c.name for c in report.failures()]


def test_fd_evaluations_read_only_the_block_around_their_node(monkeypatch):
    # Each term's finite differences are one stack of 5x5 blocks, one per
    # unknown, node and sign: each member is the grid's block around its
    # node, moved at that node only.  Each member is then evaluated alone,
    # with every value outside its own block (all the other members) nan:
    # an evaluation that read past its block would get a nan density, and
    # each density must keep the bits it has in the stack.
    grid = Grid(nx=64, ny=64)
    state = random_smooth_state(grid, seed=14, amplitude=0.02, modes=3)
    original = energy._invariants
    members = []

    def recorder(s, p, terms, eps_reg, window=None):
        assert window is not None, "a finite difference summed the whole grid"
        nodes = np.asarray(window)
        members.extend(map(tuple, nodes.tolist()))
        index = node_window(grid, nodes)
        here = ((index[0] == nodes[:, :1, None])
                & (index[1] == nodes[:, 1:, None]))
        for name in ("u1", "u2", "theta"):
            changed = getattr(s, name) != getattr(state, name)[index]
            assert not np.any(changed & ~here), name
        invariants = original(s, p, terms, eps_reg, window)
        stacked = [d for _, d in energy.term_densities(invariants, p)]
        for m in range(len(nodes)):
            alone = {}
            for name in ("u1", "u2", "theta"):
                alone[name] = np.full_like(getattr(s, name), np.nan)
                alone[name][m] = getattr(s, name)[m]
            k = original(dataclasses.replace(s, **alone), p, terms, eps_reg,
                         window)
            for (term, density), want in zip(energy.term_densities(k, p),
                                             stacked):
                assert np.all(np.isfinite(density[m])), (term, m)
                assert density[m].tobytes() == want[m].tobytes(), (term, m)
        return invariants

    monkeypatch.setattr(energy, "_invariants", recorder)
    rng = np.random.default_rng(72)
    for p, sel in ((random_material(rng, chi=0.3), ModelSelector.nonchiral("polar")),
                   (random_material(rng, chiral=True), ModelSelector.chiral())):
        members.clear()
        report = verify_variational_consistency(state, p, sel)
        assert report.all_pass, [c.name for c in report.failures()]
        assert sorted(set(members)) == sorted(_fd_nodes(grid))
        assert len(members) == 2 * 3 * len(_fd_nodes(grid)) * len(sel.active_terms())


@pytest.mark.parametrize("kind", ["polar", "chiral"])
def test_fd_row_catches_a_gradient_off_by_one_part_in_1e5(monkeypatch, kind):
    grid = Grid(nx=64, ny=64)
    state = random_smooth_state(grid, seed=15, amplitude=0.02, modes=3)
    rng = np.random.default_rng(73)
    if kind == "polar":
        p, sel = random_material(rng, chi=0.3), ModelSelector.nonchiral("polar")
    else:
        p, sel = random_material(rng, chiral=True), ModelSelector.chiral()
    original = dynamics.analytic_variations

    def fd_rows():
        return {c.name: c.passed for c in
                verify_variational_consistency(state, p, sel).checks
                if c.name.startswith("fd_gradient_")}

    assert all(fd_rows().values())
    for wrong in sel.active_terms():
        def scaled(s, q, terms, eps_reg, wrong=wrong):
            dv_du, dv_dth = original(s, q, terms, eps_reg)
            if terms == (wrong,):
                return dv_du * (1.0 + 1e-5), dv_dth * (1.0 + 1e-5)
            return dv_du, dv_dth

        monkeypatch.setattr(dynamics, "analytic_variations", scaled)
        rows = fd_rows()
        assert not rows.pop(f"fd_gradient_{wrong}"), wrong
        assert all(rows.values()), wrong


def test_inertia_factor_row_survives_a_huge_state():
    # |acc_theta| reaches about 2e300 here: squared unscaled it overflows,
    # the row read nan and numpy warned. Scaled, the factor is still 2.
    state = random_smooth_state(Grid(nx=16, ny=16), seed=3, amplitude=1e150)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = verify_variational_consistency(
            state, MaterialParams(chi=0.3), ModelSelector.nonchiral("skew"))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    check = {c.name: c for c in report.checks}["theta_inertia_factor_is_two"]
    assert check.passed


def test_inertia_factor_row_is_inf_for_a_nonfinite_acceleration():
    state = random_smooth_state(Grid(nx=16, ny=16), seed=3, amplitude=1e160)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = verify_variational_consistency(
            state, MaterialParams(chi=0.3), ModelSelector.nonchiral("skew"))
    check = {c.name: c for c in report.checks}["theta_inertia_factor_is_two"]
    assert check.max_abs_error == math.inf
    assert not check.passed


def test_rhs_is_linearizable_at_the_origin():
    # rhs(eps * s)/eps approaches a limit as eps -> 0: no kinks hiding in
    # the smooth-term assembly (chi = 0).
    grid = Grid(nx=12, ny=12, lx=2.0, ly=2.0)
    base = random_smooth_state(grid, seed=21, amplitude=1.0, modes=2)
    p = random_material(np.random.default_rng(22), chiral=True)

    def scaled_rhs(eps, rhs):
        s = FieldState(grid=grid, u1=eps * base.u1, u2=eps * base.u2,
                       theta=eps * base.theta, v1=0 * base.v1,
                       v2=0 * base.v2, omega=0 * base.omega)
        out = rhs(s, p)
        return out.acc_u / eps, out.acc_theta / eps

    for rhs in (lambda s, q: rhs_nonlinear(s, q, coupling="polar"),
                lambda s, q: rhs_nonlinear(s, q, coupling="skew"),
                rhs_chiral):
        au1, at1 = scaled_rhs(1e-4, rhs)
        au2, at2 = scaled_rhs(1e-6, rhs)
        scale = max(float(np.max(np.abs(au2))), float(np.max(np.abs(at2))))
        assert np.max(np.abs(au1 - au2)) < 5e-3 * scale
        assert np.max(np.abs(at1 - at2)) < 5e-3 * scale


def test_leapfrog_is_time_reversible():
    grid = Grid(nx=12, ny=12, lx=2.0, ly=2.0)
    p = random_material(np.random.default_rng(31))
    state0 = random_smooth_state(grid, seed=5, amplitude=0.02, modes=2)

    def rhs(s, q):
        return rhs_nonlinear(s, q, coupling="polar")

    dt = 0.002
    state = state0.copy()
    acc = rhs(state, p)
    for _ in range(100):
        state, acc = step_leapfrog(state, dt, rhs, p, acc)
    for _ in range(100):
        state, acc = step_leapfrog(state, -dt, rhs, p, acc)

    for name, (a, b) in {
            "u1": (state.u1, state0.u1), "u2": (state.u2, state0.u2),
            "theta": (state.theta, state0.theta), "v1": (state.v1, state0.v1),
            "v2": (state.v2, state0.v2),
            "omega": (state.omega, state0.omega)}.items():
        scale = max(float(np.max(np.abs(b))), 1e-6)
        npt.assert_allclose(a, b, rtol=0, atol=1e-13 * max(scale, 1.0),
                            err_msg=name)


def test_leapfrog_energy_drift_is_bounded():
    grid = Grid(nx=16, ny=16, lx=2.0, ly=2.0)
    p = random_material(np.random.default_rng(41))
    sel = ModelSelector.nonchiral("polar")
    state = random_smooth_state(grid, seed=6, amplitude=0.01, modes=3)

    def rhs(s, q):
        return rhs_nonlinear(s, q, coupling="polar")

    # 0.05 rather than 0.1: the angle channel of this random material is not
    # bounded by the translational wave speed, so leave margin in the step.
    dt = 0.05 * grid.hx / math.sqrt((p.lam + 2.0 * p.mu) / p.rho)
    e0 = total_energy(state, p, sel).total
    acc = rhs(state, p)
    for _ in range(300):
        state, acc = step_leapfrog(state, dt, rhs, p, acc)
    e1 = total_energy(state, p, sel).total
    assert e0 > 0.0
    assert abs(e1 - e0) / e0 < 1e-3


def test_leapfrog_raises_on_nonfinite_state():
    grid = Grid(nx=6, ny=6)
    state = FieldState.zero(grid)
    state.v1[2, 2] = np.inf
    def rhs(s, q):
        return rhs_nonlinear(s, q, coupling="skew")

    p = MaterialParams()
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteState):
        step_leapfrog(state, 0.1, rhs, p, rhs(state, p))


def test_leapfrog_names_the_first_non_finite_field_and_node():
    grid = Grid(nx=6, ny=8)
    state = FieldState.zero(grid)
    p = MaterialParams()

    def rhs(s, q):
        acc = rhs_nonlinear(s, q)
        acc.acc_theta[4, 1] = np.nan  # omega, after u1 .. v2 in field order
        acc.acc_u[0, 3, 7] = np.inf  # v1
        return acc

    with pytest.raises(NonFiniteState,
                       match=r"^state became non-finite during leapfrog "
                             r"step: v1 at node \(3, 7\)$"):
        step_leapfrog(state, 0.1, rhs, p, rhs_nonlinear(state, p))


def _stepper_cases(rng):
    """(rhs, material) for every right-hand side the stepper can carry."""
    return [
        (lambda s, q: rhs_nonlinear(s, q, coupling="polar"),
         random_material(rng, chi=0.4)),
        (lambda s, q: rhs_nonlinear(s, q, coupling="skew"),
         random_material(rng)),
        (rhs_chiral, random_material(rng, chiral=True)),
        (rhs_linear_chiral, random_material(rng, chiral=True)),
    ]


def test_carried_acceleration_matches_reevaluation():
    # Every right-hand side reads only u and theta, so the end-of-step
    # acceleration is bit for bit the next step's start acceleration.
    grid = Grid(nx=12, ny=10, lx=2.0, ly=1.5)
    state0 = random_smooth_state(grid, seed=12, amplitude=0.02, modes=2)
    for rhs, p in _stepper_cases(np.random.default_rng(61)):
        carried, acc = state0.copy(), rhs(state0, p)
        fresh = state0.copy()
        for _ in range(10):
            carried, acc = step_leapfrog(carried, 0.003, rhs, p, acc)
            fresh, _ = step_leapfrog(fresh, 0.003, rhs, p, rhs(fresh, p))
        for name in ("u1", "u2", "theta", "v1", "v2", "omega"):
            npt.assert_array_equal(getattr(carried, name),
                                   getattr(fresh, name), err_msg=name)
        again = rhs(carried, p)
        npt.assert_array_equal(acc.acc_u, again.acc_u)
        npt.assert_array_equal(acc.acc_theta, again.acc_theta)


def functional_leapfrog(state, dt, rhs, p, acc):
    """The out-of-place velocity-Verlet step, the bitwise oracle of the
    in-place :func:`step_leapfrog`: it leaves ``state`` as it was."""
    v1h = state.v1 + 0.5 * dt * acc.acc_u[0]
    v2h = state.v2 + 0.5 * dt * acc.acc_u[1]
    omh = state.omega + 0.5 * dt * acc.acc_theta
    drifted = FieldState(grid=state.grid, u1=state.u1 + dt * v1h,
                         u2=state.u2 + dt * v2h,
                         theta=state.theta + dt * omh,
                         v1=v1h, v2=v2h, omega=omh)
    a1 = rhs(drifted, p)
    return dataclasses.replace(
        drifted, v1=v1h + 0.5 * dt * a1.acc_u[0],
        v2=v2h + 0.5 * dt * a1.acc_u[1],
        omega=omh + 0.5 * dt * a1.acc_theta), a1


def test_step_advances_the_given_state_with_the_functional_bits():
    grid = Grid(nx=12, ny=10, lx=2.0, ly=1.5)
    state0 = random_smooth_state(grid, seed=14, amplitude=0.02, modes=2)
    for rhs, p in _stepper_cases(np.random.default_rng(63)):
        state, acc = state0.copy(), rhs(state0, p)
        expected, expected_acc = state0.copy(), acc
        for _ in range(5):
            given = state
            state, acc = step_leapfrog(state, 0.003, rhs, p, acc)
            assert state is given
            expected, expected_acc = functional_leapfrog(
                expected, 0.003, rhs, p, expected_acc)
            for name in FieldState.FIELD_NAMES:
                assert (getattr(state, name).tobytes()
                        == getattr(expected, name).tobytes()), name
            assert acc.acc_u.tobytes() == expected_acc.acc_u.tobytes()
            assert acc.acc_theta.tobytes() == expected_acc.acc_theta.tobytes()
            assert acc.potential == expected_acc.potential


@pytest.mark.parametrize("first, second", [
    ("u1", "v1"), ("u2", "theta"), ("theta", "omega"), ("v1", "v2")])
def test_step_refuses_fields_that_share_memory(first, second):
    grid = Grid(nx=8, ny=6)
    state = random_smooth_state(grid, seed=15, amplitude=0.02, modes=2)
    setattr(state, second, getattr(state, first))
    before = [a.copy() for a in state.field_arrays()]
    p = MaterialParams()
    with pytest.raises(ValueError, match=f"{first} and {second} may share"):
        step_leapfrog(state, 0.1, rhs_nonlinear, p, rhs_nonlinear(state, p))
    for a, b in zip(state.field_arrays(), before):
        npt.assert_array_equal(a, b)
    # Overlapping views of one array count as well.
    base = np.zeros((grid.nx, grid.ny + 1))
    state = FieldState.zero(grid)
    state.u1, state.v2 = base[:, :-1], base[:, 1:]
    with pytest.raises(ValueError, match="u1 and v2 may share"):
        step_leapfrog(state, 0.1, rhs_nonlinear, p, rhs_nonlinear(state, p))


def one_step_peak(rhs, p):
    """tracemalloc's peak over one 64x64 step, in units of one grid
    field."""
    state = random_smooth_state(Grid(nx=64, ny=64), seed=1, amplitude=0.01,
                                modes=3)
    acc = rhs(state, p)
    tracemalloc.start()
    try:
        step_leapfrog(state, 1e-4, rhs, p, acc)
        return tracemalloc.get_traced_memory()[1] / state.u1.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", ["polar", "skew", "chiral", "linear"])
def test_one_step_allocates_at_most_22_grid_fields(case):
    # The state is updated in place and each invariant of the kernel is
    # freed at its last read.  Allocating a new state and keeping every
    # invariant to the end peaked at 26-30 fields.
    rhs, p = {
        "polar": (rhs_nonlinear, MaterialParams(chi=0.3)),
        "skew": (lambda s, q: rhs_nonlinear(s, q, coupling="skew"),
                 MaterialParams(chi=0.3)),
        "chiral": (rhs_chiral, MaterialParams(mu_s=0.1, lam_s=0.1,
                                              mu_c_s=0.1, m1=0.1, m2=0.1,
                                              m3=0.1)),
        "linear": (rhs_linear_chiral, MaterialParams(mu_s=0.1, lam_s=0.1,
                                                     mu_c_s=0.1)),
    }[case]
    assert one_step_peak(rhs, p) <= 22.0


def test_linear_step_peaks_below_the_polar_step():
    # Each linear force is one sum that takes its derivatives as it reads
    # them, so a few fields are alive besides f1, f2 and f3: about 7
    # fields.  Accumulating term by term into the acceleration peaked at
    # 10.1, and holding all twelve derivatives at once at 20.2, above the
    # polar chi = 0.3 step (19.1).
    linear = one_step_peak(rhs_linear_chiral,
                           MaterialParams(mu_s=0.1, lam_s=0.1, mu_c_s=0.1))
    polar = one_step_peak(rhs_nonlinear, MaterialParams(chi=0.3))
    assert linear < polar
    assert linear <= 9.0


def test_kernel_potential_matches_total_energy_bitwise():
    grid = Grid(nx=12, ny=10, lx=2.0, ly=1.5)
    state = random_smooth_state(grid, seed=13, amplitude=0.05, modes=3)
    rng = np.random.default_rng(62)
    for chi in (0.0, 0.7):
        for sel in (ModelSelector.nonchiral("polar"),
                    ModelSelector.nonchiral("skew"), ModelSelector.chiral()):
            p = random_material(rng, chiral=sel.is_chiral, chi=chi)
            if sel.is_chiral:
                acc = rhs_chiral(state, p)
            else:
                acc = rhs_nonlinear(state, p, coupling=sel.coupling,
                                    eps_reg=1e-6)
            expected = total_energy(state, p, sel, eps_reg=1e-6)
            terms = [t for t in sel.active_terms()
                     if t != "interaction" or chi != 0.0]
            assert sorted(acc.potential) == sorted(terms)
            assert energy_breakdown(acc.potential, state, p) == expected
            assert all(acc.potential[t] != 0.0 for t in terms)
    assert rhs_linear_chiral(state, random_material(rng)).potential is None


def test_checkerboard_is_a_null_mode_of_the_nonlinear_discretization():
    # Known defect, pinned here: the central-difference gradient cannot see
    # the grid-scale checkerboard, so the nonlinear energy and its
    # accelerations vanish on it, while the compact 3-point second
    # differences of the linearized equations push it back.
    grid = Grid(nx=32, ny=32)
    i, j = np.indices(grid.shape)
    state = FieldState.zero(grid)
    state.u1 = 0.01 * (-1.0) ** (i + j)
    state.u2 = 0.01 * (-1.0) ** i
    p = MaterialParams(chi=0.3)
    assert potential_total(state, p, ALL_TERMS) == 0.0
    for acc in (rhs_nonlinear(state, p, coupling="polar"),
                rhs_nonlinear(state, p, coupling="skew"),
                rhs_chiral(state, p)):
        assert np.max(np.abs(acc.acc_u)) == 0.0
        assert np.max(np.abs(acc.acc_theta)) == 0.0
    linear = rhs_linear_chiral(state, p)
    assert np.max(np.abs(linear.acc_u)) == pytest.approx(204.8, rel=1e-12)


_CHIRAL_MATERIAL = MaterialParams(mu_s=0.2, lam_s=-0.1, mu_c_s=0.1, m1=0.1,
                                  m2=-0.2, m3=0.1)


def _accelerations(rhs):
    """``(acc_u, acc_theta)`` of a right-hand side."""
    def kernel(state, p):
        fields = rhs(state, p)
        return fields.acc_u, fields.acc_theta
    return kernel


def _variation(term):
    """``(dV/du, dV/dtheta)`` of one energy term."""
    return lambda state, p: analytic_variations(state, p, (term,))


#: The interaction term does not converge (ROADMAP item 3).
_CONVERGING_TERMS = [t for t in ALL_TERMS if t != "interaction"]


@pytest.mark.parametrize("kernel, p", [
    (_accelerations(lambda s, p: rhs_nonlinear(s, p, coupling="polar")),
     MaterialParams()),
    (_accelerations(lambda s, p: rhs_nonlinear(s, p, coupling="skew")),
     MaterialParams()),
    (_accelerations(rhs_chiral), _CHIRAL_MATERIAL),
    (_accelerations(rhs_linear_chiral), _CHIRAL_MATERIAL),
] + [(_variation(term), _CHIRAL_MATERIAL) for term in _CONVERGING_TERMS],
    ids=["polar", "skew", "chiral", "linear_chiral"]
    + [f"variation_{term}" for term in _CONVERGING_TERMS])
def test_kernels_self_converge_at_second_order(kernel, p):
    # One smooth continuum state sampled on 32^2, 64^2 and 128^2 (chi = 0):
    # each grid's accelerations (or energy gradients) differ from the next
    # finer grid's at the shared nodes by O(h^2). No exact solution is
    # needed.
    results = []
    for n in (32, 64, 128):
        state = random_smooth_state(Grid(nx=n, ny=n), seed=3, amplitude=0.05,
                                    modes=3)
        du, dtheta = kernel(state, p)
        results.append(np.concatenate([du, dtheta[None]]))
    errors = [np.max(np.abs(coarse - fine[:, ::2, ::2]))
              for coarse, fine in zip(results, results[1:])]
    assert math.log2(errors[0] / errors[1]) >= 1.8, errors


@pytest.mark.parametrize("kernel, p", [
    (lambda s, p: rhs_nonlinear(s, p, coupling="polar"),
     MaterialParams(chi=0.3)),
    (lambda s, p: rhs_nonlinear(s, p, coupling="skew"),
     MaterialParams(chi=0.3)),
    (rhs_chiral, _CHIRAL_MATERIAL),
    (rhs_linear_chiral, _CHIRAL_MATERIAL),
], ids=["polar", "skew", "chiral", "linear"])
def test_kernels_act_member_by_member_on_a_leading_axis(kernel, p):
    # Four states stacked along a leading axis: each member's accelerations
    # are bitwise those of its own call.
    grid = Grid(nx=256, ny=4)
    members = [random_smooth_state(grid, seed=seed, amplitude=0.05)
               for seed in range(4)]
    stacked = FieldState(grid, *(np.stack(fields) for fields
                                 in zip(*(m.field_arrays() for m in members))))
    batch = kernel(stacked, p)
    assert batch.acc_u.shape == (2, 4) + grid.shape
    for index, member in enumerate(members):
        single = kernel(member, p)
        assert batch.acc_u[:, index].tobytes() == single.acc_u.tobytes()
        assert (batch.acc_theta[index].tobytes()
                == single.acc_theta.tobytes())


def quarter_turn(f):
    """The scalar field ``f`` of a square periodic grid, turned a quarter
    turn counterclockwise about node (0, 0): node ``(i, j)`` takes the value
    at node ``(j, -i)``."""
    n = f.shape[-1]
    i, j = np.indices((n, n))
    return f[..., j, -i % n]


def quarter_turned(state):
    """``state`` turned a quarter turn: each field is moved by
    :func:`quarter_turn`, and each vector ``(a, b)`` becomes ``(-b, a)``;
    the angle is unchanged."""
    q = quarter_turn
    return FieldState(state.grid, -q(state.u2), q(state.u1), q(state.theta),
                      -q(state.v2), q(state.v1), q(state.omega))


@pytest.mark.parametrize("kernel, p, bound", [
    (lambda s, p: rhs_nonlinear(s, p, coupling="polar"),
     MaterialParams(chi=0.3), 0.0),
    (lambda s, p: rhs_nonlinear(s, p, coupling="skew"),
     MaterialParams(chi=0.3), 0.0),
    (rhs_chiral, _CHIRAL_MATERIAL, 0.0),
    # The largest defect measured on square grids of 8 to 32 nodes a side,
    # at amplitudes 0.01 to 0.3 with random chiral materials, was 9.4e-16
    # of the largest acceleration: the turn reorders the sums of the
    # hand-written forces.
    (rhs_linear_chiral, _CHIRAL_MATERIAL, 2e-15),
], ids=["polar", "skew", "chiral", "linear"])
@pytest.mark.parametrize("n, length", [(16, 1.0), (24, 1.3)])
def test_kernels_commute_with_a_quarter_turn(kernel, p, bound, n, length):
    # Turning the state a quarter turn turns its accelerations: every model
    # keeps planar rotations, chiral or not.
    state = random_smooth_state(Grid(n, n, length, length), seed=3,
                                amplitude=0.1)
    acc, turned = kernel(state, p), kernel(quarter_turned(state), p)
    expected_u = np.stack([-quarter_turn(acc.acc_u[1]),
                           quarter_turn(acc.acc_u[0])])
    expected_theta = quarter_turn(acc.acc_theta)
    scale = max(np.abs(acc.acc_u).max(), np.abs(acc.acc_theta).max())
    assert scale > 0.0
    assert np.abs(turned.acc_u - expected_u).max() <= bound * scale
    assert np.abs(turned.acc_theta - expected_theta).max() <= bound * scale
    # The turn moves the state, so the check is not vacuous.
    assert not np.array_equal(quarter_turned(state).u1, state.u1)


_BAND_MODELS = {
    "polar-chi0.3": (MaterialParams(chi=0.3), ModelSelector.nonchiral()),
    "polar-chi0": (MaterialParams(chi=0.0), ModelSelector.nonchiral()),
    "skew": (MaterialParams(chi=0.3), ModelSelector.nonchiral("skew")),
    "chiral": (_CHIRAL_MATERIAL, ModelSelector.chiral()),
}


@pytest.mark.parametrize("model", _BAND_MODELS)
@pytest.mark.parametrize("grid, bands", [
    (Grid(256, 256), [(0, 128), (128, 256)]),
    (Grid(40, 36, lx=1.3), [(0, 13), (13, 27), (27, 40)]),
    # Bands of 12, 12 and 13 rows, each with a halo wrapping past both ends
    # of a 2-row band's grid.
    (Grid(37, 20), [(0, 12), (12, 24), (24, 37)]),
    (Grid(5, 16), [(0, 2), (2, 5)]),
], ids=["256x256", "40x36-lx1.3", "37x20", "5x16"])
def test_banded_kernel_is_bitwise_the_serial_kernel(monkeypatch, model, grid,
                                                    bands):
    p, sel = _BAND_MODELS[model]
    terms = sel.active_terms()
    state = random_smooth_state(grid, seed=5, amplitude=0.05)
    serial = dynamics._rhs

    def bands_only(*args, out=None):
        # A band that failed would hand the call to the serial kernel,
        # whose bits would then pass this test for the wrong reason.
        assert out is not None, "the serial kernel ran"
        return serial(*args, out=out)

    monkeypatch.setattr(dynamics, "_rhs", bands_only)
    with workers.banded_rhs(state, p, terms, 1e-8, bands,
                            workers._usable_cpus()) as rhs:
        for _ in range(3):
            # A result stays valid until the next call.
            acc = rhs(state, p)
            expected = serial(state.copy(), p, terms, 1e-8)
            assert acc.acc_u.tobytes() == expected.acc_u.tobytes()
            assert acc.acc_theta.tobytes() == expected.acc_theta.tobytes()
            assert list(acc.potential.items()) == list(
                expected.potential.items())
            state.u1 += 1e-3 * state.v1  # the positions move in place
            state.theta += 1e-3 * state.omega


def _degenerate_node_raises_the_serial_message(row: int) -> None:
    """Make ``d_x u1 = -1.3`` at node ``(row, 7)`` of three bands of a
    40x36 grid: the banded ``rhs`` raises the serial kernel's message, and
    once the value is restored the next call has the serial bits again."""
    grid = Grid(40, 36, lx=1.3)
    p, terms = MaterialParams(chi=0.3), ModelSelector.nonchiral().active_terms()
    state = random_smooth_state(grid, seed=5, amplitude=0.05)
    bands = [(0, 13), (13, 27), (27, 40)]
    with workers.banded_rhs(state, p, terms, 1e-8, bands,
                            workers._usable_cpus()) as rhs:
        kept = state.u1[row + 1, 7]
        state.u1[row + 1, 7] = state.u1[row - 1, 7] - 1.3 * 2.0 * grid.hx
        with pytest.raises(DegenerateDeformation) as serial:
            dynamics._rhs(state.copy(), p, terms, 1e-8)
        assert f"at node ({row}, 7)" in str(serial.value)
        with pytest.raises(DegenerateDeformation) as banded:
            rhs(state, p)
        assert str(banded.value) == str(serial.value)
        # Every band answered, so the next call has the serial bits again.
        state.u1[row + 1, 7] = kept
        acc = rhs(state, p)
        expected = dynamics._rhs(state.copy(), p, terms, 1e-8)
        assert acc.acc_u.tobytes() == expected.acc_u.tobytes()
        assert acc.acc_theta.tobytes() == expected.acc_theta.tobytes()


def test_a_degenerate_node_in_a_worker_band_raises_the_serial_message():
    # Row 30 is in the last band and no other's halo.
    _degenerate_node_raises_the_serial_message(30)


def test_a_degenerate_node_on_a_bands_edge_row_raises_the_serial_message():
    # Row 26 is the last row of band (13, 27) and a halo row of band
    # (27, 40), so both bands fail.
    _degenerate_node_raises_the_serial_message(26)
