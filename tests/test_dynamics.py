"""Equations of motion: variational exactness, uniform equilibria, the
linearized chiral system, and the symplectic integrator.

The central guarantee is that the assembled accelerations are exactly the
negative discrete energy gradient (inertia rho for displacement, 2*rho_rot
for the angle); everything else is cross-checked against hand-derived
closed forms assembled independently inside the tests.
"""

import dataclasses
import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from cosserat2d import dynamics, energy
from cosserat2d.dynamics import (
    _fd_nodes,
    _fd_step,
    homogeneous_residual,
    homogeneous_roots,
    rhs_chiral,
    rhs_linear_chiral,
    rhs_nonlinear,
    step_leapfrog,
    verify_variational_consistency,
)
from cosserat2d.energy import (
    ALL_TERMS,
    energy_breakdown,
    potential_total,
    total_energy,
)
from cosserat2d.errors import NonFiniteState
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
    ``node``, with ``V`` the total of ``term`` (on ``window`` if given)."""
    totals = []
    for sign in (1.0, -1.0):
        field = getattr(state, name).copy()
        field[node] += sign * step
        moved = dataclasses.replace(state, **{name: field})
        totals.append(potential_total(moved, p, (term,), window=window))
    return (totals[0] - totals[1]) / (2.0 * step)


def test_window_difference_equals_full_grid_difference():
    # The 3x3 window holds every density a nodal step changes, so its
    # central difference is the whole grid's, less the other nodes' rounding.
    grid = Grid(nx=16, ny=16)
    state = random_smooth_state(grid, seed=9, amplitude=0.05, modes=3)
    p = random_material(np.random.default_rng(71), chiral=True, chi=0.4)
    for term in ALL_TERMS:
        pairs = []
        for node in _fd_nodes(grid):
            for name in ("u1", "u2", "theta"):
                step = _fd_step(state, term, name, node)
                pairs.append(
                    (_central_difference(state, p, term, name, node, step, node),
                     _central_difference(state, p, term, name, node, step, None)))
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
    # Every value outside the 5x5 block around the node is replaced by nan
    # before the energy helper runs: an evaluation that reads past the block
    # gets a nan density.
    grid = Grid(nx=64, ny=64)
    state = random_smooth_state(grid, seed=14, amplitude=0.02, modes=3)
    original = energy._potential_densities
    windows = []

    def recorder(s, p, terms, eps_reg, window=None):
        assert window is not None, "a finite difference summed the whole grid"
        windows.append(window)
        masked = s.copy()
        block = node_window(s.grid, window, 2)
        for name in ("u1", "u2", "theta", "v1", "v2", "omega"):
            field = np.full(s.grid.shape, np.nan)
            field[block] = getattr(s, name)[block]
            setattr(masked, name, field)
        densities = list(original(masked, p, terms, eps_reg, window))
        for term, density in densities:
            assert np.all(np.isfinite(density)), (term, window)
        return densities

    monkeypatch.setattr(energy, "_potential_densities", recorder)
    rng = np.random.default_rng(72)
    for p, sel in ((random_material(rng, chi=0.3), ModelSelector.nonchiral("polar")),
                   (random_material(rng, chiral=True), ModelSelector.chiral())):
        windows.clear()
        report = verify_variational_consistency(state, p, sel)
        assert report.all_pass, [c.name for c in report.failures()]
        assert sorted(set(windows)) == sorted(_fd_nodes(grid))
        assert len(windows) == 2 * 3 * len(_fd_nodes(grid)) * len(sel.active_terms())


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
