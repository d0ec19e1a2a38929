"""Energy densities: closed-form oracles, invariances, and exact gradients.

Oracles used here are independent of the implementation route: expanded
algebraic forms, uniform-state closed forms derived by hand, objectivity
under superposed rotations, and nodal finite differences of the totals.
"""

import numpy as np
import numpy.testing as npt

from cosserat2d import dynamics, energy
from cosserat2d.algebra import (
    EPS2,
    frobenius,
    mat_mul,
    polar2,
    rot2,
    trace2,
    transpose2,
)
from cosserat2d.energy import (
    DEFAULT_EPS_REG,
    analytic_variations,
    potential_total,
    stretch_densities,
    total_energy,
)
from cosserat2d.fields import FieldState, Grid, deformation_gradients
from cosserat2d.materials import MaterialParams, ModelSelector
from cosserat2d.rng import random_smooth_state

from conftest import random_f_stack, random_material


def density(term, p, f=None, theta=None, *, fstar=None, g=None,
             eps_reg=DEFAULT_EPS_REG):
    """The density of ``term`` at pointwise ``F``, ``theta``, ``F*`` and
    ``grad theta = g``, through :func:`stretch_densities`."""
    rt = None if theta is None else transpose2(rot2(theta))
    x = None if f is None else mat_mul(rt, f)
    xs = None if fstar is None else mat_mul(rt, fstar)
    rtq = mat_mul(rt, polar2(f)[0]) if term == "coupling" else None
    n = None if g is None else energy._reg_norm(g, eps_reg)[0]
    k = energy._Kinematics((term,), x=x, xs=xs, g=g, n=n, rtq=rtq)
    [(_, value)] = stretch_densities(k, p)
    return value


def elastic_density_expanded(f, theta, p):
    """Fully expanded algebraic form of the elastic density:
    ``2mu - 2mu tr(F R^T) + mu/2 (tr(R^T F R^T F) + tr(F F^T))
    + 2lam - 2lam tr(R^T F) + lam/2 tr(R^T F)^2``."""
    x = mat_mul(transpose2(rot2(theta)), f)
    trx = trace2(x)
    return (
        2.0 * p.mu
        - 2.0 * p.mu * trx
        + 0.5 * p.mu * (trace2(mat_mul(x, x)) + frobenius(f, f))
        + 2.0 * p.lam
        - 2.0 * p.lam * trx
        + 0.5 * p.lam * trx**2
    )


def coupling_density_expanded(f, theta, p):
    """Expanded form 4 mu_c - 2 mu_c tr(R^T polar F) of the coupling density."""
    q, _ = polar2(f)
    return 4.0 * p.mu_c - 2.0 * p.mu_c * trace2(mat_mul(transpose2(rot2(theta)), q))


def random_inputs(seed, n=40):
    rng = np.random.default_rng(seed)
    f = random_f_stack(rng, n=n, spread=0.6)
    theta = rng.uniform(-3.0, 3.0, size=n)
    grad_theta = rng.standard_normal((2, n))
    return rng, f, theta, grad_theta


def test_elastic_density_matches_expanded_form():
    for seed in range(5):
        rng, f, theta, _ = random_inputs(seed)
        p = random_material(rng)
        direct = density("elastic", p, f, theta)
        expanded = elastic_density_expanded(f, theta, p)
        npt.assert_allclose(direct, expanded, rtol=1e-12, atol=1e-13)


def test_coupling_density_matches_expanded_form():
    for seed in range(5):
        rng, f, theta, _ = random_inputs(seed)
        p = random_material(rng)
        npt.assert_allclose(density("coupling", p, f, theta),
                            coupling_density_expanded(f, theta, p),
                            rtol=1e-11, atol=1e-12)


def test_coupling_at_half_turn_without_deformation():
    # Undeformed body, microrotation a half turn away from the continuum
    # rotation: the penalty saturates at 8 mu_c.
    p = MaterialParams(mu_c=0.75)
    f = np.eye(2)
    value = density("coupling", p, f, np.pi)
    npt.assert_allclose(value, 8.0 * p.mu_c, rtol=1e-14)
    # and the skew variant vanishes there (skew of a symmetric matrix).
    npt.assert_allclose(density("coupling2", p, f, np.pi), 0.0, atol=1e-15)


def test_uniform_rotation_closed_forms():
    # u = 0, constant angle: every density reduces to a trig polynomial.
    rng = np.random.default_rng(77)
    for _ in range(10):
        p = random_material(rng, chiral=True)
        theta = rng.uniform(-3.1, 3.1)
        f = np.eye(2)
        fstar = np.eye(2)
        c = np.cos(theta) - 1.0

        npt.assert_allclose(density("elastic", p, f, theta),
                            2.0 * (p.mu + p.lam) * c * c, rtol=1e-12, atol=1e-14)
        npt.assert_allclose(
            density("chiral_elastic", p, theta=theta, fstar=fstar),
            2.0 * (p.mu_s + p.lam_s) * c * c
            + p.mu_c_s * (2.0 * np.sin(theta) ** 2), rtol=1e-11, atol=1e-13)
        npt.assert_allclose(
            density("mixing", p, f, theta, fstar=fstar),
            2.0 * (p.m1 + 2.0 * p.m2) * c * c
            + 2.0 * p.m3 * np.sin(theta) ** 2, rtol=1e-11, atol=1e-13)
        npt.assert_allclose(density("coupling2", p, f, theta),
                            2.0 * p.mu_c * np.sin(theta) ** 2,
                            rtol=1e-12, atol=1e-14)
        npt.assert_allclose(density("coupling", p, f, theta),
                            4.0 * p.mu_c * (1.0 - np.cos(theta)),
                            rtol=1e-12, atol=1e-14)


def test_objectivity_of_nonchiral_densities():
    # Superposed rotation: F -> rot(a) F, theta -> theta + a leaves the
    # non-chiral densities unchanged (the angle gradient is unaffected by
    # a constant shift).
    for seed in range(4):
        rng, f, theta, grad_theta = random_inputs(seed)
        p = random_material(rng, chi=0.7)
        alpha = rng.uniform(-3, 3)
        f_rot = mat_mul(rot2(np.full(theta.shape, alpha)), f)
        theta_rot = theta + alpha

        for term in ("elastic", "coupling", "coupling2"):
            npt.assert_allclose(density(term, p, f_rot, theta_rot),
                                density(term, p, f, theta),
                                rtol=1e-10, atol=1e-12)
        npt.assert_allclose(
            density("interaction", p, f_rot, theta_rot, g=grad_theta,
                    eps_reg=1e-8),
            density("interaction", p, f, theta, g=grad_theta, eps_reg=1e-8),
            rtol=1e-10, atol=1e-12)


def test_nonnegative_densities():
    for seed in range(3):
        rng, f, theta, grad_theta = random_inputs(seed)
        p = random_material(rng)
        assert np.all(density("elastic", p, f, theta) > -1e-14)
        assert np.all(density("curvature", p, g=grad_theta) >= 0.0)
        assert np.all(density("coupling", p, f, theta) > -1e-12)
        assert np.all(density("coupling2", p, f, theta) > -1e-14)


def test_curvature_density_value():
    p = MaterialParams(mu=2.0, L_c=0.3)
    g = np.array([[3.0], [4.0]])
    npt.assert_allclose(density("curvature", p, g=g), 2.0 * 0.09 * 25.0)


def test_interaction_density_scaling_and_regularization():
    rng, f, theta, grad_theta = random_inputs(123)
    p1 = random_material(rng, chi=0.5)
    p2 = p1.replace(chi=1.0)
    v1 = density("interaction", p1, f, theta, g=grad_theta, eps_reg=0.0)
    v2 = density("interaction", p2, f, theta, g=grad_theta, eps_reg=0.0)
    npt.assert_allclose(v2, 2.0 * v1, rtol=1e-13)

    # eps_reg = 0 uses the exact norm; small eps_reg stays within eps_reg
    # of it in the norm factor.
    v_reg = density("interaction", p1, f, theta, g=grad_theta, eps_reg=1e-6)
    norm = np.sqrt(grad_theta[0] ** 2 + grad_theta[1] ** 2)
    trace_factor = np.abs(v1 / (p1.mu * p1.L_c * p1.chi * norm))
    assert np.max(np.abs(v_reg - v1)) <= 1.1e-6 * p1.mu * p1.L_c * abs(p1.chi) * np.max(trace_factor)


def test_interaction_zero_at_zero_gradient():
    rng = np.random.default_rng(9)
    f = random_f_stack(rng, n=5)
    theta = rng.standard_normal(5)
    p = random_material(rng, chi=0.9)
    g = np.zeros((2, 5))
    npt.assert_array_equal(
        density("interaction", p, f, theta, g=g, eps_reg=0.0), 0.0)
    npt.assert_allclose(
        density("interaction", p, f, theta, g=g, eps_reg=1e-8), 0.0,
        atol=1e-20)


def test_total_energy_breakdown_consistency():
    grid = Grid(nx=12, ny=10, lx=2.0, ly=1.5)
    rng = np.random.default_rng(31)
    p = random_material(rng, chiral=True, chi=0.4)
    state = random_smooth_state(grid, seed=3, amplitude=0.08, modes=2)
    state.v1 += 0.3
    state.omega += 0.2

    for sel in (ModelSelector.nonchiral("polar"),
                ModelSelector.nonchiral("skew"), ModelSelector.chiral()):
        bd = total_energy(state, p, sel)
        # potential equals the sum over active terms computed independently
        pot = potential_total(state, p, sel.active_terms(), DEFAULT_EPS_REG)
        npt.assert_allclose(bd.potential, pot, rtol=1e-12)
        npt.assert_allclose(bd.total,
                            bd.potential + bd.kinetic_translational
                            + bd.kinetic_rotational, rtol=1e-14)
        # kinetic closed forms
        area = grid.cell_area
        npt.assert_allclose(bd.kinetic_translational,
                            0.5 * p.rho * float(np.sum(state.v1**2 + state.v2**2)) * area,
                            rtol=1e-13)
        npt.assert_allclose(bd.kinetic_rotational,
                            p.rho_rot * float(np.sum(state.omega**2)) * area,
                            rtol=1e-13)
        row = bd.csv_row()
        assert row[-1] == bd.total and len(row) == 9

    # inactive terms are zero in the breakdown
    bd_nc = total_energy(state, p, ModelSelector.nonchiral("polar"))
    assert bd_nc.chiral_elastic == 0.0 and bd_nc.mixing == 0.0
    bd_ch = total_energy(state, p, ModelSelector.chiral())
    assert bd_ch.interaction == 0.0


def test_zero_state_has_zero_energy():
    grid = Grid(nx=8, ny=8)
    state = FieldState.zero(grid)
    p = MaterialParams(chi=0.5, mu_s=0.3, lam_s=0.1, mu_c_s=0.2, m1=0.1,
                       m2=0.1, m3=0.1)
    for sel in (ModelSelector.nonchiral(), ModelSelector.chiral()):
        assert total_energy(state, p, sel).total == 0.0


def variation_fd_error(state, p, terms, nodes, step=1e-6,
                       eps_reg=DEFAULT_EPS_REG):
    """Max relative error of the analytic nodal gradient vs central FD."""
    dv_du, dv_dth = analytic_variations(state, p, terms, eps_reg)
    area = state.grid.cell_area
    worst = 0.0
    arrays = {"u1": (state.u1, dv_du[0]), "u2": (state.u2, dv_du[1]),
              "theta": (state.theta, dv_dth)}
    for field, (values, gradient) in arrays.items():
        for (i, j) in nodes:
            base = values[i, j]
            values[i, j] = base + step
            e_plus = potential_total(state, p, terms, eps_reg)
            values[i, j] = base - step
            e_minus = potential_total(state, p, terms, eps_reg)
            values[i, j] = base
            fd = (e_plus - e_minus) / (2.0 * step)
            analytic = gradient[i, j] * area
            scale = max(abs(fd), abs(analytic), 1e-9)
            worst = max(worst, abs(fd - analytic) / scale)
    return worst


def test_each_term_gradient_matches_finite_differences():
    grid = Grid(nx=10, ny=9, lx=1.9, ly=1.3)
    rng = np.random.default_rng(55)
    p = random_material(rng, chiral=True, chi=0.6)
    state = random_smooth_state(grid, seed=12, amplitude=0.07, modes=2)
    nodes = [(0, 0), (4, 5), (9, 2)]
    for term in ("elastic", "curvature", "interaction", "coupling",
                 "coupling2", "chiral_elastic", "mixing"):
        err = variation_fd_error(state, p, (term,), nodes)
        assert err < 1e-6, f"{term}: {err}"


def test_analytic_variations_builds_each_field_once(monkeypatch):
    # One rotation build per gradient, reused for dR/dtheta, none for the
    # curvature alone; the identity only for the terms whose conjugate has
    # an identity shift.
    calls = {"rot2": 0, "identity2": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(energy, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(energy, name, counted)
    state = random_smooth_state(Grid(nx=8, ny=8), seed=4, amplitude=0.05,
                                modes=2)
    p = random_material(np.random.default_rng(8), chiral=True, chi=0.6)
    for terms in [(t,) for t in energy.ALL_TERMS] + [energy.ALL_TERMS]:
        calls.update(rot2=0, identity2=0)
        analytic_variations(state, p, terms)
        assert calls["rot2"] == (0 if terms == ("curvature",) else 1), terms
        if terms in (("curvature",), ("interaction",), ("coupling",)):
            assert calls["identity2"] == 0, terms


def test_rhs_builds_each_field_once_through_the_energy_builder(monkeypatch):
    # The right-hand sides read every field from energy._kinematics: one
    # rotation, one pair of deformation gradients, one angle gradient and,
    # for the polar coupling only, one polar factor per call.
    calls = dict.fromkeys(("rot2", "deformation_gradients", "grad_scalar",
                           "polar2"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(energy, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(energy, name, counted)
    state = random_smooth_state(Grid(nx=8, ny=8), seed=5, amplitude=0.05,
                                modes=2)
    rng = np.random.default_rng(9)
    for rhs, polar in (
            (lambda p: dynamics.rhs_nonlinear(state, p, "polar"), 1),
            (lambda p: dynamics.rhs_nonlinear(state, p, "skew"), 0),
            (lambda p: dynamics.rhs_chiral(state, p), 0)):
        calls.update(dict.fromkeys(calls, 0))
        rhs(random_material(rng, chiral=True, chi=0.6))
        assert calls == {"rot2": 1, "deformation_gradients": 1,
                         "grad_scalar": 1, "polar2": polar}
