"""Energy densities: closed-form oracles, invariances, and exact gradients.

Oracles used here are independent of the implementation route: expanded
algebraic forms, uniform-state closed forms derived by hand, objectivity
under superposed rotations, and nodal finite differences of the totals.
"""

import dataclasses

import numpy as np
import numpy.testing as npt

from cosserat2d import dynamics, energy
from cosserat2d.algebra import (
    EPS2,
    det2,
    frobenius,
    mat_mul,
    rot2,
    trace2,
    transpose2,
)
from cosserat2d.energy import (
    DEFAULT_EPS_REG,
    analytic_variations,
    potential_total,
    term_densities,
    total_energy,
)
from cosserat2d.errors import DegenerateDeformation
from cosserat2d.fields import (
    FieldState,
    Grid,
    deformation_gradients,
    node_window,
)
from cosserat2d.materials import MaterialParams, ModelSelector
from cosserat2d.rng import random_smooth_state

from conftest import dpolar_dir, identity2, random_f_stack, random_material


def density(term, p, f=None, theta=None, *, fstar=None, g=None,
            eps_reg=DEFAULT_EPS_REG):
    """The density of ``term`` at pointwise ``F``, ``theta``, ``F*`` and
    ``grad theta = g``, through the planar invariants of the energy builder
    and :func:`term_densities`.  ``F*`` stands for the ``F`` with
    ``F* = I + EPS2 (F - I)``; given both, they must agree."""
    if fstar is not None:
        from_star = identity2(fstar) - mat_mul(EPS2, fstar - identity2(fstar))
        if f is None:
            f = from_star
        npt.assert_array_equal(f, from_star)
    if f is None:
        k = energy._Invariants((term,), g=g)
    else:
        wx = (f[0, 0] - 1.0) + 1j * f[1, 0]
        wy = f[0, 1] + 1j * (f[1, 1] - 1.0)
        k = energy._planar_invariants((term,), wx, wy, theta, g, eps_reg)
    [(_, value)] = term_densities(k, p)
    return value


def polar_by_svd(f):
    """Independent oracle for the polar factor of ``F`` (shape
    ``(2, 2, n)``): with ``F = W diag(s) V^T``, ``R = W V^T`` and
    ``tr U = s.sum()``."""
    w, s, vt = np.linalg.svd(np.moveaxis(f, -1, 0))
    return np.moveaxis(w @ vt, 0, -1), s.sum(axis=-1)


def assert_relatively_close(actual, expected, rtol=1e-13):
    """``max |actual - expected| <= rtol * max |expected|``."""
    error = np.max(np.abs(actual - expected))
    assert error <= rtol * np.max(np.abs(expected)), error


def test_planar_invariants_match_the_matrix_algebra():
    # Each identity the energy builder rests on, pointwise against the 2x2
    # algebra: with w = u1 + i u2, fc = 2 + w_x - i w_y, fa = w_x + i w_y and
    # xi = e^{-i theta} fc,  tr x = Re xi,  tr(EPS2 x) = Im xi,
    # |sym x - I|^2 = ((tr x - 2)^2 + |fa|^2) / 2 for x = R^T F,
    # tr U = |fc|,  R^T polar(F) = xi / |xi|,  det F = (|fc|^2 - |fa|^2) / 4,
    # and R^T F* = (I - EPS2) R^T + EPS2 R^T F for F* = I + EPS2 (F - I).
    rng = np.random.default_rng(19)
    for spread in (0.1, 0.4, 0.8):
        f = random_f_stack(rng, n=200, spread=spread)
        theta = rng.uniform(-3.0, 3.0, size=200)
        wx = (f[0, 0] - 1.0) + 1j * f[1, 0]
        wy = f[0, 1] + 1j * (f[1, 1] - 1.0)
        fc = 2.0 + wx - 1j * wy
        k = energy._planar_invariants(energy.ALL_TERMS, wx, wy, theta,
                                      np.zeros((2, 200)))
        rt = transpose2(rot2(theta))
        x = mat_mul(rt, f)
        assert_relatively_close(k.trx, trace2(x))
        assert_relatively_close(k.tx, x[1, 0] - x[0, 1])
        sym = 0.5 * (x + transpose2(x)) - identity2(x)
        assert_relatively_close(0.5 * ((k.trx - 2.0) ** 2 + k.fa2),
                                frobenius(sym, sym))
        q, tru = polar_by_svd(f)
        assert_relatively_close(np.abs(fc), tru)
        assert_relatively_close(k.tru, tru)
        rtq = mat_mul(rt, q)
        assert_relatively_close(k.zeta, rtq[0, 0] + 1j * rtq[1, 0])
        assert_relatively_close(0.25 * (np.abs(fc) ** 2 - k.fa2), det2(f))
        xs = mat_mul(rt, identity2(f) + mat_mul(EPS2, f - identity2(f)))
        assert_relatively_close(
            xs, mat_mul(identity2(f) - EPS2[:, :, None], rt) + mat_mul(EPS2, x))
        assert_relatively_close(k.trxs, trace2(xs))
        assert_relatively_close(k.txs, xs[1, 0] - xs[0, 1])


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
    q, _ = polar_by_svd(f)
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


def test_regularized_norm_divides_by_inf_where_it_vanishes():
    # The divisor is the norm where it is positive, and inf at its zeros
    # and at nan, with the bits of np.where(s > 0, s, inf).
    g = np.array([[0.0, 3.0, np.nan, -0.0, 1e-200],
                  [0.0, 4.0, 1.0, 0.0, 0.0]])
    for eps_reg in (0.0, 1e-8):
        n, s = energy._reg_norm(g, eps_reg)
        norm = np.sqrt(g[0] ** 2 + g[1] ** 2 + eps_reg**2)
        assert n.tobytes() == (norm - eps_reg).tobytes()
        assert s.tobytes() == np.where(norm > 0.0, norm, np.inf).tobytes()
    assert energy._reg_norm(g, 0.0)[1].tolist() == [
        np.inf, 5.0, np.inf, np.inf, np.inf]


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
    # One rotation build per gradient, reused for dR/dtheta, and one set of
    # deformation gradients (F* only for the chiral terms); neither for the
    # curvature alone, and one angle gradient only for the terms that read
    # it.
    calls = dict.fromkeys(("rot2", "deformation_gradients", "grad_scalar"))
    stars = []
    for name in calls:
        def counted(*args, _name=name, _original=getattr(energy, name),
                    **kwargs):
            calls[_name] += 1
            if _name == "deformation_gradients":
                stars.append(kwargs["star"])
            return _original(*args, **kwargs)
        monkeypatch.setattr(energy, name, counted)
    state = random_smooth_state(Grid(nx=8, ny=8), seed=4, amplitude=0.05,
                                modes=2)
    p = random_material(np.random.default_rng(8), chiral=True, chi=0.6)
    for terms in [(t,) for t in energy.ALL_TERMS] + [energy.ALL_TERMS]:
        calls.update(dict.fromkeys(calls, 0))
        stars.clear()
        analytic_variations(state, p, terms)
        reads_r = 0 if terms == ("curvature",) else 1
        reads_g = int(bool({"curvature", "interaction"} & set(terms)))
        assert calls == {"rot2": reads_r, "deformation_gradients": reads_r,
                         "grad_scalar": reads_g}, terms
        star = bool({"chiral_elastic", "mixing"} & set(terms))
        assert stars == [star] * reads_r, terms


def test_coupling_gradient_takes_one_polar_factor(monkeypatch):
    # The Y conjugate and the F conjugate share one (R, tr U).
    calls = []

    def counted(f, _original=energy._polar_rotation):
        calls.append(f.shape)
        return _original(f)

    monkeypatch.setattr(energy, "_polar_rotation", counted)
    state = random_smooth_state(Grid(nx=8, ny=8), seed=6, amplitude=0.05,
                                modes=2)
    p = random_material(np.random.default_rng(10), chi=0.6)
    for terms in (("coupling",), energy.ALL_TERMS):
        calls.clear()
        analytic_variations(state, p, terms)
        assert calls == [(2, 2, 8, 8)], terms


def test_coupling_f_conjugate_is_the_polar_derivative_of_its_r_conjugate():
    # The coupling's density reads F only through polar(F), whose conjugate
    # is -2 mu_c R; the derivative of polar(F) carries it to the F-conjugate.
    state = random_smooth_state(Grid(nx=12, ny=10, lx=1.9, ly=1.3), seed=7,
                                amplitude=0.08, modes=3)
    p = random_material(np.random.default_rng(11), chi=0.6)
    p_conj, _, _, r = energy._variation_conjugates(
        state, p, ("coupling",), DEFAULT_EPS_REG)
    f, _ = deformation_gradients(state, star=False)
    assert_relatively_close(p_conj, dpolar_dir(f, -2.0 * p.mu_c * r))


def test_rhs_builds_each_field_once_through_the_energy_builder(monkeypatch):
    # The right-hand sides read every field from energy._invariants: one
    # set of planar invariants (one rotation e^{i theta}), one derivative of
    # w = u1 + i u2 per axis, one angle gradient and, for the polar coupling
    # only, one det F check of the polar factor per call.
    calls = dict.fromkeys(("_planar_invariants", "ddx", "ddy", "grad_scalar",
                           "check_polar_det"), 0)
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
        assert calls == {"_planar_invariants": 1, "ddx": 1, "ddy": 1,
                         "grad_scalar": 1, "check_polar_det": polar}


def test_windowed_invariants_are_the_full_grid_bits():
    # With window=nodes every invariant of each 5x5 block in the stack is
    # the full-grid one on the 3x3 nodes around its node, bit for bit: at
    # corner, edge and interior nodes of a non-square grid (so the blocks
    # wrap on either axis), for each term alone and all together.
    grid = Grid(nx=12, ny=9, lx=1.3, ly=0.8)
    state = random_smooth_state(grid, seed=21, amplitude=0.03, modes=3)
    rng = np.random.default_rng(23)
    nodes = ((0, 0), (11, 8), (0, 8), (11, 0), (0, 4), (6, 8), (5, 4))
    index = node_window(grid, nodes)
    rows, cols = (a[:, 1:-1, 1:-1] for a in np.broadcast_arrays(*index))
    blocks = dataclasses.replace(
        state, **{name: getattr(state, name)[index]
                  for name in ("u1", "u2", "theta")})
    for p in (random_material(rng, chi=0.4), random_material(rng, chiral=True)):
        for terms in [(t,) for t in energy.ALL_TERMS] + [energy.ALL_TERMS]:
            full = energy._invariants(state, p, terms, DEFAULT_EPS_REG)
            k = energy._invariants(blocks, p, terms, DEFAULT_EPS_REG,
                                   window=nodes)
            assert k.terms == full.terms
            for name in energy._Invariants._fields[1:]:
                got, want = getattr(k, name), getattr(full, name)
                if want is None:
                    assert got is None, (terms, name)
                    continue
                want = want[..., rows, cols]
                assert got.shape == want.shape, (terms, name)
                assert got.dtype == want.dtype, (terms, name)
                assert got.tobytes() == want.tobytes(), (terms, name)


def test_window_totals_are_each_blocks_own_sum():
    # potential_total(..., window=nodes) sums each block's 3x3 densities as
    # one 3x3 array, as the whole grid's densities there sum.
    grid = Grid(nx=12, ny=9, lx=1.3, ly=0.8)
    state = random_smooth_state(grid, seed=22, amplitude=0.03, modes=3)
    p = random_material(np.random.default_rng(24), chiral=True, chi=0.4)
    nodes = ((0, 0), (11, 8), (5, 4), (5, 4))
    index = node_window(grid, nodes)
    blocks = dataclasses.replace(
        state, **{name: getattr(state, name)[index]
                  for name in ("u1", "u2", "theta")})
    for term in energy.ALL_TERMS:
        got = potential_total(blocks, p, (term,), window=nodes)
        [(_, density)] = term_densities(
            energy._invariants(state, p, (term,), DEFAULT_EPS_REG), p)
        for total, (i, j) in zip(got, nodes):
            window = np.ix_(np.arange(i - 1, i + 2) % grid.nx,
                            np.arange(j - 1, j + 2) % grid.ny)
            assert total == float(np.sum(density[window])) * grid.cell_area


def test_a_degenerate_block_names_its_grid_node():
    # det F <= 0 at one node of one block of the stack: the error names
    # that node of the grid, not its place in the stack.
    grid = Grid(nx=12, ny=9)
    state = FieldState.zero(grid)
    nodes = ((5, 4), (0, 0), (11, 8))
    index = node_window(grid, nodes)
    u1 = state.u1[index]
    # d u1/dx = -1 (F_00 = 0, det F = 0) at local node (3, 3) of the second
    # block, the grid node (1, 1).
    u1[1, 4, 3], u1[1, 2, 3] = -grid.hx, grid.hx
    blocks = dataclasses.replace(state, u1=u1, u2=state.u2[index],
                                 theta=state.theta[index])
    p = MaterialParams(chi=0.3)
    try:
        potential_total(blocks, p, ("coupling",), window=nodes)
    except DegenerateDeformation as exc:
        assert "at node (1, 1)" in str(exc), str(exc)
    else:
        raise AssertionError("no DegenerateDeformation")
