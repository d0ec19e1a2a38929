"""Equations of motion, homogeneous equilibria, time integration, verifier.

The right-hand sides here are assembled from *grouped closed forms* of the
stress-like conjugates (expanded matrix products and ``tr(EPS2 @ M)`` traces),
deliberately not by calling :func:`cosserat2d.energy.analytic_variations`.
The two implementations must agree to round-off because both are exact
gradients of the same discrete energy; :func:`verify_variational_consistency`
checks exactly that.

Normalization of the angle equation: the rotational kinetic density is
``rho_rot * theta_t**2`` (no 1/2, coming from the rotation-matrix rate norm),
so the Euler-Lagrange equation reads ``2*rho_rot*theta_tt = -dV/dtheta``.
The assembled forms below compute ``rho_rot*theta_tt = -dV/dtheta / 2``
and divide by ``rho_rot``; the factor 2 is recorded as an explicit check in
the verification report.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .algebra import mat_mul, trace2, transpose2
from .energy import (
    DEFAULT_EPS_REG,
    _kinematics,
    _live_terms,
    analytic_variations,
    potential_total,
    stretch_densities,
    term_totals,
)
from .errors import NonFiniteState, ZeroDenominator
from .fields import (
    FieldState,
    ddx,
    ddxx,
    ddy,
    ddyy,
    div_matrix,
    div_vector,
    grad_scalar,
)
from .materials import POLAR_COUPLING, SKEW_COUPLING, MaterialParams, ModelSelector
from .report import VerificationReport


@dataclass(frozen=True)
class RhsFields:
    """Accelerations: ``acc_u`` shape (2, nx, ny), ``acc_theta`` (nx, ny).

    ``potential`` maps each active energy term to its discrete total at the
    same state, taken from the stretches the kernel already built (the keys
    and values :func:`cosserat2d.energy.total_energy` uses); it is ``None``
    for :func:`rhs_linear_chiral`, which has no matching energy.
    """

    acc_u: np.ndarray
    acc_theta: np.ndarray
    potential: Mapping[str, float] | None = None


def _eps_trace(m: np.ndarray) -> np.ndarray:
    """tr(EPS2 @ M) = M[1,0] - M[0,1]; equals 2 sin(phi) for rot2(phi)."""
    return m[1, 0] - m[0, 1]


def _eps_t_left(m: np.ndarray) -> np.ndarray:
    """EPS2^T @ M for component-first arrays."""
    return np.stack([-m[1], m[0]])


def _rhs(state: FieldState, p: MaterialParams, terms: tuple[str, ...],
         eps_reg: float) -> RhsFields:
    """Accelerations and per-term potential totals of the energy made of
    ``terms`` (a :meth:`ModelSelector.active_terms` tuple).

    The fields come from :func:`cosserat2d.energy._kinematics`; each term
    adds its stress to ``p_total`` (``rho u_tt = div P``) and its torque to
    ``torque`` (``rho_rot theta_tt = torque``): elastic and curvature, one
    coupling, the interaction, then the chiral block.  That order fixes the
    rounding of every acceleration.
    """
    grid = state.grid
    k = _kinematics(state, p, terms, eps_reg)
    terms, f, fstar, r, x = k.terms, k.f, k.fstar, k.r, k.x
    trx = trace2(x)
    rftr = mat_mul(r, mat_mul(transpose2(f), r))  # R F^T R

    # --- elastic and curvature ---
    p_total = p.mu * (rftr + f) + (p.lam * trx - 2.0 * (p.mu + p.lam)) * r
    tx = _eps_trace(x)
    txx = _eps_trace(mat_mul(x, x))
    torque = p.mu * p.L_c**2 * div_vector(k.g, grid)
    torque = torque + (p.mu + p.lam) * tx - 0.5 * p.mu * txx - 0.5 * p.lam * trx * tx

    # --- rotation/strain coupling ---
    if "coupling" in terms:
        stress = mat_mul(k.q, k.rtq)  # (2 mu_c / tr U)(Q R^T Q - R), in place
        stress -= r
        stress *= 2.0 * p.mu_c / k.tru
        p_total += stress
        del stress
        torque = torque + p.mu_c * _eps_trace(k.rtq)
    else:  # coupling2: the skew part of R^T F
        p_total = p_total + p.mu_c * (f - rftr)
        torque = torque + 0.5 * p.mu_c * txx

    # --- chiral interaction ---
    if "interaction" in terms:
        c = p.mu * p.L_c * p.chi
        p_total = p_total + (c * k.n) * r
        torque = torque + 0.5 * c * (div_vector(trx * k.g / k.s, grid) - k.n * tx)

    # --- starred elastic on F* = I + grad u*, and mixing ---
    if "chiral_elastic" in terms:
        xs = k.xs
        trxs = trace2(xs)
        rfstr = mat_mul(r, mat_mul(transpose2(fstar), r))
        # Each partial stress is folded in as soon as it is built, to keep
        # the allocation peak low; the sum is (P + P_mix) + EPS2^T (P* + P*_mix).
        p_total = p_total + (p.m1 * (0.5 * (fstar + rfstr) - r)
                             + p.m2 * (trxs - 2.0) * r
                             + 0.5 * p.m3 * (fstar - rfstr))
        p_star = (p.mu_s * (rfstr + fstar)
                  + (p.lam_s * trxs - 2.0 * (p.mu_s + p.lam_s)) * r
                  + p.mu_c_s * (fstar - rfstr))
        p_star += (p.m1 * (0.5 * (f + rftr) - r)
                   + p.m2 * (trx - 2.0) * r
                   + 0.5 * p.m3 * (f - rftr))
        p_total = p_total + _eps_t_left(p_star)
        del p_star, rfstr
        txs = _eps_trace(xs)
        txsxs = _eps_trace(mat_mul(xs, xs))
        txxs = _eps_trace(mat_mul(x, xs))
        txsx = _eps_trace(mat_mul(xs, x))
        torque = (torque + (p.mu_s + p.lam_s) * txs - 0.5 * p.mu_s * txsxs
                  - 0.5 * p.lam_s * trxs * txs + 0.5 * p.mu_c_s * txsxs)
        torque = (torque
                  - 0.5 * p.m1 * (0.5 * (txxs + txsx) - tx - txs)
                  - 0.5 * p.m2 * ((trxs - 2.0) * tx + (trx - 2.0) * txs)
                  + 0.25 * p.m3 * (txxs + txsx))

    acc_u = div_matrix(p_total, grid) / p.rho
    acc_theta = torque / p.rho_rot
    # Release the stress temporaries before the energy densities are built.
    del f, fstar, r, rftr, p_total, torque
    k = k._replace(f=None, fstar=None, r=None, q=None)
    potential = term_totals(stretch_densities(k, p), grid.cell_area)
    return RhsFields(acc_u=acc_u, acc_theta=acc_theta, potential=potential)


def rhs_nonlinear(state: FieldState, p: MaterialParams, coupling: str = "polar",
                  eps_reg: float = DEFAULT_EPS_REG) -> RhsFields:
    """Accelerations of the non-chiral model (elastic + curvature +
    rotation/strain coupling + optional chiral-interaction term), with the
    per-term potential totals of the same state.

    ``coupling='polar'`` penalizes microrotation vs. the continuum rotation
    ``polar(F)`` (this path needs ``det F > 0`` and raises
    ``DegenerateDeformation`` otherwise); ``coupling='skew'`` penalizes the
    skew part of ``R^T F``.
    """
    if coupling not in (POLAR_COUPLING, SKEW_COUPLING):
        raise ValueError(f"unknown coupling kind: {coupling!r}")
    return _rhs(state, p, ModelSelector.nonchiral(coupling).active_terms(),
                eps_reg)


def rhs_chiral(state: FieldState, p: MaterialParams) -> RhsFields:
    """Accelerations of the chiral model (elastic + curvature + skew coupling
    + starred elastic on the 90-degree-rotated displacement + mixing), with
    the per-term potential totals of the same state."""
    return _rhs(state, p, ModelSelector.chiral().active_terms(),
                DEFAULT_EPS_REG)


@dataclass(frozen=True)
class LinearDerivatives:
    """Analytic or stencil derivative bundle for the linearized model.

    ``phi`` is the linear-model rotation variable (opposite sign of theta).
    """

    u1x: np.ndarray
    u1y: np.ndarray
    u2x: np.ndarray
    u2y: np.ndarray
    u1xx: np.ndarray
    u1yy: np.ndarray
    u1xy: np.ndarray
    u2xx: np.ndarray
    u2yy: np.ndarray
    u2xy: np.ndarray
    phi: np.ndarray
    phi_x: np.ndarray
    phi_y: np.ndarray
    phi_xx: np.ndarray
    phi_yy: np.ndarray


def linear_chiral_forces(d: LinearDerivatives, p: MaterialParams):
    """Force densities (f1, f2, f3) of the linearized chiral model.

    The equations are ``rho*u1_tt = f1``, ``rho*u2_tt = f2`` and
    ``4*rho_rot*phi_tt = f3`` in the ``phi = -theta`` convention.
    """
    c_uxx = p.lam + 2.0 * p.mu + p.mu_s + p.mu_c_s
    c_uyy = p.mu + p.mu_c + p.lam_s + 2.0 * p.mu_s
    c_cross = p.lam + p.mu - p.mu_c - p.lam_s - p.mu_s + p.mu_c_s
    c_m = 0.5 * p.m1 + p.m2
    c_phi_grad = 2.0 * (2.0 * p.lam_s + 2.0 * p.mu_s - p.mu_c_s)
    c_phi_rot = 2.0 * p.mu_c
    d1 = p.mu * p.L_c**2

    f1 = (c_uxx * d.u1xx + c_uyy * d.u1yy + c_cross * d.u2xy
          + c_m * (-2.0 * d.u1xy + d.u2xx - d.u2yy)
          - c_phi_grad * d.phi_x + c_phi_rot * d.phi_y)
    f2 = (c_uyy * d.u2xx + c_uxx * d.u2yy + c_cross * d.u1xy
          + c_m * (d.u1xx - d.u1yy + 2.0 * d.u2xy)
          - c_phi_rot * d.phi_x - c_phi_grad * d.phi_y)
    f3 = (2.0 * d1 * (d.phi_xx + d.phi_yy)
          + 4.0 * (2.0 * p.lam_s + 2.0 * p.mu_s - p.mu_c_s - p.mu_c) * d.phi
          + 2.0 * p.mu_c * (d.u2x - d.u1y)
          - 2.0 * (p.mu_c_s - 2.0 * p.lam_s - 2.0 * p.mu_s) * (d.u1x + d.u2y))
    return f1, f2, f3


def grid_linear_derivatives(state: FieldState) -> LinearDerivatives:
    """Stencil derivative bundle of a grid state (phi = -theta)."""
    g = state.grid
    u1, u2 = state.u1, state.u2
    phi = -state.theta
    return LinearDerivatives(
        u1x=ddx(u1, g), u1y=ddy(u1, g), u2x=ddx(u2, g), u2y=ddy(u2, g),
        u1xx=ddxx(u1, g), u1yy=ddyy(u1, g), u1xy=ddy(ddx(u1, g), g),
        u2xx=ddxx(u2, g), u2yy=ddyy(u2, g), u2xy=ddy(ddx(u2, g), g),
        phi=phi, phi_x=ddx(phi, g), phi_y=ddy(phi, g),
        phi_xx=ddxx(phi, g), phi_yy=ddyy(phi, g))


def rhs_linear_chiral(state: FieldState, p: MaterialParams) -> RhsFields:
    """Accelerations of the linearized chiral model on the grid.

    The rotational inertia of the linear equations is ``4*rho_rot`` and their
    rotation variable is ``phi = -theta``; both conversions happen here so the
    returned accelerations live in the same (u, theta) variables as the
    nonlinear right-hand sides.
    """
    f1, f2, f3 = linear_chiral_forces(grid_linear_derivatives(state), p)
    return RhsFields(acc_u=np.stack([f1, f2]) / p.rho,
                     acc_theta=-f3 / (4.0 * p.rho_rot))


@dataclass(frozen=True)
class HomogeneousRoots:
    """Spatially constant equilibrium angles of the selected model."""

    trivial_roots: tuple[float, ...]
    nontrivial_cos: float
    feasible: bool

    def all_roots(self) -> list[float]:
        roots = list(self.trivial_roots)
        if self.feasible:
            t = math.acos(self.nontrivial_cos)
            for candidate in (t, -t):
                if all(abs(candidate - r) > 1e-15 for r in roots):
                    roots.append(candidate)
        return roots


def _stiffness_sums(p: MaterialParams, sel: ModelSelector):
    """``(B, C)`` with ``B = mu + lam`` and ``C = mu_c``, plus the starred
    and mixing sums for the chiral model.  The uniform energy is
    ``2B(cos t - 1)^2 + 4C(1 - cos t)`` with the polar coupling and
    ``2B(cos t - 1)^2 + 2C sin^2 t`` with the skew one (chiral or not)."""
    b, c = p.mu + p.lam, p.mu_c
    if sel.is_chiral:
        b = b + p.mu_s + p.lam_s + p.m1 + 2.0 * p.m2
        c = c + p.mu_c_s + p.m3
    return b, c


def homogeneous_residual(theta0, p: MaterialParams, sel: ModelSelector):
    """Stationarity residual for a spatially constant angle, zero displacement.

    Polar coupling: ``(B (1 - cos t) + C) sin t``; skew coupling (the skew
    and the chiral model): ``(-B + (B - C) cos t) sin t``, with B, C the
    grouped stiffness sums of :func:`_stiffness_sums`.  Roots of the
    residual are the homogeneous equilibria (overall sign is a convention).
    """
    t = np.asarray(theta0, dtype=float)
    b, c = _stiffness_sums(p, sel)
    if "coupling" in sel.active_terms():
        res = (b * (1.0 - np.cos(t)) + c) * np.sin(t)
    else:
        res = (-b + (b - c) * np.cos(t)) * np.sin(t)
    return float(res) if np.isscalar(theta0) else res


def homogeneous_roots(p: MaterialParams, sel: ModelSelector) -> HomogeneousRoots:
    """All homogeneous equilibrium angles: {0, pi} always; a nontrivial
    ``+-arccos`` pair when ``cos t0 = 1 + fraction`` lands in [-1, 1]
    (fraction in [-2, 0]): ``C / B`` with the polar coupling, ``C / (B - C)``
    with the skew one."""
    b, c = _stiffness_sums(p, sel)
    polar = "coupling" in sel.active_terms()
    denom = b if polar else b - c
    if denom == 0.0:
        raise ZeroDenominator("homogeneous branch undefined: "
                              + ("B = 0" if polar else "B - C = 0"))
    fraction = c / denom
    return HomogeneousRoots(trivial_roots=(0.0, math.pi),
                            nontrivial_cos=1.0 + fraction,
                            feasible=-2.0 <= fraction <= 0.0)


def _homogeneous_root_error(p: MaterialParams, sel: ModelSelector) -> float:
    """Largest ``|homogeneous_residual|`` over the reported roots, relative
    to the stiffness ``|B| + |C|`` the residual is made of."""
    b, c = _stiffness_sums(p, sel)
    worst = max(abs(homogeneous_residual(r, p, sel))
                for r in homogeneous_roots(p, sel).all_roots())
    return worst / (abs(b) + abs(c))


def step_leapfrog(state: FieldState, dt: float, rhs, p: MaterialParams,
                  acc: RhsFields) -> tuple[FieldState, RhsFields]:
    """One velocity-Verlet step: half-kick, drift, evaluate, half-kick.

    ``rhs`` is any callable ``(state, p) -> RhsFields`` and ``acc`` is its
    value at ``state``.  Returns the new state and ``rhs`` at the new state,
    which is the next step's ``acc``: every right-hand side reads only the
    positions, so carrying it over gives the same bits as evaluating it
    again, with one ``rhs`` call per step.  Time-reversible: stepping ``+dt``
    then ``-dt`` returns the initial state to round-off.
    """
    g = state.grid
    v1h = state.v1 + 0.5 * dt * acc.acc_u[0]
    v2h = state.v2 + 0.5 * dt * acc.acc_u[1]
    omh = state.omega + 0.5 * dt * acc.acc_theta
    drifted = FieldState(grid=g,
                         u1=state.u1 + dt * v1h,
                         u2=state.u2 + dt * v2h,
                         theta=state.theta + dt * omh,
                         v1=v1h, v2=v2h, omega=omh)
    a1 = rhs(drifted, p)
    out = FieldState(grid=g, u1=drifted.u1, u2=drifted.u2, theta=drifted.theta,
                     v1=v1h + 0.5 * dt * a1.acc_u[0],
                     v2=v2h + 0.5 * dt * a1.acc_u[1],
                     omega=omh + 0.5 * dt * a1.acc_theta)
    if not out.is_finite():
        raise NonFiniteState("state became non-finite during leapfrog step")
    return out, a1


def _relative_max_error(diff: np.ndarray, reference: np.ndarray) -> float:
    num = float(np.max(np.abs(diff))) if np.size(diff) else 0.0
    den = float(np.max(np.abs(reference))) if np.size(reference) else 0.0
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.inf  # an overflowed field is a failure, not a ratio
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _fd_nodes(grid) -> list[tuple[int, int]]:
    nx, ny = grid.nx, grid.ny
    return [(1, 2), (nx // 2, ny // 3), (nx - 3, ny - 2), (nx // 4, 2 * ny // 3)]


#: Nodal finite-difference step (the interaction term's angle step is
#: smaller, see :func:`_fd_step`).
FD_STEP = 1e-6


def _fd_step(state: FieldState, term: str, name: str,
             node: tuple[int, int]) -> float:
    """The step of the central difference of ``term`` in unknown ``name``
    at ``node``.

    The interaction density ``chi |grad theta|_reg tr(R^T F)`` is linear in
    ``u``, but its regularized norm curves on the scale of ``|grad theta|``
    itself, and a step ``d`` of ``theta`` moves the four neighbours'
    gradients by ``d / 2h``.  So the angle step is ``1e-4 h`` times their
    smallest ``|grad theta|``, which keeps the truncation error near 1e-9 of
    the gradient, and never more than :data:`FD_STEP`.  A gradient below
    1e-4 counts as 1e-4: a smaller step would lose more to rounding than it
    gains in truncation.
    """
    if term != "interaction" or name != "theta":
        return FD_STEP
    grid = state.grid
    g = grad_scalar(state.theta, grid, node)[:, (0, 1, 1, 2), (1, 0, 2, 1)]
    gmin = float(np.min(np.sqrt(g[0] ** 2 + g[1] ** 2)))
    return min(FD_STEP, 1e-4 * min(grid.hx, grid.hy) * max(gmin, 1e-4))


def _fd_term_error(state: FieldState, p: MaterialParams, term: str,
                   dv_du, dv_dth, eps_reg: float) -> float:
    """Max relative error of the analytic gradient ``(dv_du, dv_dth)`` of
    one energy term vs a central finite difference of its discrete total,
    over a few nodes.

    Each difference is taken on the 3x3 window of densities the nodal step
    reaches (``potential_total(..., window=node)``): every density outside
    it is bitwise equal in the two perturbed states, so the whole-grid sums
    would add rounding and nothing else.  The step is :func:`_fd_step`.
    """
    terms = (term,)
    area = state.grid.cell_area
    entries = []
    for node in _fd_nodes(state.grid):
        entries.append(("u1", node, dv_du[0][node]))
        entries.append(("u2", node, dv_du[1][node]))
        entries.append(("theta", node, dv_dth[node]))
    scale = max((abs(e[2]) * area for e in entries), default=0.0)
    worst = noise = 0.0
    for name, node, analytic in entries:
        step = _fd_step(state, term, name, node)
        plus, minus = getattr(state, name).copy(), getattr(state, name).copy()
        plus[node] += step
        minus[node] -= step
        if plus[node] == minus[node]:
            return math.inf  # the step is lost to rounding: nothing to compare
        width = plus[node] - minus[node]  # the step the floats really took
        vp = potential_total(replace(state, **{name: plus}), p, terms,
                             eps_reg, window=node)
        vm = potential_total(replace(state, **{name: minus}), p, terms,
                             eps_reg, window=node)
        # An overflowed total or gradient is a failure, not a noise floor.
        if not all(map(math.isfinite, (vp, vm, analytic * area))):
            return math.inf
        fd = (vp - vm) / width
        noise = max(noise, 64.0 * np.finfo(float).eps * max(abs(vp), abs(vm))
                    / width)
        scale = max(scale, abs(fd))
        worst = max(worst, abs(analytic * area - fd))
    # The central difference cancels to rounding when the state sits at a
    # stationary point of the term; below that noise floor there is no signal
    # to compare (a wrong analytic gradient would still raise `scale` far
    # above the floor and be caught).
    if scale <= noise:
        return 0.0
    return worst / scale


def verify_variational_consistency(state: FieldState, p: MaterialParams,
                                   sel: ModelSelector,
                                   eps_reg: float = DEFAULT_EPS_REG,
                                   tolerance_scale: float = 1.0) -> VerificationReport:
    """Check that the assembled accelerations are the exact negative discrete
    energy gradient (with inertia rho for u and 2*rho_rot for theta), and that
    the analytic gradient matches nodal finite differences term by term."""
    report = VerificationReport()
    terms = _live_terms(sel.active_terms(), p)
    base_tol = (1e-8 if "interaction" in terms else 1e-10) * tolerance_scale
    fd_tol = 1e-6 * tolerance_scale

    acc = _rhs(state, p, terms, eps_reg)
    # One gradient pass per term: each feeds that term's finite-difference
    # row, and their sum is the whole energy's gradient.
    dv_du = dv_dth = 0.0
    fd_rows = []
    for term in terms:
        gradient = analytic_variations(state, p, (term,), eps_reg)
        dv_du, dv_dth = dv_du + gradient[0], dv_dth + gradient[1]
        # The unregularized norm has a kink where grad theta vanishes.
        if (term == "interaction" and eps_reg == 0.0 and np.min(
                np.sum(grad_scalar(state.theta, state.grid) ** 2, axis=0)) == 0.0):
            fd_rows.append(("fd_gradient_interaction:"
                            "skipped_not_differentiable_at_zero_angle_gradient", 0.0))
        else:
            fd_rows.append((f"fd_gradient_{term}", _fd_term_error(
                state, p, term, *gradient, eps_reg)))

    report.add("acc_u_vs_energy_gradient",
               _relative_max_error(p.rho * acc.acc_u + dv_du, dv_du), base_tol)
    report.add("acc_theta_vs_energy_gradient",
               _relative_max_error(2.0 * p.rho_rot * acc.acc_theta + dv_dth, dv_dth),
               base_tol)

    # Record the inertia normalization of the angle equation explicitly:
    # the least-squares factor m in (-dV/dtheta) = m * rho_rot * acc_theta.
    # Both sums run on the fields divided by the power of two just above
    # max|acc_theta|: the division is exact, so the factor is unchanged, and
    # the sums cannot overflow however large the state.
    peak = float(np.max(np.abs(acc.acc_theta)))
    if peak == 0.0:
        report.add("theta_inertia_factor_is_two", 0.0, base_tol)
    else:
        scale = math.ldexp(1.0, math.frexp(peak)[1])
        with np.errstate(over="ignore", invalid="ignore"):
            a_th, dv = acc.acc_theta / scale, dv_dth / scale
            factor = float(np.sum(-dv * a_th)) / (float(np.sum(a_th**2))
                                                  * p.rho_rot)
        error = abs(factor - 2.0) if math.isfinite(factor) else math.inf
        report.add("theta_inertia_factor_is_two", error, base_tol)

    for name, error in fd_rows:
        report.add(name, error, fd_tol)
    return report
