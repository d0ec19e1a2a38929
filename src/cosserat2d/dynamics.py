"""Equations of motion, homogeneous equilibria, time integration, verifier.

The nonlinear right-hand side is the chain rule of the densities written on
the planar invariants of :mod:`cosserat2d.energy` (complex scalars, no 2x2
products), deliberately not a call of its 2x2 conjugate-table gradient
:func:`cosserat2d.energy.analytic_variations`.
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

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

from .energy import (
    DEFAULT_EPS_REG,
    _band_rows,
    _invariants,
    _live_terms,
    analytic_variations,
    potential_total,
    term_densities,
    term_totals,
)
from .errors import NonFiniteState, ZeroDenominator
from .fields import (
    FieldState,
    Grid,
    ddx,
    ddxx,
    ddy,
    ddyy,
    div_vector,
    grad_scalar,
    node_window,
)
from .materials import POLAR_COUPLING, SKEW_COUPLING, MaterialParams, ModelSelector
from .report import VerificationReport


@dataclass(frozen=True)
class RhsFields:
    """Accelerations: ``acc_u`` shape (2, nx, ny), ``acc_theta`` (nx, ny).

    ``potential`` maps each active energy term to its discrete total at the
    same state, taken from the stretches the kernel already built (the keys
    and values :func:`cosserat2d.energy.total_energy` uses); it is ``None``
    for :func:`rhs_linear_chiral`, which has no matching energy.  Fields
    with leading axes, ``(..., nx, ny)``, give accelerations of shape
    ``(2, ..., nx, ny)`` and ``(..., nx, ny)``; each total then sums over
    the leading axes too.
    """

    acc_u: np.ndarray
    acc_theta: np.ndarray
    potential: Mapping[str, float] | None = None


def _rhs(state: FieldState, p: MaterialParams, terms: tuple[str, ...],
         eps_reg: float, out=None) -> RhsFields | None:
    """Accelerations and per-term potential totals of the energy made of
    ``terms`` (a :meth:`ModelSelector.active_terms` tuple).

    The invariants come from :func:`cosserat2d.energy._invariants`.  Each
    term adds its partial derivatives of the density ``W`` in ``trx``,
    ``tx``, ``trxs``, ``txs`` (the traces of ``x`` and ``x*``, plain and
    against ``EPS2``) and ``|fa|^2``; by the chain rule the stress has the
    conformal part ``pc = 2 e^{i theta} [(W_trx - W_txs) + i (W_tx + W_trxs)]``
    and the anticonformal part ``pa = 4 W_|fa|^2 fa``, so that
    ``rho (u1_tt + i u2_tt) = (d_x (pc + pa) + i d_y (pc - pa)) / 2`` and
    ``rho_rot theta_tt = -(W_trx tx - W_tx trx + W_trxs txs - W_txs trxs) / 2``
    plus half the divergence of the conjugate to ``grad theta``.  Terms come
    in the order elastic and curvature, one coupling, the interaction, then
    the chiral block, which fixes the rounding of every acceleration.

    With ``out = (acc_u, acc_theta, densities)``, the fields of ``state``
    are instead a band of grid rows with the two rows either side of it,
    wrapped periodically (as :func:`cosserat2d.energy._invariants` takes
    them with ``band``), and nothing is returned: the band's accelerations
    go into ``acc_u`` and ``acc_theta``, and each live term's density on
    the band, in :func:`cosserat2d.energy.term_densities` order, into
    ``densities``.  Every value has the full-grid bits.  As the invariants,
    the ``det F`` check and the densities cover the band and one row
    either side of it; only the band's own rows are kept.
    """
    grid = state.grid
    band = out is not None
    own = _band_rows if band else (lambda a: a)
    k = _invariants(state, p, terms, eps_reg, band=band)
    # The densities first, so that each invariant can go at its last read.
    if band:
        acc_u, acc_theta, densities = out
        for target, (_, d) in zip(densities, term_densities(k, p)):
            target[...] = own(d)
            del d
    else:
        acc_u = acc_theta = None
        potential = term_totals(term_densities(k, p), grid.cell_area)
    terms, trx, tx, trxs, txs = k.terms, k.trx, k.tx, k.trxs, k.txs
    zeta, tru, g, n, s, e, fa = k.zeta, k.tru, k.g, k.n, k.s, k.e, k.fa
    del k  # and with it |fa|^2

    # --- elastic and curvature: W_trx, 2 W_|fa|^2 and half the conjugate
    # to grad theta ---
    w_trx = (p.mu + p.lam) * (trx - 2.0)
    w_fa = p.mu
    flux = p.mu * p.L_c**2 * g

    # --- rotation/strain coupling ---
    if "coupling" in terms:  # W = 4 mu_c (1 - Re zeta), zeta = xi / |xi|
        c = 4.0 * p.mu_c * zeta.imag / tru
        w_trx -= c * zeta.imag
        w_tx = c * zeta.real
        del c
    else:  # coupling2: the skew part of R^T F
        w_tx = p.mu_c * tx
    del zeta, tru

    # --- chiral interaction ---
    if "interaction" in terms:
        c = p.mu * p.L_c * p.chi
        w_trx += c * n
        flux += (0.5 * c * trx / s) * g
    del g, n, s

    # --- starred elastic on F* = I + grad u*, and mixing ---
    if "chiral_elastic" in terms:
        c = 0.5 * p.m1 + p.m2
        w_trxs = (p.mu_s + p.lam_s) * (trxs - 2.0) + c * (trx - 2.0)
        w_txs = p.mu_c_s * txs + 0.5 * p.m3 * tx
        w_trx += c * (trxs - 2.0)
        w_tx += 0.5 * p.m3 * txs
        w_fa += p.mu_s
    spin = w_trx * tx - w_tx * trx
    if "chiral_elastic" in terms:
        spin += w_trxs * txs - w_txs * trxs
        w_trx, w_tx = w_trx - w_txs, w_tx + w_trxs
        del w_trxs, w_txs
    del trx, tx, trxs, txs  # the last views of xi
    acc_theta = np.subtract(own(div_vector(flux, grid)), 0.5 * own(spin),
                            out=acc_theta)
    acc_theta /= p.rho_rot
    del flux, spin

    pc = np.empty(e.shape, dtype=complex)  # pc / 2
    pc.real, pc.imag = w_trx, w_tx
    pc *= e
    pa = w_fa * fa  # pa / 2
    del e, fa, w_trx, w_tx
    sx = own(ddx(pc + pa, grid))
    pc -= pa
    del pa
    sy = ddy(own(pc), grid)
    del pc
    if acc_u is None:
        acc_u = np.empty((2,) + sx.shape)
    np.subtract(sx.real, sy.imag, out=acc_u[0])
    np.add(sx.imag, sy.real, out=acc_u[1])
    acc_u /= p.rho
    del sx, sy
    if not band:
        return RhsFields(acc_u=acc_u, acc_theta=acc_theta, potential=potential)
    return None


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


def _rhs_rows(positions: np.ndarray, grid: Grid, p: MaterialParams, terms,
              eps_reg: float, rows: tuple[int, int], acc: np.ndarray,
              densities: np.ndarray) -> None:
    """Evaluate the grid rows ``rows = (i0, i1)`` of :func:`_rhs` at the
    stacked ``positions`` (``u1``, ``u2``, ``theta``), writing them into the
    stacked accelerations ``acc`` (``acc_u`` then ``acc_theta``) and the
    live terms' ``densities``: what each band of
    :func:`cosserat2d.workers.banded_rhs` runs."""
    i0, i1 = rows
    block = positions.take(range(i0 - 2, i1 + 2), axis=1, mode="wrap")
    _rhs(FieldState(grid, *block, None, None, None), p, terms, eps_reg,
         out=(acc[:2, i0:i1], acc[2, i0:i1], densities[:, i0:i1]))


def linear_chiral_forces(u1, u2, phi, dx, dy, dxx, dyy, p: MaterialParams):
    """Force densities (f1, f2, f3) of the linearized chiral model.

    The equations are ``rho*u1_tt = f1``, ``rho*u2_tt = f2`` and
    ``4*rho_rot*phi_tt = f3`` in the ``phi = -theta`` convention.  ``dx``,
    ``dy``, ``dxx`` and ``dyy`` are the derivative operators: grid stencils,
    or the multipliers of one Fourier mode, which gives the symbol.
    """
    c_uxx = p.lam + 2.0 * p.mu + p.mu_s + p.mu_c_s
    c_uyy = p.mu + p.mu_c + p.lam_s + 2.0 * p.mu_s
    c_cross = p.lam + p.mu - p.mu_c - p.lam_s - p.mu_s + p.mu_c_s
    c_m = 0.5 * p.m1 + p.m2
    c_phi_grad = 2.0 * (2.0 * p.lam_s + 2.0 * p.mu_s - p.mu_c_s)
    c_phi_rot = 2.0 * p.mu_c
    d1 = p.mu * p.L_c**2
    f1 = (c_uxx * dxx(u1) + c_uyy * dyy(u1) + c_cross * dy(dx(u2))
          + c_m * (-2.0 * dy(dx(u1)) + dxx(u2) - dyy(u2))
          - c_phi_grad * dx(phi) + c_phi_rot * dy(phi))
    f2 = (c_uyy * dxx(u2) + c_uxx * dyy(u2) + c_cross * dy(dx(u1))
          + c_m * (dxx(u1) - dyy(u1) + 2.0 * dy(dx(u2)))
          - c_phi_rot * dx(phi) - c_phi_grad * dy(phi))
    f3 = (2.0 * d1 * (dxx(phi) + dyy(phi))
          + 4.0 * (2.0 * p.lam_s + 2.0 * p.mu_s - p.mu_c_s - p.mu_c) * phi
          + 2.0 * p.mu_c * (dx(u2) - dy(u1))
          - 2.0 * (p.mu_c_s - 2.0 * p.lam_s - 2.0 * p.mu_s)
          * (dx(u1) + dy(u2)))
    return f1, f2, f3


def rhs_linear_chiral(state: FieldState, p: MaterialParams) -> RhsFields:
    """Accelerations of the linearized chiral model on the grid.

    The rotational inertia of the linear equations is ``4*rho_rot`` and their
    rotation variable is ``phi = -theta``; both conversions happen here so the
    returned accelerations live in the same (u, theta) variables as the
    nonlinear right-hand sides.
    """
    g = state.grid
    f1, f2, f3 = linear_chiral_forces(
        state.u1, state.u2, -state.theta,
        lambda f: ddx(f, g), lambda f: ddy(f, g),
        lambda f: ddxx(f, g), lambda f: ddyy(f, g), p)
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


def homogeneous_root_report(p: MaterialParams,
                            sel: ModelSelector) -> VerificationReport:
    """Row ``homogeneous_roots_zero_residual``: the largest
    ``|homogeneous_residual|`` over the reported roots, relative to the
    stiffness ``|B| + |C|`` the residual is made of, so every root must
    zero it to round-off of the moduli.  Where the nontrivial branch is
    undefined only the trivial roots {0, pi} are checked, and where
    ``|B| + |C| = 0`` (a zero uniform energy) the residual is absolute."""
    b, c = _stiffness_sums(p, sel)
    try:
        roots = homogeneous_roots(p, sel).all_roots()
    except ZeroDenominator:
        roots = [0.0, math.pi]
    worst = max(abs(homogeneous_residual(r, p, sel)) for r in roots)
    scale = abs(b) + abs(c)
    report = VerificationReport()
    report.add("homogeneous_roots_zero_residual",
               worst / scale if scale else worst, 1e-12)
    return report


def quarter_turn_flag_report() -> VerificationReport:
    """Convention indicator row of :func:`homogeneous_residual`: at a quarter
    turn the residual reduces to ``lam + mu`` only once the couple modulus
    is absent, so the condition is checked in that corrected form (see the
    README notes)."""
    p0 = MaterialParams(mu=1.7, lam=0.9, mu_c=0.0)
    value = homogeneous_residual(0.5 * math.pi, p0, ModelSelector.nonchiral())
    report = VerificationReport()
    report.add("flag_quarter_turn_residual_needs_zero_couple_modulus",
               abs(value - (p0.lam + p0.mu)), 1e-13)
    return report


def step_leapfrog(state: FieldState, dt: float, rhs, p: MaterialParams,
                  acc: RhsFields) -> tuple[FieldState, RhsFields]:
    """One velocity-Verlet step, in place: half-kick, drift, evaluate,
    half-kick.

    ``rhs`` is any callable ``(state, p) -> RhsFields`` and ``acc`` is its
    value at ``state``.  The fields of ``state`` are overwritten with the
    new state, and ``(state, rhs at the new state)`` is returned; that is
    the next step's ``acc``: every right-hand side reads only the
    positions, so carrying it over gives the same bits as evaluating it
    again, with one ``rhs`` call per step.  A caller that needs the old
    state keeps a :meth:`FieldState.copy`.  If ``rhs`` raises, ``state``
    holds the drifted positions and the half-kicked velocities.
    Time-reversible: stepping ``+dt`` then ``-dt`` returns the initial
    state to round-off.

    Raises ``ValueError`` if two fields of ``state`` may share memory,
    since updating one in place would change the other.
    """
    named = zip(FieldState.FIELD_NAMES, state.field_arrays())
    for (name_a, a), (name_b, b) in itertools.combinations(named, 2):
        if np.may_share_memory(a, b):
            raise ValueError(f"cannot step in place: {name_a} and {name_b} "
                             f"may share memory")
    positions = (state.u1, state.u2, state.theta)
    rates = (state.v1, state.v2, state.omega)
    _add_scaled(rates, (acc.acc_u[0], acc.acc_u[1], acc.acc_theta), 0.5 * dt)
    _add_scaled(positions, rates, dt)
    a1 = rhs(state, p)
    _add_scaled(rates, (a1.acc_u[0], a1.acc_u[1], a1.acc_theta), 0.5 * dt)
    if not state.is_finite():
        raise NonFiniteState(f"state became non-finite during leapfrog "
                             f"step: {state.first_non_finite()}")
    return state, a1


def _add_scaled(targets, sources, factor: float) -> None:
    """``target += factor * source`` for each pair, through one scratch
    field (the bits of the out-of-place sum)."""
    scratch = np.empty_like(targets[0])
    for target, source in zip(targets, sources):
        target += np.multiply(source, factor, out=scratch)


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


def _fd_step(state: FieldState, term: str, name: str, nodes) -> np.ndarray:
    """The steps of the central differences of ``term`` in unknown ``name``
    at each of ``nodes``.

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
        return np.full(len(nodes), FD_STEP)
    grid = state.grid
    # The angle gradient at each node's four neighbours, taken across the
    # node's 5x5 block: the block's wrap spoils only its outer ring, so
    # these have the full-grid bits.
    g = grad_scalar(state.theta[node_window(grid, nodes)], grid)
    g = g[..., (1, 2, 2, 3), (2, 1, 3, 2)]
    gmin = np.min(np.sqrt(g[0] ** 2 + g[1] ** 2), axis=-1)
    # fmin: a nan gradient leaves the step at FD_STEP.
    return np.fmin(FD_STEP,
                   1e-4 * min(grid.hx, grid.hy) * np.maximum(gmin, 1e-4))


def _fd_term_error(state: FieldState, p: MaterialParams, term: str,
                   dv_du, dv_dth, eps_reg: float) -> float:
    """Max relative error of the analytic gradient ``(dv_du, dv_dth)`` of
    one energy term vs a central finite difference of its discrete total,
    over a few nodes.

    Each difference is taken on the 3x3 window of densities the nodal step
    reaches: every density outside it is bitwise equal in the two perturbed
    states, so the whole-grid sums would add rounding and nothing else.
    All of them are one stack of 5x5 blocks (``potential_total(...,
    window=nodes)``), one per unknown, node and sign of the step, each
    with its node moved.  The step is :func:`_fd_step`.
    """
    grid = state.grid
    area = grid.cell_area
    nodes = np.array(_fd_nodes(grid))
    at = tuple(nodes.T)
    gradients = {"u1": dv_du[0], "u2": dv_du[1], "theta": dv_dth}
    analytic = np.array([g[at] for g in gradients.values()]) * area
    # One member per unknown, node and sign (+ then -), in that order: the
    # node's block with the node moved in that unknown.
    shape = (len(gradients), len(nodes), 2)
    index = node_window(grid, nodes)
    moved = np.empty(shape)
    blocks = {}
    for k, name in enumerate(gradients):
        field = getattr(state, name)
        steps = _fd_step(state, term, name, nodes)
        moved[k, :, 0] = field[at] + steps
        moved[k, :, 1] = field[at] - steps
        stack = np.broadcast_to(field[index][:, None], shape + (5, 5)).copy()
        # A grid has at least 4 nodes a side, so the offsets -2..2 of a
        # block reach its node at the centre only.
        stack[k, ..., 2, 2] = moved[k]
        blocks[name] = stack.reshape(-1, 5, 5)
    plus, minus = moved[..., 0], moved[..., 1]
    if np.any(plus == minus):
        return math.inf  # a step is lost to rounding
    width = plus - minus  # the steps the floats really took
    window = np.broadcast_to(nodes[:, None], shape + (2,)).reshape(-1, 2)
    totals = potential_total(replace(state, **blocks), p, (term,), eps_reg,
                             window).reshape(shape)
    # An overflowed total or gradient is a failure, not a noise floor.
    if not (np.all(np.isfinite(totals)) and np.all(np.isfinite(analytic))):
        return math.inf
    vp, vm = totals[..., 0], totals[..., 1]
    fd = (vp - vm) / width
    noise = float(np.max(64.0 * np.finfo(float).eps
                         * np.maximum(abs(vp), abs(vm)) / width))
    scale = float(max(np.max(abs(analytic)), np.max(abs(fd))))
    # The central difference cancels to rounding when the state sits at a
    # stationary point of the term; below that noise floor there is no signal
    # to compare (a wrong analytic gradient would still raise `scale` far
    # above the floor and be caught).
    if scale <= noise:
        return 0.0
    return float(np.max(abs(analytic - fd))) / scale


def verify_variational_consistency(state: FieldState, p: MaterialParams,
                                   sel: ModelSelector,
                                   eps_reg: float = DEFAULT_EPS_REG) -> VerificationReport:
    """Check that the assembled accelerations are the exact negative discrete
    energy gradient (with inertia rho for u and 2*rho_rot for theta), and that
    the analytic gradient matches nodal finite differences term by term."""
    report = VerificationReport()
    terms = _live_terms(sel.active_terms(), p)
    base_tol = 1e-8 if "interaction" in terms else 1e-10

    # One gradient pass per term: each feeds that term's finite-difference
    # row, and their sum is the whole energy's gradient.
    dv_du = dv_dth = 0.0
    fd_rows = []
    for term in terms:
        du, dth = analytic_variations(state, p, (term,), eps_reg)
        # The unregularized norm has a kink where grad theta vanishes.
        if (term == "interaction" and eps_reg == 0.0 and np.min(
                np.sum(grad_scalar(state.theta, state.grid) ** 2, axis=0)) == 0.0):
            fd_rows.append(("fd_gradient_interaction:"
                            "skipped_not_differentiable_at_zero_angle_gradient", 0.0))
        else:
            fd_rows.append((f"fd_gradient_{term}", _fd_term_error(
                state, p, term, du, dth, eps_reg)))
        # Then the sum so far goes into this pass's fields.
        du += dv_du
        dth += dv_dth
        dv_du, dv_dth = du, dth

    # Evaluated last, so that its fields are not held through the passes.
    acc = _rhs(state, p, terms, eps_reg)
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
        report.add(name, error, 1e-6)
    return report
