"""Energy densities, discrete totals, and analytic first variations.

Every density is a pointwise function of the deformation gradient(s), the
microrotation angle, and (for the curvature/interaction terms) the angle
gradient; all accept trailing grid axes.

:func:`analytic_variations` assembles the exact gradient of the *discrete*
total energy by the conjugate-table route: each term contributes

* a conjugate ``P`` to the deformation gradient (so the displacement gradient
  is ``-div P`` after the discrete integration by parts),
* a conjugate ``Y`` to the rotation matrix (contracted against
  ``dR/dtheta = -EPS2 @ R`` for the algebraic angle gradient), and
* a conjugate ``q`` to the angle gradient (so the flux part is ``-div q``).

Because the difference operators are exactly antisymmetric on the periodic
grid, those expressions are the machine-precision gradient of
:func:`total_energy`, not merely a discretization of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    EPS2,
    dpolar2_dF,
    frobenius,
    identity2,
    mat_mul,
    polar2,
    rot2,
    trace2,
    transpose2,
)
from .fields import FieldState, deformation_gradients, div_matrix, div_vector, grad_scalar
from .materials import MaterialParams, ModelSelector

#: Default regularization scale for the norm of the angle gradient.
DEFAULT_EPS_REG = 1e-8

ALL_TERMS = ("elastic", "curvature", "interaction", "coupling", "coupling2",
             "chiral_elastic", "mixing")


def _first_stretch(f, theta):
    """R(theta)^T F — the nonsymmetric stretch the energies are built from."""
    return mat_mul(transpose2(rot2(theta)), f)


def _reg_norm(grad_theta, eps_reg):
    """Regularized vector norm  sqrt(|g|^2 + eps^2) - eps  (zero at g = 0).

    The second return value is the divisor used by d|g|/dg = g/s; where it
    vanishes (only possible for eps_reg = 0 at g = 0, the kink of the
    unregularized norm) it is replaced by inf so the direction factor
    becomes the symmetric subgradient choice 0.
    """
    s = np.sqrt(grad_theta[0] ** 2 + grad_theta[1] ** 2 + eps_reg**2)
    return s - eps_reg, np.where(s > 0.0, s, np.inf)


# Each density formula below is written once, on the stretches it reads:
# ``x = R^T F``, ``xs = R^T F*``, the angle gradient ``g``, its regularized
# norm ``n`` and ``rtq = R^T polar(F)``.  The public ``*_density(f, theta,
# ...)`` functions and :func:`stretch_densities` both call them.

def _sym_minus_eye(x):
    return 0.5 * (x + transpose2(x)) - identity2(x)


def _skew(x):
    return 0.5 * (x - transpose2(x))


def _elastic(x, p: MaterialParams):
    sym = _sym_minus_eye(x)
    return p.mu * frobenius(sym, sym) + 0.5 * p.lam * trace2(sym) ** 2


def _interaction(n, x, p: MaterialParams):
    return p.mu * p.L_c * p.chi * n * trace2(x)


def _coupling(rtq, p: MaterialParams):
    d = rtq - identity2(rtq)
    return p.mu_c * frobenius(d, d)


def _coupling2(x, mu_c: float):
    sk = _skew(x)
    return mu_c * frobenius(sk, sk)


def _chiral_elastic(xs, p: MaterialParams):
    sym = _sym_minus_eye(xs)
    sk = _skew(xs)
    return (p.mu_s * frobenius(sym, sym)
            + 0.5 * p.lam_s * trace2(sym) ** 2
            + p.mu_c_s * frobenius(sk, sk))


def _mixing(x, xs, p: MaterialParams):
    sym = _sym_minus_eye(x)
    syms = _sym_minus_eye(xs)
    out = p.m1 * frobenius(syms, sym) + p.m2 * trace2(syms) * trace2(sym)
    if p.m3 != 0.0:
        out = out + p.m3 * frobenius(_skew(xs), _skew(x))
    return out


def elastic_density(f, theta, p: MaterialParams):
    """mu |sym(R^T F) - I|^2 + lam/2 (tr(sym(R^T F) - I))^2."""
    return _elastic(_first_stretch(f, theta), p)


def curvature_density(grad_theta, p: MaterialParams):
    """mu L_c^2 |grad theta|^2."""
    return p.mu * p.L_c**2 * (grad_theta[0] ** 2 + grad_theta[1] ** 2)


def interaction_density(f, theta, grad_theta, p: MaterialParams,
                        eps_reg: float = DEFAULT_EPS_REG):
    """mu L_c chi * reg|grad theta| * tr(R^T F) with the smoothed norm."""
    n, _ = _reg_norm(grad_theta, eps_reg)
    return _interaction(n, _first_stretch(f, theta), p)


def coupling_density(f, theta, p: MaterialParams):
    """mu_c |R^T polar(F) - I|^2  (both factors are rotations)."""
    q, _ = polar2(f)
    return _coupling(mat_mul(transpose2(rot2(theta)), q), p)


def coupling2_density(f, theta, p: MaterialParams, mu_c: float | None = None):
    """mu_c |skew(R^T F - I)|^2  (the skew part kills the identity shift)."""
    mu_c = p.mu_c if mu_c is None else mu_c
    return _coupling2(_first_stretch(f, theta), mu_c)


def chiral_elastic_density(fstar, theta, p: MaterialParams):
    """Starred elastic energy: the elastic + skew-coupling shape on F*."""
    return _chiral_elastic(_first_stretch(fstar, theta), p)


def mixing_density(f, fstar, theta, p: MaterialParams):
    """m1 <sym* - I, sym - I> + m2 (tr* - 2)(tr - 2) + m3 <skew*, skew>."""
    return _mixing(_first_stretch(f, theta), _first_stretch(fstar, theta), p)


def stretch_densities(terms, p: MaterialParams, *, x=None, xs=None, g=None,
                      n=None, rtq=None):
    """Yield ``(term, density)`` for each of ``terms`` from prebuilt stretches.

    Only the inputs the requested terms read need to be given: ``x`` for
    elastic, interaction, coupling2 and mixing, ``xs`` for chiral_elastic and
    mixing, ``g`` for curvature, ``n`` for interaction (skipped when
    ``chi = 0``) and ``rtq`` for coupling.  Densities come one at a time, in
    :data:`ALL_TERMS` order, so a caller that sums each keeps one alive.
    """
    if "elastic" in terms:
        yield "elastic", _elastic(x, p)
    if "curvature" in terms:
        yield "curvature", curvature_density(g, p)
    if "interaction" in terms and p.chi != 0.0:
        yield "interaction", _interaction(n, x, p)
    if "coupling" in terms:
        yield "coupling", _coupling(rtq, p)
    if "coupling2" in terms:
        yield "coupling2", _coupling2(x, p.mu_c)
    if "chiral_elastic" in terms:
        yield "chiral_elastic", _chiral_elastic(xs, p)
    if "mixing" in terms:
        yield "mixing", _mixing(x, xs, p)


def term_totals(densities, cell_area: float) -> dict[str, float]:
    """Discrete per-term totals (node sum times cell area) of
    ``(term, density)`` pairs."""
    return {name: float(np.sum(d)) * cell_area for name, d in densities}


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term discrete totals (node sums times cell area)."""

    elastic: float = 0.0
    curvature: float = 0.0
    interaction: float = 0.0
    coupling: float = 0.0
    chiral_elastic: float = 0.0
    mixing: float = 0.0
    kinetic_translational: float = 0.0
    kinetic_rotational: float = 0.0

    @property
    def potential(self) -> float:
        return (self.elastic + self.curvature + self.interaction
                + self.coupling + self.chiral_elastic + self.mixing)

    @property
    def total(self) -> float:
        return self.potential + self.kinetic_translational + self.kinetic_rotational

    def csv_row(self) -> tuple[float, ...]:
        """Values for the header elastic,curvature,interaction,coupling,chiral_elastic,mixing,kin_trans,kin_rot,total."""
        return (self.elastic, self.curvature, self.interaction, self.coupling,
                self.chiral_elastic, self.mixing, self.kinetic_translational,
                self.kinetic_rotational, self.total)


def _potential_densities(state: FieldState, p: MaterialParams, terms,
                         eps_reg: float):
    """:func:`stretch_densities` of ``state``, building only the stretches
    the requested terms read."""
    need = set(terms)
    if p.chi == 0.0:
        need.discard("interaction")
    f, fstar = deformation_gradients(state)
    # every term but curvature reads R
    rt = transpose2(rot2(state.theta)) if need - {"curvature"} else None
    rtq = mat_mul(rt, polar2(f)[0]) if "coupling" in need else None
    x = (mat_mul(rt, f)
         if need & {"elastic", "interaction", "coupling2", "mixing"} else None)
    xs = mat_mul(rt, fstar) if need & {"chiral_elastic", "mixing"} else None
    g = (grad_scalar(state.theta, state.grid)
         if need & {"curvature", "interaction"} else None)
    n = _reg_norm(g, eps_reg)[0] if "interaction" in need else None
    return stretch_densities(need, p, x=x, xs=xs, g=g, n=n, rtq=rtq)


def energy_breakdown(potential, state: FieldState,
                     p: MaterialParams) -> EnergyBreakdown:
    """Breakdown from per-term potential totals (as :func:`term_totals`
    returns them) and the kinetic energy of ``state``.

    Kinetic terms: translational ``rho/2 |u_t|^2`` and rotational
    ``rho_rot |theta_t|^2`` (note: no 1/2 — the rotation-matrix rate form
    ``tr(Rdot^T Rdot)`` equals ``2 theta_t^2``, and this convention keeps the
    angle equation's inertia factor at ``2 rho_rot``).
    """
    area = state.grid.cell_area
    kin_t = 0.5 * p.rho * float(np.sum(state.v1**2 + state.v2**2)) * area
    kin_r = p.rho_rot * float(np.sum(state.omega**2)) * area
    return EnergyBreakdown(
        elastic=potential.get("elastic", 0.0),
        curvature=potential.get("curvature", 0.0),
        interaction=potential.get("interaction", 0.0),
        coupling=potential.get("coupling", 0.0) + potential.get("coupling2", 0.0),
        chiral_elastic=potential.get("chiral_elastic", 0.0),
        mixing=potential.get("mixing", 0.0),
        kinetic_translational=kin_t,
        kinetic_rotational=kin_r,
    )


def total_energy(state: FieldState, p: MaterialParams, sel: ModelSelector,
                 eps_reg: float = DEFAULT_EPS_REG) -> EnergyBreakdown:
    """Discrete energy breakdown for the selected model (see
    :func:`energy_breakdown` for the kinetic terms)."""
    dens = _potential_densities(state, p, sel.active_terms(), eps_reg)
    return energy_breakdown(term_totals(dens, state.grid.cell_area), state, p)


def potential_total(state: FieldState, p: MaterialParams, terms,
                    eps_reg: float = DEFAULT_EPS_REG) -> float:
    """Discrete potential energy restricted to ``terms`` (test/FD helper)."""
    dens = _potential_densities(state, p, terms, eps_reg)
    return float(sum(np.sum(d) for _, d in dens)) * state.grid.cell_area


def _variation_conjugates(state: FieldState, p: MaterialParams, terms,
                          eps_reg: float):
    """Conjugates (P to F, Y to R, q to grad theta) of the selected terms."""
    grid = state.grid
    f, fstar = deformation_gradients(state)
    r = rot2(state.theta)
    rt = transpose2(r)
    x = mat_mul(rt, f)
    xs = mat_mul(rt, fstar)
    eye = identity2(f)

    p_conj = np.zeros_like(f)   # conjugate to delta F
    y_conj = np.zeros_like(f)   # conjugate to delta R
    q_conj = np.zeros((2,) + grid.shape)  # conjugate to delta grad theta

    def stretch_conjugates(fmat, w):
        """Push a conjugate-to-(R^T F) back to (delta F, delta R) conjugates."""
        return mat_mul(r, w), mat_mul(fmat, transpose2(w))

    if "elastic" in terms:
        w = 2.0 * p.mu * _sym_minus_eye(x) + p.lam * (trace2(x) - 2.0) * eye
        dp, dy = stretch_conjugates(f, w)
        p_conj += dp
        y_conj += dy

    if "coupling2" in terms:
        w = p.mu_c * (x - transpose2(x))  # 2 mu_c skew(X)
        dp, dy = stretch_conjugates(f, w)
        p_conj += dp
        y_conj += dy

    if "chiral_elastic" in terms:
        w = (2.0 * p.mu_s * _sym_minus_eye(xs) + p.lam_s * (trace2(xs) - 2.0) * eye
             + p.mu_c_s * (xs - transpose2(xs)))
        dp, dy = stretch_conjugates(fstar, w)
        # delta F* = EPS2 @ delta F, so the F-conjugate picks up EPS2^T.
        p_conj += np.einsum("ji,jk...->ik...", EPS2, dp)
        y_conj += dy

    if "mixing" in terms:
        w_x = p.m1 * _sym_minus_eye(xs) + p.m2 * (trace2(xs) - 2.0) * eye
        w_xs = p.m1 * _sym_minus_eye(x) + p.m2 * (trace2(x) - 2.0) * eye
        if p.m3 != 0.0:
            w_x = w_x + 0.5 * p.m3 * (xs - transpose2(xs))
            w_xs = w_xs + 0.5 * p.m3 * (x - transpose2(x))
        dp, dy = stretch_conjugates(f, w_x)
        dps, dys = stretch_conjugates(fstar, w_xs)
        p_conj += dp + np.einsum("ji,jk...->ik...", EPS2, dps)
        y_conj += dy + dys

    if "interaction" in terms and p.chi != 0.0:
        g = grad_scalar(state.theta, grid)
        n, s = _reg_norm(g, eps_reg)
        c = p.mu * p.L_c * p.chi
        p_conj += c * n * r
        y_conj += c * n * f
        q_conj += c * trace2(x) * g / s

    if "curvature" in terms:
        g = grad_scalar(state.theta, grid)
        q_conj += 2.0 * p.mu * p.L_c**2 * g

    if "coupling" in terms:
        q, _ = polar2(f)
        # The F-conjugate goes through the full polar-derivative tensor:
        # <R, dpolar(F)[dF]> = <adjoint applied to R, dF>.
        t4 = dpolar2_dF(f)
        p_conj += -2.0 * p.mu_c * np.einsum("ij...,ijkl...->kl...", r, t4)
        y_conj += -2.0 * p.mu_c * q

    return p_conj, y_conj, q_conj


def analytic_variations(state: FieldState, p: MaterialParams,
                        sel: ModelSelector,
                        eps_reg: float = DEFAULT_EPS_REG,
                        terms=None):
    """L2 gradient of the discrete potential: ``(dV_du, dV_dtheta)``.

    ``dV_du`` has shape ``(2, nx, ny)`` and ``dV_dtheta`` ``(nx, ny)``; the
    derivative of the nodal total with respect to one nodal unknown equals the
    returned value times the cell area. ``terms`` overrides the selector's
    active set (used by the per-term finite-difference tests).
    """
    grid = state.grid
    if terms is None:
        terms = sel.active_terms()
    p_conj, y_conj, q_conj = _variation_conjugates(state, p, terms, eps_reg)
    dv_du = -div_matrix(p_conj, grid)
    # dR/dtheta = -EPS2 @ R, contracted against the delta-R conjugate.
    minus_eps_r = -np.einsum("ij,jk...->ik...", EPS2, rot2(state.theta))
    dv_dtheta = frobenius(y_conj, minus_eps_r) - div_vector(q_conj, grid)
    return dv_du, dv_dtheta
