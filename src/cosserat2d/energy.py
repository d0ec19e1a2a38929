"""Energy densities, discrete totals, and analytic first variations.

Every density is a pointwise function of a few kinematic fields, built once
per evaluation by :func:`_kinematics` for the terms that read them: the
stretch ``x = R^T F``, the chiral stretch ``xs = R^T F*`` of the
quarter-turned displacement, the angle gradient, its regularized norm and
``R^T polar(F)``; all accept trailing grid axes.

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

from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import (
    EPS2,
    _polar_rotation,
    dpolar2_dF,
    frobenius,
    identity2,
    mat_mul,
    rot2,
    trace2,
    transpose2,
)
from .fields import (
    FieldState,
    deformation_gradients,
    div_matrix,
    div_vector,
    grad_scalar,
    node_window,
)
from .materials import MaterialParams, ModelSelector

#: Default regularization scale for the norm of the angle gradient.
DEFAULT_EPS_REG = 1e-8

#: The live ``terms`` (:func:`_live_terms`) and their fields, each ``None``
#: unless a consumer reads it: ``F``, ``F*``, ``R(theta)``, ``R^T F``,
#: ``R^T F*``, ``grad theta``, the interaction's regularized norm of it and
#: divisor (:func:`_reg_norm`), and the polar coupling's ``polar(F)``,
#: ``tr U`` and ``R^T polar(F)``.
_Kinematics = namedtuple("_Kinematics", "terms f fstar r x xs g n s q tru rtq",
                         defaults=(None,) * 11)


def _live_terms(terms, p: MaterialParams) -> tuple[str, ...]:
    """``terms`` without the interaction when ``chi = 0``: it then has no
    energy, no gradient and no verify row."""
    return tuple(t for t in terms if t != "interaction" or p.chi != 0.0)


def _reg_norm(grad_theta, eps_reg):
    """Regularized vector norm  sqrt(|g|^2 + eps^2) - eps  (zero at g = 0).

    The second return value is the divisor used by d|g|/dg = g/s; where it
    vanishes (only possible for eps_reg = 0 at g = 0, the kink of the
    unregularized norm) it is replaced by inf so the direction factor
    becomes the symmetric subgradient choice 0.
    """
    s = np.sqrt(grad_theta[0] ** 2 + grad_theta[1] ** 2 + eps_reg**2)
    return s - eps_reg, np.where(s > 0.0, s, np.inf)


# The density formulas, each written once on the fields it reads; only
# :func:`stretch_densities` calls them.

def _sym_minus_eye(x):
    return 0.5 * (x + transpose2(x)) - identity2(x)


def _trace_eye(c, x):
    """c (tr x - 2) I, the conjugate of c/2 (tr x - 2)^2 to x."""
    return c * (trace2(x) - 2.0) * identity2(x)


def _skew(x):
    return 0.5 * (x - transpose2(x))


def _elastic(x, p: MaterialParams):
    """mu |sym(R^T F) - I|^2 + lam/2 (tr(sym(R^T F) - I))^2."""
    sym = _sym_minus_eye(x)
    return p.mu * frobenius(sym, sym) + 0.5 * p.lam * trace2(sym) ** 2


def _curvature(g, p: MaterialParams):
    """mu L_c^2 |grad theta|^2."""
    return p.mu * p.L_c**2 * (g[0] ** 2 + g[1] ** 2)


def _interaction(n, x, p: MaterialParams):
    """mu L_c chi * reg|grad theta| * tr(R^T F) with the smoothed norm."""
    return p.mu * p.L_c * p.chi * n * trace2(x)


def _coupling(rtq, p: MaterialParams):
    """mu_c |R^T polar(F) - I|^2  (both factors are rotations)."""
    d = rtq - identity2(rtq)
    return p.mu_c * frobenius(d, d)


def _coupling2(x, p: MaterialParams):
    """mu_c |skew(R^T F - I)|^2  (the skew part kills the identity shift)."""
    sk = _skew(x)
    return p.mu_c * frobenius(sk, sk)


def _chiral_elastic(xs, p: MaterialParams):
    """Starred elastic energy: the elastic + skew-coupling shape on F*."""
    sym = _sym_minus_eye(xs)
    sk = _skew(xs)
    return (p.mu_s * frobenius(sym, sym)
            + 0.5 * p.lam_s * trace2(sym) ** 2
            + p.mu_c_s * frobenius(sk, sk))


def _mixing(x, xs, p: MaterialParams):
    """m1 <sym* - I, sym - I> + m2 (tr* - 2)(tr - 2) + m3 <skew*, skew>."""
    sym = _sym_minus_eye(x)
    syms = _sym_minus_eye(xs)
    out = p.m1 * frobenius(syms, sym) + p.m2 * trace2(syms) * trace2(sym)
    if p.m3 != 0.0:
        out = out + p.m3 * frobenius(_skew(xs), _skew(x))
    return out


#: Each term, in :data:`ALL_TERMS` order, with its density function and
#: the :data:`_Kinematics` fields that function takes.
_DENSITIES = {
    "elastic": (_elastic, ("x",)),
    "curvature": (_curvature, ("g",)),
    "interaction": (_interaction, ("n", "x")),
    "coupling": (_coupling, ("rtq",)),
    "coupling2": (_coupling2, ("x",)),
    "chiral_elastic": (_chiral_elastic, ("xs",)),
    "mixing": (_mixing, ("x", "xs")),
}

ALL_TERMS = tuple(_DENSITIES)


#: The fields each consumer of :func:`_kinematics` reads for each term,
#: named as in :data:`_Kinematics`: the densities (``"energy"``,
#: :data:`_DENSITIES`), the conjugates (``"gradient"``,
#: :func:`_variation_conjugates`) and the stresses and torques of
#: :func:`cosserat2d.dynamics._rhs` (``"rhs"``, where the chiral elastic
#: block also serves the mixing term).  :func:`_kinematics` builds exactly
#: the fields its consumers read.
_READS = {
    "energy": {term: set(reads) for term, (_, reads) in _DENSITIES.items()},
    "gradient": {"elastic": {"f", "r", "x"}, "curvature": {"g"},
                 "interaction": {"f", "r", "x", "g", "n", "s"},
                 "coupling": {"f", "r", "q"}, "coupling2": {"f", "r", "x"},
                 "chiral_elastic": {"fstar", "r", "xs"},
                 "mixing": {"f", "fstar", "r", "x", "xs"}},
    "rhs": {"elastic": {"f", "r", "x"}, "curvature": {"g"},
            "interaction": {"r", "x", "g", "n", "s"},
            "coupling": {"r", "q", "rtq", "tru"}, "coupling2": {"f", "r", "x"},
            "chiral_elastic": {"f", "fstar", "r", "x", "xs"},
            "mixing": {"f", "fstar", "r", "x", "xs"}},
}


def stretch_densities(k: _Kinematics, p: MaterialParams):
    """Yield ``(term, density)`` for each of ``k.terms`` from the fields of
    ``k`` (:func:`_kinematics`).

    Densities come one at a time, in :data:`ALL_TERMS` order, so a caller
    that sums each keeps one alive.
    """
    for term, (density, reads) in _DENSITIES.items():
        if term in k.terms:
            yield term, density(*(getattr(k, name) for name in reads), p)


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

    #: The columns of :meth:`csv_row`, in order.
    CSV_HEADER: ClassVar[str] = ("elastic,curvature,interaction,coupling,"
                                 "chiral_elastic,mixing,kin_trans,kin_rot,total")

    def csv_row(self) -> tuple[float, ...]:
        """Values for the columns of :attr:`CSV_HEADER`."""
        return (self.elastic, self.curvature, self.interaction, self.coupling,
                self.chiral_elastic, self.mixing, self.kinetic_translational,
                self.kinetic_rotational, self.total)


def _kinematics(state: FieldState, p: MaterialParams, terms, eps_reg: float,
                consumers, window=None) -> _Kinematics:
    """The :data:`_Kinematics` of ``terms`` for ``consumers`` (keys of
    :data:`_READS`): each field built once, and kept only if a consumer
    reads it for a live term.

    With ``window`` a node ``(i, j)``, every field is built on the 3x3 nodes
    around it only, from ``u`` and ``theta`` on the 5x5 block around the
    node, with the full-grid bits.
    """
    live = _live_terms(terms, p)
    reads = set().union(*(_READS[c][t] for c in consumers for t in live))
    fields = {}
    if reads - {"g", "n", "s"}:
        star = bool(reads & {"fstar", "xs"})
        f, fstar = deformation_gradients(state, window, star)
        theta = (state.theta if window is None
                 else state.theta[node_window(state.grid, window)])
        r = rot2(theta)
        rt = transpose2(r)
        if "xs" in reads:
            fields["xs"] = mat_mul(rt, fstar)
        if "fstar" in reads:
            fields["fstar"] = fstar
        del fstar
        if "x" in reads:
            fields["x"] = mat_mul(rt, f)
        if reads & {"q", "rtq", "tru"}:
            q, _ = _polar_rotation(f)
            if "tru" in reads:  # the bits of trace2(polar2(f)[1])
                fields["tru"] = trace2(mat_mul(transpose2(q), f))
            if "rtq" in reads:
                fields["rtq"] = mat_mul(rt, q)
            if "q" in reads:
                fields["q"] = q
            del q
        if "f" in reads:
            fields["f"] = f
        if "r" in reads:
            fields["r"] = r
        del f, r, rt
    if reads & {"g", "n"}:
        g = grad_scalar(state.theta, state.grid, window)
        if "g" in reads:
            fields["g"] = g
        if "n" in reads:
            n, s = _reg_norm(g, eps_reg)
            fields["n"] = n
            if "s" in reads:
                fields["s"] = s
    return _Kinematics(live, **fields)


def _potential_densities(state: FieldState, p: MaterialParams, terms,
                         eps_reg: float, window=None):
    """:func:`stretch_densities` of ``state`` from :func:`_kinematics`.

    With ``window`` a node, the densities of the 3x3 nodes around it only:
    they are the only densities a change of ``u`` or ``theta`` at that node
    can change.
    """
    return stretch_densities(
        _kinematics(state, p, terms, eps_reg, ("energy",), window), p)


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
                    eps_reg: float = DEFAULT_EPS_REG, window=None) -> float:
    """Discrete potential energy restricted to ``terms`` (test/FD helper);
    with ``window`` a node, the part on the 3x3 nodes around it (see
    :func:`_potential_densities`)."""
    dens = _potential_densities(state, p, terms, eps_reg, window)
    return float(sum(np.sum(d) for _, d in dens)) * state.grid.cell_area


def _variation_conjugates(state: FieldState, p: MaterialParams, terms,
                          eps_reg: float):
    """Conjugates ``(P, Y, q)`` (to F, to R, to grad theta) of ``terms``
    from :func:`_kinematics`, and the ``R`` they were built with.  ``Y`` and
    ``R`` are ``None`` when no live term reads ``R`` (curvature alone)."""
    k = _kinematics(state, p, terms, eps_reg, ("gradient",))
    need, f, fstar, r, x, xs, g = k.terms, k.f, k.fstar, k.r, k.x, k.xs, k.g
    grid = state.grid

    p_conj = np.zeros((2, 2) + grid.shape)  # conjugate to delta F
    y_conj = None if r is None else np.zeros_like(r)  # conjugate to delta R
    q_conj = np.zeros((2,) + grid.shape)  # conjugate to delta grad theta

    def stretch_conjugates(fmat, w):
        """Push a conjugate-to-(R^T F) back to (delta F, delta R) conjugates."""
        return mat_mul(r, w), mat_mul(fmat, transpose2(w))

    if "elastic" in need:
        w = 2.0 * p.mu * _sym_minus_eye(x) + _trace_eye(p.lam, x)
        dp, dy = stretch_conjugates(f, w)
        p_conj += dp
        y_conj += dy

    if "coupling2" in need:
        w = p.mu_c * (x - transpose2(x))  # 2 mu_c skew(X)
        dp, dy = stretch_conjugates(f, w)
        p_conj += dp
        y_conj += dy

    if "chiral_elastic" in need:
        w = (2.0 * p.mu_s * _sym_minus_eye(xs) + _trace_eye(p.lam_s, xs)
             + p.mu_c_s * (xs - transpose2(xs)))
        dp, dy = stretch_conjugates(fstar, w)
        # delta F* = EPS2 @ delta F, so the F-conjugate picks up EPS2^T.
        p_conj += np.einsum("ji,jk...->ik...", EPS2, dp)
        y_conj += dy

    if "mixing" in need:
        w_x = p.m1 * _sym_minus_eye(xs) + _trace_eye(p.m2, xs)
        w_xs = p.m1 * _sym_minus_eye(x) + _trace_eye(p.m2, x)
        if p.m3 != 0.0:
            w_x = w_x + 0.5 * p.m3 * (xs - transpose2(xs))
            w_xs = w_xs + 0.5 * p.m3 * (x - transpose2(x))
        dp, dy = stretch_conjugates(f, w_x)
        dps, dys = stretch_conjugates(fstar, w_xs)
        p_conj += dp + np.einsum("ji,jk...->ik...", EPS2, dps)
        y_conj += dy + dys

    if "interaction" in need:
        c = p.mu * p.L_c * p.chi
        p_conj += c * k.n * r
        y_conj += c * k.n * f
        q_conj += c * trace2(x) * g / k.s

    if "curvature" in need:
        q_conj += 2.0 * p.mu * p.L_c**2 * g

    if "coupling" in need:
        # The F-conjugate goes through the full polar-derivative tensor:
        # <R, dpolar(F)[dF]> = <adjoint applied to R, dF>.
        t4 = dpolar2_dF(f)
        p_conj += -2.0 * p.mu_c * np.einsum("ij...,ijkl...->kl...", r, t4)
        y_conj += -2.0 * p.mu_c * k.q

    return p_conj, y_conj, q_conj, r


def analytic_variations(state: FieldState, p: MaterialParams, terms,
                        eps_reg: float = DEFAULT_EPS_REG):
    """L2 gradient of the discrete potential made of ``terms`` (as for
    :func:`potential_total`): ``(dV_du, dV_dtheta)``.

    ``dV_du`` has shape ``(2, nx, ny)`` and ``dV_dtheta`` ``(nx, ny)``; the
    derivative of the nodal total with respect to one nodal unknown equals the
    returned value times the cell area.
    """
    grid = state.grid
    p_conj, y_conj, q_conj, r = _variation_conjugates(state, p, terms,
                                                      eps_reg)
    dv_du = -div_matrix(p_conj, grid)
    if r is None:
        return dv_du, -div_vector(q_conj, grid)
    # dR/dtheta = -EPS2 @ R, contracted against the delta-R conjugate.
    minus_eps_r = -np.einsum("ij,jk...->ik...", EPS2, r)
    dv_dtheta = frobenius(y_conj, minus_eps_r) - div_vector(q_conj, grid)
    return dv_du, dv_dtheta
