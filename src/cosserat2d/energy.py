"""Energy densities, discrete totals, and analytic first variations.

Every density is a pointwise function of a few planar invariants, built once
per evaluation by :func:`_invariants` for the terms that read them; all
accept trailing grid axes.  In the plane a real 2x2 matrix acts on
``z = x + i y`` as ``z -> (m_c z + m_a conj(z)) / 2``, and ``m_c`` and
``m_a`` are its conformal and anticonformal parts; ``R(theta)`` multiplies
by ``e^{i theta}`` and ``EPS2`` by ``-i``.  With ``w = u1 + i u2`` the parts of
``F = I + grad u`` are ``fc = 2 + w_x - i w_y`` and ``fa = w_x + i w_y``, and
``xi = e^{-i theta} fc`` is the conformal part of ``x = R^T F``, so that

* ``tr x = Re xi``, ``tr(EPS2 x) = Im xi`` and
  ``|sym x - I|^2 = ((tr x - 2)^2 + |fa|^2) / 2``;
* ``x* = R^T F* = (I - EPS2) R^T + EPS2 x`` for the quarter-turned
  displacement, so ``tr x* = 2 (cos theta + sin theta) + Im xi``,
  ``tr(EPS2 x*) = 2 (cos theta - sin theta) - Re xi`` and ``x*`` has the
  anticonformal part of ``x`` turned by ``-i``;
* ``tr U = |fc|`` and ``R^T polar(F) = xi / |xi|``.

Given a stack of 5x5 blocks of the grid and their central nodes, the same
builder and densities give each block's 3x3 centre with the full-grid bits,
and :func:`potential_total` each block's own total: one call takes every
perturbed energy of a finite-difference check.

:func:`analytic_variations` assembles the exact gradient of the *discrete*
total energy by an independent, matrix route: each term contributes

* a conjugate ``P`` to the deformation gradient (so the displacement gradient
  is ``-div P`` after the discrete integration by parts),
* a conjugate ``Y`` to the rotation matrix (contracted against
  ``dR/dtheta = -EPS2 @ R`` for the algebraic angle gradient), and
* a conjugate ``q`` to the angle gradient (so the flux part is ``-div q``).

Because the difference operators are exactly antisymmetric on the periodic
grid, those expressions are the machine-precision gradient of
:func:`total_energy`, not merely a discretization of one.  The tables are
built one term at a time and in place: each conjugate to ``R^T F`` in one
field, with its identity shifts on the diagonal, and each kinematic field
let go at its last read.  The gradient of several terms is the sum of
theirs.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .algebra import (
    EPS2,
    _polar_rotation,
    check_polar_det,
    frobenius,
    mat_mul,
    rot2,
    trace2,
    transpose2,
)
from .fields import (
    FieldState,
    ddx,
    ddy,
    deformation_gradients,
    div_matrix,
    div_vector,
    grad_scalar,
    node_window,
)
from .materials import MaterialParams, ModelSelector

#: Default regularization scale for the norm of the angle gradient.
DEFAULT_EPS_REG = 1e-8

#: The live ``terms`` (:func:`_live_terms`) and their planar invariants:
#: ``tr x`` and ``tr(EPS2 x)`` (``Re xi``, ``Im xi``) with ``e^{i theta}``
#: and ``fa`` for the stresses of :func:`cosserat2d.dynamics._rhs`, unless
#: the curvature is the only term; and, each ``None`` unless a live term
#: reads it, ``|fa|^2``, ``tr x*`` and ``tr(EPS2 x*)``, the polar coupling's
#: ``xi / |xi|`` and ``tr U = |xi|``, and ``grad theta`` with the
#: interaction's regularized norm of it and divisor (:func:`_reg_norm`).
_Invariants = namedtuple("_Invariants",
                         "terms trx tx fa2 trxs txs zeta tru g n s e fa",
                         defaults=(None,) * 12)


def _band_rows(a):
    """``a`` without the first and the last of its grid rows (its
    second-to-last axis): a band's rows within the rows around it (see
    :func:`_invariants`)."""
    return a[..., 1:-1, :]


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
    divisor = s.copy()
    divisor[~(s > 0.0)] = np.inf  # nan as well as 0
    return s - eps_reg, divisor


# The density formulas, each written once on the invariants it reads; only
# :func:`term_densities` calls them.

def _elastic(trx, fa2, p: MaterialParams):
    """mu |sym(R^T F) - I|^2 + lam/2 (tr(sym(R^T F) - I))^2."""
    d = trx - 2.0
    return 0.5 * p.mu * (d * d + fa2) + 0.5 * p.lam * d * d


def _curvature(g, p: MaterialParams):
    """mu L_c^2 |grad theta|^2."""
    return p.mu * p.L_c**2 * (g[0] ** 2 + g[1] ** 2)


def _interaction(n, trx, p: MaterialParams):
    """mu L_c chi * reg|grad theta| * tr(R^T F) with the smoothed norm."""
    return p.mu * p.L_c * p.chi * n * trx


def _coupling(zeta, p: MaterialParams):
    """mu_c |R^T polar(F) - I|^2  (both factors are rotations)."""
    d = zeta - 1.0
    return 2.0 * p.mu_c * (d.real * d.real + d.imag * d.imag)


def _coupling2(tx, p: MaterialParams):
    """mu_c |skew(R^T F - I)|^2  (the skew part kills the identity shift)."""
    return 0.5 * p.mu_c * tx * tx


def _chiral_elastic(trxs, txs, fa2, p: MaterialParams):
    """Starred elastic energy: the elastic + skew-coupling shape on F*."""
    d = trxs - 2.0
    return (0.5 * p.mu_s * (d * d + fa2) + 0.5 * p.lam_s * d * d
            + 0.5 * p.mu_c_s * txs * txs)


def _mixing(trx, tx, trxs, txs, p: MaterialParams):
    """m1 <sym* - I, sym - I> + m2 (tr* - 2)(tr - 2) + m3 <skew*, skew>;
    the anticonformal parts of ``sym* - I`` and ``sym - I`` are a quarter
    turn apart, so the ``m1`` product has no anticonformal share."""
    return ((0.5 * p.m1 + p.m2) * (trxs - 2.0) * (trx - 2.0)
            + 0.5 * p.m3 * txs * tx)


#: Each term, in :data:`ALL_TERMS` order, with its density function and
#: the :data:`_Invariants` fields that function takes.
_DENSITIES = {
    "elastic": (_elastic, ("trx", "fa2")),
    "curvature": (_curvature, ("g",)),
    "interaction": (_interaction, ("n", "trx")),
    "coupling": (_coupling, ("zeta",)),
    "coupling2": (_coupling2, ("tx",)),
    "chiral_elastic": (_chiral_elastic, ("trxs", "txs", "fa2")),
    "mixing": (_mixing, ("trx", "tx", "trxs", "txs")),
}

ALL_TERMS = tuple(_DENSITIES)


def term_densities(k: _Invariants, p: MaterialParams):
    """Yield ``(term, density)`` for each of ``k.terms`` from the invariants
    ``k`` (:func:`_invariants`), at every node they were built on.

    Densities come one at a time, in :data:`ALL_TERMS` order, so a caller
    that sums each keeps one alive.
    """
    for term, (density, reads) in _DENSITIES.items():
        if term in k.terms:
            yield term, density(*(getattr(k, name) for name in reads), p)


def term_totals(densities, cell_area: float) -> dict[str, float]:
    """Discrete per-term totals (node sum times cell area) of
    ``(term, density)`` pairs, each dropped before the next is made."""
    totals = {}
    for name, d in densities:
        totals[name] = float(np.sum(d)) * cell_area
        del d
    return totals


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


def _invariants(state: FieldState, p: MaterialParams, terms, eps_reg: float,
                window=None, band=False) -> _Invariants:
    """The :data:`_Invariants` of ``terms`` at ``state``, from one
    derivative of ``w = u1 + i u2`` per axis and one angle gradient.

    With ``window`` a sequence of ``m`` grid nodes, ``u1``, ``u2`` and
    ``theta`` of ``state`` are instead ``(m, 5, 5)`` stacks: the 5x5 block
    around each node (:func:`node_window`), perhaps with values moved.
    Every invariant is then built on each block's 3x3 centre only: the
    derivatives are taken across each block, whose wrap spoils only the
    block's outer ring, so each value has the full-grid bits of the
    block's values.  A degenerate ``det F`` names its grid node.

    With ``band``, ``u1``, ``u2`` and ``theta`` are instead a band of grid
    rows with the two rows either side of it, wrapped periodically.  The
    invariants are built on the band and one row either side (the block
    without its outer rows), with the full-grid bits for the same reason.
    Either way, the ``det F`` check covers every node built.
    """
    live = _live_terms(terms, p)
    grid = state.grid
    u1, u2, theta = state.u1, state.u2, state.theta
    nodes = None
    if band:
        inner = _band_rows
    elif window is None:
        def inner(a):
            return a
    else:
        def inner(a):  # drop each block's outer ring
            return a[..., 1:-1, 1:-1]
        if "coupling" in live:
            nodes = [inner(a) for a in
                     np.broadcast_arrays(*node_window(grid, window))]
    g = None
    if {"curvature", "interaction"} & set(live):
        g = inner(grad_scalar(theta, grid))
    if live == ("curvature",):
        return _Invariants(live, g=g)
    # Each derivative of w is handed over unnamed, so that _planar_invariants
    # holds its only reference (on CPython 3.11 and later) and frees it at
    # its last read; w is built once per axis for that.
    return _planar_invariants(live, inner(_w_derivative(ddx, u1, u2, grid)),
                              inner(_w_derivative(ddy, u1, u2, grid)),
                              inner(theta), g, eps_reg, nodes)


def _w_derivative(derivative, u1, u2, grid):
    """``derivative`` (:func:`ddx` or :func:`ddy`) of ``w = u1 + i u2``."""
    w = np.empty(np.shape(u1), dtype=complex)
    w.real, w.imag = u1, u2
    return derivative(w, grid)


def _planar_invariants(terms, wx, wy, theta, g=None,
                      eps_reg: float = DEFAULT_EPS_REG,
                      nodes=None) -> _Invariants:
    """The :data:`_Invariants` of ``terms`` (all live) from the pointwise
    derivatives ``wx``, ``wy`` of ``w = u1 + i u2``, the angle ``theta`` and,
    for the curvature and the interaction, its gradient ``g``.

    The polar coupling first checks ``det F`` (:func:`check_polar_det`,
    which names the grid node ``nodes`` gives a value, if given), taken
    from the entries of ``F`` as ``det2`` takes it.
    """
    if "coupling" in terms:
        det = (1.0 + wx.real) * (1.0 + wy.imag) - wy.real * wx.imag
        check_polar_det(det, nodes)
        del det
    fa = 1j * wy
    xi = wx - fa  # fc - 2
    xi += 2.0
    fa += wx
    del wx, wy
    e = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=e.real)
    np.sin(theta, out=e.imag)
    xi *= e.conj()
    k = dict(trx=xi.real, tx=xi.imag, e=e, fa=fa)
    if {"elastic", "chiral_elastic"} & set(terms):
        k["fa2"] = fa.real * fa.real + fa.imag * fa.imag
    if {"chiral_elastic", "mixing"} & set(terms):
        k["trxs"] = 2.0 * (e.real + e.imag) + xi.imag
        k["txs"] = 2.0 * (e.real - e.imag) - xi.real
    if "coupling" in terms:
        k["tru"] = np.abs(xi)
        k["zeta"] = xi * (1.0 / k["tru"])
    if g is not None:
        k["g"] = g
        if "interaction" in terms:
            k["n"], k["s"] = _reg_norm(g, eps_reg)
    return _Invariants(tuple(terms), **k)


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
    dens = term_densities(_invariants(state, p, sel.active_terms(), eps_reg),
                          p)
    return energy_breakdown(term_totals(dens, state.grid.cell_area), state, p)


def potential_total(state: FieldState, p: MaterialParams, terms,
                    eps_reg: float = DEFAULT_EPS_REG, window=None):
    """Discrete potential energy restricted to ``terms`` (test/FD helper).

    With ``window`` the ``m`` nodes of a stack of blocks (see
    :func:`_invariants`), the ``(m,)`` totals of each block's 3x3 centre,
    each summed as one 3x3 array: those nodes hold the only densities a
    change of ``u`` or ``theta`` at a block's node can change.
    """
    dens = term_densities(_invariants(state, p, terms, eps_reg, window), p)
    if window is None:
        return float(sum(np.sum(d) for _, d in dens)) * state.grid.cell_area
    return (sum(np.sum(d.reshape(len(d), 9), axis=1) for _, d in dens)
            * state.grid.cell_area)


def _stretch_conjugate(x, shear, bulk, skew=0.0):
    """``shear (sym x - I) + bulk (tr x - 2) I + skew (x - x^T)``, built in
    one field: the conjugate to ``x`` of ``shear/2 |sym x - I|^2
    + bulk/2 (tr x - 2)^2 + skew/4 |x - x^T|^2``.

    The identity shifts go on the diagonal in place.  Each finite entry
    has the bits of the sum of the three whole matrices, but for the sign
    of a zero, which no product :func:`mat_mul` takes of it can tell.
    """
    w = np.add(x, transpose2(x))
    w *= 0.5
    w[0, 0] -= 1.0
    w[1, 1] -= 1.0
    w *= shear
    d = trace2(x)
    d -= 2.0
    d *= bulk
    w[0, 0] += d
    w[1, 1] += d
    if skew != 0.0:
        np.subtract(x[0, 1], x[1, 0], out=d)
        d *= skew
        w[0, 1] += d
        w[1, 0] -= d
    return w


def _variation_conjugates(state: FieldState, p: MaterialParams, term,
                          eps_reg: float):
    """Conjugates ``(P, Y, q)`` (to F, to R, to grad theta) of the live
    ``term``, and the ``R`` they were built with.

    The term builds only the kinematic fields it reads (``F``, ``F*``,
    ``x = R^T F``, ``x* = R^T F*``, ``grad theta``) and lets each go at its
    last read.  A conjugate the term does not have is ``None``: ``P``,
    ``Y`` and ``R`` for the curvature, ``q`` for all but the curvature and
    the interaction.
    """
    if term == "curvature":
        g = grad_scalar(state.theta, state.grid)
        g *= 2.0 * p.mu * p.L_c**2
        return None, None, g, None
    f, fstar = deformation_gradients(
        state, star=term in ("chiral_elastic", "mixing"))
    r = rot2(state.theta)

    if term == "coupling":
        k = -2.0 * p.mu_c
        polar_r, tru = _polar_rotation(f)
        del f
        # d polar(F)[E] = (E - P E^T P) / tr U is self-adjoint under the
        # Frobenius product, so the F-conjugate is it applied to -2 mu_c R.
        p_conj = mat_mul(polar_r, mat_mul(transpose2(r), polar_r))
        np.subtract(r, p_conj, out=p_conj)
        p_conj *= k
        p_conj /= tru
        del tru
        polar_r *= k
        return p_conj, polar_r, None, r

    if term == "interaction":
        c = p.mu * p.L_c * p.chi
        ct = trace2(mat_mul(transpose2(r), f))
        ct *= c
        g = grad_scalar(state.theta, state.grid)
        n, s = _reg_norm(g, eps_reg)
        q_conj = np.multiply(g, ct)
        del g, ct
        q_conj /= s
        del s
        n *= c
        y_conj = np.multiply(f, n)
        del f
        return np.multiply(r, n), y_conj, q_conj, r

    # A conjugate w to x = R^T F goes back to (R w, F w^T) against
    # (delta F, delta R); delta F* = EPS2 @ delta F, so a conjugate to
    # x* = R^T F* picks up EPS2^T on its way to F.
    if term in ("elastic", "coupling2"):
        x = mat_mul(transpose2(r), f)
        if term == "elastic":
            w = _stretch_conjugate(x, 2.0 * p.mu, p.lam)
        else:
            w = np.subtract(x, transpose2(x))  # 2 skew(x)
            w *= p.mu_c
        del x
        y_conj = mat_mul(f, transpose2(w))
        del f
        return mat_mul(r, w), y_conj, None, r

    if term == "chiral_elastic":
        del f  # F was only the way to F*
        w = _stretch_conjugate(mat_mul(transpose2(r), fstar), 2.0 * p.mu_s,
                               p.lam_s, p.mu_c_s)
        y_conj = mat_mul(fstar, transpose2(w))
        del fstar
        return (np.einsum("ji,jk...->ik...", EPS2, mat_mul(r, w)), y_conj,
                None, r)

    # The mixing: the conjugate to x reads x*, and the one to x* reads x.
    x = mat_mul(transpose2(r), f)
    w = _stretch_conjugate(mat_mul(transpose2(r), fstar), p.m1, p.m2,
                           0.5 * p.m3)
    y_conj = mat_mul(f, transpose2(w))
    del f
    p_conj = mat_mul(r, w)
    del w
    w = _stretch_conjugate(x, p.m1, p.m2, 0.5 * p.m3)
    del x
    y_conj += mat_mul(fstar, transpose2(w))
    del fstar
    p_conj += np.einsum("ji,jk...->ik...", EPS2, mat_mul(r, w))
    return p_conj, y_conj, None, r


def _term_variation(state: FieldState, p: MaterialParams, term,
                    eps_reg: float):
    """``(dV_du, dV_dtheta)`` of the live ``term`` from its conjugates."""
    grid = state.grid
    p_conj, y_conj, q_conj, r = _variation_conjugates(state, p, term,
                                                      eps_reg)
    # Each conjugate goes at its last read: q, then Y (with R), then P.
    div_q = None if q_conj is None else div_vector(q_conj, grid)
    del q_conj
    if r is None:  # the curvature: -div of a zero conjugate to F
        return (np.full((2,) + grid.shape, -0.0),
                np.negative(div_q, out=div_q))
    # dR/dtheta = -EPS2 @ R, contracted against the delta-R conjugate.
    minus_eps_r = np.einsum("ij,jk...->ik...", EPS2, r)
    del r
    np.negative(minus_eps_r, out=minus_eps_r)
    dv_dtheta = frobenius(y_conj, minus_eps_r)
    del y_conj, minus_eps_r
    if div_q is not None:
        dv_dtheta -= div_q
    del div_q
    dv_du = div_matrix(p_conj, grid)
    del p_conj
    return np.negative(dv_du, out=dv_du), dv_dtheta


def analytic_variations(state: FieldState, p: MaterialParams, terms,
                        eps_reg: float = DEFAULT_EPS_REG):
    """L2 gradient of the discrete potential made of ``terms`` (as for
    :func:`potential_total`): ``(dV_du, dV_dtheta)``.

    ``dV_du`` has shape ``(2, nx, ny)`` and ``dV_dtheta`` ``(nx, ny)``; the
    derivative of the nodal total with respect to one nodal unknown equals the
    returned value times the cell area.  Each live term's gradient is built
    on its own and added in place to the sum of those before it, in the
    order of ``terms``.
    """
    dv_du = dv_dtheta = None
    for term in _live_terms(terms, p):
        du, dth = _term_variation(state, p, term, eps_reg)
        if dv_du is None:
            dv_du, dv_dtheta = du, dth
        else:
            dv_du += du
            dv_dtheta += dth
        del du, dth
    if dv_du is None:  # no live term: the zero energy
        shape = state.grid.shape
        return np.full((2,) + shape, -0.0), np.zeros(shape)
    return dv_du, dv_dtheta
