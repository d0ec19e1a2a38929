"""Three-dimensional verification probes for the planar reductions.

Two planar restrictions of the 3D Cosserat kinematics are exercised with
closed-form test fields carrying hand-coded analytic derivatives (so every
identity is checked to round-off, with no grid truncation):

* in-plane deformation with rotation about the out-of-plane axis (the
  setting the 2D model lives in), where the wryness tensor ``R^T Curl R``
  has only two nonzero entries and is orthogonal to every irreducible part
  of the stretches;
* out-of-plane rotation axes parametrized by two angles, where the exact
  Rodrigues rotation and its small-angle wryness are compared.

The inversion probe checks the chirality of ``<F^T F, R^T Curl R>``: fields
are pulled back through ``x -> -x`` (which negates F and, by convention, R)
and the invariant must flip sign.  The pulled-back map and rotation are
differentiated numerically, so both sign rules are computed, not assumed.

Fields are evaluated on all sample points at once: points of shape ``S``
give matrices of shape ``S + (3, 3)``, acted on by their last two axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .report import VerificationReport
from .rng import SplitMix64

#: 3D Levi-Civita symbol, EPS3[i, j, k] = sign of the permutation (i, j, k).
EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k, _s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
                       (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0)):
    EPS3[_i, _j, _k] = _s
EPS3.flags.writeable = False

#: Series switch for the Rodrigues coefficients (removable singularity).
SERIES_THRESHOLD = 1e-4


def curl3_matrix(dm: np.ndarray) -> np.ndarray:
    """Matrix curl from a pointwise derivative bundle ``dm[..., m, i, n] =
    d_m M[i, n]``: ``(Curl M)[i, j] = sum_mn EPS3[j, m, n] dm[m, i, n]``."""
    return np.einsum("jmn,...min->...ij", EPS3, dm)


def _t(m):
    return np.swapaxes(m, -1, -2)


def _trace(m):
    return np.trace(m, axis1=-2, axis2=-1)


def _frobenius(a, b):
    return np.sum(a * b, axis=(-2, -1))


def _hat(v):
    """Cross-product matrices, ``_hat(v) @ u = v x u``."""
    return -np.einsum("ijk,...k->...ij", EPS3, v)


def _m(x):
    """Scalars of shape ``S`` as ``S + (1, 1)``, to scale a matrix stack."""
    return np.asarray(x)[..., None, None]


def _matrix3(rows, shape) -> np.ndarray:
    """Matrices of shape ``shape + (3, 3)`` from rows of scalars or arrays."""
    out = np.empty(tuple(shape) + (3, 3))
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def devsym3(m: np.ndarray) -> np.ndarray:
    """Trace-free symmetric part."""
    s = 0.5 * (m + _t(m))
    return s - _m(_trace(m) / 3.0) * np.eye(3)


def skew3(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - _t(m))


# --------------------------------------------------------------------------
# Closed-form planar test functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarFunction:
    """Scalar function of (x, y) with its analytic gradient; both callables
    take arrays of points (or scalars) and may return constants."""

    value: Callable[[float, float], float]
    grad: Callable[[float, float], tuple[float, float]]

    def scaled(self, factor: float) -> "PlanarFunction":
        return PlanarFunction(
            value=lambda x, y: factor * self.value(x, y),
            grad=lambda x, y: tuple(factor * g for g in self.grad(x, y)))

    def at(self, x, y):
        """``(value, d/dx, d/dy)`` at the points, broadcast to ``x``'s shape."""
        gx, gy = self.grad(x, y)
        return tuple(np.broadcast_to(np.asarray(v, dtype=float), np.shape(x))
                     for v in (self.value(x, y), gx, gy))


@dataclass(frozen=True)
class PlanarSample3D:
    """Sample points plus the closed-form planar fields evaluated on them."""

    points: np.ndarray  # (N, 2)
    phi1: PlanarFunction
    phi2: PlanarFunction
    angle: PlanarFunction
    alpha: PlanarFunction
    beta: PlanarFunction


def _sample_points(n: int, seed: int, dim: int) -> np.ndarray:
    """``n`` uniform points of the box ``[-pi, pi]**dim``."""
    rng = SplitMix64(seed)
    return np.array([[rng.next_uniform(-math.pi, math.pi) for _ in range(dim)]
                     for _ in range(n)])


def default_planar_sample(n_points: int = 100, seed: int = 71) -> PlanarSample3D:
    """In-plane shear-and-wiggle deformation with a varying rotation angle,
    plus generic smooth angle pair for the out-of-plane-axis problem."""
    return PlanarSample3D(
        points=_sample_points(n_points, seed, 2),
        phi1=PlanarFunction(lambda x, y: x + 0.1 * np.sin(y),
                            lambda x, y: (1.0, 0.1 * np.cos(y))),
        phi2=PlanarFunction(lambda x, y: y,
                            lambda x, y: (0.0, 1.0)),
        angle=PlanarFunction(lambda x, y: 0.2 * np.cos(x),
                             lambda x, y: (-0.2 * np.sin(x), 0.0)),
        alpha=PlanarFunction(lambda x, y: 0.3 * np.sin(x) + 0.2 * np.cos(y),
                             lambda x, y: (0.3 * np.cos(x), -0.2 * np.sin(y))),
        beta=PlanarFunction(lambda x, y: 0.2 * np.sin(y) - 0.1 * np.cos(x),
                            lambda x, y: (0.1 * np.sin(x), 0.2 * np.cos(y))))


def _first_problem_f(s: PlanarSample3D, x, y) -> np.ndarray:
    return _matrix3([[*s.phi1.at(x, y)[1:], 0.0], [*s.phi2.at(x, y)[1:], 0.0],
                     [0.0, 0.0, 1.0]], np.shape(x))


def _rotation_z_bundle(angle_fn: PlanarFunction, x, y):
    """Rotation about the z-axis and its derivative bundle dR[m, i, n]."""
    t, gx, gy = angle_fn.at(x, y)
    c, s = np.cos(t), np.sin(t)
    r = _matrix3([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], np.shape(t))
    dr_dt = _matrix3([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]],
                     np.shape(t))
    return r, np.stack([_m(gx) * dr_dt, _m(gy) * dr_dt,
                        np.zeros_like(dr_dt)], -3)


def first_problem_wryness(s: PlanarSample3D, x, y) -> np.ndarray:
    """R^T Curl R for the in-plane problem; analytically this equals minus
    the angle gradient placed in the third column."""
    r, dm = _rotation_z_bundle(s.angle, x, y)
    return _t(r) @ curl3_matrix(dm)


def first_problem_check(s: PlanarSample3D) -> VerificationReport:
    """Pointwise identities of the in-plane reduction: wryness structure and
    norm, stretch block form, decomposition, and the orthogonality triple
    (for both the first stretch and the metric), plus the nonvanishing of
    the norm-times-trace interaction surrogate."""
    x, y = s.points.T
    f = _first_problem_f(s, x, y)
    _, gx, gy = s.angle.at(x, y)
    stretch = _t(_rotation_z_bundle(s.angle, x, y)[0]) @ f
    k = first_problem_wryness(s, x, y)
    expected = np.zeros_like(k)
    expected[..., :2, 2] = -np.stack([gx, gy], -1)
    trace_k = _trace(k)
    recon = devsym3(k) + skew3(k) + _m(trace_k / 3.0) * np.eye(3)
    errors = {
        "wryness_two_entry_structure": np.abs(k - expected),
        "decomposition_reconstructs": np.abs(recon - k),
        "wryness_trace_free": np.abs(trace_k),
        "stretch_block_form": np.abs(np.concatenate(
            [stretch[..., :2, 2], stretch[..., 2, :] - [0.0, 0.0, 1.0]], -1)),
    }
    for label, a in (("stretch", stretch), ("metric", _t(f) @ f)):
        errors[f"orthogonality_devsym_{label}"] = np.abs(
            _frobenius(devsym3(a), devsym3(k)))
        errors[f"orthogonality_skew_{label}"] = np.abs(
            _frobenius(skew3(a), skew3(k)))
        errors[f"orthogonality_trace_{label}"] = np.abs(_trace(a) * trace_k)
    errors["wryness_norm_identity"] = np.abs(
        _frobenius(k, k) - (gx**2 + gy**2))

    report = VerificationReport()
    report.add_maxima(errors, 1e-10)
    report.flag("interaction_surrogate_nonzero", bool(np.any(
        np.hypot(gx, gy) * np.abs(_trace(stretch)) > 1e-6)))
    return report


# --------------------------------------------------------------------------
# Out-of-plane rotation axes (two-angle Rodrigues rotation)
# --------------------------------------------------------------------------

def _rodrigues_coefficients(l2):
    """(cos l, sin(l)/l, (1 - cos l)/l^2, (c - s)/l^2, (s - 2q)/l^2); below
    SERIES_THRESHOLD the last four come from their series, never a quotient."""
    l2 = np.asarray(l2, dtype=float)
    ell = np.sqrt(l2)
    c = np.cos(ell)
    coeffs = np.empty((4,) + l2.shape)
    series = ell < SERIES_THRESHOLD
    t = l2[series]
    coeffs[:, series] = (1.0 - t / 6.0 + t * t / 120.0,
                         0.5 - t / 24.0 + t * t / 720.0,
                         -1.0 / 3.0 + t / 30.0 - t * t / 840.0,
                         -1.0 / 12.0 + t / 180.0 - t * t / 6720.0)
    t, e, cd = l2[~series], ell[~series], c[~series]
    s = np.sin(e) / e
    q = (1.0 - cd) / t
    coeffs[:, ~series] = (s, q, (cd - s) / t, (s - 2.0 * q) / t)
    return (c, *coeffs)


def _axis(alpha, beta):
    """Axes ``a = (alpha, beta, 0)``, ``a a^T`` and Rodrigues coefficients."""
    a = np.stack(np.broadcast_arrays(np.asarray(alpha, dtype=float), beta,
                                     0.0), -1)
    return (a, a[..., :, None] * a[..., None, :],
            _rodrigues_coefficients(a[..., 0]**2 + a[..., 1]**2))


def second_problem_rotation(alpha, beta) -> np.ndarray:
    """Rotation about the in-plane axis (alpha, beta, 0) by angle
    ``l = sqrt(alpha^2 + beta^2)`` in Rodrigues form
    ``cos(l) I + (sin(l)/l) A_hat + ((1 - cos l)/l^2) a a^T``."""
    a, aa, (c, s, q, _, _) = _axis(alpha, beta)
    return _m(c) * np.eye(3) + _m(s) * _hat(a) + _m(q) * aa


def second_problem_rotation_gradient(alpha, beta):
    """Closed-form (dR/dalpha, dR/dbeta) of the two-angle rotation."""
    a, aa, (_, s, q, v, w) = _axis(alpha, beta)

    def partial(i):
        # The derivative along angle a[..., i], whose axis derivative is e.
        e, angle = np.eye(3)[i], a[..., i]
        sym = e[:, None] * a[..., None, :] + a[..., :, None] * e
        return (_m(-angle * s) * np.eye(3) + _m(angle * v) * _hat(a)
                + _m(s) * _hat(e) + _m(angle * w) * aa + _m(q) * sym)

    return partial(0), partial(1)


def second_problem_wryness(alpha_fn: PlanarFunction, beta_fn: PlanarFunction,
                           x, y) -> np.ndarray:
    """Exact R^T Curl R of the two-angle rotation field at the points."""
    a, agx, agy = alpha_fn.at(x, y)
    b, bgx, bgy = beta_fn.at(x, y)
    dr_da, dr_db = second_problem_rotation_gradient(a, b)
    dm = np.stack([_m(agx) * dr_da + _m(bgx) * dr_db,
                   _m(agy) * dr_da + _m(bgy) * dr_db, np.zeros_like(dr_da)], -3)
    return _t(second_problem_rotation(a, b)) @ curl3_matrix(dm)


def small_rotation_curvature(alpha_fn: PlanarFunction, beta_fn: PlanarFunction,
                             x, y) -> np.ndarray:
    """Leading-order wryness of the two-angle rotation: gradients of the
    angles in the upper-left block and their 'divergence' at (3,3)."""
    _, agx, agy = alpha_fn.at(x, y)
    _, bgx, bgy = beta_fn.at(x, y)
    return _matrix3([[bgy, -bgx, 0.0], [-agy, agx, 0.0],
                     [0.0, 0.0, agx + bgy]], np.shape(x))


def second_problem_check(s: PlanarSample3D,
                         small_factor: float = 2e-7) -> VerificationReport:
    """Out-of-plane-axis checks: exact rotation orthogonality, identity at
    zero angles, vanishing bottom-row wryness entries, and the small-angle
    match with the leading-order curvature (fields scaled by
    ``small_factor``, relative comparison)."""
    small = [fn.scaled(small_factor) for fn in (s.alpha, s.beta)]
    x, y = s.points.T
    r = second_problem_rotation(s.alpha.at(x, y)[0], s.beta.at(x, y)[0])
    k = second_problem_wryness(s.alpha, s.beta, x, y)
    k_lead = small_rotation_curvature(*small, x, y)
    gap = np.max(np.abs(second_problem_wryness(*small, x, y)
                        - k_lead), axis=(-2, -1))
    scale = np.max(np.abs(k_lead), axis=(-2, -1))

    report = VerificationReport()
    report.add_maxima({
        "rotation_orthogonal": np.abs(_t(r) @ r - np.eye(3)),
        "identity_at_zero_angles":
            np.abs(second_problem_rotation(0.0, 0.0) - np.eye(3)),
        "wryness_bottom_row_vanishes": np.abs(k[..., 2, :2]),
        "small_rotation_matches_leading_order": np.divide(
            gap, scale, out=np.zeros_like(gap), where=scale > 0.0),
    }, 1e-10, rotation_orthogonal=1e-12, identity_at_zero_angles=1e-15,
        small_rotation_matches_leading_order=1e-6)
    return report


# --------------------------------------------------------------------------
# Inversion (chirality) probes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiralProbe:
    """Closed-form 3D deformation map, its gradient and a rotation field
    with analytic derivatives, plus evaluation points.

    Each callable takes points of shape ``S + (3,)``; ``deformation_map``
    returns the mapped points (shape ``S + (3,)``), ``deformation_gradient``
    its analytic gradient ``F[..., i, m] = d_m phi_i`` and
    ``rotation_derivative(points)`` the bundles ``dR[..., m, i, n] =
    d_m R[i, n]`` used by :func:`curl3_matrix`.
    """

    name: str
    deformation_map: Callable[[np.ndarray], np.ndarray]
    deformation_gradient: Callable[[np.ndarray], np.ndarray]
    rotation: Callable[[np.ndarray], np.ndarray]
    rotation_derivative: Callable[[np.ndarray], np.ndarray]
    points: np.ndarray  # (N, 3)


def chiral_invariant(probe: ChiralProbe, point: np.ndarray):
    """<F^T F, R^T Curl R> at the points: the scalar that changes sign under
    point inversion of the fields."""
    f = probe.deformation_gradient(point)
    k = _t(probe.rotation(point)) @ curl3_matrix(
        probe.rotation_derivative(point))
    return _frobenius(_t(f) @ f, k)


def trig_chiral_probe(n_points: int = 50, seed: int = 929) -> ChiralProbe:
    """Gradient of a trigonometric map plus a fixed-axis rotation whose
    angle varies smoothly in all three coordinates."""
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    n_hat = _hat(axis)
    nn = np.outer(axis, axis)
    eye = np.eye(3)

    def phi_of(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return np.stack([x + 0.2 * np.sin(y) + 0.1 * np.cos(z),
                         0.15 * np.cos(x) + y + 0.1 * np.sin(z),
                         0.12 * np.sin(x) + 0.2 * np.cos(y) + z], -1)

    def f_of(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return _matrix3([
            [1.0, 0.2 * np.cos(y), -0.1 * np.sin(z)],
            [-0.15 * np.sin(x), 1.0, 0.1 * np.cos(z)],
            [0.12 * np.cos(x), -0.2 * np.sin(y), 1.0],
        ], np.shape(x))

    def psi(p):
        """The rotation angle and its gradient."""
        x, y, z = np.moveaxis(p, -1, 0)
        return (0.4 * np.sin(x) + 0.3 * np.cos(y) + 0.2 * np.sin(z),
                np.stack([0.4 * np.cos(x), -0.3 * np.sin(y),
                          0.2 * np.cos(z)], -1))

    def r_of(p):
        t = psi(p)[0]
        return (_m(np.cos(t)) * eye + _m(np.sin(t)) * n_hat
                + _m(1 - np.cos(t)) * nn)

    def dr_of(p):
        t, g = psi(p)
        dr_dt = (_m(-np.sin(t)) * eye + _m(np.cos(t)) * n_hat
                 + _m(np.sin(t)) * nn)
        return g[..., None, None] * dr_dt[..., None, :, :]

    return ChiralProbe(name="trig", deformation_map=phi_of,
                       deformation_gradient=f_of, rotation=r_of,
                       rotation_derivative=dr_of,
                       points=_sample_points(n_points, seed, 3))


def constant_rotation_probe(n_points: int = 20, seed: int = 930) -> ChiralProbe:
    """Identity rotation everywhere: all curvature quantities vanish."""
    base = trig_chiral_probe(n_points, seed)
    return ChiralProbe(
        name="constant_rotation",
        deformation_map=base.deformation_map,
        deformation_gradient=base.deformation_gradient,
        rotation=lambda p: np.broadcast_to(np.eye(3), np.shape(p)[:-1] + (3, 3)),
        rotation_derivative=lambda p: np.zeros(np.shape(p)[:-1] + (3, 3, 3)),
        points=base.points)


def planar_embedding_probe(n_points: int = 50, seed: int = 931) -> ChiralProbe:
    """The in-plane problem viewed as a 3D probe: its chiral invariant is
    identically zero (the planar orthogonality relations in disguise)."""
    s = default_planar_sample(n_points, seed)

    def phi_of(p):
        x, y, z = np.moveaxis(p, -1, 0)
        return np.stack(np.broadcast_arrays(s.phi1.value(x, y),
                                            s.phi2.value(x, y), z), -1)

    def bundle(p):
        return _rotation_z_bundle(s.angle, p[..., 0], p[..., 1])

    return ChiralProbe(
        name="planar_embedding",
        deformation_map=phi_of,
        deformation_gradient=lambda p: _first_problem_f(s, p[..., 0], p[..., 1]),
        rotation=lambda p: bundle(p)[0],
        rotation_derivative=lambda p: bundle(p)[1],
        points=np.column_stack([s.points, np.zeros(len(s.points))]))


def _fd_partials(field: Callable[[np.ndarray], np.ndarray],
                 points: np.ndarray) -> list[np.ndarray]:
    """The three partial derivatives ``d_m`` of a field by the fourth-order
    five-point stencil with step 1e-3 (keeps the truncation and rounding
    error of the chain-rule checks a couple of decades below their
    tolerances); the field is evaluated once per shifted point set."""
    step = 1e-3
    return [(-field(points + 2 * offset) + 8 * field(points + offset)
             - 8 * field(points - offset)
             + field(points - 2 * offset)) / (12 * step)
            for offset in step * np.eye(3)]


def chirality_inversion_check(probe: ChiralProbe) -> VerificationReport:
    """Pull the probe fields back through the point inversion and verify the
    transformation rules: the metric is invariant, the matrix curl is even,
    the wryness is odd, the invariant flips sign, and the inverted rotation
    has determinant -1 (it is a rotation composed with the inversion).

    The inverted map and rotation are differentiated numerically (as the
    literal fields ``x -> phi(-x)`` and ``x -> -R(-x)``), so the sign
    bookkeeping through the gradient and the curl is genuinely exercised
    rather than assumed, and a ``deformation_gradient`` that is not the
    gradient of ``deformation_map`` fails the metric row.
    """

    def phi_sharp(p):
        return probe.deformation_map(-p)

    def r_sharp(p):
        return -probe.rotation(-p)

    points = probe.points
    r = probe.rotation(points)
    # Inverted fields evaluated at `points` come from originals at -points.
    f_m = probe.deformation_gradient(-points)
    f_inv = np.stack(_fd_partials(phi_sharp, points), -1)
    r_inv = r_sharp(points)
    curl_inv = curl3_matrix(np.stack(_fd_partials(r_sharp, points), -3))
    curl_m = curl3_matrix(probe.rotation_derivative(-points))
    k_inv = _t(r_inv) @ curl_inv
    k_m = _t(probe.rotation(-points)) @ curl_m
    metric_inv, metric_m = _t(f_inv) @ f_inv, _t(f_m) @ f_m

    report = VerificationReport()
    report.add_maxima({
        "rotation_orthogonal": np.abs(_t(r) @ r - np.eye(3)),
        "metric_invariant_under_inversion": np.abs(metric_inv - metric_m),
        "curl_even_under_inversion": np.abs(curl_inv - curl_m),
        "wryness_odd_under_inversion": np.abs(k_inv + k_m),
        "invariant_flips_sign": np.abs(_frobenius(metric_inv, k_inv)
                                       + _frobenius(metric_m, k_m)),
        "inverted_determinant_is_minus_one":
            np.abs(np.linalg.det(r_inv) + 1.0),
    }, 1e-10, prefix=f"{probe.name}:", rotation_orthogonal=1e-12,
        inverted_determinant_is_minus_one=1e-12)
    return report


def full_reduction_report() -> VerificationReport:
    """All planar-reduction and inversion checks on the default probes,
    50 points each (25 for the constant rotation)."""
    report = VerificationReport()
    sample = default_planar_sample(50, 71)
    report.extend(first_problem_check(sample))
    report.extend(second_problem_check(sample))
    report.extend(chirality_inversion_check(trig_chiral_probe(50, 72)))
    report.extend(chirality_inversion_check(constant_rotation_probe(25, 74)))
    probe = planar_embedding_probe(50, 73)
    report.extend(chirality_inversion_check(probe))
    report.add_maxima({"planar_embedding_invariant_vanishes": np.abs(
        chiral_invariant(probe, probe.points))}, 1e-10)
    return report
