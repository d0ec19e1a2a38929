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
and the invariant must flip sign.
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
    """Matrix curl from a pointwise derivative bundle ``dm[m, i, n] =
    d_m M[i, n]``: ``(Curl M)[i, j] = sum_mn EPS3[j, m, n] dm[m, i, n]``."""
    return np.einsum("jmn,min->ij", EPS3, dm)


def devsym3(m: np.ndarray) -> np.ndarray:
    """Trace-free symmetric part."""
    s = 0.5 * (m + m.T)
    return s - (np.trace(m) / 3.0) * np.eye(3)


def skew3(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m - m.T)


# --------------------------------------------------------------------------
# Closed-form planar test functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarFunction:
    """Scalar function of (x, y) with its analytic gradient."""

    value: Callable[[float, float], float]
    grad: Callable[[float, float], tuple[float, float]]

    def scaled(self, factor: float) -> "PlanarFunction":
        return PlanarFunction(
            value=lambda x, y: factor * self.value(x, y),
            grad=lambda x, y: tuple(factor * g for g in self.grad(x, y)))


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
        phi1=PlanarFunction(lambda x, y: x + 0.1 * math.sin(y),
                            lambda x, y: (1.0, 0.1 * math.cos(y))),
        phi2=PlanarFunction(lambda x, y: y,
                            lambda x, y: (0.0, 1.0)),
        angle=PlanarFunction(lambda x, y: 0.2 * math.cos(x),
                             lambda x, y: (-0.2 * math.sin(x), 0.0)),
        alpha=PlanarFunction(lambda x, y: 0.3 * math.sin(x) + 0.2 * math.cos(y),
                             lambda x, y: (0.3 * math.cos(x), -0.2 * math.sin(y))),
        beta=PlanarFunction(lambda x, y: 0.2 * math.sin(y) - 0.1 * math.cos(x),
                            lambda x, y: (0.1 * math.sin(x), 0.2 * math.cos(y))))


def _first_problem_f(s: PlanarSample3D, x: float, y: float) -> np.ndarray:
    g1 = s.phi1.grad(x, y)
    g2 = s.phi2.grad(x, y)
    return np.array([[g1[0], g1[1], 0.0],
                     [g2[0], g2[1], 0.0],
                     [0.0, 0.0, 1.0]])


def _rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rotation_z_bundle(angle_fn: PlanarFunction, x: float, y: float):
    """Rotation about the z-axis and its derivative bundle dR[m, i, n]."""
    t = angle_fn.value(x, y)
    gx, gy = angle_fn.grad(x, y)
    r = _rotation_z(t)
    c, s = math.cos(t), math.sin(t)
    dr_dt = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
    dm = np.zeros((3, 3, 3))
    dm[0] = gx * dr_dt
    dm[1] = gy * dr_dt
    return r, dm


def first_problem_wryness(s: PlanarSample3D, x: float, y: float) -> np.ndarray:
    """R^T Curl R for the in-plane problem; analytically this equals minus
    the angle gradient placed in the third column."""
    r, dm = _rotation_z_bundle(s.angle, x, y)
    return r.T @ curl3_matrix(dm)


def first_problem_check(s: PlanarSample3D) -> VerificationReport:
    """Pointwise identities of the in-plane reduction: wryness structure and
    norm, stretch block form, decomposition, and the orthogonality triple
    (for both the first stretch and the metric), plus the nonvanishing of
    the norm-times-trace interaction surrogate."""

    def errors(x, y):
        f = _first_problem_f(s, x, y)
        stretch = _rotation_z(s.angle.value(x, y)).T @ f
        k = first_problem_wryness(s, x, y)
        gx, gy = s.angle.grad(x, y)
        expected = np.zeros((3, 3))
        expected[0, 2] = -gx
        expected[1, 2] = -gy
        recon = devsym3(k) + skew3(k) + (np.trace(k) / 3.0) * np.eye(3)
        row = {
            "wryness_two_entry_structure": np.max(np.abs(k - expected)),
            "decomposition_reconstructs": np.max(np.abs(recon - k)),
            "wryness_trace_free": abs(np.trace(k)),
            "stretch_block_form": np.max(np.abs([
                stretch[0, 2], stretch[1, 2], stretch[2, 0], stretch[2, 1],
                stretch[2, 2] - 1.0])),
        }
        for label, a in (("stretch", stretch), ("metric", f.T @ f)):
            row[f"orthogonality_devsym_{label}"] = abs(
                np.sum(devsym3(a) * devsym3(k)))
            row[f"orthogonality_skew_{label}"] = abs(
                np.sum(skew3(a) * skew3(k)))
            row[f"orthogonality_trace_{label}"] = abs(
                np.trace(a) * np.trace(k))
        row["wryness_norm_identity"] = abs(np.sum(k * k) - (gx**2 + gy**2))
        return row

    report = VerificationReport()
    report.add_maxima([errors(x, y) for x, y in s.points], 1e-10)
    report.flag("interaction_surrogate_nonzero", any(
        math.hypot(*s.angle.grad(x, y)) * abs(np.trace(
            _rotation_z(s.angle.value(x, y)).T @ _first_problem_f(s, x, y)))
        > 1e-6 for x, y in s.points))
    return report


# --------------------------------------------------------------------------
# Out-of-plane rotation axes (two-angle Rodrigues rotation)
# --------------------------------------------------------------------------

def _rodrigues_coefficients(l2: float):
    """(cos l, sin(l)/l, (1 - cos l)/l^2, (c - s)/l^2, (s - 2q)/l^2) with
    series continuation below the removable singularity at l = 0."""
    ell = math.sqrt(l2)
    c = math.cos(ell)
    if ell < SERIES_THRESHOLD:
        s = 1.0 - l2 / 6.0 + l2 * l2 / 120.0
        q = 0.5 - l2 / 24.0 + l2 * l2 / 720.0
        v = -1.0 / 3.0 + l2 / 30.0 - l2 * l2 / 840.0
        w = -1.0 / 12.0 + l2 / 180.0 - l2 * l2 / 6720.0
    else:
        s = math.sin(ell) / ell
        q = (1.0 - c) / l2
        v = (c - s) / l2
        w = (s - 2.0 * q) / l2
    return c, s, q, v, w


def _axis_hat(alpha: float, beta: float) -> np.ndarray:
    return np.array([[0.0, 0.0, beta],
                     [0.0, 0.0, -alpha],
                     [-beta, alpha, 0.0]])


_DA_HAT_DALPHA = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
_DA_HAT_DBETA = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])


def second_problem_rotation(alpha: float, beta: float) -> np.ndarray:
    """Rotation about the in-plane axis (alpha, beta, 0) by angle
    ``l = sqrt(alpha^2 + beta^2)`` in Rodrigues form
    ``cos(l) I + (sin(l)/l) A_hat + ((1 - cos l)/l^2) a a^T``."""
    l2 = alpha**2 + beta**2
    c, s, q, _, _ = _rodrigues_coefficients(l2)
    a = np.array([alpha, beta, 0.0])
    return c * np.eye(3) + s * _axis_hat(alpha, beta) + q * np.outer(a, a)


def second_problem_rotation_gradient(alpha: float, beta: float):
    """Closed-form (dR/dalpha, dR/dbeta) of the two-angle rotation."""
    l2 = alpha**2 + beta**2
    _, s, q, v, w = _rodrigues_coefficients(l2)
    a = np.array([alpha, beta, 0.0])
    a_hat = _axis_hat(alpha, beta)
    aa = np.outer(a, a)
    eye = np.eye(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    dr_da = (-alpha * s * eye + alpha * v * a_hat + s * _DA_HAT_DALPHA
             + alpha * w * aa + q * (np.outer(e1, a) + np.outer(a, e1)))
    dr_db = (-beta * s * eye + beta * v * a_hat + s * _DA_HAT_DBETA
             + beta * w * aa + q * (np.outer(e2, a) + np.outer(a, e2)))
    return dr_da, dr_db


def second_problem_wryness(alpha_fn: PlanarFunction, beta_fn: PlanarFunction,
                           x: float, y: float) -> np.ndarray:
    """Exact R^T Curl R of the two-angle rotation field at a point."""
    a = alpha_fn.value(x, y)
    b = beta_fn.value(x, y)
    agx, agy = alpha_fn.grad(x, y)
    bgx, bgy = beta_fn.grad(x, y)
    r = second_problem_rotation(a, b)
    dr_da, dr_db = second_problem_rotation_gradient(a, b)
    dm = np.zeros((3, 3, 3))
    dm[0] = agx * dr_da + bgx * dr_db
    dm[1] = agy * dr_da + bgy * dr_db
    return r.T @ curl3_matrix(dm)


def small_rotation_curvature(alpha_fn: PlanarFunction, beta_fn: PlanarFunction,
                             x: float, y: float) -> np.ndarray:
    """Leading-order wryness of the two-angle rotation: gradients of the
    angles in the upper-left block and their 'divergence' at (3,3)."""
    agx, agy = alpha_fn.grad(x, y)
    bgx, bgy = beta_fn.grad(x, y)
    return np.array([[bgy, -bgx, 0.0],
                     [-agy, agx, 0.0],
                     [0.0, 0.0, agx + bgy]])


def second_problem_check(s: PlanarSample3D,
                         small_factor: float = 2e-7) -> VerificationReport:
    """Out-of-plane-axis checks: exact rotation orthogonality, identity at
    zero angles, vanishing bottom-row wryness entries, and the small-angle
    match with the leading-order curvature (fields scaled by
    ``small_factor``, relative comparison)."""
    alpha_small = s.alpha.scaled(small_factor)
    beta_small = s.beta.scaled(small_factor)
    identity = np.max(np.abs(second_problem_rotation(0.0, 0.0) - np.eye(3)))

    def errors(x, y):
        r = second_problem_rotation(s.alpha.value(x, y), s.beta.value(x, y))
        k = second_problem_wryness(s.alpha, s.beta, x, y)
        k_exact = second_problem_wryness(alpha_small, beta_small, x, y)
        k_lead = small_rotation_curvature(alpha_small, beta_small, x, y)
        scale = np.max(np.abs(k_lead))
        return {
            "rotation_orthogonal": np.max(np.abs(r.T @ r - np.eye(3))),
            "identity_at_zero_angles": identity,
            "wryness_bottom_row_vanishes": max(abs(k[2, 0]), abs(k[2, 1])),
            "small_rotation_matches_leading_order":
                np.max(np.abs(k_exact - k_lead)) / scale if scale > 0.0
                else 0.0,
        }

    report = VerificationReport()
    report.add_maxima([errors(x, y) for x, y in s.points], 1e-10,
                      rotation_orthogonal=1e-12, identity_at_zero_angles=1e-15,
                      small_rotation_matches_leading_order=1e-6)
    return report


# --------------------------------------------------------------------------
# Inversion (chirality) probes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ChiralProbe:
    """Closed-form 3D deformation gradient and rotation field with analytic
    derivatives, plus evaluation points.

    ``rotation_derivative(point)`` returns the bundle ``dR[m, i, n] =
    d_m R[i, n]`` used by :func:`curl3_matrix`.
    """

    name: str
    deformation_gradient: Callable[[np.ndarray], np.ndarray]
    rotation: Callable[[np.ndarray], np.ndarray]
    rotation_derivative: Callable[[np.ndarray], np.ndarray]
    points: np.ndarray  # (N, 3)


def chiral_invariant(probe: ChiralProbe, point: np.ndarray) -> float:
    """<F^T F, R^T Curl R> at a point: the scalar that changes sign under
    point inversion of the fields."""
    f = probe.deformation_gradient(point)
    r = probe.rotation(point)
    k = r.T @ curl3_matrix(probe.rotation_derivative(point))
    return float(np.sum((f.T @ f) * k))


def trig_chiral_probe(n_points: int = 50, seed: int = 929) -> ChiralProbe:
    """Gradient of a trigonometric map plus a fixed-axis rotation whose
    angle varies smoothly in all three coordinates."""
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    n_hat = np.array([[0.0, -axis[2], axis[1]],
                      [axis[2], 0.0, -axis[0]],
                      [-axis[1], axis[0], 0.0]])
    nn = np.outer(axis, axis)
    eye = np.eye(3)

    def f_of(p):
        x, y, z = p
        return np.array([
            [1.0, 0.2 * math.cos(y), -0.1 * math.sin(z)],
            [-0.15 * math.sin(x), 1.0, 0.1 * math.cos(z)],
            [0.12 * math.cos(x), -0.2 * math.sin(y), 1.0],
        ])

    def psi(p):
        x, y, z = p
        return 0.4 * math.sin(x) + 0.3 * math.cos(y) + 0.2 * math.sin(z)

    def psi_grad(p):
        x, y, z = p
        return np.array([0.4 * math.cos(x), -0.3 * math.sin(y),
                         0.2 * math.cos(z)])

    def r_of(p):
        t = psi(p)
        return math.cos(t) * eye + math.sin(t) * n_hat + (1 - math.cos(t)) * nn

    def dr_of(p):
        t = psi(p)
        dr_dt = -math.sin(t) * eye + math.cos(t) * n_hat + math.sin(t) * nn
        g = psi_grad(p)
        return g[:, None, None] * dr_dt[None, :, :]

    return ChiralProbe(name="trig", deformation_gradient=f_of, rotation=r_of,
                       rotation_derivative=dr_of,
                       points=_sample_points(n_points, seed, 3))


def constant_rotation_probe(n_points: int = 20, seed: int = 930) -> ChiralProbe:
    """Identity rotation everywhere: all curvature quantities vanish."""
    base = trig_chiral_probe(n_points, seed)
    return ChiralProbe(
        name="constant_rotation",
        deformation_gradient=base.deformation_gradient,
        rotation=lambda p: np.eye(3),
        rotation_derivative=lambda p: np.zeros((3, 3, 3)),
        points=base.points)


def planar_embedding_probe(n_points: int = 50, seed: int = 931) -> ChiralProbe:
    """The in-plane problem viewed as a 3D probe: its chiral invariant is
    identically zero (the planar orthogonality relations in disguise)."""
    s = default_planar_sample(n_points, seed)

    def f_of(p):
        return _first_problem_f(s, p[0], p[1])

    def r_of(p):
        return _rotation_z(s.angle.value(p[0], p[1]))

    def dr_of(p):
        _, dm = _rotation_z_bundle(s.angle, p[0], p[1])
        return dm

    points = np.column_stack([s.points, np.zeros(len(s.points))])
    return ChiralProbe(name="planar_embedding", deformation_gradient=f_of,
                       rotation=r_of, rotation_derivative=dr_of, points=points)


def _fd_bundle(field: Callable[[np.ndarray], np.ndarray],
               point: np.ndarray) -> np.ndarray:
    """Derivative bundle dM[m, i, n] of a matrix field by the fourth-order
    five-point stencil with step 1e-3 (keeps the truncation and rounding
    error of the chain-rule checks a couple of decades below their
    tolerances)."""
    step = 1e-3
    dm = np.zeros((3, 3, 3))
    for m in range(3):
        offset = np.zeros(3)
        offset[m] = step
        dm[m] = (-field(point + 2 * offset) + 8 * field(point + offset)
                 - 8 * field(point - offset) + field(point - 2 * offset)) / (12 * step)
    return dm


def chirality_inversion_check(probe: ChiralProbe) -> VerificationReport:
    """Pull the probe fields back through the point inversion and verify the
    transformation rules: the metric is invariant, the matrix curl is even,
    the wryness is odd, the invariant flips sign, and the inverted rotation
    has determinant -1 (it is a rotation composed with the inversion).

    The inverted rotation is differentiated numerically (as a literal field
    ``x -> -R(-x)``), so the sign bookkeeping through the curl is genuinely
    exercised rather than assumed.
    """

    def r_sharp(p):
        return -probe.rotation(-p)

    def errors(point):
        r = probe.rotation(point)
        # Inverted fields evaluated at `point` come from originals at -point.
        f_m = probe.deformation_gradient(-point)
        f_inv = -f_m
        r_inv = r_sharp(point)
        curl_inv = curl3_matrix(_fd_bundle(r_sharp, point))
        curl_m = curl3_matrix(probe.rotation_derivative(-point))
        k_inv = r_inv.T @ curl_inv
        k_m = probe.rotation(-point).T @ curl_m
        return {
            "rotation_orthogonal": np.max(np.abs(r.T @ r - np.eye(3))),
            "metric_invariant_under_inversion":
                np.max(np.abs(f_inv.T @ f_inv - f_m.T @ f_m)),
            "curl_even_under_inversion": np.max(np.abs(curl_inv - curl_m)),
            "wryness_odd_under_inversion": np.max(np.abs(k_inv + k_m)),
            "invariant_flips_sign": abs(np.sum((f_inv.T @ f_inv) * k_inv)
                                        + np.sum((f_m.T @ f_m) * k_m)),
            "inverted_determinant_is_minus_one":
                abs(np.linalg.det(r_inv) + 1.0),
        }

    report = VerificationReport()
    report.add_maxima([errors(point) for point in probe.points], 1e-10,
                      prefix=f"{probe.name}:", rotation_orthogonal=1e-12,
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
    report.add_maxima([{"planar_embedding_invariant_vanishes":
                        abs(chiral_invariant(probe, pt))}
                       for pt in probe.points], 1e-10)
    return report
