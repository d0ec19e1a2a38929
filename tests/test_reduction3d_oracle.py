"""Per-point reference for the batched reduction checks.

The reference below evaluates every check of ``cosserat2d.reduction3d`` one
sample point at a time with plain 3x3 matrices, reading the same closed-form
fields (called on one point each), and takes each row's maximum over the
points last.  The package evaluates all points at once; every row of its
report must equal the reference bit for bit.  Squares are written as
products, as numpy's array power computes them.
"""

import math

import numpy as np
import pytest

from cosserat2d.reduction3d import (
    EPS3,
    SERIES_THRESHOLD,
    chiral_invariant,
    chirality_inversion_check,
    constant_rotation_probe,
    default_planar_sample,
    first_problem_check,
    full_reduction_report,
    planar_embedding_probe,
    second_problem_check,
    second_problem_rotation,
    second_problem_rotation_gradient,
    trig_chiral_probe,
)
from cosserat2d.report import VerificationReport


def _curl(dm):
    return np.einsum("jmn,min->ij", EPS3, dm)


def _devsym(m):
    s = 0.5 * (m + m.T)
    return s - (np.trace(m) / 3.0) * np.eye(3)


def _skew(m):
    return 0.5 * (m - m.T)


def _first_f(s, x, y):
    g1 = s.phi1.grad(x, y)
    g2 = s.phi2.grad(x, y)
    return np.array([[g1[0], g1[1], 0.0],
                     [g2[0], g2[1], 0.0],
                     [0.0, 0.0, 1.0]])


def _rotation_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rotation_z_bundle(angle_fn, x, y):
    t = angle_fn.value(x, y)
    gx, gy = angle_fn.grad(x, y)
    c, s = np.cos(t), np.sin(t)
    dr_dt = np.array([[-s, -c, 0.0], [c, -s, 0.0], [0.0, 0.0, 0.0]])
    dm = np.zeros((3, 3, 3))
    dm[0] = gx * dr_dt
    dm[1] = gy * dr_dt
    return _rotation_z(t), dm


def _coefficients(l2):
    ell = math.sqrt(l2)
    c = np.cos(ell)
    if ell < SERIES_THRESHOLD:
        s = 1.0 - l2 / 6.0 + l2 * l2 / 120.0
        q = 0.5 - l2 / 24.0 + l2 * l2 / 720.0
        v = -1.0 / 3.0 + l2 / 30.0 - l2 * l2 / 840.0
        w = -1.0 / 12.0 + l2 / 180.0 - l2 * l2 / 6720.0
    else:
        s = np.sin(ell) / ell
        q = (1.0 - c) / l2
        v = (c - s) / l2
        w = (s - 2.0 * q) / l2
    return c, s, q, v, w


def _axis_hat(alpha, beta):
    return np.array([[0.0, 0.0, beta], [0.0, 0.0, -alpha],
                     [-beta, alpha, 0.0]])


def _rotation(alpha, beta):
    c, s, q, _, _ = _coefficients(alpha * alpha + beta * beta)
    a = np.array([alpha, beta, 0.0])
    return c * np.eye(3) + s * _axis_hat(alpha, beta) + q * np.outer(a, a)


def _rotation_gradient(alpha, beta):
    _, s, q, v, w = _coefficients(alpha * alpha + beta * beta)
    a = np.array([alpha, beta, 0.0])
    a_hat = _axis_hat(alpha, beta)
    aa = np.outer(a, a)
    eye = np.eye(3)
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    dr_da = (-alpha * s * eye + alpha * v * a_hat + s * _axis_hat(1.0, 0.0)
             + alpha * w * aa + q * (np.outer(e1, a) + np.outer(a, e1)))
    dr_db = (-beta * s * eye + beta * v * a_hat + s * _axis_hat(0.0, 1.0)
             + beta * w * aa + q * (np.outer(e2, a) + np.outer(a, e2)))
    return dr_da, dr_db


def _wryness(alpha_fn, beta_fn, x, y):
    a = alpha_fn.value(x, y)
    b = beta_fn.value(x, y)
    agx, agy = alpha_fn.grad(x, y)
    bgx, bgy = beta_fn.grad(x, y)
    dr_da, dr_db = _rotation_gradient(a, b)
    dm = np.zeros((3, 3, 3))
    dm[0] = agx * dr_da + bgx * dr_db
    dm[1] = agy * dr_da + bgy * dr_db
    return _rotation(a, b).T @ _curl(dm)


def _leading(alpha_fn, beta_fn, x, y):
    agx, agy = alpha_fn.grad(x, y)
    bgx, bgy = beta_fn.grad(x, y)
    return np.array([[bgy, -bgx, 0.0], [-agy, agx, 0.0],
                     [0.0, 0.0, agx + bgy]])


def _fd_partial(field, point, m):
    step = 1e-3
    offset = np.zeros(3)
    offset[m] = step
    return (-field(point + 2 * offset) + 8 * field(point + offset)
            - 8 * field(point - offset)
            + field(point - 2 * offset)) / (12 * step)


def _fd_bundle(field, point):
    """``dM[m, i, n] = d_m M[i, n]`` of a matrix field."""
    return np.array([_fd_partial(field, point, m) for m in range(3)])


def _fd_jacobian(field, point):
    """``J[i, m] = d_m phi_i`` of a vector field."""
    return np.column_stack([_fd_partial(field, point, m) for m in range(3)])


def _maxima(rows):
    """Each name's largest error over the per-point rows, in row order."""
    return {name: max(row[name] for row in rows) for name in rows[0]}


def _first_rows(s, x, y):
    f = _first_f(s, x, y)
    stretch = _rotation_z(s.angle.value(x, y)).T @ f
    r, dm = _rotation_z_bundle(s.angle, x, y)
    k = r.T @ _curl(dm)
    gx, gy = s.angle.grad(x, y)
    expected = np.zeros((3, 3))
    expected[0, 2] = -gx
    expected[1, 2] = -gy
    recon = _devsym(k) + _skew(k) + (np.trace(k) / 3.0) * np.eye(3)
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
            np.sum(_devsym(a) * _devsym(k)))
        row[f"orthogonality_skew_{label}"] = abs(np.sum(_skew(a) * _skew(k)))
        row[f"orthogonality_trace_{label}"] = abs(np.trace(a) * np.trace(k))
    row["wryness_norm_identity"] = abs(np.sum(k * k) - (gx * gx + gy * gy))
    surrogate = math.hypot(gx, gy) * abs(np.trace(stretch))
    return row, surrogate


def _second_rows(s, x, y, small_factor=2e-7):
    alpha_small = s.alpha.scaled(small_factor)
    beta_small = s.beta.scaled(small_factor)
    r = _rotation(s.alpha.value(x, y), s.beta.value(x, y))
    k = _wryness(s.alpha, s.beta, x, y)
    k_exact = _wryness(alpha_small, beta_small, x, y)
    k_lead = _leading(alpha_small, beta_small, x, y)
    scale = np.max(np.abs(k_lead))
    return {
        "rotation_orthogonal": np.max(np.abs(r.T @ r - np.eye(3))),
        "identity_at_zero_angles":
            np.max(np.abs(_rotation(0.0, 0.0) - np.eye(3))),
        "wryness_bottom_row_vanishes": max(abs(k[2, 0]), abs(k[2, 1])),
        "small_rotation_matches_leading_order":
            np.max(np.abs(k_exact - k_lead)) / scale if scale > 0.0 else 0.0,
    }


def _inversion_rows(probe, point):
    def phi_sharp(p):
        return probe.deformation_map(-p)

    def r_sharp(p):
        return -probe.rotation(-p)

    r = probe.rotation(point)
    f_m = probe.deformation_gradient(-point)
    f_inv = _fd_jacobian(phi_sharp, point)
    r_inv = r_sharp(point)
    curl_inv = _curl(_fd_bundle(r_sharp, point))
    curl_m = _curl(probe.rotation_derivative(-point))
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
        "inverted_determinant_is_minus_one": abs(np.linalg.det(r_inv) + 1.0),
    }


def _planar_invariant(probe, point):
    f = probe.deformation_gradient(point)
    k = probe.rotation(point).T @ _curl(probe.rotation_derivative(point))
    return abs(np.sum((f.T @ f) * k))


def reference_rows(sample, probes):
    """``(name, max error)`` of every row, point by point: the two planar
    problems on ``sample``, the inversion checks on ``probes`` and the
    vanishing invariant of the last probe."""
    first = [_first_rows(sample, x, y) for x, y in sample.points]
    rows = list(_maxima([row for row, _ in first]).items())
    rows.append(("interaction_surrogate_nonzero",
                 0.0 if any(v > 1e-6 for _, v in first) else 1.0))
    rows += _maxima([_second_rows(sample, x, y)
                     for x, y in sample.points]).items()
    for probe in probes:
        rows += [(f"{probe.name}:{name}", value) for name, value in _maxima(
            [_inversion_rows(probe, p) for p in probe.points]).items()]
    rows.append(("planar_embedding_invariant_vanishes",
                 max(_planar_invariant(probes[-1], p)
                     for p in probes[-1].points)))
    return rows


def batched_rows(sample, probes):
    """The same rows from the package's batched checks."""
    report = VerificationReport()
    report.extend(first_problem_check(sample))
    report.extend(second_problem_check(sample))
    for probe in probes:
        report.extend(chirality_inversion_check(probe))
    report.add_maxima({"planar_embedding_invariant_vanishes": np.abs(
        chiral_invariant(probes[-1], probes[-1].points))}, 1e-10)
    return [(c.name, c.max_abs_error) for c in report.checks]


def _bits(rows):
    return [(name, float(value).hex()) for name, value in rows]


def test_full_report_rows_equal_the_per_point_reference_bitwise():
    reference = reference_rows(
        default_planar_sample(50, 71),
        [trig_chiral_probe(50, 72), constant_rotation_probe(25, 74),
         planar_embedding_probe(50, 73)])
    rows = [(c.name, c.max_abs_error) for c in full_reduction_report().checks]
    assert len(rows) == 35
    assert _bits(rows) == _bits(reference)


@pytest.mark.parametrize("n_points, seed", [(20, 5), (7, 1)])
def test_batched_rows_equal_the_per_point_reference_bitwise(n_points, seed):
    sample = default_planar_sample(n_points, seed)
    probes = [trig_chiral_probe(n_points, seed),
              constant_rotation_probe(n_points, seed),
              planar_embedding_probe(n_points, seed)]
    assert _bits(batched_rows(sample, probes)) == _bits(
        reference_rows(sample, probes))


def test_batched_rodrigues_matches_scalar_calls_bitwise():
    # Both sides of the series switch, the removable singularity itself and
    # an angle near 1, in one array (with a second axis for the shape).
    ell = np.array([[0.0, 0.5 * SERIES_THRESHOLD],
                    [2.0 * SERIES_THRESHOLD, 1.0 - 1e-9]])
    alpha, beta = 0.6 * ell, -0.8 * ell
    batched = (second_problem_rotation(alpha, beta),
               *second_problem_rotation_gradient(alpha, beta))
    for index in np.ndindex(ell.shape):
        scalar = (second_problem_rotation(alpha[index], beta[index]),
                  *second_problem_rotation_gradient(alpha[index],
                                                    beta[index]))
        for got, want in zip(batched, scalar):
            assert got[index].shape == want.shape == (3, 3)
            assert got[index].tobytes() == want.tobytes(), index
