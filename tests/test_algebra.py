"""Planar matrix algebra: rotations, invariants, and the polar factor.

The polar decomposition and its derivative are checked against independent
oracles (an eigendecomposition square root, and central finite differences),
not against their own closed forms.
"""

import numpy as np
import numpy.testing as npt
import pytest

from cosserat2d.algebra import (
    EPS2,
    _polar_rotation,
    cof2,
    det2,
    frobenius,
    mat_mul,
    rot2,
    trace2,
    transpose2,
)
from cosserat2d.errors import DegenerateDeformation
from cosserat2d.fields import Grid, deformation_gradients
from cosserat2d.rng import random_smooth_state

from conftest import dpolar_dir, random_f_stack


def mat_vec(a, v):
    """Matrix–vector product on the leading axes."""
    return np.einsum("ij...,j...->i...", a, v)


def decompose(m):
    """Split ``m`` into (symmetric part, skew part, trace)."""
    mt = transpose2(m)
    return 0.5 * (m + mt), 0.5 * (m - mt), trace2(m)


def polar_by_eigendecomposition(f):
    """Independent oracle: U = sqrt(F^T F) via eigh, R = F U^{-1}."""
    c = f.T @ f
    w, v = np.linalg.eigh(c)
    u = v @ np.diag(np.sqrt(w)) @ v.T
    return f @ np.linalg.inv(u), u


def test_rot2_is_special_orthogonal():
    rng = np.random.default_rng(3)
    for angle in rng.uniform(-8.0, 8.0, size=20):
        r = rot2(angle)
        npt.assert_allclose(r.T @ r, np.eye(2), atol=1e-15)
        npt.assert_allclose(np.linalg.det(r), 1.0, atol=1e-15)


def test_rot2_composition_and_array_angles():
    rng = np.random.default_rng(4)
    a = rng.uniform(-3, 3, size=(5, 7))
    b = rng.uniform(-3, 3, size=(5, 7))
    combined = mat_mul(rot2(a), rot2(b))
    npt.assert_allclose(combined, rot2(a + b), atol=1e-14)


def test_rot2_is_bitwise_the_stacked_form():
    def stacked(theta):
        theta = np.asarray(theta, dtype=float)
        c, s = np.cos(theta), np.sin(theta)
        return np.stack([np.stack([c, -s]), np.stack([s, c])])

    rng = np.random.default_rng(7)
    for theta in (rng.uniform(-8.0, 8.0, size=(33, 36)),
                  np.array([0.0, -0.0, 1e6, -1e6, 1e6 + 0.5]),
                  0.3, -0.0, 1e6):
        r, expected = rot2(theta), stacked(theta)
        assert r.shape == expected.shape
        assert r.tobytes() == expected.tobytes()


def test_eps2_commutes_with_rotations():
    for angle in np.linspace(-3.0, 3.0, 11):
        r = rot2(angle)
        npt.assert_allclose(r.T @ EPS2 @ r, EPS2, atol=1e-15)


def test_eps_trace_of_rotation_is_twice_sine():
    rng = np.random.default_rng(5)
    for angle in rng.uniform(-7, 7, size=30):
        value = trace2(mat_mul(EPS2, rot2(angle)))
        npt.assert_allclose(value, 2.0 * np.sin(angle), atol=1e-14)


def test_stacked_operations_match_numpy():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((2, 2, 4, 5))
    b = rng.standard_normal((2, 2, 4, 5))
    am = np.moveaxis(a, (0, 1), (-2, -1))
    bm = np.moveaxis(b, (0, 1), (-2, -1))

    npt.assert_allclose(np.moveaxis(mat_mul(a, b), (0, 1), (-2, -1)),
                        am @ bm, atol=1e-14)
    npt.assert_allclose(np.moveaxis(transpose2(a), (0, 1), (-2, -1)),
                        np.swapaxes(am, -1, -2), atol=0)
    npt.assert_allclose(trace2(a), np.trace(am, axis1=-2, axis2=-1), atol=0)
    npt.assert_allclose(det2(a), np.linalg.det(am), atol=1e-14)
    npt.assert_allclose(frobenius(a, b), np.sum(am * bm, axis=(-2, -1)),
                        atol=1e-14)

    vec = rng.standard_normal((2, 4, 5))
    vm = np.moveaxis(vec, 0, -1)[..., None]
    npt.assert_allclose(np.moveaxis(mat_vec(a, vec), 0, -1),
                        (am @ vm)[..., 0], atol=1e-14)


def test_decompose_parts():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((2, 2, 6))
    sym, skew, tr = decompose(m)
    npt.assert_allclose(sym + skew, m, atol=1e-15)
    npt.assert_allclose(sym, transpose2(sym), atol=1e-15)
    npt.assert_allclose(skew, -transpose2(skew), atol=1e-15)
    npt.assert_allclose(tr, m[0, 0] + m[1, 1], atol=1e-15)


def test_cofactor_identity():
    rng = np.random.default_rng(8)
    f = random_f_stack(rng, n=10)
    product = mat_mul(f, transpose2(cof2(f)))
    expected = det2(f)[None, None] * np.eye(2)[:, :, None]
    npt.assert_allclose(product, expected, atol=1e-14)


def test_polar_rotation_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(9)
    for _ in range(40):
        f = np.eye(2) + 0.6 * (rng.random((2, 2)) - 0.5)
        if np.linalg.det(f) < 0.2:
            continue
        r, tru = _polar_rotation(f)
        u = r.T @ f  # the stretch U = R^T F
        r_ref, u_ref = polar_by_eigendecomposition(f)
        npt.assert_allclose(r, r_ref, atol=1e-12)
        npt.assert_allclose(u, u_ref, atol=1e-12)
        # Defining properties, independently.
        npt.assert_allclose(r.T @ r, np.eye(2), atol=1e-14)
        npt.assert_allclose(np.linalg.det(r), 1.0, atol=1e-14)
        npt.assert_allclose(u, u.T, atol=1e-14)
        npt.assert_allclose(r @ u, f, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(u) > 0)
        npt.assert_allclose(np.trace(u), tru, rtol=1e-14)


def test_polar_rotation_on_stacked_fields():
    rng = np.random.default_rng(10)
    f = random_f_stack(rng, n=12, spread=0.5)
    r, _ = _polar_rotation(f)
    u = mat_mul(transpose2(r), f)
    npt.assert_allclose(mat_mul(r, u), f, atol=1e-13)
    for j in range(f.shape[-1]):
        r_ref, _ = polar_by_eigendecomposition(f[:, :, j])
        npt.assert_allclose(r[:, :, j], r_ref, atol=1e-12)


def test_rotated_gradient_has_the_trace_of_the_stretch():
    # tr(R^T F), read from the rotation alone, is the tr U that comes with
    # R, on random stacks and on a grid's deformation gradients.
    rng = np.random.default_rng(12)
    state = random_smooth_state(Grid(nx=256, ny=256), seed=3, amplitude=0.05,
                                modes=3)
    for f in [random_f_stack(rng, n=64, spread=spread)
              for spread in (0.1, 0.4, 0.8)] + [
                  deformation_gradients(state, star=False)[0]]:
        q, tru = _polar_rotation(f)
        npt.assert_allclose(trace2(mat_mul(transpose2(q), f)), tru,
                            rtol=1e-14)


def test_polar_rotation_rejects_degenerate_deformation():
    singular = np.array([[1.0, 2.0], [0.5, 1.0]])  # rank one
    with pytest.raises(DegenerateDeformation):
        _polar_rotation(singular)
    with pytest.raises(DegenerateDeformation):
        _polar_rotation(np.diag([1.0, -1.0]))  # reflection: det < 0
    # A stacked field names the node with the smallest determinant.
    f = np.zeros((2, 2, 5, 6))
    f[0, 0] = f[1, 1] = 1.0
    f[1, 1, 3, 4] = -0.3
    f[1, 1, 1, 2] = 0.0
    with pytest.raises(DegenerateDeformation,
                       match=r"^det\(F\) <= 1e-12 at node \(3, 4\) "
                             r"\(det F = -0\.3\); polar factor undefined$"):
        _polar_rotation(f)
    # Minus the identity is *not* degenerate in the plane: it is the
    # rotation by a half turn.
    r, tru = _polar_rotation(-np.eye(2))
    npt.assert_allclose(r, -np.eye(2), atol=1e-15)
    npt.assert_allclose(r.T @ -np.eye(2), np.eye(2), atol=1e-15)
    assert tru == 2.0


def test_polar_directional_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(25):
        f = np.eye(2) + 0.5 * (rng.random((2, 2)) - 0.5)
        e = rng.standard_normal((2, 2))
        analytic = dpolar_dir(f, e)
        fd = (_polar_rotation(f + h * e)[0]
              - _polar_rotation(f - h * e)[0]) / (2.0 * h)
        npt.assert_allclose(analytic, fd, rtol=0, atol=1e-8)


def test_polar_derivative_is_self_adjoint():
    # <A, D[B]> = <D[A], B> under the Frobenius product, which lets the
    # coupling's F-conjugate apply D to its R-conjugate directly.
    rng = np.random.default_rng(12)
    f = random_f_stack(rng, n=64, spread=0.5)
    a = rng.standard_normal(f.shape)
    b = rng.standard_normal(f.shape)
    npt.assert_allclose(frobenius(a, dpolar_dir(f, b)),
                        frobenius(dpolar_dir(f, a), b), rtol=0, atol=1e-13)


def test_polar_derivative_is_tangent_to_rotations():
    # dR in the direction e must keep R^T dR skew (orthogonality preserved).
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = np.eye(2) + 0.5 * (rng.random((2, 2)) - 0.5)
        r, _ = _polar_rotation(f)
        dr = dpolar_dir(f, rng.standard_normal((2, 2)))
        product = r.T @ dr
        npt.assert_allclose(product, -product.T, atol=1e-13)
