"""Small dense 2x2 matrix kernels used throughout the model.

Matrices are numpy arrays whose FIRST two axes are the matrix indices; any
trailing axes are broadcast (typically the two grid axes), so a "matrix field"
is simply an array of shape (2, 2, nx, ny) and every kernel below works
unchanged on single matrices and on whole fields.

Orientation conventions, fixed once for the whole package:

* ``rot2(t)`` is the counter-clockwise rotation by ``t``.
* ``EPS2`` is the planar Levi-Civita matrix with entries
  ``EPS2[0, 1] = +1``, ``EPS2[1, 0] = -1``; it equals ``rot2(-pi/2)`` and
  therefore commutes with every planar rotation.

Useful identities kept here because the rest of the code leans on them:
``tr(EPS2 @ rot2(t)) = 2 sin t`` and, for any 2x2 ``M``,
``tr(EPS2 @ M) = M[1, 0] - M[0, 1]``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDeformation

#: Planar Levi-Civita / quarter-turn matrix (clockwise quarter turn).
EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Determinants at or below this value raise :class:`DegenerateDeformation`.
DEGENERATE_DET = 1e-12


def rot2(theta):
    """Counter-clockwise rotation matrix for angle ``theta``.

    ``theta`` may be a scalar or an array; the result has shape
    ``(2, 2) + theta.shape``.
    """
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([c, -s]), np.stack([s, c])])


def identity2(template):
    """Identity matrix broadcast to the trailing shape of ``template``."""
    eye = np.zeros_like(np.asarray(template, dtype=float))
    eye[0, 0] = 1.0
    eye[1, 1] = 1.0
    return eye


def mat_mul(a, b):
    """Matrix product contracting the leading axes, broadcasting the rest."""
    return np.einsum("ij...,jk...->ik...", a, b)


def transpose2(a):
    """Transpose of the leading matrix axes."""
    return np.swapaxes(a, 0, 1)


def trace2(a):
    """Trace over the leading matrix axes."""
    return a[0, 0] + a[1, 1]


def det2(a):
    """Determinant over the leading matrix axes."""
    return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]


def frobenius(a, b):
    """Frobenius inner product ``<a, b> = a_ij b_ij`` over the leading axes."""
    return np.einsum("ij...,ij...->...", a, b)


def cof2(f):
    """2D cofactor matrix, ``cof(F) = det(F) F^{-T}`` whenever F is invertible."""
    out = np.empty_like(np.asarray(f, dtype=float))
    out[0, 0] = f[1, 1]
    out[0, 1] = -f[1, 0]
    out[1, 0] = -f[0, 1]
    out[1, 1] = f[0, 0]
    return out


def _polar_rotation(f):
    """``(R, tr U)`` of ``F = R U``: ``R = (F + cof F) / tr U`` with
    ``tr(U)^2 = |F|^2 + 2 det F`` (positive det only)."""
    det = det2(f)
    if np.any(det <= DEGENERATE_DET):
        raise DegenerateDeformation(
            f"det(F) <= {DEGENERATE_DET:g} somewhere; polar factor undefined"
        )
    tru = np.sqrt(frobenius(f, f) + 2.0 * det)
    return (f + cof2(f)) / tru, tru


def polar2(f):
    """Closed-form planar polar decomposition ``F = R U``.

    Returns the rotation ``R = (F + cof F) / tr(U)`` and the symmetric
    positive-definite stretch ``U = R^T F``. Raises
    :class:`DegenerateDeformation` when ``det F <= 1e-12`` anywhere.
    """
    f = np.asarray(f, dtype=float)
    r, _ = _polar_rotation(f)
    u = mat_mul(transpose2(r), f)
    u = 0.5 * (u + transpose2(u))  # exact symmetry up to rounding
    return r, u


def dpolar2_dF(f):
    """Full fourth-order derivative ``T[i,j,k,l] = d polar(F)_ij / d F_kl``.

    ``T[i,j,k,l] = (delta_ik delta_jl - R[i,l] R[k,j]) / tr(U)``, so that
    ``einsum('ijkl...,kl...->ij...', T, E)`` is the directional derivative
    ``(E - R E^T R) / tr(U)``; at ``F = I`` it reduces to ``skew(E)``.
    """
    f = np.asarray(f, dtype=float)
    r, tru = _polar_rotation(f)
    eye = np.eye(2)
    delta = np.einsum("ik,jl->ijkl", eye, eye)
    delta = delta.reshape((2, 2, 2, 2) + (1,) * (f.ndim - 2))
    # In place: these 16 fields are the largest array of a gradient pass.
    t4 = np.einsum("il...,kj...->ijkl...", r, r)
    np.subtract(delta, t4, out=t4)
    t4 /= tru
    return t4
