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
    r = np.empty((2, 2) + theta.shape)
    np.cos(theta, out=r[0, 0, ...])
    np.sin(theta, out=r[1, 0, ...])
    np.negative(r[1, 0], out=r[0, 1, ...])
    r[1, 1] = r[0, 0]
    return r


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


def check_polar_det(det, nodes=None):
    """Raise :class:`DegenerateDeformation` where ``det F`` (``det``, one
    value per node) is at or below :data:`DEGENERATE_DET`, naming the node
    with the smallest determinant: the polar factor is undefined there.

    The node is the index into ``det``, or with ``nodes`` (index arrays of
    ``det``'s shape, one per grid axis) the grid node those give it.
    """
    if np.any(det <= DEGENERATE_DET):
        at = np.unravel_index(np.nanargmin(det), np.shape(det))
        node = at if nodes is None else tuple(n[at] for n in nodes)
        where = f" at node {tuple(int(i) for i in node)}" if node else ""
        raise DegenerateDeformation(
            f"det(F) <= {DEGENERATE_DET:g}{where} "
            f"(det F = {float(det[at]):.6g}); polar factor undefined")


def _polar_rotation(f):
    """``(R, tr U)`` of ``F = R U``: ``R = (F + cof F) / tr U`` with
    ``tr(U)^2 = |F|^2 + 2 det F`` (positive det only)."""
    det = det2(f)
    check_polar_det(det)
    det *= 2.0
    tru = frobenius(f, f)
    tru += det
    del det
    tru = np.sqrt(tru)
    r = cof2(f)
    r += f
    r /= tru
    return r, tru
