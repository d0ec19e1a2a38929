"""Shared helpers for the test suite (imported via pytest's rootdir path)."""

import math
import os
import signal

import numpy as np
import pytest

from cosserat2d.algebra import (
    _polar_rotation,
    det2,
    frobenius,
    mat_mul,
    transpose2,
)
from cosserat2d.errors import NoRealBranch
from cosserat2d.fields import Grid
from cosserat2d.materials import MaterialParams


@pytest.fixture(autouse=True)
def no_unreaped_children():
    """Fail a test that leaves a finished child process nobody waited for
    (a snapshot writer, say)."""
    yield
    try:
        reaped = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    assert reaped == (0, 0), f"unreaped child process {reaped[0]}"


@pytest.fixture
def deadline():
    """Fail the test, instead of hanging it, if it runs for over 60 s (a
    snapshot writer that never answers, say)."""
    def expire(signum, frame):
        raise TimeoutError("test still running after its 60 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def reference_snapshot(state, path):
    """A snapshot as ten columns, one value per node in each:
    ``i,j,x,y,u1,u2,theta,v1,v2,omega``, formatted one value at a time with
    Python's ``"%d"`` and ``"%.17g"``, negative zero as ``0``."""
    grid = state.grid
    ints = [c.ravel().tolist() for c in np.indices(grid.shape)]
    floats = [c.ravel().tolist()
              for c in (*grid.coords(), *state.field_arrays())]
    lines = ["i,j,x,y,u1,u2,theta,v1,v2,omega\n"]
    for row in zip(*ints, *floats):
        lines.append(",".join(["%d" % n for n in row[:2]]
                              + ["%.17g" % (v + 0.0) for v in row[2:]])
                     + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def random_f_stack(rng, n=8, spread=0.4):
    """Deformation gradients near the identity (guaranteed invertible),
    stacked on a trailing sample axis: shape (2, 2, n)."""
    f = np.zeros((2, 2, n))
    f[0, 0] = 1.0
    f[1, 1] = 1.0
    return f + spread * (rng.random((2, 2, n)) - 0.5)


def dpolar_dir(f, e):
    """Directional derivative of ``polar(F)`` at ``F`` in direction ``E``:
    ``(E - R E^T R) / tr(U)``, with ``tr(U)^2 = |F|^2 + 2 det F``."""
    r, _ = _polar_rotation(f)
    tru = np.sqrt(frobenius(f, f) + 2.0 * det2(f))
    return (e - mat_mul(r, mat_mul(transpose2(e), r))) / tru


def random_material(rng, chiral=False, **overrides):
    """A valid random parameter set with order-one moduli."""
    kwargs = dict(
        mu=0.5 + rng.random(),
        lam=1.5 * rng.random(),
        mu_c=0.2 + rng.random(),
        L_c=0.05 + 0.2 * rng.random(),
        rho=0.5 + rng.random(),
        rho_rot=0.5 + rng.random(),
    )
    if chiral:
        kwargs.update(
            mu_s=rng.random() - 0.5,
            lam_s=rng.random() - 0.5,
            mu_c_s=rng.random() - 0.5,
            m1=rng.random() - 0.5,
            m2=rng.random() - 0.5,
            m3=rng.random() - 0.5,
        )
    kwargs.update(overrides)
    return MaterialParams(**kwargs)


def square_grid(n=16, length=2.0 * np.pi):
    return Grid(nx=n, ny=n, lx=length, ly=length)


def reference_wave_matrix(k, wp):
    """The wave stiffness ``K(k)`` (the wave matrix at ``omega = 0``), one
    wavenumber at a time with scalar arithmetic."""
    return np.array([
        [k**2 * (wp.lam + 2.0 * wp.mu), -wp.a * k**2, 2.0j * wp.a * k],
        [-wp.a * k**2, k**2 * (wp.mu + wp.mu_c), -2.0j * k * wp.mu_c],
        [-2.0j * wp.a * k, 2.0j * k * wp.mu_c,
         wp.gamma * k**2 + 4.0 * wp.mu_c + 4.0 * wp.a],
    ])


def reference_phase_normalize(z):
    """Rotate the global phase so u_hat, v_hat are real and phi_hat is
    imaginary, then make the first of u_hat.real, v_hat.real, phi_hat.imag
    above 1e-12 in size positive."""
    j = int(np.argmax(np.abs(z)))
    if abs(z[j]) == 0.0:
        return z
    if j < 2:
        factor = z[j] / abs(z[j])
    else:
        factor = z[2] / (1j * abs(z[2]))
    z = z / factor
    for lead in (z[0].real, z[1].real, z[2].imag):
        if abs(lead) > 1e-12:
            if lead < 0.0:
                z = -z
            break
    return z


def reference_branches(k, wp):
    """The branches at one wavenumber by a 3x3 eigenproblem of its own:
    ``[(omega, amplitudes)]`` by increasing omega, the rows that
    ``dispersion_sweep([k], wp)`` gives; with no branch, raises NoRealBranch
    with the message the sweep lists in ``missing``."""
    stiffness = reference_wave_matrix(k, wp)
    if not np.all(np.isfinite(stiffness)):
        raise NoRealBranch(
            f"wave matrix is not finite at k = {float(k)!r}")
    d_inv_sqrt = 1.0 / np.sqrt([wp.rho, wp.rho, wp.varrho_rot])
    scaled = d_inv_sqrt[:, None] * stiffness * d_inv_sqrt
    squared_frequencies, vectors = np.linalg.eigh(scaled)
    branches = []
    for x, y in zip(squared_frequencies, vectors.T):
        if x < 0.0:
            continue
        z = d_inv_sqrt * y
        branches.append((math.sqrt(x),
                         reference_phase_normalize(z / np.linalg.norm(z))))
    if not branches:
        raise NoRealBranch(
            f"wave matrix has no nonnegative squared frequency at k = "
            f"{float(k)!r}")
    return branches
