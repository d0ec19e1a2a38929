"""Shared helpers for the test suite (imported via pytest's rootdir path)."""

import math
import os
import signal

import numpy as np
import pytest

from cosserat2d.algebra import (
    EPS2,
    _polar_rotation,
    det2,
    frobenius,
    mat_mul,
    rot2,
    trace2,
    transpose2,
)
from cosserat2d.energy import _live_terms, _reg_norm
from cosserat2d.errors import NoRealBranch
from cosserat2d.fields import (
    Grid,
    deformation_gradients,
    div_matrix,
    div_vector,
    grad_scalar,
)
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


@pytest.fixture(autouse=True)
def same_cpus():
    """Give the test process back the CPUs it may run on after each test: a
    snapshot pool opened under a faked set of usable CPUs hands back the
    fake set."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


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


def set_usable_cpus(monkeypatch, cpus):
    """Make the test process see the CPUs ``0`` to ``cpus - 1`` as usable."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)


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


def identity2(template):
    """Identity matrix broadcast to the trailing shape of ``template``."""
    eye = np.zeros_like(np.asarray(template, dtype=float))
    eye[0, 0] = 1.0
    eye[1, 1] = 1.0
    return eye


def _sym_minus_eye(x):
    return 0.5 * (x + transpose2(x)) - identity2(x)


def _trace_eye(c, x):
    """c (tr x - 2) I, the conjugate of c/2 (tr x - 2)^2 to x."""
    return c * (trace2(x) - 2.0) * identity2(x)


def reference_variation_conjugates(state, p, terms, eps_reg):
    """Conjugates ``(P, Y, q)`` (to F, to R, to grad theta) of ``terms`` and
    the ``R`` they were built with, each matrix a sum of whole 2x2 fields
    from zeros: the bitwise oracle of ``energy._variation_conjugates``.
    ``Y`` and ``R`` are ``None`` when no live term reads ``R``."""
    need = _live_terms(terms, p)
    f = fstar = r = x = xs = g = None
    if need != ("curvature",):
        f, fstar = deformation_gradients(
            state, star=bool({"chiral_elastic", "mixing"} & set(need)))
        r = rot2(state.theta)
        if {"elastic", "interaction", "coupling2", "mixing"} & set(need):
            x = mat_mul(transpose2(r), f)
        if fstar is not None:
            xs = mat_mul(transpose2(r), fstar)
    if {"curvature", "interaction"} & set(need):
        g = grad_scalar(state.theta, state.grid)
    grid = state.grid

    p_conj = np.zeros((2, 2) + grid.shape)
    y_conj = None if r is None else np.zeros_like(r)
    q_conj = np.zeros((2,) + grid.shape)

    def stretch_conjugates(fmat, w):
        return mat_mul(r, w), mat_mul(fmat, transpose2(w))

    if "elastic" in need:
        w = 2.0 * p.mu * _sym_minus_eye(x) + _trace_eye(p.lam, x)
        dp, dy = stretch_conjugates(f, w)
        p_conj += dp
        y_conj += dy
    if "coupling2" in need:
        w = p.mu_c * (x - transpose2(x))
        dp, dy = stretch_conjugates(f, w)
        p_conj += dp
        y_conj += dy
    if "chiral_elastic" in need:
        w = (2.0 * p.mu_s * _sym_minus_eye(xs) + _trace_eye(p.lam_s, xs)
             + p.mu_c_s * (xs - transpose2(xs)))
        dp, dy = stretch_conjugates(fstar, w)
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
        n, s = _reg_norm(g, eps_reg)
        p_conj += c * n * r
        y_conj += c * n * f
        q_conj += c * trace2(x) * g / s
    if "curvature" in need:
        q_conj += 2.0 * p.mu * p.L_c**2 * g
    if "coupling" in need:
        polar_r, tru = _polar_rotation(f)
        y_conj += -2.0 * p.mu_c * polar_r
        p_conj += (-2.0 * p.mu_c) * (
            r - mat_mul(polar_r, mat_mul(transpose2(r), polar_r))) / tru
    return p_conj, y_conj, q_conj, r


def reference_analytic_variations(state, p, terms, eps_reg):
    """``(dV_du, dV_dtheta)`` from :func:`reference_variation_conjugates`,
    as ``energy.analytic_variations`` returns them."""
    grid = state.grid
    p_conj, y_conj, q_conj, r = reference_variation_conjugates(
        state, p, terms, eps_reg)
    dv_du = -div_matrix(p_conj, grid)
    if r is None:
        return dv_du, -div_vector(q_conj, grid)
    minus_eps_r = -np.einsum("ij,jk...->ik...", EPS2, r)
    return dv_du, (frobenius(y_conj, minus_eps_r)
                   - div_vector(q_conj, grid))


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
    k2 = k * k
    return np.array([
        [k2 * (wp.lam + 2.0 * wp.mu), -wp.a * k2, 2.0j * wp.a * k],
        [-wp.a * k2, k2 * (wp.mu + wp.mu_c), -2.0j * k * wp.mu_c],
        [-2.0j * wp.a * k, 2.0j * k * wp.mu_c,
         wp.gamma * k2 + 4.0 * wp.mu_c + 4.0 * wp.a],
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
                         reference_phase_normalize(
                             z / np.linalg.norm(z[None], axis=-1))))
    if not branches:
        raise NoRealBranch(
            f"wave matrix has no nonnegative squared frequency at k = "
            f"{float(k)!r}")
    return branches
