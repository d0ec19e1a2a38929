"""Shared helpers for the test suite (imported via pytest's rootdir path)."""

import os

import numpy as np
import pytest

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


def random_f_stack(rng, n=8, spread=0.4):
    """Deformation gradients near the identity (guaranteed invertible),
    stacked on a trailing sample axis: shape (2, 2, n)."""
    f = np.zeros((2, 2, n))
    f[0, 0] = 1.0
    f[1, 1] = 1.0
    return f + spread * (rng.random((2, 2, n)) - 0.5)


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
