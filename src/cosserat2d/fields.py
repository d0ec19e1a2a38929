"""Periodic uniform-grid fields and second-order central-difference operators.

Scalar fields are arrays of shape ``(nx, ny)``; vector and matrix fields put
their component axes FIRST (``(2, nx, ny)`` / ``(2, 2, nx, ny)``) so the
:mod:`cosserat2d.algebra` kernels broadcast over the grid. All derivative
operators act on the two trailing axes and wrap periodically, which makes the
discrete summation-by-parts identity

    sum(<M, grad w>) * cell_area == -sum(div(M) . w) * cell_area

exact to rounding — the variational checks in :mod:`cosserat2d.energy` and
:mod:`cosserat2d.dynamics` rely on that exactness.
"""

from __future__ import annotations

import os
import signal
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IoError
from .report import write_csv


@dataclass(frozen=True)
class Grid:
    """Uniform periodic rectangle with ``nx * ny`` nodes."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ConfigError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        if not (self.lx > 0 and self.ly > 0):
            raise ConfigError("grid lengths must be positive")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def axes(self):
        """Node coordinates along each axis: ``x[i]`` and ``y[j]``."""
        return np.arange(self.nx) * self.hx, np.arange(self.ny) * self.hy

    def coords(self):
        """Node coordinate arrays ``x[i, j], y[i, j]``."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)


def ddx(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central x-derivative on the second-to-last axis, periodic wrap."""
    return (np.roll(f, -1, axis=-2) - np.roll(f, 1, axis=-2)) / (2.0 * grid.hx)


def ddy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central y-derivative on the last axis, periodic wrap."""
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * grid.hy)


def ddxx(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second x-derivative, periodic wrap."""
    return (np.roll(f, -1, axis=-2) - 2.0 * f + np.roll(f, 1, axis=-2)) / grid.hx**2


def ddyy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second y-derivative, periodic wrap."""
    return (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / grid.hy**2


def node_window(grid: Grid, node: tuple[int, int], radius: int = 1):
    """Index of the ``(2 radius + 1)``-square block of nodes centred on
    ``node``, wrapped periodically: ``f[node_window(grid, node)]``."""
    i, j = node
    return np.ix_(np.arange(i - radius, i + radius + 1) % grid.nx,
                  np.arange(j - radius, j + radius + 1) % grid.ny)


def grad_scalar(f: np.ndarray, grid: Grid, node=None) -> np.ndarray:
    """Gradient of a scalar field, shape ``(2, nx, ny)``.

    With ``node``, only on the 3x3 nodes around it, shape ``(2, 3, 3)``:
    the same stencil on the 5x5 block around ``node`` (its wrap spoils only
    the block's outer ring, which is dropped), so each value has the bits
    of the full-grid gradient at its node.
    """
    if node is not None:
        return grad_scalar(f[node_window(grid, node, 2)], grid)[:, 1:-1, 1:-1]
    return np.stack([ddx(f, grid), ddy(f, grid)])


def div_vector(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a vector field, shape ``(nx, ny)``."""
    return ddx(v[0], grid) + ddy(v[1], grid)


def div_matrix(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Row-wise matrix divergence ``(div M)_i = d_x M_i0 + d_y M_i1``."""
    return ddx(m[:, 0], grid) + ddy(m[:, 1], grid)


@dataclass
class FieldState:
    """Displacements, microrotation angle, and their time derivatives."""

    grid: Grid
    u1: np.ndarray
    u2: np.ndarray
    theta: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    omega: np.ndarray

    @classmethod
    def zero(cls, grid: Grid) -> "FieldState":
        return cls(grid, *(grid.zeros() for _ in range(6)))

    def copy(self) -> "FieldState":
        return FieldState(
            self.grid,
            self.u1.copy(), self.u2.copy(), self.theta.copy(),
            self.v1.copy(), self.v2.copy(), self.omega.copy(),
        )

    def field_arrays(self):
        return (self.u1, self.u2, self.theta, self.v1, self.v2, self.omega)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.field_arrays())


def deformation_gradients(state: FieldState, node=None, star: bool = True):
    """Deformation gradients ``F = I + grad u`` and ``F* = I + grad u*``
    (``None`` unless ``star``).

    ``u* = (u2, -u1)`` is the quarter-turned displacement, so the rows of
    ``grad u*`` are (row 2 of ``grad u``, minus row 1 of ``grad u``).  With
    ``node``, only on the 3x3 nodes around it (see :func:`grad_scalar`).
    """
    grid = state.grid
    g1 = grad_scalar(state.u1, grid, node)
    g2 = grad_scalar(state.u2, grid, node)
    f = np.stack([g1, g2])
    f[0, 0] += 1.0
    f[1, 1] += 1.0
    fstar = None
    if star:
        fstar = np.empty_like(f)
        fstar[0] = g2
        np.negative(g1, out=fstar[1])
        fstar[0, 0] += 1.0
        fstar[1, 1] += 1.0
    return f, fstar


def save_snapshot(state: FieldState, path) -> None:
    """Write one CSV row per node: ``i,j,x,y,u1,u2,theta,v1,v2,omega``."""
    grid = state.grid
    i, j = np.indices(grid.shape)
    columns = (i, j, *grid.coords(), *state.field_arrays())
    write_csv(path, "i,j,x,y,u1,u2,theta,v1,v2,omega",
              [c.ravel() for c in columns])


@contextmanager
def snapshot_writer():
    """Yield ``write(state, path)``, which saves a snapshot in a forked child
    while the caller goes on.

    At most one child per usable CPU is in flight; past that, ``write`` first
    waits for the oldest.  Leaving the block waits for every child.  The
    first child that failed, in write order, is raised as the
    :class:`IoError` of its ``save_snapshot``.  A child sees the state as it
    was at the fork, so nothing is copied.  Without ``os.fork``, ``write`` is
    ``save_snapshot`` itself.
    """
    if not hasattr(os, "fork"):
        yield save_snapshot
        return
    try:
        limit = len(os.sched_getaffinity(0))
    except AttributeError:
        limit = os.cpu_count() or 1
    pending = deque()  # (pid, read end of the child's error pipe, path)

    def wait_oldest() -> str:
        """Reap the oldest child; return its error message, or ``""``."""
        pid, read_fd, path = pending.popleft()
        with os.fdopen(read_fd, "rb") as pipe:
            message = pipe.read().decode("utf-8", "replace")
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code != 0 and not message:
            message = f"cannot write {path!r}: writer exited with {code}"
        return message

    def write(state, path) -> None:
        while len(pending) >= limit:
            message = wait_oldest()
            if message:
                while pending:  # later writes cannot outrank this failure
                    wait_oldest()
                raise IoError(message)
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError as exc:
            os.close(read_fd)
            os.close(write_fd)
            raise IoError(f"cannot start a writer for {path!r}: {exc}") from exc
        if pid == 0:
            status = 1
            try:
                # An interrupt stops the stepping, not a half-written file.
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                os.close(read_fd)
                save_snapshot(state, path)
                status = 0
            except IoError as exc:
                os.write(write_fd, str(exc).encode("utf-8"))
            finally:
                os._exit(status)
        os.close(write_fd)
        pending.append((pid, read_fd, path))

    try:
        yield write
    finally:
        # A failed write still pending came before whatever ended the block.
        messages = [wait_oldest() for _ in range(len(pending))]
        message = next(filter(None, messages), "")
        if message:
            raise IoError(message)
