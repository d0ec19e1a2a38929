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

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .report import write_grid_csv


@dataclass(frozen=True)
class Grid:
    """Uniform periodic rectangle with ``nx * ny`` nodes."""

    nx: int = 32
    ny: int = 32
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ConfigError(f"grid must be at least 4x4, got {self.nx}x{self.ny}")
        # The largest grid-sized array a command makes holds 32 bytes a
        # node, as a (2, 2, nx, ny) matrix field does.
        if 32 * self.nx * self.ny > np.iinfo(np.intp).max:
            raise ConfigError(f"grid.nx x grid.ny = {self.nx}x{self.ny} is "
                              f"too large for numpy to address its arrays")
        if not (0 < self.lx < np.inf and 0 < self.ly < np.inf):
            raise ConfigError("grid lengths must be positive and finite")

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


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with its two trailing (grid) axes viewed as one: node
    ``(i, j)`` at ``i * ny + j``.  A view whenever each grid row follows the
    last in memory, leading axes strided or not."""
    return a.reshape(a.shape[:-2] + (-1,))


def _node(axis: int, i: int) -> tuple:
    """Index of the nodes with index ``i`` along grid ``axis`` (-2 or -1)."""
    return (..., i, slice(None)) if axis == -2 else (..., i)


def _central(f: np.ndarray, axis: int, h: float,
             out: np.ndarray | None = None) -> np.ndarray:
    """``(f[i+1] - f[i-1]) / (2 h)`` along ``axis``, periodic wrap.

    One subtraction over the grid rows viewed as one axis (:func:`_rows`):
    a neighbour along ``axis`` is ``ny`` (x) or 1 (y) places away, and the
    two wrapped ends are then written along ``axis`` itself.  The result
    goes into one output (``out`` if given: a contiguous array, or rows of
    one, of ``f``'s shape that shares no memory with it), with no rolled
    copies of ``f``; the same subtraction and division at every node, so
    the bits of the rolled form.  A complex field's real and imaginary
    parts are divided as real numbers, so each has the bits of the stencil
    of that part alone.  Needs at least 3 nodes on ``axis``.
    """
    f = np.asarray(f)
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, 1.0))
    shift = f.shape[-1] if axis == -2 else 1
    src, dst = _rows(f), _rows(out)
    if not np.may_share_memory(dst, out):
        raise ValueError("out must hold its grid rows one after another")
    np.subtract(src[..., 2 * shift:], src[..., :-2 * shift],
                out=dst[..., shift:-shift])
    first, last = _node(axis, 0), _node(axis, -1)
    np.subtract(f[_node(axis, 1)], f[last], out=out[first])
    np.subtract(f[first], f[_node(axis, -2)], out=out[last])
    parts = out.view(out.real.dtype)
    parts /= 2.0 * h
    return out


def ddx(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central x-derivative on the second-to-last axis, periodic wrap."""
    return _central(f, -2, grid.hx)


def ddy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Central y-derivative on the last axis, periodic wrap."""
    return _central(f, -1, grid.hy)


def _second(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """``((f[i+1] - 2 f[i]) + f[i-1]) / h^2`` along ``axis``, periodic wrap."""
    f = np.asarray(f)
    out = np.roll(f, -1, axis).astype(np.result_type(f, 1.0), copy=False)
    out -= 2.0 * f
    out += np.roll(f, 1, axis)
    out /= h**2
    return out


def ddxx(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second x-derivative, periodic wrap."""
    return _second(f, -2, grid.hx)


def ddyy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Three-point second y-derivative, periodic wrap."""
    return _second(f, -1, grid.hy)


def node_window(grid: Grid, nodes):
    """Index of the 5x5 block of nodes centred on each of ``nodes``, wrapped
    periodically: ``f[node_window(grid, nodes)]`` has shape ``(m, 5, 5)``
    for ``m`` nodes (``(i, j)`` pairs), and ``(5, 5)`` for one pair."""
    i, j = np.asarray(nodes).T
    offsets = np.arange(-2, 3)
    return (((i[..., None] + offsets) % grid.nx)[..., :, None],
            ((j[..., None] + offsets) % grid.ny)[..., None, :])


def grad_scalar(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Gradient of a scalar field, shape ``(2, nx, ny)``."""
    f = np.asarray(f)
    g = np.empty((2,) + f.shape, dtype=np.result_type(f, 1.0))
    _central(f, -2, grid.hx, out=g[0])
    _central(f, -1, grid.hy, out=g[1])
    return g


def div_vector(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a vector field, shape ``(nx, ny)``."""
    return ddx(v[0], grid) + ddy(v[1], grid)


def div_matrix(m: np.ndarray, grid: Grid) -> np.ndarray:
    """Row-wise matrix divergence ``(div M)_i = d_x M_i0 + d_y M_i1``."""
    out = ddx(m[:, 0], grid)
    out += ddy(m[:, 1], grid)
    return out


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

    #: The names of :meth:`field_arrays`, in order.
    FIELD_NAMES = ("u1", "u2", "theta", "v1", "v2", "omega")

    def field_arrays(self):
        return (self.u1, self.u2, self.theta, self.v1, self.v2, self.omega)

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self.field_arrays())

    def first_non_finite(self) -> str | None:
        """``"<field> at node (i, j)"`` for the first non-finite value, in
        :meth:`field_arrays` order and then node order; ``None`` if none."""
        for name, a in zip(self.FIELD_NAMES, self.field_arrays()):
            bad = np.flatnonzero(~np.isfinite(a))
            if bad.size:
                node = np.unravel_index(bad[0], a.shape)
                return f"{name} at node {tuple(int(i) for i in node)}"
        return None


def deformation_gradients(state: FieldState, star: bool = True):
    """Deformation gradients ``F = I + grad u`` and ``F* = I + grad u*``
    (``None`` unless ``star``).

    ``u* = (u2, -u1)`` is the quarter-turned displacement, so the rows of
    ``grad u*`` are (row 2 of ``grad u``, minus row 1 of ``grad u``).
    """
    grid = state.grid
    f = np.empty((2, 2) + np.shape(state.u1))
    for row, u in enumerate((state.u1, state.u2)):
        _central(u, -2, grid.hx, out=f[row, 0])
        _central(u, -1, grid.hy, out=f[row, 1])
    fstar = None
    if star:
        fstar = np.empty_like(f)
        fstar[0] = f[1]
        np.negative(f[0], out=fstar[1])
        fstar[0, 0] += 1.0
        fstar[1, 1] += 1.0
    f[0, 0] += 1.0
    f[1, 1] += 1.0
    return f, fstar


#: The header line of a snapshot.
_SNAPSHOT_HEADER = "i,j,x,y," + ",".join(FieldState.FIELD_NAMES)


def save_snapshot(state: FieldState, path) -> None:
    """Write one CSV row per node: ``i,j,x,y,u1,u2,theta,v1,v2,omega``."""
    write_grid_csv(path, _SNAPSHOT_HEADER, *state.grid.axes(),
                   state.field_arrays())
