"""Periodic grid calculus and field-state plumbing.

Derivative stencils are checked against analytic derivatives of smooth
periodic functions (with a second-order convergence assertion) and against
exact discrete identities: summation-by-parts adjointness, translation
equivariance, and commutation of the shifts.
"""

import os

import numpy as np
import numpy.testing as npt
import pytest

from conftest import reference_snapshot
from cosserat2d import fields, report, workers
from cosserat2d.algebra import mat_mul, rot2, transpose2
from cosserat2d.errors import ConfigError, NonFiniteState
from cosserat2d.fields import (
    FieldState,
    Grid,
    ddx,
    ddxx,
    ddy,
    ddyy,
    deformation_gradients,
    div_matrix,
    div_vector,
    grad_scalar,
    save_snapshot,
)
from cosserat2d.report import write_csv
from cosserat2d.rng import random_smooth_state


def curl2_matrix(m, grid):
    """Planar matrix curl ``(curl M)_i = d_x M_i1 - d_y M_i0``; the
    orientation matches ``EPS2`` (``eps_01 = +1``)."""
    return ddx(m[:, 1], grid) - ddy(m[:, 0], grid)


def require_finite(state):
    if not state.is_finite():
        raise NonFiniteState("field state contains non-finite values")


def smooth_field(grid):
    x, y = grid.coords()
    kx = 2.0 * np.pi / grid.lx
    ky = 2.0 * np.pi / grid.ly
    f = np.sin(2 * kx * x) * np.cos(ky * y)
    fx = 2 * kx * np.cos(2 * kx * x) * np.cos(ky * y)
    fy = -ky * np.sin(2 * kx * x) * np.sin(ky * y)
    fxx = -(2 * kx) ** 2 * f
    fyy = -(ky ** 2) * f
    return f, fx, fy, fxx, fyy


def max_err(a, b):
    return float(np.max(np.abs(a - b)))


def test_grid_validation_and_geometry():
    with pytest.raises(ConfigError):
        Grid(nx=3, ny=8)
    with pytest.raises(ConfigError):
        Grid(nx=8, ny=8, lx=-1.0)
    for lengths in ({"lx": np.inf}, {"ly": np.inf}):
        with pytest.raises(ConfigError, match="positive and finite"):
            Grid(nx=8, ny=8, **lengths)
    g = Grid(nx=8, ny=16, lx=2.0, ly=4.0)
    assert g.hx == 0.25 and g.hy == 0.25
    assert g.shape == (8, 16)
    npt.assert_allclose(g.cell_area, 0.0625)
    x, y = g.coords()
    assert x.shape == (8, 16)
    npt.assert_allclose(x[:, 0], np.arange(8) * 0.25)
    npt.assert_allclose(y[0, :], np.arange(16) * 0.25)


@pytest.mark.parametrize("n", [32, 64])
def test_stencils_converge_to_analytic_derivatives(n):
    grid = Grid(nx=n, ny=n, lx=2.0 * np.pi, ly=2.0 * np.pi)
    f, fx, fy, fxx, fyy = smooth_field(grid)
    # Second-order stencils: error ~ h^2 with an O(1) constant here.
    bound = 60.0 / n**2
    assert max_err(ddx(f, grid), fx) < bound
    assert max_err(ddy(f, grid), fy) < bound
    assert max_err(ddxx(f, grid), fxx) < 4.0 * bound
    assert max_err(ddyy(f, grid), fyy) < 4.0 * bound


def test_stencils_are_second_order():
    errors = []
    for n in (32, 64, 128):
        grid = Grid(nx=n, ny=n, lx=2.0 * np.pi, ly=2.0 * np.pi)
        f, fx, *_ = smooth_field(grid)
        errors.append(max_err(ddx(f, grid), fx))
    assert 3.5 < errors[0] / errors[1] < 4.5
    assert 3.5 < errors[1] / errors[2] < 4.5


#: Field shapes for the bitwise stencil checks: odd and even sides, a vector
#: field, a matrix field and a stack of 5x5 blocks.
STENCIL_SHAPES = [(4, 4), (5, 7), (2, 6, 5), (2, 2, 8, 9), (3, 5, 5)]


def stencil_inputs(shape, dtype):
    """A random field of ``shape`` and ``dtype``, and the same values in
    the strided view ``m[:, 0]`` of a ``(2, 2) + grid`` stack, as
    ``div_matrix`` passes them."""
    rng = np.random.default_rng(sum(shape))
    f = rng.standard_normal(shape)
    if dtype == complex:
        f = f + 1j * rng.standard_normal(shape)
    stack = np.zeros((2, 2) + shape[-2:], dtype=dtype)
    view = stack[:, 0]
    view[...] = f.reshape((-1,) + shape[-2:])[:2]
    return f, view


def rolled_central(f, axis, h):
    """The two-roll central difference; a complex field's parts each as
    their own real stencil (the parts are divided as real numbers)."""
    if np.iscomplexobj(f):
        out = np.empty_like(f)
        out.real = rolled_central(f.real, axis, h)
        out.imag = rolled_central(f.imag, axis, h)
        return out
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * h)


@pytest.mark.parametrize("shape", STENCIL_SHAPES)
def test_central_stencils_are_bitwise_the_rolled_form(shape):
    # One shifted pass over the grid rows, then the wrapped ends: the bits
    # of the two-roll formula on every node, real or complex, also written
    # into the rows of a larger array (as grad_scalar and
    # deformation_gradients pass them) and read from a view with a strided
    # leading axis.
    grid = Grid(nx=shape[-2], ny=shape[-1], lx=1.3, ly=0.7)
    for f in (*stencil_inputs(shape, float), *stencil_inputs(shape, complex)):
        for op, axis, h in ((ddx, -2, grid.hx), (ddy, -1, grid.hy)):
            rolled = rolled_central(f, axis, h)
            assert op(f, grid).tobytes() == rolled.tobytes()
            into = np.full((3,) + f.shape, np.nan, dtype=f.dtype)
            fields._central(f, axis, h, out=into[1])
            assert into[1].tobytes() == rolled.tobytes()
            assert np.isnan(into[[0, 2]]).all()


def test_central_stencil_refuses_an_out_whose_rows_are_apart():
    f = np.ones((4, 5))
    with pytest.raises(ValueError, match="grid rows one after another"):
        fields._central(f, -1, 0.1, out=np.empty((5, 4)).T)


@pytest.mark.parametrize("shape", STENCIL_SHAPES)
def test_second_difference_stencils_are_bitwise_the_rolled_form(shape):
    # ddxx and ddyy are the bits of (roll(-1) - 2 f) + roll(+1), over h^2,
    # real or complex, on a view with a strided leading axis as well.  An
    # integer field gives float64, the bits of its float copy.
    grid = Grid(nx=shape[-2], ny=shape[-1], lx=1.3, ly=0.7)
    integers = np.arange(np.prod(shape)).reshape(shape) % 7 - 3
    for f in (*stencil_inputs(shape, float), *stencil_inputs(shape, complex),
              integers):
        for op, axis, h in ((ddxx, -2, grid.hx), (ddyy, -1, grid.hy)):
            rolled = ((np.roll(f, -1, axis=axis) - 2.0 * f)
                      + np.roll(f, 1, axis=axis)) / h**2
            assert op(f, grid).tobytes() == rolled.tobytes()
    for op in (ddxx, ddyy):
        assert op(integers, grid).dtype == np.float64
        assert (op(integers, grid).tobytes()
                == op(integers.astype(float), grid).tobytes())


def test_complex_stencils_are_the_stencils_of_each_part():
    # The energy differentiates w = u1 + i u2 once per axis: each part of the
    # complex difference has the bits of the real difference of that part.
    rng = np.random.default_rng(23)
    grid = Grid(nx=9, ny=7, lx=1.3, ly=0.7)
    u1, u2 = rng.standard_normal((2,) + grid.shape)
    w = u1 + 1j * u2
    for op in (ddx, ddy):
        assert op(w, grid).real.tobytes() == op(u1, grid).tobytes()
        assert op(w, grid).imag.tobytes() == op(u2, grid).tobytes()


def test_summation_by_parts_adjointness():
    rng = np.random.default_rng(21)
    grid = Grid(nx=12, ny=10, lx=1.7, ly=0.9)
    for _ in range(5):
        f = rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape)
        for op in (ddx, ddy):
            lhs = float(np.sum(f * op(g, grid)))
            rhs = -float(np.sum(op(f, grid) * g))
            assert abs(lhs - rhs) < 1e-12 * np.sum(np.abs(f) * np.abs(g))


def test_translation_equivariance_is_exact():
    rng = np.random.default_rng(22)
    grid = Grid(nx=9, ny=7, lx=1.0, ly=1.0)
    f = rng.standard_normal(grid.shape)
    for op in (ddx, ddy, ddxx, ddyy):
        shifted = op(np.roll(f, (2, 3), axis=(0, 1)), grid)
        npt.assert_array_equal(shifted, np.roll(op(f, grid), (2, 3), axis=(0, 1)))


def test_mixed_derivatives_commute():
    # The shifts commute exactly; the two division orders differ only by
    # round-off of the 1/(2h) factors.
    rng = np.random.default_rng(23)
    grid = Grid(nx=9, ny=7, lx=1.3, ly=2.1)
    f = rng.standard_normal(grid.shape)
    npt.assert_allclose(ddx(ddy(f, grid), grid), ddy(ddx(f, grid), grid),
                        rtol=0, atol=1e-13)


def test_vector_and_matrix_operators_reduce_to_stencils():
    rng = np.random.default_rng(24)
    grid = Grid(nx=10, ny=8, lx=1.0, ly=2.0)
    f = rng.standard_normal(grid.shape)
    g = grad_scalar(f, grid)
    npt.assert_array_equal(g[0], ddx(f, grid))
    npt.assert_array_equal(g[1], ddy(f, grid))

    v = rng.standard_normal((2,) + grid.shape)
    npt.assert_array_equal(div_vector(v, grid),
                           ddx(v[0], grid) + ddy(v[1], grid))

    m = rng.standard_normal((2, 2) + grid.shape)
    d = div_matrix(m, grid)
    for i in range(2):
        npt.assert_array_equal(d[i], ddx(m[i, 0], grid) + ddy(m[i, 1], grid))

    c = curl2_matrix(m, grid)
    for i in range(2):
        npt.assert_array_equal(c[i], ddx(m[i, 1], grid) - ddy(m[i, 0], grid))


def test_rotation_curl_identity():
    # Continuum identity: R^T curl2(R) = -grad(theta); discretely it holds
    # to stencil accuracy for smooth angle fields.
    for n, bound in ((64, 2e-3), (128, 5e-4)):
        grid = Grid(nx=n, ny=n, lx=2.0 * np.pi, ly=2.0 * np.pi)
        x, y = grid.coords()
        theta = 0.3 * np.sin(x) * np.cos(y) + 0.1 * np.cos(2 * y)
        r = rot2(theta)
        lhs = np.einsum("ij...,i...->j...", r, curl2_matrix(r, grid))
        rhs = -grad_scalar(theta, grid)
        assert max_err(lhs, rhs) < bound


def test_deformation_gradients_componentwise():
    grid = Grid(nx=12, ny=12, lx=2.0 * np.pi, ly=2.0 * np.pi)
    state = random_smooth_state(grid, seed=5, amplitude=0.05, modes=2)
    f, fstar = deformation_gradients(state)

    npt.assert_array_equal(f[0, 0], 1.0 + ddx(state.u1, grid))
    npt.assert_array_equal(f[0, 1], ddy(state.u1, grid))
    npt.assert_array_equal(f[1, 0], ddx(state.u2, grid))
    npt.assert_array_equal(f[1, 1], 1.0 + ddy(state.u2, grid))

    # F* is the gradient of the quarter-turned displacement (u2, -u1).
    npt.assert_array_equal(fstar[0, 0], 1.0 + ddx(state.u2, grid))
    npt.assert_array_equal(fstar[0, 1], ddy(state.u2, grid))
    npt.assert_array_equal(fstar[1, 0], -ddx(state.u1, grid))
    npt.assert_array_equal(fstar[1, 1], 1.0 - ddy(state.u1, grid))


def test_field_state_copy_is_deep_and_finiteness_is_checked():
    grid = Grid(nx=6, ny=6)
    state = random_smooth_state(grid, seed=1, amplitude=0.1, modes=1)
    clone = state.copy()
    clone.u1[0, 0] += 1.0
    assert state.u1[0, 0] != clone.u1[0, 0]

    assert state.first_non_finite() is None
    state.v2[3, 3] = np.nan
    state.omega[0, 1] = np.inf
    assert not state.is_finite()
    assert state.first_non_finite() == "v2 at node (3, 3)"
    with pytest.raises(NonFiniteState):
        require_finite(state)


def test_snapshot_round_trip(tmp_path):
    grid = Grid(nx=4, ny=5, lx=1.0, ly=1.0)
    state = random_smooth_state(grid, seed=9, amplitude=0.3, modes=1)
    state.theta[1, 2] = -0.0
    path = tmp_path / "snap.csv"
    save_snapshot(state, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,x,y,u1,u2,theta,v1,v2,omega"
    assert len(lines) == 1 + grid.nx * grid.ny

    # Row order is i-major, j-minor; values restore exactly from %.17g.
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [
        (str(i), str(j)) for i in range(grid.nx) for j in range(grid.ny)]
    i, j = 2, 3
    row = rows[i * grid.ny + j]
    assert float(row[4]) == state.u1[i, j]
    assert float(row[9]) == state.omega[i, j]
    # negative zero prints as 0, like every other CSV number
    assert rows[1 * grid.ny + 2][6] == "0"


def state_with_specials(nx, ny):
    """A smooth state on an ``nx`` by ``ny`` grid with ``-0.0``, ``nan``,
    ``inf``, ``-inf`` and ``±1e±300`` spread over its first nodes."""
    grid = Grid(nx=nx, ny=ny, lx=2.5, ly=0.7)
    state = random_smooth_state(grid, seed=nx + ny, amplitude=0.3, modes=1)
    specials = (-0.0, np.nan, np.inf, -np.inf, 1e-300, 1e300, -1e-300,
                -1e300)
    for k, field in enumerate(state.field_arrays()):
        for m, value in enumerate(specials):
            field.flat[(k + 2 * m) % field.size] = value
    return state


@pytest.mark.parametrize("nx, ny", [(4, 4), (4, 5), (33, 36), (128, 128)])
def test_snapshot_matches_the_ten_column_reference(tmp_path, nx, ny):
    state = state_with_specials(nx, ny)
    save_snapshot(state, tmp_path / "snapshot.csv")
    reference_snapshot(state, tmp_path / "reference.csv")
    assert ((tmp_path / "snapshot.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


@pytest.mark.parametrize("nx, ny, heights", [
    (37, 20, (12, 12, 13)),
    (5, 16, (1, 1, 1, 1, 1)),
    (4, 5, (2, 2)),  # the specials fill most of the grid
])
@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_banded_snapshots_match_the_reference_and_an_inline_write(
        tmp_path, deadline, nx, ny, heights, cpus):
    # As many writers as bands and more, but never fewer: a run has at most
    # one band per usable CPU.  Three snapshots, so the bands go round the
    # ring.
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    state = state_with_specials(nx, ny)
    bounds = np.cumsum((0,) + heights).tolist()
    bands = list(zip(bounds, bounds[1:]))
    usable = list(range(max(cpus, len(bands))))
    paths = [tmp_path / f"snapshot_{k}.csv" for k in range(3)]
    with workers.snapshot_writer(state.grid, len(paths), bands,
                                 usable) as write:
        for path in paths:
            write(state, path)
    reference_snapshot(state, tmp_path / "reference.csv")
    save_snapshot(state, tmp_path / "inline.csv")
    reference = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "inline.csv").read_bytes() == reference
    for path in paths:
        assert path.read_bytes() == reference


def test_the_writers_share_the_formatter_tables_built_before_they_fork(
        tmp_path, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    state = state_with_specials(5, 16)
    report._tables.cache_clear()
    with workers.snapshot_writer(state.grid, 2, [(0, 2), (2, 5)],
                                 [0, 1]) as write:
        assert report._tables.cache_info().currsize == 1
        write(state, tmp_path / "snapshot.csv")
    reference_snapshot(state, tmp_path / "reference.csv")
    assert ((tmp_path / "snapshot.csv").read_bytes()
            == (tmp_path / "reference.csv").read_bytes())


@pytest.mark.parametrize("grid, cpus, bands", [
    # Two bands from 2 * 2**15 nodes on, one per usable CPU.
    (Grid(256, 256), 2, [(0, 128), (128, 256)]),
    (Grid(512, 128), 2, [(0, 256), (256, 512)]),
    (Grid(256, 255), 2, [(0, 256)]),
    (Grid(256, 256), 1, [(0, 256)]),
    (Grid(256, 256), 4, [(0, 128), (128, 256)]),
    (Grid(385, 512), 4, [(0, 96), (96, 192), (192, 288), (288, 385)]),
    # No band is empty.
    (Grid(4, 2**20), 8, [(0, 1), (1, 2), (2, 3), (3, 4)]),
])
def test_row_bands_follow_the_usable_cpus_and_the_grid_size(grid, cpus,
                                                            bands):
    assert workers.row_bands(grid, cpus) == bands


def test_write_csv_blocks_join_seamlessly(tmp_path, monkeypatch):
    # 20 rows over blocks of 7 (one float value a row): the last block is a
    # partial one
    rng = np.random.default_rng(11)
    floats = rng.standard_normal(20)
    floats[[3, 15]] = -0.0, np.nan
    columns = [np.arange(20), floats, [f"r{n}" for n in range(20)]]
    write_csv(tmp_path / "whole.csv", "n,value,name", columns)
    monkeypatch.setattr(report, "BLOCK_VALUES", 7)
    write_csv(tmp_path / "blocks.csv", "n,value,name", columns)
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == whole
    assert len(whole.splitlines()) == 21
    assert whole.splitlines()[4] == b"3,0,r3"


def test_write_grid_csv_blocks_join_seamlessly(tmp_path, monkeypatch):
    # 4 x 5 nodes over blocks of 7 (six float values a node): blocks end
    # inside a line of constant i, and the last block is a partial one
    grid = Grid(nx=4, ny=5, lx=1.0, ly=3.0)
    state = random_smooth_state(grid, seed=12, amplitude=0.3, modes=1)
    state.u1[1, 3], state.omega[2, 0] = -0.0, np.nan
    save_snapshot(state, tmp_path / "whole.csv")
    monkeypatch.setattr(report, "BLOCK_VALUES", 7 * 6)
    save_snapshot(state, tmp_path / "blocks.csv")
    whole = (tmp_path / "whole.csv").read_bytes()
    assert (tmp_path / "blocks.csv").read_bytes() == whole
    assert len(whole.splitlines()) == 1 + 20


def test_rotation_matrix_transpose_convention():
    # transpose2 really swaps the two leading matrix axes on stacked fields.
    rng = np.random.default_rng(30)
    m = rng.standard_normal((2, 2, 3, 4))
    t = transpose2(m)
    npt.assert_array_equal(t[0, 1], m[1, 0])
    npt.assert_array_equal(mat_mul(m, t)[0, 0],
                           m[0, 0] * t[0, 0] + m[0, 1] * t[1, 0])
