"""Bitwise oracles of the gradient checks of ``verify``.

The finite-difference rows take every perturbed energy of one term as one
stack of 5x5 blocks.  The reference below is the per-node loop: it moves
one unknown at one node of a copy of the whole grid, takes the whole grid's
densities and sums them on the 3x3 nodes around the node, one unknown, node
and sign at a time.  Every row must equal it bit for bit.

The conjugate tables of ``energy.analytic_variations`` are built in place;
``conftest.reference_analytic_variations`` sums whole 2x2 fields from
zeros.  Each term's gradient must equal it bit for bit, the sign of every
zero included.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from cosserat2d import energy
from cosserat2d.dynamics import FD_STEP, _fd_nodes, _fd_term_error
from cosserat2d.energy import (
    ALL_TERMS,
    DEFAULT_EPS_REG,
    _live_terms,
    analytic_variations,
)
from cosserat2d.fields import FieldState, Grid, grad_scalar
from cosserat2d.materials import ModelSelector
from cosserat2d.rng import random_smooth_state

from conftest import (
    random_material,
    reference_analytic_variations,
    reference_variation_conjugates,
)


def reference_fd_step(state, term, name, node):
    """The step at ``node``: 1e-6, or for the interaction's angle ``1e-4 h``
    times the smallest ``|grad theta|`` of the node's four neighbours on
    the whole grid (at least 1e-4), and at most 1e-6."""
    if term != "interaction" or name != "theta":
        return FD_STEP
    grid = state.grid
    g = grad_scalar(state.theta, grid)
    i, j = node
    rows = [(i - 1) % grid.nx, i, i, (i + 1) % grid.nx]
    cols = [j, (j - 1) % grid.ny, (j + 1) % grid.ny, j]
    gmin = float(np.min(np.sqrt(g[0][rows, cols] ** 2
                                + g[1][rows, cols] ** 2)))
    return min(FD_STEP, 1e-4 * min(grid.hx, grid.hy) * max(gmin, 1e-4))


def reference_window_total(state, p, term, node, eps_reg):
    """The total of ``term`` on the 3x3 nodes around ``node``: the whole
    grid's densities there, summed as one 3x3 array."""
    grid = state.grid
    i, j = node
    window = np.ix_(np.arange(i - 1, i + 2) % grid.nx,
                    np.arange(j - 1, j + 2) % grid.ny)
    k = energy._invariants(state, p, (term,), eps_reg)
    return float(sum(np.sum(d[window])
                     for _, d in energy.term_densities(k, p))) * grid.cell_area


def reference_fd_term_error(state, p, term, dv_du, dv_dth, eps_reg):
    """The finite-difference row of ``term``, one node at a time."""
    area = state.grid.cell_area
    nodes = _fd_nodes(state.grid)
    gradients = {"u1": dv_du[0], "u2": dv_du[1], "theta": dv_dth}
    scale = max(abs(g[node]) * area for g in gradients.values()
                for node in nodes)
    worst = noise = 0.0
    for name, gradient in gradients.items():
        probe = dataclasses.replace(state,
                                    **{name: getattr(state, name).copy()})
        moved = getattr(probe, name)
        for node in nodes:
            analytic = gradient[node]
            step = reference_fd_step(state, term, name, node)
            origin = moved[node]
            plus, minus = origin + step, origin - step
            if plus == minus:
                return math.inf
            width = plus - minus
            moved[node] = plus
            vp = reference_window_total(probe, p, term, node, eps_reg)
            moved[node] = minus
            vm = reference_window_total(probe, p, term, node, eps_reg)
            moved[node] = origin
            if not all(map(math.isfinite, (vp, vm, analytic * area))):
                return math.inf
            fd = (vp - vm) / width
            noise = max(noise, 64.0 * np.finfo(float).eps
                        * max(abs(vp), abs(vm)) / width)
            scale = max(scale, abs(fd))
            worst = max(worst, abs(analytic * area - fd))
    if scale <= noise:
        return 0.0
    return worst / scale


def _bits(value):
    return np.float64(value).tobytes()


MODELS = {
    "polar": (dict(chi=0.3), ModelSelector.nonchiral("polar")),
    "skew": (dict(chi=0.3), ModelSelector.nonchiral("skew")),
    "chiral": (dict(chiral=True), ModelSelector.chiral()),
}

# 12x9 with lx = 1.3: the blocks of the first and third nodes wrap on the
# x and y axes.  4x6: each block holds its node twice across the x axis.
FD_GRIDS = {
    "64x64": Grid(nx=64, ny=64),
    "12x9": Grid(nx=12, ny=9, lx=1.3),
    "4x6": Grid(nx=4, ny=6, lx=1.3, ly=0.9),
}


@pytest.mark.parametrize("grid", FD_GRIDS.values(), ids=FD_GRIDS.keys())
@pytest.mark.parametrize("model", MODELS)
def test_fd_rows_equal_the_per_node_loop(model, grid):
    kwargs, sel = MODELS[model]
    rng = np.random.default_rng(81)
    p = random_material(rng, **kwargs)
    state = random_smooth_state(grid, seed=16, amplitude=0.02, modes=3)
    for term in _live_terms(sel.active_terms(), p):
        gradient = analytic_variations(state, p, (term,))
        got = _fd_term_error(state, p, term, *gradient, DEFAULT_EPS_REG)
        want = reference_fd_term_error(state, p, term, *gradient,
                                       DEFAULT_EPS_REG)
        assert type(got) is float, term
        assert _bits(got) == _bits(want), (term, got, want)
        if grid.nx > 4:
            assert got < 1e-6, (term, got)


GRADIENT_GRIDS = {
    "64x64": Grid(nx=64, ny=64),
    "48x36": Grid(nx=48, ny=36, lx=1.3),
}


def _assert_same_gradient(state, p, terms, eps_reg=DEFAULT_EPS_REG):
    got = analytic_variations(state, p, terms, eps_reg)
    want = reference_analytic_variations(state, p, terms, eps_reg)
    for name, g, w in zip(("dV_du", "dV_dtheta"), got, want):
        assert g.shape == w.shape and g.dtype == w.dtype, (terms, name)
        assert g.tobytes() == w.tobytes(), (terms, name)


@pytest.mark.parametrize("grid", GRADIENT_GRIDS.values(),
                         ids=GRADIENT_GRIDS.keys())
def test_each_term_gradient_equals_the_whole_field_tables(grid):
    state = random_smooth_state(grid, seed=41, amplitude=0.03, modes=3)
    p = random_material(np.random.default_rng(82), chiral=True, chi=0.4)
    assert p.m3 != 0.0  # the mixing's skew part is summed too
    for terms in [(t,) for t in ALL_TERMS] + [ALL_TERMS]:
        _assert_same_gradient(state, p, terms)
        # The tables themselves, as values: each is None only where the
        # reference is zero everywhere.
        got = energy._variation_conjugates(state, p, terms, DEFAULT_EPS_REG)
        want = reference_variation_conjugates(state, p, terms,
                                              DEFAULT_EPS_REG)
        for name, g, w in zip("PYqR", got, want):
            if g is None:
                assert w is None or not np.any(w), (terms, name)
            else:
                np.testing.assert_array_equal(g, w, err_msg=f"{terms} {name}")


def test_gradients_keep_the_sign_of_every_zero():
    # Exact zeros in R, F or grad theta give the terms' own parts signed
    # zeros; summed from the first part instead of from zeros, every
    # gradient still has the reference's bits.
    grid = Grid(nx=16, ny=12, lx=1.3)
    base = random_smooth_state(grid, seed=43, amplitude=0.03, modes=2)
    zero = FieldState.zero(grid)
    states = (dataclasses.replace(base, theta=zero.theta),
              dataclasses.replace(base, u1=zero.u1, u2=zero.u2),
              dataclasses.replace(base, u1=-zero.u1, theta=-zero.theta),
              zero)
    rng = np.random.default_rng(83)
    for p in (random_material(rng, chiral=True, chi=0.4),
              random_material(rng, chiral=True, chi=-0.4)):
        for state in states:
            for eps_reg in (DEFAULT_EPS_REG, 0.0):
                for terms in [(t,) for t in ALL_TERMS] + [ALL_TERMS]:
                    _assert_same_gradient(state, p, terms, eps_reg)


#: tracemalloc's peak of one 128x128 gradient pass per term, in grid fields
#: (one 128x128 array of doubles), as measured with numpy 2.4.  Summed from
#: whole 2x2 scratch fields (the conftest tables), the passes peaked at 35,
#: 11.5, 31, 31, 34, 42 and 58 fields.
PEAK_FIELDS = {"elastic": 17.1, "curvature": 5.6, "interaction": 17.6,
               "coupling": 17.1, "coupling2": 16.1, "chiral_elastic": 20.1,
               "mixing": 25.1}


@pytest.mark.parametrize("term", ALL_TERMS)
def test_one_term_gradient_pass_peak(term):
    grid = Grid(nx=128, ny=128)
    state = random_smooth_state(grid, seed=31, amplitude=0.02, modes=3)
    p = random_material(np.random.default_rng(84), chiral=True, chi=0.3)
    tracemalloc.start()
    try:
        analytic_variations(state, p, (term,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * grid.nx * grid.ny) <= PEAK_FIELDS[term]
