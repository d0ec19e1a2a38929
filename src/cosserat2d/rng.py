"""Deterministic 64-bit generator and smooth random field construction.

The generator is the splitmix64 sequence, defined exactly by its recurrence
so any implementation reproduces the same doubles:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)
    double = (output >> 11) * 2^-53        # uniform in [0, 1)

:func:`random_smooth_state` documents its draw order: for each field in the
fixed order (u1, u2, theta, v1, v2, omega), for mx in 0..modes, for my in
-modes..modes, draw first the coefficient (uniform in [-1, 1)) then the
phase (uniform in [0, 2*pi)).  The draws are bit-exact on every platform.
The fields are the documented sum
``coeff * cos(2 pi (mx x / lx + my y / ly) + phase)`` to within a few ulps
of ``amplitude``: the cosine comes from the platform's libm, and the sum is
taken as a product of per-axis tables rather than node by node.  Repeated
calls with the same arguments give the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import FieldState, Grid

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; see the module docstring for the exact recurrence."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_double(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.next_double()


def random_smooth_state(grid: Grid, seed: int, amplitude: float,
                        modes: int = 3) -> FieldState:
    """Smooth periodic random state bounded by ``amplitude`` in every field.

    Each field is a cosine series over the grid-periodic wave vectors
    (mx, my) with mx in 0..modes, my in -modes..modes, with splitmix64
    coefficients and phases in the documented draw order, normalized by the
    number of summands so the field magnitude never exceeds ``amplitude``.

    The series is summed as one product of per-axis tables, from
    ``cos(a + b + phase) = cos a cos(b + phase) + sin a (-sin(b + phase))``
    with ``a = 2 pi mx x / lx`` and ``b = 2 pi my y / ly``: the x table
    stacks ``cos a`` over ``sin a``, the y table the matching columns, and
    the sum over their rows runs without a grid-sized temporary.  The six
    fields are allocated before the tables, so a grid too large for the
    machine fails at once with a :class:`MemoryError`.
    """
    fields = [np.empty(grid.shape) for _ in FieldState.FIELD_NAMES]
    rng = SplitMix64(seed)
    mx, my = np.array([(i, j) for i in range(0, modes + 1)
                       for j in range(-modes, modes + 1)], dtype=float).T
    draws = np.array([[(rng.next_uniform(-1.0, 1.0),
                        rng.next_uniform(0.0, 2.0 * math.pi)) for _ in mx]
                      for _ in FieldState.FIELD_NAMES])
    x, y = grid.axes()
    # One row per wave vector: a is (len(mx), nx) and b is (len(mx), ny).
    a = 2.0 * math.pi * mx[:, None] * x / grid.lx
    b = 2.0 * math.pi * my[:, None] * y / grid.ly
    table_x = np.concatenate([np.cos(a), np.sin(a)])
    for field, (coeff, phase) in zip(fields, draws.transpose(0, 2, 1)):
        shifted = b + phase[:, None]
        coeff = coeff[:, None]
        table_y = np.concatenate([coeff * np.cos(shifted),
                                  -coeff * np.sin(shifted)])
        # einsum, not matmul: its sums do not depend on the BLAS threads.
        np.einsum("mi,mj->ij", table_x, table_y, out=field)
        field *= amplitude
        field /= len(mx)
    return FieldState(grid=grid, **dict(zip(FieldState.FIELD_NAMES, fields)))
