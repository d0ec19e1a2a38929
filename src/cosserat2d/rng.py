"""Deterministic 64-bit generator and smooth random field construction.

The generator is the splitmix64 sequence, defined exactly by its recurrence
so any implementation reproduces the same doubles:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)
    double = (output >> 11) * 2^-53        # uniform in [0, 1)

:func:`random_smooth_state` documents its draw order so fields are
bit-reproducible across languages: for each field in the fixed order
(u1, u2, theta, v1, v2, omega), for mx in 0..modes, for my in -modes..modes,
draw first the coefficient (uniform in [-1, 1)) then the phase
(uniform in [0, 2*pi)).  All draws are made before any field is summed, so
the order is unchanged.  The cosine of a mode is evaluated once per distinct
argument rather than once per node; the values are bitwise equal to the
per-node evaluation ``coeff * cos(2 pi (mx x / lx + my y / ly) + phase)``
summed in mode order.
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


def _argument_table(grid: Grid, mx: int, my: int, arg: np.ndarray):
    """The distinct arguments of wave vector ``(mx, my)``, one per key.

    With ``g = gcd(nx, ny)``, node ``(i, j)`` has the integer key
    ``a i + b j``, ``a = mx ny / g``, ``b = my nx / g``; nodes with equal
    keys have equal exact arguments ``2 pi (mx i / nx + my j / ny)``.
    Returns ``(table, nodes)``: ``table`` holds the computed argument ``arg``
    of one node of each key (0 for a key no node has), and ``nodes(values)``
    is the strided ``(nx, ny)`` view of a table-shaped array that shows each
    node its key's entry.  When the keys span more entries than there are
    nodes (coprime ``nx``, ``ny``), the key is the node's own index.
    """
    nx, ny = grid.shape
    g = math.gcd(nx, ny)
    a, b = mx * (ny // g), my * (nx // g)
    span = a * (nx - 1) + abs(b) * (ny - 1) + 1
    if span > nx * ny:
        a, b, span = ny, 1, nx * ny
    origin = max(-b, 0) * (ny - 1)  # the entry of node (0, 0)

    def nodes(values: np.ndarray) -> np.ndarray:
        size = values.itemsize
        return np.ndarray(grid.shape, buffer=values, offset=origin * size,
                          strides=(a * size, b * size))

    table = np.zeros(span)
    # Nodes sharing an entry all write it; one of their arguments is kept.
    nodes(table)[...] = arg
    return table, nodes


def random_smooth_state(grid: Grid, seed: int, amplitude: float,
                        modes: int = 3) -> FieldState:
    """Smooth periodic random state bounded by ``amplitude`` in every field.

    Each field is a cosine series over the grid-periodic wave vectors
    (mx, my) with mx in 0..modes, my in -modes..modes, with splitmix64
    coefficients and phases in the documented draw order, normalized by the
    number of summands so the field magnitude never exceeds ``amplitude``.

    Every node gets ``coeff cos(2 pi (mx x / lx + my y / ly) + phase)`` of
    its own argument, summed in mode order, but the cosine is taken once
    per distinct argument of a mode (:func:`_argument_table`); a node whose
    rounded argument differs from its key's entry takes its own cosine.
    """
    rng = SplitMix64(seed)
    wave_vectors = [(mx, my) for mx in range(0, modes + 1)
                    for my in range(-modes, modes + 1)]
    draws = [[(rng.next_uniform(-1.0, 1.0), rng.next_uniform(0.0, 2.0 * math.pi))
              for _ in wave_vectors] for _ in FieldState.FIELD_NAMES]
    x, y = grid.axes()
    fields = [np.zeros(grid.shape) for _ in FieldState.FIELD_NAMES]
    arg = np.empty(grid.shape)
    for m, (mx, my) in enumerate(wave_vectors):
        # 2 pi (mx x / lx + my y / ly), shared by the six fields
        np.add((mx * x / grid.lx)[:, None], my * y / grid.ly, out=arg)
        arg *= 2.0 * math.pi
        table, nodes = _argument_table(grid, mx, my, arg)
        # Nodes whose rounded argument is not their key's entry
        # (non-dyadic spacing) take the cosine of their own argument.
        own = np.flatnonzero(nodes(table) != arg)
        own_arg = arg.ravel()[own]
        for acc, field_draws in zip(fields, draws):
            coeff, phase = field_draws[m]
            values = table + phase
            np.cos(values, out=values)
            values *= coeff
            term = nodes(values)
            if own.size:
                term = term.copy()
                term.ravel()[own] = coeff * np.cos(own_arg + phase)
            acc += term
    for acc in fields:
        acc *= amplitude
        acc /= len(wave_vectors)
    return FieldState(grid=grid, **dict(zip(FieldState.FIELD_NAMES, fields)))
