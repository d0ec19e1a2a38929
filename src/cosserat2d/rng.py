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
(uniform in [0, 2*pi)).
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


_FIELD_ORDER = ("u1", "u2", "theta", "v1", "v2", "omega")


def random_smooth_state(grid: Grid, seed: int, amplitude: float,
                        modes: int = 3) -> FieldState:
    """Smooth periodic random state bounded by ``amplitude`` in every field.

    Each field is a cosine series over the grid-periodic wave vectors
    (mx, my) with mx in 0..modes, my in -modes..modes, with splitmix64
    coefficients and phases in the documented draw order, normalized by the
    number of summands so the field magnitude never exceeds ``amplitude``.
    """
    rng = SplitMix64(seed)
    x, y = grid.axes()
    count = (modes + 1) * (2 * modes + 1)
    built = {}
    wave = np.empty(grid.shape)
    for name in _FIELD_ORDER:
        acc = np.zeros(grid.shape)
        for mx in range(0, modes + 1):
            for my in range(-modes, modes + 1):
                coeff = rng.next_uniform(-1.0, 1.0)
                phase = rng.next_uniform(0.0, 2.0 * math.pi)
                # coeff cos(2 pi (mx x / lx + my y / ly) + phase), in place
                np.add((mx * x / grid.lx)[:, None], my * y / grid.ly,
                       out=wave)
                wave *= 2.0 * math.pi
                wave += phase
                np.cos(wave, out=wave)
                wave *= coeff
                acc += wave
        acc *= amplitude
        acc /= count
        built[name] = acc
    return FieldState(grid=grid, **built)
