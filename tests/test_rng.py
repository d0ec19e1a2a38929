"""Deterministic generator: canonical splitmix64 vectors, double conversion,
and the documented draw order of the smooth random fields."""

import math
import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

import cosserat2d
from cosserat2d.fields import Grid
from cosserat2d.rng import SplitMix64, random_smooth_state

FIELD_NAMES = ("u1", "u2", "theta", "v1", "v2", "omega")


def test_seed_zero_canonical_vectors():
    # First outputs of the published splitmix64 sequence for seed 0.
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_seed_is_reduced_modulo_2_to_64():
    a = SplitMix64(5)
    b = SplitMix64((1 << 64) + 5)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


def test_streams_are_deterministic_and_seed_sensitive():
    a = [SplitMix64(42).next_u64() for _ in range(8)]
    b = [SplitMix64(42).next_u64() for _ in range(8)]
    c_gen = SplitMix64(43)
    c = [c_gen.next_u64() for _ in range(8)]
    assert a == b
    assert a != c


def test_next_double_bounds_granularity_and_mean():
    g = SplitMix64(7)
    draws = [g.next_double() for _ in range(4000)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # exactly 53 random bits: scaling by 2^53 recovers an integer
    assert all(float(d * 2.0**53).is_integer() for d in draws[:200])
    assert abs(sum(draws) / len(draws) - 0.5) < 0.03


def test_next_uniform_covers_the_interval():
    g = SplitMix64(11)
    draws = [g.next_uniform(-2.0, 3.0) for _ in range(2000)]
    assert all(-2.0 <= d < 3.0 for d in draws)
    assert min(draws) < -1.8 and max(draws) > 2.8


def test_smooth_state_is_deterministic():
    grid = Grid(nx=10, ny=8, lx=2.0, ly=1.0)
    s1 = random_smooth_state(grid, seed=3, amplitude=0.1, modes=2)
    s2 = random_smooth_state(grid, seed=3, amplitude=0.1, modes=2)
    s3 = random_smooth_state(grid, seed=4, amplitude=0.1, modes=2)
    for name in FIELD_NAMES:
        npt.assert_array_equal(getattr(s1, name), getattr(s2, name))
    assert np.max(np.abs(s1.u1 - s3.u1)) > 0.0


def test_smooth_state_respects_amplitude_bound():
    grid = Grid(nx=16, ny=16)
    for seed in (0, 1, 17):
        state = random_smooth_state(grid, seed=seed, amplitude=0.25, modes=3)
        for name in FIELD_NAMES:
            assert np.max(np.abs(getattr(state, name))) <= 0.25 * (1 + 1e-15)


def test_smooth_state_zero_modes_gives_constant_fields():
    grid = Grid(nx=9, ny=7)
    state = random_smooth_state(grid, seed=5, amplitude=0.3, modes=0)
    for name in FIELD_NAMES:
        f = getattr(state, name)
        assert np.ptp(f) == 0.0
        assert np.abs(f[0, 0]) <= 0.3


def test_smooth_state_matches_documented_draw_order():
    # Replay the documented recurrence and draw order with plain scalars and
    # compare at a few nodes; doubles are bit-exact, the cosine evaluation is
    # allowed one ulp of libm slack.
    grid = Grid(nx=8, ny=6, lx=2.0, ly=1.5)
    amplitude, modes, seed = 0.2, 2, 99
    state = random_smooth_state(grid, seed=seed, amplitude=amplitude,
                                modes=modes)
    rng = SplitMix64(seed)
    count = (modes + 1) * (2 * modes + 1)
    x, y = grid.coords()
    nodes = [(0, 0), (3, 4), (7, 5)]
    for name in FIELD_NAMES:
        coeffs = [(rng.next_uniform(-1.0, 1.0),
                   rng.next_uniform(0.0, 2.0 * math.pi))
                  for mx in range(0, modes + 1)
                  for my in range(-modes, modes + 1)]
        for i, j in nodes:
            acc = 0.0
            pair = iter(coeffs)
            for mx in range(0, modes + 1):
                for my in range(-modes, modes + 1):
                    coeff, phase = next(pair)
                    acc += coeff * math.cos(
                        2.0 * math.pi * (mx * float(x[i, j]) / grid.lx
                                         + my * float(y[i, j]) / grid.ly)
                        + phase)
            expected = amplitude * acc / count
            npt.assert_allclose(getattr(state, name)[i, j], expected,
                                rtol=1e-13, atol=1e-300)


def per_node_smooth_state(grid, seed, amplitude, modes):
    """The smooth state with the cosine taken at every node: for each field
    and mode in draw order, ``coeff * cos(2 pi (mx x / lx + my y / ly) +
    phase)`` of the whole grid added to the field."""
    rng = SplitMix64(seed)
    x, y = grid.axes()
    count = (modes + 1) * (2 * modes + 1)
    fields = []
    wave = np.empty(grid.shape)
    for _ in FIELD_NAMES:
        acc = np.zeros(grid.shape)
        for mx in range(0, modes + 1):
            for my in range(-modes, modes + 1):
                coeff = rng.next_uniform(-1.0, 1.0)
                phase = rng.next_uniform(0.0, 2.0 * math.pi)
                np.add((mx * x / grid.lx)[:, None], my * y / grid.ly,
                       out=wave)
                wave *= 2.0 * math.pi
                wave += phase
                np.cos(wave, out=wave)
                wave *= coeff
                acc += wave
        acc *= amplitude
        acc /= count
        fields.append(acc)
    return fields


@pytest.mark.parametrize("grid", [
    Grid(nx=256, ny=256),
    Grid(nx=32, ny=32),
    # non-dyadic spacing
    Grid(nx=100, ny=100),
    Grid(nx=64, ny=48, ly=0.75),
    # coprime sides
    Grid(nx=37, ny=53, lx=2.3),
    Grid(nx=256, ny=4),
], ids=lambda g: f"{g.nx}x{g.ny}-lx{g.lx}-ly{g.ly}")
@pytest.mark.parametrize("seed, amplitude, modes", [
    (3, 0.05, 3), (2**64 + 5, 0.4, 5), (17, 0.1, 0), (8, 0.0, 3)])
def test_smooth_state_is_bitwise_the_per_node_evaluation(grid, seed,
                                                         amplitude, modes):
    # Bitwise only where nothing is rounded: a constant (modes = 0) or zero
    # field.  Elsewhere the separable sum rounds differently from the
    # per-node one, by a few ulps of the amplitude.  The name is kept so
    # that the 24 case ids stay comparable with earlier test runs.
    state = random_smooth_state(grid, seed=seed, amplitude=amplitude,
                                modes=modes)
    expected = per_node_smooth_state(grid, seed, amplitude, modes)
    for name, field, reference in zip(FIELD_NAMES, state.field_arrays(),
                                      expected):
        if modes == 0 or amplitude == 0.0:
            assert field.tobytes() == reference.tobytes(), name
        else:
            assert np.max(np.abs(field - reference)) <= 2e-15 * amplitude, name


@pytest.mark.parametrize("grid, modes", [
    (Grid(nx=32, ny=32), 3),
    (Grid(nx=37, ny=53, lx=2.3), 3),
    (Grid(nx=64, ny=48, ly=0.75), 5),
    (Grid(nx=256, ny=4), 3),
], ids=["32x32", "37x53-lx2.3", "64x48-ly0.75-modes5", "256x4"])
def test_smooth_state_is_band_limited(grid, modes):
    # Each field's spectrum lies on the wave vectors +-(mx, my), taken
    # modulo the grid (a short side aliases the larger |my|).
    band = np.zeros(grid.shape, dtype=bool)
    for mx in range(0, modes + 1):
        for my in range(-modes, modes + 1):
            band[mx % grid.nx, my % grid.ny] = True
            band[-mx % grid.nx, -my % grid.ny] = True
    state = random_smooth_state(grid, seed=21, amplitude=0.3, modes=modes)
    for name, field in zip(FIELD_NAMES, state.field_arrays()):
        spectrum = np.abs(np.fft.fft2(field))
        assert np.max(spectrum[~band]) <= 1e-13 * np.max(spectrum), name


_DIGEST = (
    "import hashlib; from cosserat2d.fields import Grid; "
    "from cosserat2d.rng import random_smooth_state; "
    "state = random_smooth_state(Grid(nx=300, ny=300, lx=3.7), 5, 0.1); "
    "print(hashlib.sha256(b''.join(a.tobytes() for a in "
    "state.field_arrays())).hexdigest())")


def test_smooth_state_bits_do_not_depend_on_the_thread_count():
    src = os.path.dirname(os.path.dirname(cosserat2d.__file__))
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        digests.add(subprocess.run(
            [sys.executable, "-c", _DIGEST], env=env, check=True,
            capture_output=True, text=True, timeout=120).stdout)
    assert len(digests) == 1
