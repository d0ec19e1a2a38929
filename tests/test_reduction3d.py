"""Three-dimensional reduction probes: matrix curl, the two planar
restrictions, Rodrigues rotations (direct and series branches), and the
chirality-under-inversion checks."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt

from cosserat2d.reduction3d import (
    EPS3,
    SERIES_THRESHOLD,
    PlanarFunction,
    chiral_invariant,
    chirality_inversion_check,
    constant_rotation_probe,
    curl3_matrix,
    default_planar_sample,
    devsym3,
    first_problem_check,
    first_problem_wryness,
    full_reduction_report,
    planar_embedding_probe,
    second_problem_check,
    second_problem_rotation,
    second_problem_rotation_gradient,
    second_problem_wryness,
    skew3,
    small_rotation_curvature,
    trig_chiral_probe,
)
from cosserat2d.report import VerificationReport


def _hat(axis):
    a1, a2, a3 = axis
    return np.array([[0.0, -a3, a2], [a3, 0.0, -a1], [-a2, a1, 0.0]])


def _expm_series(m, terms=40):
    out = np.eye(3)
    power = np.eye(3)
    for n in range(1, terms):
        power = power @ m / n
        out = out + power
    return out


INVERSION_ROWS = ("rotation_orthogonal", "metric_invariant_under_inversion",
                  "curl_even_under_inversion", "wryness_odd_under_inversion",
                  "invariant_flips_sign", "inverted_determinant_is_minus_one")

REDUCTION_ROWS = (
    "wryness_two_entry_structure", "decomposition_reconstructs",
    "wryness_trace_free", "stretch_block_form",
    "orthogonality_devsym_stretch", "orthogonality_skew_stretch",
    "orthogonality_trace_stretch", "orthogonality_devsym_metric",
    "orthogonality_skew_metric", "orthogonality_trace_metric",
    "wryness_norm_identity", "interaction_surrogate_nonzero",
    "rotation_orthogonal", "identity_at_zero_angles",
    "wryness_bottom_row_vanishes", "small_rotation_matches_leading_order",
    *(f"{probe}:{row}" for probe in ("trig", "constant_rotation",
                                     "planar_embedding")
      for row in INVERSION_ROWS),
    "planar_embedding_invariant_vanishes",
)


def test_full_reduction_report_passes():
    rep = full_reduction_report()
    assert rep.all_pass
    assert len(rep.checks) == 35
    assert tuple(c.name for c in rep.checks) == REDUCTION_ROWS


def test_interaction_surrogate_flag_fails_at_any_scale_without_rotation():
    # A constant angle has no gradient, so the surrogate vanishes everywhere.
    still = PlanarFunction(lambda x, y: 0.3, lambda x, y: (0.0, 0.0))
    rep = first_problem_check(
        replace(default_planar_sample(n_points=10), angle=still))
    row = {c.name: c for c in rep.checks}["interaction_surrogate_nonzero"]
    assert (row.max_abs_error, row.tolerance, row.passed) == (1.0, 0.0, False)
    assert [c.name for c in rep.scaled(1e300).failures()] == [
        "interaction_surrogate_nonzero"]


def test_add_maxima_takes_each_named_maximum_in_row_order():
    rep = VerificationReport()
    rep.add_maxima({"b": [1.0, 0.25], "a": np.array([[0.5], [2.0]])}, 1e-3,
                   prefix="p:", a=3.0)
    assert [(c.name, c.max_abs_error, c.tolerance) for c in rep.checks] == [
        ("p:b", 1.0, 1e-3), ("p:a", 2.0, 3.0)]
    rep.add_maxima({"c": [0.0, math.nan, 1.0]}, 1.0)
    assert math.isnan(rep.checks[-1].max_abs_error)
    assert not rep.checks[-1].passed


def test_flag_rows_keep_tolerance_zero_under_any_scale():
    rep = VerificationReport()
    rep.flag("yes", True)
    rep.flag("no", False)
    rep.add("numeric", 1.0, 0.5)
    for factor in (0.0, 1.0, 3.0, 1e300):
        scaled = rep.scaled(factor)
        assert [(c.max_abs_error, c.tolerance, c.passed)
                for c in scaled.checks[:2]] == [(0.0, 0.0, True),
                                                (1.0, 0.0, False)]
        assert scaled.checks[2].tolerance == 0.5 * factor


def test_levi_civita_symbol_is_totally_antisymmetric():
    assert EPS3[0, 1, 2] == 1.0 and EPS3[2, 1, 0] == -1.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert EPS3[i, j, k] == -EPS3[j, i, k]
                assert EPS3[i, j, k] == -EPS3[i, k, j]


def test_curl3_matches_explicit_levi_civita_loops():
    rng = np.random.default_rng(60)
    for _ in range(10):
        dm = rng.standard_normal((3, 3, 3))
        expected = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                acc = 0.0
                for m in range(3):
                    for n in range(3):
                        acc += EPS3[j, m, n] * dm[m, i, n]
                expected[i, j] = acc
        npt.assert_allclose(curl3_matrix(dm), expected, rtol=0, atol=1e-14)


def test_devsym_skew_decomposition():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((3, 3))
    d, s = devsym3(m), skew3(m)
    npt.assert_allclose(np.trace(d), 0.0, atol=1e-15)
    npt.assert_allclose(d, d.T, atol=0)
    npt.assert_allclose(s, -s.T, atol=0)
    npt.assert_allclose(d + s + (np.trace(m) / 3.0) * np.eye(3), m,
                        rtol=0, atol=1e-15)


def test_rotation_matches_matrix_exponential():
    rng = np.random.default_rng(62)
    cases = [tuple(rng.uniform(-2.0, 2.0, 2)) for _ in range(15)]
    cases += [(3e-5, 4e-5), (0.0, 0.0), (-1e-7, 2e-7)]  # series branch
    for alpha, beta in cases:
        r = second_problem_rotation(alpha, beta)
        oracle = _expm_series(_hat((alpha, beta, 0.0)))
        npt.assert_allclose(r, oracle, rtol=0, atol=1e-13)


def test_rotation_axis_aligned_closed_forms():
    alpha = 0.7
    rx = second_problem_rotation(alpha, 0.0)
    npt.assert_allclose(rx, [[1.0, 0.0, 0.0],
                             [0.0, math.cos(alpha), -math.sin(alpha)],
                             [0.0, math.sin(alpha), math.cos(alpha)]],
                        rtol=0, atol=1e-15)
    beta = -1.2
    ry = second_problem_rotation(0.0, beta)
    npt.assert_allclose(ry, [[math.cos(beta), 0.0, math.sin(beta)],
                             [0.0, 1.0, 0.0],
                             [-math.sin(beta), 0.0, math.cos(beta)]],
                        rtol=0, atol=1e-15)


def test_rotation_orthogonal_on_both_sides_of_series_threshold():
    for scale in (1e-7, 0.5 * SERIES_THRESHOLD, 0.99 * SERIES_THRESHOLD,
                  1.01 * SERIES_THRESHOLD, 2.0 * SERIES_THRESHOLD, 0.3, 2.5):
        alpha, beta = 0.6 * scale, -0.8 * scale
        r = second_problem_rotation(alpha, beta)
        npt.assert_allclose(r.T @ r, np.eye(3), rtol=0, atol=1e-14)
        npt.assert_allclose(np.linalg.det(r), 1.0, rtol=1e-13)


def test_rotation_gradient_matches_finite_differences():
    rng = np.random.default_rng(63)
    step = 1e-6
    cases = [tuple(rng.uniform(-1.5, 1.5, 2)) for _ in range(10)]
    cases += [(5e-5, -3e-5)]  # series branch
    for alpha, beta in cases:
        da, db = second_problem_rotation_gradient(alpha, beta)
        fd_a = (second_problem_rotation(alpha + step, beta)
                - second_problem_rotation(alpha - step, beta)) / (2.0 * step)
        fd_b = (second_problem_rotation(alpha, beta + step)
                - second_problem_rotation(alpha, beta - step)) / (2.0 * step)
        npt.assert_allclose(da, fd_a, rtol=0, atol=5e-10)
        npt.assert_allclose(db, fd_b, rtol=0, atol=5e-10)


def test_series_and_direct_coefficients_agree_near_threshold():
    # Evaluate the full rotation just below and above the switch against the
    # exponential-series oracle; both branches must hit round-off there.
    for frac in (0.999999, 1.000001):
        l = frac * SERIES_THRESHOLD
        alpha, beta = 0.6 * l, 0.8 * l
        r = second_problem_rotation(alpha, beta)
        npt.assert_allclose(r, _expm_series(_hat((alpha, beta, 0.0))),
                            rtol=0, atol=1e-15)


def test_first_problem_wryness_is_minus_angle_gradient_in_third_column():
    s = default_planar_sample(n_points=1, seed=9)
    for x, y in [(0.3, -1.1), (2.0, 0.4), (-0.7, 0.9)]:
        wry = first_problem_wryness(s, x, y)
        gx, gy = s.angle.grad(x, y)
        expected = np.zeros((3, 3))
        expected[0, 2] = -gx
        expected[1, 2] = -gy
        npt.assert_allclose(wry, expected, rtol=0, atol=1e-13)


def test_first_problem_check_passes():
    rep = first_problem_check(default_planar_sample(n_points=40, seed=12))
    assert rep.all_pass
    names = [c.name for c in rep.checks]
    assert "interaction_surrogate_nonzero" in names


def test_small_rotation_curvature_explicit_matrix():
    alpha_fn = PlanarFunction(value=lambda x, y: 0.2 * x + 0.5 * y,
                              grad=lambda x, y: (0.2, 0.5))
    beta_fn = PlanarFunction(value=lambda x, y: -0.4 * x + 0.3 * y,
                             grad=lambda x, y: (-0.4, 0.3))
    got = small_rotation_curvature(alpha_fn, beta_fn, 0.1, 0.2)
    npt.assert_array_equal(got, [[0.3, 0.4, 0.0],
                                 [-0.5, 0.2, 0.0],
                                 [0.0, 0.0, 0.5]])


def test_wryness_approaches_leading_order_linearly_in_angle():
    def linear_fields(eps):
        alpha_fn = PlanarFunction(value=lambda x, y: eps * (x + 0.2 * y),
                                  grad=lambda x, y: (eps, 0.2 * eps))
        beta_fn = PlanarFunction(value=lambda x, y: eps * (0.5 * x - y),
                                 grad=lambda x, y: (0.5 * eps, -eps))
        return alpha_fn, beta_fn

    point = (0.7, -0.4)
    errors = []
    for eps in (1e-2, 1e-3, 1e-4):
        alpha_fn, beta_fn = linear_fields(eps)
        exact = second_problem_wryness(alpha_fn, beta_fn, *point)
        lead = small_rotation_curvature(alpha_fn, beta_fn, *point)
        scale = np.max(np.abs(lead))
        errors.append(np.max(np.abs(exact - lead)) / scale)
    # relative error is first order in the angle magnitude: each tenfold
    # reduction of eps should shrink it about tenfold
    assert errors[0] < 2e-2
    assert errors[1] < 2e-3
    assert errors[2] < 2e-4
    assert 5.0 < errors[0] / errors[1] < 20.0
    assert 5.0 < errors[1] / errors[2] < 20.0


def test_second_problem_check_passes():
    rep = second_problem_check(default_planar_sample(n_points=25, seed=13))
    assert rep.all_pass
    names = [c.name for c in rep.checks]
    assert "small_rotation_matches_leading_order" in names


def test_trig_probe_invariant_is_generically_nonzero():
    probe = trig_chiral_probe(n_points=10, seed=20)
    values = [chiral_invariant(probe, pt) for pt in probe.points]
    assert max(abs(v) for v in values) > 1e-3


def test_planar_probe_invariant_vanishes_identically():
    probe = planar_embedding_probe(n_points=20, seed=21)
    for pt in probe.points:
        assert abs(chiral_invariant(probe, pt)) < 1e-12


def test_inversion_flips_invariant_for_all_probes():
    for probe in (trig_chiral_probe(n_points=8, seed=22),
                  constant_rotation_probe(n_points=8, seed=23),
                  planar_embedding_probe(n_points=8, seed=24)):
        rep = chirality_inversion_check(probe)
        assert rep.all_pass, [
            (c.name, c.max_abs_error) for c in rep.checks if not c.passed]
        names = [c.name for c in rep.checks]
        assert any(n.endswith("invariant_flips_sign") for n in names)
        assert any(n.endswith("inverted_determinant_is_minus_one")
                   for n in names)


def test_metric_row_fails_when_the_gradient_is_not_the_maps():
    # The inverted F is the numerical gradient of x -> phi(-x), so an
    # analytic gradient off by one part in 1e6 shows in the metric row.
    for probe in (trig_chiral_probe(n_points=8, seed=22),
                  constant_rotation_probe(n_points=8, seed=23),
                  planar_embedding_probe(n_points=8, seed=24)):
        wrong = replace(probe, deformation_gradient=lambda p, f=(
            probe.deformation_gradient): 1.000001 * f(p))
        rows = {c.name: c for c in chirality_inversion_check(wrong).checks}
        row = rows[f"{probe.name}:metric_invariant_under_inversion"]
        assert not row.passed
        assert row.max_abs_error > 1e-6
