"""Command-line interface: exit codes, output files, byte determinism, and
the error paths promised by the tool."""

import contextlib
import ctypes
import errno
import json
import math
import mmap
import os
import platform
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cosserat2d
from conftest import reference_branches, set_usable_cpus
from cosserat2d import cli, dynamics, workers
from cosserat2d.cli import main
from cosserat2d.config import ScenarioConfig, load_config
from cosserat2d.energy import EnergyBreakdown
from cosserat2d.errors import IoError, NoRealBranch, ZeroDenominator
from cosserat2d.fields import FieldState, Grid, save_snapshot
from cosserat2d.report import VerificationReport, write_csv
from cosserat2d.rng import random_smooth_state
from cosserat2d.waves import (
    BranchTable,
    WaveParams,
    amplitude_ratio,
    velocity_curve,
)


def run(tmp_path, *argv):
    return main(list(argv))


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


SMALL_SIM = {
    "grid": {"nx": 8, "ny": 8, "lx": 1.0, "ly": 1.0},
    "sim": {"dt": 0.002, "steps": 5, "output_every": 2},
    "initial": {"kind": "random_smooth", "seed": 7, "amplitude": 0.01,
                "modes": 2},
}


def test_simulate_outputs_and_byte_determinism(tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0

    header, rows = read_csv(out_a / "timeseries.csv")
    assert header == ["step", "time", "elastic", "curvature", "interaction",
                      "coupling", "chiral_elastic", "mixing", "kin_trans",
                      "kin_rot", "total"]
    assert len(rows) == 6  # steps + initial record
    assert [r[0] for r in rows] == [str(i) for i in range(6)]

    snapshots = sorted(p.name for p in out_a.glob("snapshot_*.csv"))
    assert snapshots == ["snapshot_000000.csv", "snapshot_000002.csv",
                         "snapshot_000004.csv", "snapshot_000005.csv"]

    for name in ["timeseries.csv"] + snapshots:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    s_header, s_rows = read_csv(out_a / "snapshot_000000.csv")
    assert s_header == ["i", "j", "x", "y", "u1", "u2", "theta",
                        "v1", "v2", "omega"]
    assert len(s_rows) == 64


def test_simulate_energy_column_is_consistent(tmp_path):
    cfg = write_config(tmp_path, SMALL_SIM)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "timeseries.csv")
    for row in rows:
        parts = [float(v) for v in row[2:]]
        assert abs(sum(parts[:-1]) - parts[-1]) < 1e-12 * max(1.0, parts[-1])


def test_simulate_blow_up_exits_2(tmp_path, capsys):
    data = dict(SMALL_SIM)
    data["sim"] = {"dt": 50.0, "steps": 200, "output_every": 200}
    data["initial"] = {"kind": "random_smooth", "seed": 7, "amplitude": 0.1,
                       "modes": 2}
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "boom")]) == 2
    err = capsys.readouterr().err
    assert "numerical error" in err
    # the polar factor fails first, on the first step
    assert "step 1 (t = 50): det(F) <= 1e-12" in err


def test_simulate_blow_up_prints_no_numpy_warnings(tmp_path, capsys):
    # The skew run grows through huge but finite values until its rotational
    # kinetic energy overflows at step 42, long before the state does (step
    # 83); the typed error at the first non-finite energy is the only report.
    data = dict(SMALL_SIM)
    data["model"] = {"coupling": "skew"}
    data["sim"] = {"dt": 0.5, "steps": 200, "output_every": 200}
    data["initial"] = {"kind": "random_smooth", "seed": 7, "amplitude": 0.1}
    cfg = write_config(tmp_path, data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "boom")]) == 2
    assert [w.category for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err == ("numerical error: step 42 (t = 21): energy became "
                   "non-finite (kin_rot = inf)\n"), err
    # The run that died keeps the time series up to the last finite row.
    header, rows = read_csv(tmp_path / "boom" / "timeseries.csv")
    assert header[:2] == ["step", "time"]
    assert [(int(r[0]), float(r[1])) for r in rows] == [
        (step, step * 0.5) for step in range(42)]
    assert all(math.isfinite(float(v)) for r in rows for v in r)


def test_simulate_streams_the_time_series_in_blocks(tmp_path, monkeypatch):
    # 6 rows over blocks of 4: one block is appended during the run, the
    # other 2 rows when it ends
    cfg = write_config(tmp_path, SMALL_SIM)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "whole")]) == 0
    monkeypatch.setattr(cli, "BLOCK_ROWS", 4)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "blocks")]) == 0
    whole = (tmp_path / "whole" / "timeseries.csv").read_bytes()
    assert (tmp_path / "blocks" / "timeseries.csv").read_bytes() == whole
    assert len(whole.splitlines()) == 1 + 6


def test_missing_plane_wave_branch_exits_1(tmp_path, capsys):
    # mu_s = -0.9 makes the wave stiffness indefinite: 2 branches at k = 2 pi
    cfg = write_config(tmp_path, {
        "material": {"mu_s": -0.9},
        "model": {"kind": "chiral"},
        "grid": {"nx": 16, "ny": 16},
        "sim": {"dt": 0.001, "steps": 2},
        "initial": {"kind": "plane_wave", "k": 6.3, "branch": 2},
    })
    out = tmp_path / "pw"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "initial.branch 2 does not exist" in err
    assert "2 branches at k = 6.28319" in err
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("k", [1e308, 1e200])
def test_plane_wave_overflowing_wavenumber_exits_1(tmp_path, capsys, k):
    # k = 1e308 overflowed the period count, k = 1e200 the wave matrix
    cfg = write_config(tmp_path, {
        "grid": {"nx": 8, "ny": 8, "lx": 10.0, "ly": 10.0},
        "sim": {"steps": 2},
        "initial": {"kind": "plane_wave", "k": k},
    })
    out = tmp_path / "pw"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: initial.k = {k!r} is too large for a plane wave "
                   f"on grid.lx = 10.0: its wave matrix is not finite for "
                   f"this material\n"), err
    assert "Traceback" not in err
    assert not list(out.glob("*.csv"))


def reference_plane_wave(cfg):
    """The plane-wave initial state from conftest.reference_branches."""
    grid, initial = cfg.grid, cfg.initial
    n_periods = max(1, round(initial.k * grid.lx / (2.0 * math.pi)))
    k = 2.0 * math.pi * n_periods / grid.lx
    omega, z = reference_branches(
        k, WaveParams.from_material(cfg.material))[initial.branch]
    x, _ = grid.coords()
    u, v, phi = (complex(c) * np.exp(1j * k * x) for c in z)
    a = initial.amplitude
    return FieldState(grid, a * u.real, a * v.real, -a * phi.real,
                      a * omega * u.imag, a * omega * v.imag,
                      -a * omega * phi.imag)


@pytest.mark.parametrize("material, branch", [
    ({}, 0), ({}, 1), ({}, 2), ({"mu_s": -0.9}, 1)])
def test_plane_wave_state_is_the_reference_branch(material, branch):
    cfg = ScenarioConfig.from_dict({
        "material": material,
        "grid": {"nx": 33, "ny": 12, "lx": 2.5, "ly": 0.7},
        "initial": {"kind": "plane_wave", "k": 6.0, "branch": branch,
                    "amplitude": 0.3}})
    state = cli.build_initial_state(cfg)
    expected = reference_plane_wave(cfg)
    for field, reference in zip(state.field_arrays(),
                                expected.field_arrays()):
        assert field.tobytes() == reference.tobytes()


def test_plane_wave_with_overflowing_wave_matrix_exits_1(tmp_path, capsys):
    # k**2 = 1e120 is finite, but k**2 (lam + 2 mu) overflows
    cfg = write_config(tmp_path, {
        "material": {"mu": 1e200},
        "sim": {"steps": 2},
        "initial": {"kind": "plane_wave", "k": 1e60},
    })
    out = tmp_path / "pw"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert [w.category for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err == ("error: initial.k = 1e+60 is too large for a plane wave on "
                   "grid.lx = 1.0: its wave matrix is not finite for this "
                   "material\n")
    assert not list(out.glob("*.csv"))


def test_missing_config_exits_1(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"material": {"mu_q": 1.0}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown configuration key: 'material.mu_q'" in capsys.readouterr().err


@pytest.mark.parametrize("section, values, message", [
    ("sim", {"steps": -1}, "sim.steps must be nonnegative, got -1"),
    ("sim", {"output_every": 0}, "sim.output_every must be at least 1, got 0"),
    ("sim", {"eps_reg": -0.5}, "sim.eps_reg must be nonnegative, got -0.5"),
    ("wave", {"k_min": 2.0, "k_max": 1.0},
     "wave range must satisfy 0 < k_min <= k_max, got [2.0, 1.0]"),
    ("wave", {"k_min": 0.0}, "wave range must satisfy 0 < k_min <= k_max"),
    ("wave", {"k_steps": 0}, "wave.k_steps must be at least 1, got 0"),
    ("initial", {"modes": -1}, "initial.modes must be nonnegative, got -1"),
    ("initial", {"amplitude": -0.5},
     "initial.amplitude must be nonnegative, got -0.5"),
    ("initial", {"k": 0.0}, "initial.k must be positive, got 0.0"),
    ("initial", {"branch": 3}, "initial.branch must be 0, 1 or 2, got 3"),
    ("material", {"mu_c": -0.5}, "mu_c must be nonnegative, got -0.5"),
    ("material", {"L_c": -0.5}, "L_c must be nonnegative, got -0.5"),
    ("material", {"rho": 0.0}, "rho must be positive, got 0.0"),
    ("material", {"rho_rot": 0.0}, "rho_rot must be positive, got 0.0"),
    ("model", {"coupling": "cubic"}, "unknown coupling choice 'cubic'"),
])
def test_each_range_check_exits_1_naming_its_key(tmp_path, capsys, section,
                                                 values, message):
    cfg = write_config(tmp_path, {section: values})
    assert main(["homogeneous", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, section, values, message", [
    ("simulate", "grid", {"nx": 10**20},
     "grid.nx x grid.ny = 100000000000000000000x32"),
    ("verify", "grid", {"nx": 10**20},
     "grid.nx x grid.ny = 100000000000000000000x32"),
    ("simulate", "grid", {"nx": 2**32, "ny": 2**32},
     "grid.nx x grid.ny = 4294967296x4294967296"),
    ("dispersion", "wave", {"k_steps": 10**20},
     "wave.k_steps = 100000000000000000000"),
])
def test_a_size_numpy_cannot_address_exits_1_naming_its_key(
        tmp_path, capsys, command, section, values, message):
    cfg = write_config(tmp_path, {section: values})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {message} is too large for numpy to address its arrays\n")
    assert not out.exists()


def test_a_grid_merely_too_big_for_the_machine_is_out_of_memory(tmp_path,
                                                                capsys):
    # 2**56 nodes: numpy can address the fields, but one field is past a
    # 57-bit address space.
    cfg = write_config(tmp_path, {"grid": {"nx": 2**28, "ny": 2**28},
                                  "initial": {"kind": "zero"}})
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: out of memory: ")


def test_a_random_start_too_big_for_the_machine_is_out_of_memory(
        tmp_path, monkeypatch, capsys):
    # verify's random start allocates its six fields, and fails there,
    # before any per-axis table: at 2**24 nodes a side the tables alone
    # would take gigabytes, so building one first fails this test instead.
    def no_table_before_the_fields(grid):
        raise AssertionError("a per-axis table came before the fields")

    monkeypatch.setattr(Grid, "axes", no_table_before_the_fields)
    cfg = write_config(tmp_path, {"grid": {"nx": 2**24, "ny": 2**24}})
    assert main(["verify", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: out of memory: ")


def test_verify_defaults_pass(tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "checks passed" in stdout
    header, rows = read_csv(out / "verify_report.csv")
    assert header == ["check_name", "max_abs_error", "tolerance", "pass"]
    assert rows, "report should not be empty"
    assert all(row[3] == "true" for row in rows)
    names = [row[0] for row in rows]
    assert "acc_u_vs_energy_gradient" in names
    assert "homogeneous_roots_zero_residual" in names
    assert "wave_transverse_free_residual" in names


def test_verify_report_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--out", str(out_a)]) == 0
    assert main(["verify", "--out", str(out_b)]) == 0
    assert ((out_a / "verify_report.csv").read_bytes()
            == (out_b / "verify_report.csv").read_bytes())


def test_verify_zero_tolerance_scale_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"verify": {"tolerance_scale": 0.0}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
    assert "FAIL" in capsys.readouterr().err


FLAG_ROWS = {"interaction_surrogate_nonzero", "wave_velocity_curve_monotone",
             "flag_realizability_inequality_orientation"}


@pytest.mark.parametrize("command, report", [
    ("verify", "verify_report.csv"), ("reduce3d", "reduction_report.csv")])
def test_tolerance_scale_multiplies_numeric_rows_only(tmp_path, command,
                                                      report):
    rows = {}
    for scale in (1, 3):
        cfg = write_config(tmp_path, {"verify": {"tolerance_scale": scale}},
                           name=f"scale{scale}.json")
        out = tmp_path / f"scale{scale}"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        rows[scale] = read_csv(out / report)[1]
    assert [r[0] for r in rows[1]] == [r[0] for r in rows[3]]
    flags = [r[0] for r in rows[3] if r[0] in FLAG_ROWS]
    assert len(flags) == (3 if command == "verify" else 1)
    for one, three in zip(rows[1], rows[3]):
        if one[0] in FLAG_ROWS:
            assert one[1:] == three[1:] == ["0", "0", "true"], one[0]
        else:
            assert float(three[2]) == 3 * float(one[2]), one[0]


def test_out_of_memory_exits_1_without_traceback(tmp_path, monkeypatch,
                                                  capsys):
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "random_smooth_state", too_large)
    cfg = write_config(tmp_path, {"grid": {"nx": 1000000, "ny": 1000000},
                                  "initial": {"kind": "random_smooth"}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: out of memory: Unable to allocate 7.28 TiB for "
                   "an array\n")


def test_verify_reports_interaction_skip_at_kink(tmp_path):
    cfg = write_config(tmp_path, {
        "material": {"chi": 0.5},
        "sim": {"eps_reg": 0.0},
        "initial": {"kind": "random_smooth", "amplitude": 0.0},
    })
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "verify_report.csv")
    names = [row[0] for row in rows]
    assert any("skipped_not_differentiable" in n for n in names)


def test_verify_overflowing_state_fails_as_inf_without_numpy_warnings(
        tmp_path, capsys):
    # The accelerations of this state overflow; the rows they spoil fail as
    # inf rather than nan, and numpy prints nothing.
    cfg = write_config(tmp_path, {
        "material": {"chi": 0.3},
        "model": {"coupling": "skew"},
        "grid": {"nx": 16, "ny": 16},
        "initial": {"kind": "random_smooth", "seed": 3, "amplitude": 1e155},
    })
    out = tmp_path / "v"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 3
    assert [w.category for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "numpy" not in err
    _, rows = read_csv(out / "verify_report.csv")
    errors = {row[0]: row[1] for row in rows}
    assert errors["acc_u_vs_energy_gradient"] == "inf"
    assert errors["acc_theta_vs_energy_gradient"] == "inf"


def test_verify_passes_at_256(tmp_path, capsys):
    # At this size the whole-grid finite differences used to fail the
    # interaction row (6.9e-5 against 1e-6).
    cfg = write_config(tmp_path, {
        "material": {"chi": 0.3},
        "model": {"kind": "nonchiral", "coupling": "polar"},
        "grid": {"nx": 256, "ny": 256},
        "initial": {"kind": "random_smooth", "seed": 1234,
                    "amplitude": 0.01},
    })
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().err
    _, rows = read_csv(out / "verify_report.csv")
    assert "fd_gradient_interaction" in [row[0] for row in rows]
    assert all(row[3] == "true" for row in rows)


SI_MATERIAL = {"mu": 3e9, "lambda": 2e9, "mu_c": 1e9}


@pytest.mark.parametrize("kind", ["nonchiral", "chiral"])
def test_verify_si_material_passes(tmp_path, capsys, kind):
    # The homogeneous residual is in stress units: at these moduli its
    # round-off read 1.3e-6 (chiral 1.1e-6) against the absolute 1e-12.
    cfg = write_config(tmp_path, {"material": SI_MATERIAL,
                                  "model": {"kind": kind},
                                  "grid": {"nx": 16, "ny": 16}})
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().err
    _, rows = read_csv(out / "verify_report.csv")
    row = {r[0]: r for r in rows}["homogeneous_roots_zero_residual"]
    assert float(row[1]) < 1e-15 and row[3] == "true"


@pytest.mark.parametrize("kind", ["nonchiral", "chiral"])
def test_verify_fails_a_homogeneous_root_off_by_1e_6(tmp_path, monkeypatch,
                                                     capsys, kind):
    exact = dynamics.homogeneous_roots

    def shifted(p, sel):
        roots = exact(p, sel)
        return replace(roots, trivial_roots=(1e-6, math.pi))

    monkeypatch.setattr(dynamics, "homogeneous_roots", shifted)
    cfg = write_config(tmp_path, {"material": SI_MATERIAL,
                                  "model": {"kind": kind},
                                  "grid": {"nx": 16, "ny": 16}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("FAIL homogeneous_roots_zero_residual: error 1."), err
    assert err.count("FAIL") == 1


def test_dispersion_outputs_with_zero_chiral_modulus(tmp_path):
    cfg = write_config(tmp_path, {
        "wave": {"k_min": 0.5, "k_max": 3.0, "k_steps": 7},
    })
    out = tmp_path / "d"
    assert main(["dispersion", "--config", cfg, "--out", str(out),
                 "--svg"]) == 0

    header, rows = read_csv(out / "dispersion.csv")
    assert header == ["k", "branch_index", "omega", "u_hat", "v_hat",
                      "phi_hat_imag", "ratio", "phase_velocity"]
    assert len(rows) == 7 * 3
    # default material has no chiral modulus: the ratio is exactly zero
    assert all(row[6] == "0" for row in rows)
    for row in rows:
        k, omega, speed = float(row[0]), float(row[2]), float(row[7])
        assert abs(speed - omega / k) <= 1e-15 * max(1.0, omega / k)

    _, curve_rows = read_csv(out / "ratio_velocity.csv")
    assert curve_rows[-1][0] == "inf"
    assert float(curve_rows[-1][1]) == pytest.approx(math.sqrt(3.0))

    svg = (out / "dispersion.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_dispersion_without_couple_modulus_has_no_longitudinal_row(tmp_path):
    # mu_c = 0 leaves vl undefined: the curve has no ratio = inf row.
    cfg = write_config(tmp_path, {"material": {"mu_c": 0.0, "mu_s": 0.3}})
    out = tmp_path / "d"
    assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    _, curve_rows = read_csv(out / "ratio_velocity.csv")
    assert len(curve_rows) == 82
    assert all(math.isfinite(float(ratio)) for ratio, _ in curve_rows)


def test_dispersion_svg_that_cannot_be_written_exits_1(tmp_path, capsys):
    out = tmp_path / "d"
    blocked = out / "dispersion.svg"
    blocked.mkdir(parents=True)
    assert main(["dispersion", "--out", str(out), "--svg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(blocked)!r}: ")
    assert err.count("\n") == 1


def test_dispersion_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["dispersion", "--out", str(out_a)]) == 0
    assert main(["dispersion", "--out", str(out_b)]) == 0
    assert ((out_a / "dispersion.csv").read_bytes()
            == (out_b / "dispersion.csv").read_bytes())


def test_dispersion_overflowing_wavenumber_warns_once_per_k(tmp_path,
                                                           capsys):
    # k = 5e199 and 1e200 overflow the wave matrix; k = 1 has its branches.
    cfg = write_config(tmp_path, {
        "wave": {"k_min": 1, "k_max": 1e200, "k_steps": 3}})
    out = tmp_path / "d"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["dispersion", "--config", cfg, "--out", str(out)]) == 0
    assert [w.category for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err.splitlines() == [
        f"warning: no real branch: wave matrix is not finite at k = {k}"
        for k in ("5e+199", "1e+200")]
    _, rows = read_csv(out / "dispersion.csv")
    assert [row[0] for row in rows] == ["1"] * 3


@pytest.mark.parametrize("svg", [False, True])
def test_dispersion_without_any_branch_exits_2_and_writes_nothing(
        tmp_path, capsys, svg):
    cfg = write_config(tmp_path, {
        "wave": {"k_min": 1e160, "k_max": 1e200, "k_steps": 3}})
    out = tmp_path / "d"
    argv = ["dispersion", "--config", cfg, "--out", str(out)]
    assert main(argv + ["--svg"] if svg else argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"warning: no real branch: wave matrix is not finite at k = {k}"
        for k in ("1e+160", "5e+199", "1e+200")] + [
        "numerical error: dispersion sweep produced no branch at any "
        "wavenumber"]
    assert list(out.iterdir()) == []


def per_k_dispersion(cfg, outdir, svg):
    """``dispersion`` one wavenumber at a time (conftest.reference_branches);
    returns the warning lines it would print."""
    wp = WaveParams.from_material(cfg.material)
    rows, warned = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.linspace(cfg.wave.k_min, cfg.wave.k_max,
                             cfg.wave.k_steps):
            try:
                branches = reference_branches(k, wp)
            except NoRealBranch as exc:
                warned.append(f"warning: no real branch: {exc}")
                continue
            for index, (omega, z) in enumerate(branches):
                try:
                    ratio = amplitude_ratio(k, omega, wp)
                except ZeroDenominator:
                    ratio = math.nan
                rows.append((k, index, omega, z[0].real, z[1].real,
                             z[2].imag, ratio, omega / k))
        curve = velocity_curve(wp)
    os.makedirs(outdir)
    write_csv(outdir / "dispersion.csv", cli.DISPERSION_HEADER, zip(*rows))
    write_csv(outdir / "ratio_velocity.csv", "ratio,velocity", zip(*curve))
    if svg:
        k, index, omega = (np.array(c) for c in list(zip(*rows))[:3])
        cli._write_dispersion_svg(str(outdir / "dispersion.svg"),
                                  BranchTable(k, index, omega, None, []))
    return warned


@pytest.mark.parametrize("svg", [False, True])
@pytest.mark.parametrize("material, wave", [
    ({"mu_s": 0.3}, {"k_min": 0.01, "k_max": 40.0, "k_steps": 500}),
    # two branches below about k = 9.8, three above
    ({"mu_s": -0.9}, {"k_min": 0.1, "k_max": 20.0, "k_steps": 300}),
    ({}, {"k_min": 1, "k_max": 1e200, "k_steps": 3}),
])
def test_dispersion_writes_the_per_wavenumber_bytes(tmp_path, capsys, svg,
                                                    material, wave):
    cfg = write_config(tmp_path, {"material": material, "wave": wave})
    argv = ["dispersion", "--config", cfg, "--out", str(tmp_path / "sweep")]
    assert main(argv + ["--svg"] if svg else argv) == 0
    warned = capsys.readouterr().err.splitlines()
    assert warned == per_k_dispersion(load_config(cfg), tmp_path / "loop", svg)
    written = sorted(p.name for p in (tmp_path / "sweep").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "loop").iterdir())
    assert ("dispersion.svg" in written) == svg
    for name in written:
        assert ((tmp_path / "sweep" / name).read_bytes()
                == (tmp_path / "loop" / name).read_bytes()), name


@pytest.mark.parametrize("command, material", [
    ("dispersion", {"mu_s": 1e200}), ("dispersion", {"L_c": 1e200}),
    ("verify", {"L_c": 1e200}), ("simulate", {"L_c": 1e200})])
def test_overflowing_modulus_exits_2(tmp_path, capsys, command, material):
    # The square of the chiral modulus A = mu_s, or of L_c in the angle
    # stiffness, overflows a Python float.
    cfg = write_config(tmp_path, dict(SMALL_SIM, material=material))
    out = tmp_path / "d"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert [w.category for w in caught
            if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err == ("numerical error: a value overflows a double: "
                   "Numerical result out of range\n"), err
    # simulate fails in its first right-hand side, after it has begun its
    # time series with the header.
    written = {p.name: p.read_text() for p in out.glob("*.csv")}
    assert written == ({"timeseries.csv": "step,time,"
                        + EnergyBreakdown.CSV_HEADER + "\n"}
                       if command == "simulate" else {})


def test_homogeneous_nonchiral_infeasible_root(tmp_path):
    out = tmp_path / "h"
    assert main(["homogeneous", "--out", str(out)]) == 0
    _, rows = read_csv(out / "homogeneous.csv")
    table = {row[0]: row[1] for row in rows}
    # defaults: mu_c = 1, lam + mu = 2 -> cosine 1.5 lies outside [-1, 1]
    assert float(table["nontrivial_cosine"]) == 1.5
    assert table["feasible"] == "0"
    assert table["residual_at_zero"] == "0"
    # sin(pi) is ~1.2e-16 in floats, so the residual at pi is tiny, not zero
    assert abs(float(table["residual_at_pi"])) < 1e-14
    assert "nontrivial_root" not in table


def test_homogeneous_chiral_constructed_quarter_turn_root(tmp_path):
    # vanishing-sum construction: mu + lam + mu_s + lam_s + m1 + 2 m2 = 0
    # with the couple-modulus combination giving cosine exactly zero
    cfg = write_config(tmp_path, {
        "material": {"mu": 1.0, "lambda": 1.0, "mu_c": 1.0, "mu_s": 1.0,
                     "lambda_s": -2.0, "mu_c_s": -1.0, "m1": 0.0,
                     "m2": -0.5, "m3": 0.5},
        "model": {"kind": "chiral"},
    })
    out = tmp_path / "h"
    assert main(["homogeneous", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "homogeneous.csv")
    table = {row[0]: row[1] for row in rows}
    assert table["nontrivial_cosine"] == "0"
    assert table["feasible"] == "1"
    assert float(table["nontrivial_root"]) == pytest.approx(0.5 * math.pi,
                                                            rel=1e-15)
    assert abs(float(table["residual_at_nontrivial"])) < 1e-12


# Materials on which the nontrivial uniform-angle branch is undefined, with
# the message `homogeneous` stops on; the last one also has a zero uniform
# energy (|B| + |C| = 0).
UNDEFINED_BRANCH = [
    ({"material": {"lambda": 0.0}, "model": {"kind": "chiral"}},
     "B - C = 0"),
    ({"material": {"lambda": 0.0}, "model": {"coupling": "skew"}},
     "B - C = 0"),
    ({"material": {"lambda": -1.0}}, "B = 0"),
    ({"material": {"lambda": -1.0, "mu_c": 0.0}}, "B = 0"),
]


@pytest.mark.parametrize("config", [c for c, _ in UNDEFINED_BRANCH])
def test_verify_checks_the_trivial_roots_where_the_branch_is_undefined(
        tmp_path, capsys, config):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "verify_report.csv")
    passed = f"{len(rows)}/{len(rows)} checks passed\n"
    assert capsys.readouterr().out == passed
    row = {r[0]: r for r in rows}["homogeneous_roots_zero_residual"]
    assert float(row[1]) < 1e-15 and row[3] == "true"


@pytest.mark.parametrize("config, message", UNDEFINED_BRANCH)
def test_homogeneous_stops_where_the_branch_is_undefined(tmp_path, capsys,
                                                         config, message):
    cfg = write_config(tmp_path, config)
    out = tmp_path / "h"
    assert main(["homogeneous", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"numerical error: homogeneous branch undefined: {message}\n")
    assert not (out / "homogeneous.csv").exists()


def test_reduce3d_writes_passing_report(tmp_path):
    out = tmp_path / "r"
    assert main(["reduce3d", "--out", str(out)]) == 0
    _, rows = read_csv(out / "reduction_report.csv")
    assert len(rows) == 35
    assert all(row[3] == "true" for row in rows)


def _package_env():
    src = os.path.dirname(os.path.dirname(cosserat2d.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_runs(tmp_path):
    # ``python -m cosserat2d`` is the documented alternative to the script.
    out = tmp_path / "r"
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cosserat2d", "reduce3d",
         "--out", str(out)], env=_package_env(), capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (out / "reduction_report.csv").exists()


#: Frees a grid-sized array and the temporary computed from it 100 times,
#: as each right-hand side does, and prints the minor page faults taken.
_REFAULT_PROBE = """
import resource
import numpy as np
from cosserat2d import cli

cli._keep_freed_memory()

def churn():
    a = np.ones((2, 2, 256, 256))
    b = a + 1.0
    del a, b

churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(100):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap setting needs glibc's mallopt")
def test_kept_freed_memory_is_not_faulted_in_again():
    # glibc's default thresholds give about 99,000 faults here: every pair
    # of 2 MiB arrays goes back to the kernel and comes back page by page.
    done = subprocess.run([sys.executable, "-c", _REFAULT_PROBE],
                          env=_package_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 2000


class _NoMallopt:
    """A loaded C library that has no ``mallopt``."""


def _no_libc(name):
    raise OSError(f"cannot load {name!r}")


@pytest.mark.parametrize("cdll", [lambda name: _NoMallopt(), _no_libc],
                         ids=["no_mallopt", "no_libc"])
def test_simulate_without_mallopt_writes_the_same_bytes(tmp_path, monkeypatch,
                                                        cdll):
    reference, out = tmp_path / "reference", tmp_path / "out"
    assert main(["simulate", "--out", str(reference)]) == 0
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._keep_freed_memory() is None
    assert main(["simulate", "--out", str(out)]) == 0
    names = sorted(p.name for p in reference.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert (out / name).read_bytes() == (reference / name).read_bytes()


def test_every_public_name_resolves():
    assert [name for name in cosserat2d.__all__
            if not hasattr(cosserat2d, name)] == []


def test_outdir_is_created_nested(tmp_path):
    nested = tmp_path / "deep" / "er" / "dir"
    assert main(["homogeneous", "--out", str(nested)]) == 0
    assert (nested / "homogeneous.csv").exists()


@pytest.mark.parametrize("target", ["snapshot", "report", "cli_table"])
def test_csv_write_into_missing_directory_is_an_io_error(
        tmp_path, monkeypatch, capsys, target):
    missing = tmp_path / "missing"
    if target == "cli_table":
        # The CLI creates --out itself; skip that so the table write is the
        # step that meets the missing directory.
        monkeypatch.setattr(cli, "_ensure_outdir", lambda path: None)
        assert main(["homogeneous", "--out", str(missing)]) == 1
        assert "cannot write" in capsys.readouterr().err
        return
    write = {"snapshot": lambda path: save_snapshot(
                 FieldState.zero(Grid(nx=4, ny=4)), path),
             "report": VerificationReport().to_csv}[target]
    with pytest.raises(IoError, match="cannot write"):
        write(missing / "out.csv")


@pytest.mark.parametrize("kind", ["nonchiral", "chiral"])
def test_simulate_evaluates_rhs_once_per_step(tmp_path, monkeypatch, kind):
    calls = []
    kernel = dynamics._rhs

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_rhs", counting)
    cfg = write_config(tmp_path, dict(SMALL_SIM, model={"kind": kind}))
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "sim")]) == 0
    assert len(calls) == SMALL_SIM["sim"]["steps"] + 1


def test_simulate_failure_names_the_step(tmp_path, monkeypatch, capsys):
    # The fourth evaluation is the end of step 3 (the first is the initial
    # state); make it blow up.
    cfg = write_config(tmp_path, SMALL_SIM)
    reference = tmp_path / "reference"
    assert main(["simulate", "--config", cfg, "--out", str(reference)]) == 0
    calls = []
    kernel = dynamics._rhs

    def blowing_up(*args, **kwargs):
        calls.append(1)
        acc = kernel(*args, **kwargs)
        if len(calls) == 4:
            acc.acc_theta[0, 0] = math.inf
        return acc

    monkeypatch.setattr(dynamics, "_rhs", blowing_up)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "boom")]) == 2
    err = capsys.readouterr().err
    assert "numerical error: step 3 (t = 0.006): state became non-finite" in err
    # The run that died keeps every snapshot from before the failing step.
    for name in ("snapshot_000000.csv", "snapshot_000002.csv"):
        assert ((tmp_path / "boom" / name).read_bytes()
                == (reference / name).read_bytes())


def test_simulate_failure_at_step_0_names_it_and_keeps_the_header(
        tmp_path, capsys):
    # A start too large for the polar coupling: det F < 0 at the first
    # right-hand side.
    cfg = write_config(tmp_path, {
        "initial": {"kind": "random_smooth", "amplitude": 0.5},
        "sim": {"steps": 2}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert ("numerical error: step 0 (t = 0): det(F)"
            in capsys.readouterr().err)
    assert [path.name for path in out.iterdir()] == ["timeseries.csv"]
    assert ((out / "timeseries.csv").read_text()
            == "step,time," + EnergyBreakdown.CSV_HEADER + "\n")


def test_simulate_failed_snapshot_write_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL_SIM)
    reference, out = tmp_path / "reference", tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(reference)]) == 0
    blocked = out / "snapshot_000002.csv"
    blocked.mkdir(parents=True)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert f"error: cannot write {str(blocked)!r}" in capsys.readouterr().err
    # The writes before it, and any begun after it, finished whole.
    assert (out / "snapshot_000000.csv").is_file()
    for path in out.glob("snapshot_*.csv"):
        if path != blocked:
            assert path.read_bytes() == (reference / path.name).read_bytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


CHIRAL_SIM = {
    "grid": {"nx": 16, "ny": 16, "lx": 1.0, "ly": 1.0},
    "model": {"kind": "chiral"},
    "material": {"mu_s": 0.2, "lambda_s": 0.1, "mu_c_s": 0.1, "m1": 0.1,
                 "m2": -0.05, "m3": 0.05},
    "sim": {"dt": 0.002, "steps": 6, "output_every": 1},
    "initial": {"kind": "random_smooth", "seed": 5, "amplitude": 0.01,
                "modes": 2},
}


def unreaped(pids):
    """How many of ``pids`` are children not yet waited for."""
    count = 0
    for pid in pids:
        try:
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
        except ChildProcessError:
            continue
        count += 1
    return count


def counting_forks(monkeypatch):
    """Record the pid of every child ``os.fork`` makes from now on."""
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def test_forked_snapshots_match_inline_writes_one_writer_per_cpu(
        tmp_path, monkeypatch, deadline):
    handed = []  # (state as handed to write, path)
    writer = workers.snapshot_writer

    @contextlib.contextmanager
    def recording_writer(*args):
        with writer(*args) as write:
            def recording(state, path):
                handed.append((state.copy(), path))
                write(state, path)
            yield recording

    monkeypatch.setattr(workers, "snapshot_writer", recording_writer)
    forked = counting_forks(monkeypatch)
    cfg = write_config(tmp_path, CHIRAL_SIM)
    inline = tmp_path / "inline"
    inline.mkdir()
    for cpus in (1, 3):
        set_usable_cpus(monkeypatch, cpus)
        handed.clear()
        forked.clear()
        out = tmp_path / f"out_{cpus}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

        # One writer per usable CPU, however many snapshots there are; all
        # are gone when the run ends.
        assert len(handed) == CHIRAL_SIM["sim"]["steps"] + 1
        assert len(forked) == cpus
        assert unreaped(forked) == 0
        for state, path in handed:
            name = os.path.basename(path)
            save_snapshot(state, inline / name)
            assert (out / name).read_bytes() == (inline / name).read_bytes()


@pytest.mark.parametrize("steps, output_every, snapshots", [
    (0, 1, 1), (5, 2, 4), (6, 3, 3), (6, 10, 2)])
def test_the_pool_is_told_how_many_snapshots_the_run_writes(
        tmp_path, monkeypatch, deadline, steps, output_every, snapshots):
    # Every output_every-th step from step 0, and the last.
    counts = []
    writer = workers.snapshot_writer

    def counting_writer(grid, count, bands, cpus):
        counts.append(count)
        return writer(grid, count, bands, cpus)

    monkeypatch.setattr(workers, "snapshot_writer", counting_writer)
    cfg = write_config(tmp_path, {**SMALL_SIM, "sim": {
        "dt": 0.002, "steps": steps, "output_every": output_every}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert counts == [len(list(out.glob("snapshot_*.csv")))] == [snapshots]


@contextlib.contextmanager
def writer_pool(count):
    """The ``write`` of :func:`workers.run` for a run on a 4x4 grid that
    writes ``count`` snapshots."""
    default = ScenarioConfig.default()
    cfg = replace(default, grid=Grid(nx=4, ny=4),
                  sim=replace(default.sim, steps=count - 1, output_every=1))
    with workers.run(cfg, FieldState.zero(cfg.grid)) as (_, write):
        yield write


def test_the_pool_forks_its_writers_when_it_opens(tmp_path, monkeypatch,
                                                  deadline):
    # All before the caller's first right-hand side fills the heap, so the
    # forks share fewer pages: one per usable CPU, but no more than there
    # are snapshots, and none later.
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    state = random_smooth_state(Grid(nx=4, ny=4), 3, 0.1, 1)
    forked = counting_forks(monkeypatch)
    for cpus in (1, 2, 3):
        set_usable_cpus(monkeypatch, cpus)
        for count in (1, 21):
            forked.clear()
            with writer_pool(count) as write:
                assert len(forked) == min(cpus, count)
                for k in range(count):
                    write(state, tmp_path / f"snapshot_{k}.csv")
                assert len(forked) == min(cpus, count)
            assert unreaped(forked) == 0


def write_snapshots_and_wait(tmp_path, count, until_written):
    """Hand ``count`` snapshots of a 4x4 state to one writer pool, call
    ``until_written()`` once every file exists, before the pool ends, and
    check that each file has the bytes of an inline write."""
    state = random_smooth_state(Grid(nx=4, ny=4), 3, 0.1, 1)
    paths = [tmp_path / f"snapshot_{k}.csv" for k in range(count)]
    with writer_pool(count) as write:
        for path in paths:
            write(state, path)
        while not all(path.exists() for path in paths):
            time.sleep(0.001)
        until_written()
    save_snapshot(state, tmp_path / "inline.csv")
    for path in paths:
        assert path.read_bytes() == (tmp_path / "inline.csv").read_bytes()


def test_stepping_keeps_to_one_cpu_and_writer_k_to_the_kth_after_it(
        tmp_path, monkeypatch, deadline):
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("needs os.fork and os.sched_getaffinity")
    forked = counting_forks(monkeypatch)
    # Every usable CPU, then the lowest alone (the same_cpus fixture gives
    # the others back).
    for run in ("all", "one"):
        if run == "one":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        usable = sorted(os.sched_getaffinity(0))
        forked.clear()
        pinned = []
        # Twice as many snapshots as CPUs: one writer per CPU, each used
        # twice.
        (tmp_path / run).mkdir()
        write_snapshots_and_wait(tmp_path / run, 2 * len(usable),
                                 lambda: pinned.extend(
                                     os.sched_getaffinity(pid)
                                     for pid in (0, *forked)))
        # Writer k on the k-th CPU after the stepping one: the last writer
        # of a ring of one per CPU shares the stepping CPU.
        assert pinned == [{usable[0]}] + [{usable[(k + 1) % len(usable)]}
                                          for k in range(len(usable))]
        assert os.sched_getaffinity(0) == set(usable)


def test_the_stepping_process_gets_its_cpus_back(monkeypatch, deadline):
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("needs os.fork and os.sched_getaffinity")
    before = os.sched_getaffinity(0)
    with writer_pool(2):
        pass
    assert os.sched_getaffinity(0) == before
    with pytest.raises(KeyboardInterrupt):
        with writer_pool(2):
            raise KeyboardInterrupt
    assert os.sched_getaffinity(0) == before


@pytest.mark.parametrize("cpu_count", [3, None])
def test_without_cpu_affinity_one_writer_per_cpu_and_nothing_pinned(
        tmp_path, monkeypatch, deadline, cpu_count):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    affinity = getattr(os, "sched_getaffinity", None)
    before = affinity(0) if affinity else None
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    forked = counting_forks(monkeypatch)
    # No count of CPUs counts as one.
    writers = cpu_count or 1
    for count in (1, 2 * writers):
        forked.clear()
        write_snapshots_and_wait(tmp_path, count, lambda: None)
        assert len(forked) == min(writers, count)
        assert unreaped(forked) == 0
    if affinity:
        assert affinity(0) == before


def test_a_writer_that_cannot_pin_itself_still_writes(
        tmp_path, monkeypatch, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    set_usable_cpus(monkeypatch, 2)
    parent = os.getpid()
    tried = tmp_path / "tried"
    pin = getattr(os, "sched_setaffinity", None)

    def refused_in_the_writer(pid, cpus):
        if os.getpid() == parent:
            return pin(pid, cpus) if pin else None
        with open(tried, "a") as fh:
            fh.write(repr(cpus) + "\n")
        raise PermissionError("not allowed")

    monkeypatch.setattr(os, "sched_setaffinity", refused_in_the_writer,
                        raising=False)
    forked = counting_forks(monkeypatch)
    write_snapshots_and_wait(tmp_path, 2, lambda: None)
    assert len(forked) == 2
    assert sorted(tried.read_text().split()) == ["{0}", "{1}"]


def test_a_fork_that_fails_at_open_exits_1_and_leaves_nothing(
        tmp_path, monkeypatch, capsys, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    cfg = write_config(tmp_path, CHIRAL_SIM)
    set_usable_cpus(monkeypatch, 2)
    forked = counting_forks(monkeypatch)
    fork = os.fork

    def second_fork_fails():
        # The first writer is forked; the second cannot be.
        if forked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: cannot start a snapshot writer: "
        "[Errno 11] Resource temporarily unavailable\n")
    assert list(out.iterdir()) == []
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_run_died_at_snapshot_2(out, reference, err):
    """The run named snapshot 2's writer, kept snapshots 0 and 1 whole and
    left no child behind."""
    assert (f"error: cannot write {str(out / 'snapshot_000002.csv')!r}: "
            f"writer exited with -{int(signal.SIGKILL)}") in err
    assert "Traceback" not in err
    for name in ("snapshot_000000.csv", "snapshot_000001.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()
    assert not (out / "snapshot_000004.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_writer_killed_mid_snapshot_exits_1_naming_the_path(
        tmp_path, monkeypatch, capsys, deadline):
    cfg = write_config(tmp_path, CHIRAL_SIM)
    reference, out = tmp_path / "reference", tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(reference)]) == 0
    set_usable_cpus(monkeypatch, 2)
    save_band = workers._save_band

    def dying_save_band(grid, values, rows, path, previous, following):
        # Runs in the writer: die with snapshot 2 (one band) half written.
        if path.endswith("snapshot_000002.csv"):
            with open(path, "w") as fh:
                fh.write("i,j,x,y\n")
            os.kill(os.getpid(), signal.SIGKILL)
        save_band(grid, values, rows, path, previous, following)

    monkeypatch.setattr(workers, "_save_band", dying_save_band)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert_run_died_at_snapshot_2(out, reference, capsys.readouterr().err)


def test_writer_killed_while_idle_exits_1_naming_the_path(
        tmp_path, monkeypatch, capsys, deadline):
    cfg = write_config(tmp_path, CHIRAL_SIM)
    reference, out = tmp_path / "reference", tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(reference)]) == 0
    set_usable_cpus(monkeypatch, 1)
    forked = counting_forks(monkeypatch)
    abspath = os.path.abspath

    def killing_abspath(path):
        # The writer has answered for snapshot 1 and waits for the next:
        # kill it before snapshot 2 is sent down its pipe.
        if str(path).endswith("snapshot_000002.csv"):
            os.kill(forked[0], signal.SIGKILL)
            os.waitid(os.P_PID, forked[0], os.WEXITED | os.WNOWAIT)
        return abspath(path)

    monkeypatch.setattr(os.path, "abspath", killing_abspath)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert_run_died_at_snapshot_2(out, reference, capsys.readouterr().err)
    assert not (out / "snapshot_000002.csv").exists()


def test_interrupted_send_leaves_no_writer_behind(
        tmp_path, monkeypatch, deadline):
    cfg = write_config(tmp_path, CHIRAL_SIM)
    reference, out = tmp_path / "reference", tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(reference)]) == 0
    set_usable_cpus(monkeypatch, 1)
    parent, sends = os.getpid(), []
    send = workers._send

    def interrupted_send(fd, data):
        # A snapshot is a head and six fields: stop the parent half way
        # through the second field of snapshot 2.
        if os.getpid() == parent:
            sends.append(1)
            if len(sends) == 2 * 7 + 3:
                send(fd, memoryview(data).cast("B")[:100])
                raise KeyboardInterrupt
        send(fd, data)

    monkeypatch.setattr(workers, "_send", interrupted_send)
    with pytest.raises(KeyboardInterrupt):
        main(["simulate", "--config", cfg, "--out", str(out)])
    for name in ("snapshot_000000.csv", "snapshot_000001.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()
    assert not (out / "snapshot_000002.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_snapshot_write_names_the_absolute_path_inline_and_forked(
        tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path, SMALL_SIM)
    monkeypatch.chdir(tmp_path)
    blocked = tmp_path / "out" / "snapshot_000002.csv"
    blocked.mkdir(parents=True)
    errors = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        assert main(["simulate", "--config", cfg, "--out", "out"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: cannot write {str(blocked)!r}: ")


def test_simulate_without_fork_writes_inline(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, CHIRAL_SIM)
    forked, inline = tmp_path / "forked", tmp_path / "inline"
    assert main(["simulate", "--config", cfg, "--out", str(forked)]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["simulate", "--config", cfg, "--out", str(inline)]) == 0
    names = sorted(p.name for p in forked.iterdir())
    assert names == sorted(p.name for p in inline.iterdir())
    for name in names:
        assert (forked / name).read_bytes() == (inline / name).read_bytes()


#: A run on a grid of two bands' worth of nodes (workers.row_bands).
BAND_SIM = {
    "grid": {"nx": 256, "ny": 256},
    "sim": {"dt": 0.0002, "steps": 4, "output_every": 2},
    "initial": {"kind": "random_smooth", "seed": 3, "amplitude": 0.01},
}


def test_a_banded_run_writes_the_bytes_of_a_one_cpu_run(
        tmp_path, monkeypatch, deadline):
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("needs os.fork and os.sched_getaffinity")
    cfg = write_config(tmp_path, BAND_SIM)
    forked = counting_forks(monkeypatch)
    cpus = len(os.sched_getaffinity(0))
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "all")]) == 0
    # A writer per CPU for the 2 bands of each of the 3 snapshots, and a
    # band worker per CPU after the first for the 2 bands.
    assert len(forked) == min(cpus, 3 * 2) + min(cpus, 2) - 1
    forked.clear()
    # One usable CPU: one writer and the serial kernel (the same_cpus
    # fixture gives the others back).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "one")]) == 0
    assert len(forked) == 1
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "one").iterdir())
    for name in names:
        assert ((tmp_path / "all" / name).read_bytes()
                == (tmp_path / "one" / name).read_bytes())


def band_sim_outputs(tmp_path, monkeypatch, name):
    """Run BAND_SIM into ``tmp_path / name`` with the band rule of two usable
    CPUs; return the output directory."""
    set_usable_cpus(monkeypatch, 2)
    out = tmp_path / name
    assert main(["simulate", "--config", write_config(tmp_path, BAND_SIM),
                 "--out", str(out)]) == 0
    return out


def test_the_usable_cpus_are_read_once(tmp_path, monkeypatch, deadline):
    # Two usable CPUs when the run opens and one after that: the bands,
    # the band worker and the writers all follow the first reading.
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        pytest.skip("needs os.fork and os.sched_getaffinity")
    reference = band_sim_outputs(tmp_path, monkeypatch, "reference")
    reads = []

    def fewer_cpus_later(pid):
        reads.append(pid)
        return {0, 1} if len(reads) == 1 else {0}

    monkeypatch.setattr(os, "sched_getaffinity", fewer_cpus_later)
    forked = counting_forks(monkeypatch)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, BAND_SIM),
                 "--out", str(out)]) == 0
    # A writer per band and one band worker.
    assert len(forked) == 3
    assert unreaped(forked) == 0
    names = sorted(path.name for path in reference.iterdir())
    assert names == sorted(path.name for path in out.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (reference / name).read_bytes()


def test_each_band_of_a_snapshot_goes_to_a_different_writer(
        tmp_path, monkeypatch, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    log = tmp_path / "bands.log"
    save_band = workers._save_band

    def logging_save_band(grid, values, rows, path, previous, following):
        # Runs in the writers.
        with open(log, "a") as fh:
            fh.write(f"{os.path.basename(path)} {rows[0]} {rows[1]} "
                     f"{os.getpid()}\n")
        save_band(grid, values, rows, path, previous, following)

    monkeypatch.setattr(workers, "_save_band", logging_save_band)
    banded = band_sim_outputs(tmp_path, monkeypatch, "banded")
    writers = {}
    for line in log.read_text().splitlines():
        name, i0, i1, pid = line.split()
        writers.setdefault(name, {})[int(i0), int(i1)] = pid
    names = ["snapshot_00000%d.csv" % step for step in (0, 2, 4)]
    assert sorted(writers) == names
    for name in names:
        assert sorted(writers[name]) == [(0, 128), (128, 256)]
        assert len(set(writers[name].values())) == 2
    # The bytes of the serial kernel and inline writes.
    monkeypatch.delattr(os, "fork")
    inline = band_sim_outputs(tmp_path, monkeypatch, "inline")
    for path in inline.iterdir():
        assert (banded / path.name).read_bytes() == path.read_bytes()


def test_a_later_band_writer_killed_mid_snapshot_exits_1_naming_the_path(
        tmp_path, monkeypatch, capsys, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    reference = band_sim_outputs(tmp_path, monkeypatch, "reference")
    append = workers._append

    def dying_append(path, lines):
        # Runs in the writer of band 1: die with its rows half written.
        if path.endswith("snapshot_000002.csv"):
            append(path, lines[:1])
            os.kill(os.getpid(), signal.SIGKILL)
        return append(path, lines)

    monkeypatch.setattr(workers, "_append", dying_append)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, BAND_SIM),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {str(out / 'snapshot_000002.csv')!r}: "
        f"writer exited with -{int(signal.SIGKILL)}\n")
    name = "snapshot_000000.csv"
    assert (out / name).read_bytes() == (reference / name).read_bytes()
    # Band 0 and the first block of band 1; snapshot 4 never began.
    written = (out / "snapshot_000002.csv").read_bytes()
    whole = (reference / "snapshot_000002.csv").read_bytes()
    assert whole.index(b"\n128,0,") < len(written) < len(whole)
    assert whole.startswith(written)
    assert not (out / "snapshot_000004.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_later_band_appends_only_to_a_file_that_exists(
        tmp_path, monkeypatch, capsys, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    # Runs in the writer of band 0: writes nothing, yet succeeds.
    monkeypatch.setattr(workers, "write_grid_csv", lambda *args: None)
    set_usable_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_config(tmp_path, BAND_SIM),
                 "--out", str(out)]) == 1
    path = str(out / "snapshot_000000.csv")
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {path!r}: [Errno 2] No such file or directory: ")
    assert not list(out.glob("snapshot_*"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_first_band_writer_killed_leaves_the_next_neither_hung_nor_writing(
        tmp_path, monkeypatch, capsys, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    save_band = workers._save_band
    alarm = 20

    def dying_save_band(grid, values, rows, path, previous, following):
        # Runs in the writers: band 0 of snapshot 2 dies after a header
        # line, and the writer of band 1, had it waited for ever, is ended
        # by its own alarm.
        if path.endswith("snapshot_000002.csv"):
            if not rows[0]:
                with open(path, "w") as fh:
                    fh.write("i,j,x,y\n")
                os.kill(os.getpid(), signal.SIGKILL)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(alarm)
        save_band(grid, values, rows, path, previous, following)

    monkeypatch.setattr(workers, "_save_band", dying_save_band)
    set_usable_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    start = time.monotonic()
    assert main(["simulate", "--config", write_config(tmp_path, BAND_SIM),
                 "--out", str(out)]) == 1
    assert time.monotonic() - start < alarm
    assert capsys.readouterr().err == (
        f"error: cannot write {str(out / 'snapshot_000002.csv')!r}: "
        f"writer exited with -{int(signal.SIGKILL)}\n")
    assert (out / "snapshot_000002.csv").read_text() == "i,j,x,y\n"
    assert not (out / "snapshot_000004.csv").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_an_unwritable_band_path_names_the_first_bands_failure(
        tmp_path, monkeypatch, capsys, deadline):
    cfg = write_config(tmp_path, BAND_SIM)
    set_usable_cpus(monkeypatch, 2)
    out = tmp_path / "out"
    blocked = out / "snapshot_000002.csv"
    blocked.mkdir(parents=True)
    errors = []
    for fork in (True, False):
        if not fork:
            monkeypatch.delattr(os, "fork")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        errors.append(capsys.readouterr().err)
        assert not (out / "snapshot_000004.csv").exists()
    # The error of the first band, as an inline write raises it.
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: cannot write {str(blocked)!r}: ")
    assert errors[0].count("\n") == 1


def test_a_shared_mapping_the_system_refuses_is_out_of_memory(
        tmp_path, monkeypatch, capsys):
    set_usable_cpus(monkeypatch, 2)
    forked = counting_forks(monkeypatch)

    def refused(*args, **kwargs):
        raise OSError(errno.ENOMEM, "Cannot allocate memory")

    monkeypatch.setattr(mmap, "mmap", refused)
    cfg = write_config(tmp_path, BAND_SIM)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: cannot map the fields the row bands share: "
        "[Errno 12] Cannot allocate memory\n")
    assert forked == []
    assert list(out.iterdir()) == []


def test_a_band_worker_killed_mid_run_exits_2_and_leaves_nothing(
        tmp_path, monkeypatch, capsys, deadline):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    set_usable_cpus(monkeypatch, 2)
    parent, calls = os.getpid(), []
    rows = dynamics._rhs_rows

    def dying_rows(*args):
        # Runs in the worker as well: it dies in its third band, the end of
        # step 2.
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
        return rows(*args)

    monkeypatch.setattr(dynamics, "_rhs_rows", dying_rows)
    cfg = write_config(tmp_path, BAND_SIM)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"numerical error: step 2 (t = 0.0004): the band worker of rows 128 "
        f"to 255 exited with -{int(signal.SIGKILL)}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("way_out", [
    "end", "io", "degenerate", "non-finite", "interrupt", "interrupt-send"])
def test_no_process_outlives_a_banded_run(tmp_path, monkeypatch, capsys,
                                          deadline, way_out):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    set_usable_cpus(monkeypatch, 2)
    forked = counting_forks(monkeypatch)
    out = tmp_path / "out"
    if way_out == "io":
        (out / "snapshot_000002.csv").mkdir(parents=True)
    steps = []
    step = cli.step_leapfrog

    def failing_step(state, dt, rhs, p, acc):
        # Step 2 changes the shared positions or a velocity (which the
        # drift carries into u1) before it steps, or it is interrupted.
        steps.append(1)
        if len(steps) == 2:
            if way_out == "degenerate":  # d_x u1 = -3 at node (200, 17)
                state.u1[201, 17] = state.u1[199, 17] - 6.0 / 256
            elif way_out == "non-finite":
                state.v1[3, 3] = math.nan
            elif way_out == "interrupt":
                raise KeyboardInterrupt
        return step(state, dt, rhs, p, acc)

    monkeypatch.setattr(cli, "step_leapfrog", failing_step)
    parent, sends = os.getpid(), []
    send = workers._send

    def interrupted_send(fd, data):
        # A band is a head and six fields: stop the parent half way
        # through the second field of band 1 of snapshot 2, the fourth band.
        if os.getpid() == parent and way_out == "interrupt-send":
            sends.append(1)
            if len(sends) == 3 * 7 + 3:
                send(fd, memoryview(data).cast("B")[:100])
                raise KeyboardInterrupt
        send(fd, data)

    monkeypatch.setattr(workers, "_send", interrupted_send)
    cfg = write_config(tmp_path, BAND_SIM)
    argv = ["simulate", "--config", cfg, "--out", str(out)]
    if way_out.startswith("interrupt"):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        code, message = {
            "end": (0, ""),
            "io": (1, "error: cannot write"),
            "degenerate": (2, "numerical error: step 2 (t = 0.0004): "
                              "det(F) <= 1e-12 at node (200, 17)"),
            "non-finite": (2, "numerical error: step 2 (t = 0.0004): state "
                              "became non-finite during leapfrog step: u1 at "
                              "node (3, 3)"),
        }[way_out]
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(message)
    # A band worker and the writers were forked, and all are gone.
    assert len(forked) == 3
    assert unreaped(forked) == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
