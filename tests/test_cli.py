"""Command-line interface: exit codes, output files, byte determinism, and
the error paths promised by the tool."""

import json
import math
import os
import warnings

import numpy as np
import pytest

from cosserat2d import cli
from cosserat2d.cli import main
from cosserat2d.errors import IoError
from cosserat2d.fields import FieldState, Grid, save_snapshot
from cosserat2d.report import VerificationReport


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
    # The skew run grows for a few steps through huge but finite values
    # before the finiteness check fires; the typed error is the only report.
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
    assert "numerical error: step 83 (t = 41.5): state became non-finite" in err
    assert "RuntimeWarning" not in err


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


def test_missing_config_exits_1(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, {"material": {"mu_q": 1.0}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "unknown configuration key: 'material.mu_q'" in capsys.readouterr().err


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


def test_dispersion_is_byte_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["dispersion", "--out", str(out_a)]) == 0
    assert main(["dispersion", "--out", str(out_b)]) == 0
    assert ((out_a / "dispersion.csv").read_bytes()
            == (out_b / "dispersion.csv").read_bytes())


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


def test_reduce3d_writes_passing_report(tmp_path):
    out = tmp_path / "r"
    assert main(["reduce3d", "--out", str(out)]) == 0
    _, rows = read_csv(out / "reduction_report.csv")
    assert len(rows) == 35
    assert all(row[3] == "true" for row in rows)


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


@pytest.mark.parametrize("kind, name", [("nonchiral", "rhs_nonlinear"),
                                        ("chiral", "rhs_chiral")])
def test_simulate_evaluates_rhs_once_per_step(tmp_path, monkeypatch, kind,
                                              name):
    calls = []
    kernel = getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cli, name, counting)
    cfg = write_config(tmp_path, dict(SMALL_SIM, model={"kind": kind}))
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "sim")]) == 0
    assert len(calls) == SMALL_SIM["sim"]["steps"] + 1


def test_simulate_failure_names_the_step(tmp_path, monkeypatch, capsys):
    # The fourth evaluation is the end of step 3 (the first is the initial
    # state); make it blow up.
    calls = []
    kernel = cli.rhs_nonlinear

    def blowing_up(*args, **kwargs):
        calls.append(1)
        acc = kernel(*args, **kwargs)
        if len(calls) == 4:
            acc.acc_theta[0, 0] = math.inf
        return acc

    monkeypatch.setattr(cli, "rhs_nonlinear", blowing_up)
    cfg = write_config(tmp_path, SMALL_SIM)
    assert main(["simulate", "--config", cfg, "--out",
                 str(tmp_path / "boom")]) == 2
    err = capsys.readouterr().err
    assert "numerical error: step 3 (t = 0.006): state became non-finite" in err
