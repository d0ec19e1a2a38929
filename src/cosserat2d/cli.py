"""Command-line front end.

Subcommands:

* ``simulate``    — integrate the selected model in time, writing an energy
  time series and periodic field snapshots;
* ``dispersion``  — sweep the plane-wave branches of the linearized chiral
  model, writing branch data, the ratio/velocity law, and optionally an SVG;
* ``homogeneous`` — report the spatially uniform equilibria and their
  residuals;
* ``verify``      — run the full verification suite and write its report;
* ``reduce3d``    — run only the three-dimensional reduction checks.

Exit codes: 0 success, 1 configuration or I/O problem, 2 numerical failure
(degenerate state, blow-up, undefined quantity), 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .config import ScenarioConfig, load_config
from .dynamics import (
    _homogeneous_root_error,
    homogeneous_residual,
    homogeneous_roots,
    rhs_chiral,
    rhs_nonlinear,
    step_leapfrog,
    verify_variational_consistency,
)
from .energy import EnergyBreakdown, energy_breakdown
from .errors import (
    ConfigError,
    Cosserat2DError,
    DegenerateDeformation,
    ImaginarySpeed,
    IoError,
    NonFiniteState,
    NoRealBranch,
    ZeroDenominator,
)
from .fields import FieldState, snapshot_writer
from .materials import CHIRAL, MaterialParams, ModelSelector
from .reduction3d import full_reduction_report
from .report import VerificationReport, write_csv
from .rng import random_smooth_state
from .waves import (
    WaveParams,
    amplitude_ratio,
    dispersion_branches,
    dispersion_cubic,
    phase_velocity,
    transverse_free_residual,
    velocity_curve,
    vl,
    vt,
    wave_matrix,
)

DISPERSION_HEADER = ("k,branch_index,omega,u_hat,v_hat,phi_hat_imag,"
                     "ratio,phase_velocity")


def _ensure_outdir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path!r}: {exc}") from exc


# --------------------------------------------------------------------------
# Initial conditions
# --------------------------------------------------------------------------

def build_initial_state(cfg: ScenarioConfig) -> FieldState:
    init = cfg.initial
    if init.kind == "zero":
        return FieldState.zero(cfg.grid)
    if init.kind == "random_smooth":
        return random_smooth_state(cfg.grid, init.seed, init.amplitude,
                                   init.modes)
    return _plane_wave_state(cfg)


def _plane_wave_state(cfg: ScenarioConfig) -> FieldState:
    """Rightward-travelling plane wave of the linearized chiral model,
    wavenumber snapped to the grid period so the field is exactly periodic."""
    grid = cfg.grid
    wp = WaveParams.from_material(cfg.material)
    try:
        n_periods = max(1, round(cfg.initial.k * grid.lx / (2.0 * math.pi)))
        k = 2.0 * math.pi * n_periods / grid.lx
        branches = dispersion_branches(k, wp)
    except OverflowError as exc:
        raise ConfigError(f"initial.k = {cfg.initial.k!r} is too large for a "
                          f"plane wave on grid.lx = {grid.lx!r}: {exc}") from exc
    if cfg.initial.branch >= len(branches):
        raise ConfigError(
            f"initial.branch {cfg.initial.branch} does not exist: the model "
            f"has {len(branches)} branches at k = {k:.6g}")
    branch = branches[cfg.initial.branch]
    omega = branch.omega
    amp = cfg.initial.amplitude

    x, _ = grid.coords()
    phase = np.exp(1j * k * x)
    u_c = branch.u_hat * phase
    v_c = branch.v_hat * phase
    phi_c = branch.phi_hat * phase
    # field(t) = Re(z exp(i k x) exp(-i omega t)); rate at t=0 is
    # omega * Im(z exp(i k x)); the model angle is minus the wave angle.
    return FieldState(grid=grid,
                      u1=amp * u_c.real,
                      u2=amp * v_c.real,
                      theta=-amp * phi_c.real,
                      v1=amp * omega * u_c.imag,
                      v2=amp * omega * v_c.imag,
                      omega=-amp * omega * phi_c.imag)


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------

def _rhs_for(cfg: ScenarioConfig):
    if cfg.model.kind == CHIRAL:
        return rhs_chiral
    coupling = cfg.model.coupling
    eps_reg = cfg.sim.eps_reg

    def rhs(state, p):
        return rhs_nonlinear(state, p, coupling=coupling, eps_reg=eps_reg)

    return rhs


def cmd_simulate(cfg: ScenarioConfig, outdir: str) -> int:
    _ensure_outdir(outdir)
    state = build_initial_state(cfg)
    rhs = _rhs_for(cfg)
    p, sim = cfg.material, cfg.sim

    rows = []

    def record(step: int, current: FieldState, acc) -> None:
        breakdown = energy_breakdown(acc.potential, current, p)
        rows.append((step, step * sim.dt) + breakdown.csv_row())

    # A state that grows without bound overflows for a few steps before
    # step_leapfrog's finiteness check fires; that typed error is the report.
    # Snapshots are written by forked children while the stepping goes on.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            snapshot_writer() as write:
        def snapshot(step: int, current: FieldState) -> None:
            write(current, os.path.join(outdir, "snapshot_%06d.csv" % step))

        acc = rhs(state, p)
        record(0, state, acc)
        snapshot(0, state)
        for step in range(1, sim.steps + 1):
            try:
                state, acc = step_leapfrog(state, sim.dt, rhs, p, acc)
            except (NonFiniteState, DegenerateDeformation) as exc:
                raise type(exc)(f"step {step} (t = {step * sim.dt:.6g}): "
                                f"{exc}") from exc
            record(step, state, acc)
            if step % sim.output_every == 0 or step == sim.steps:
                snapshot(step, state)
    write_csv(os.path.join(outdir, "timeseries.csv"),
              "step,time," + EnergyBreakdown.CSV_HEADER, zip(*rows))
    return 0


# --------------------------------------------------------------------------
# dispersion
# --------------------------------------------------------------------------

def cmd_dispersion(cfg: ScenarioConfig, outdir: str, svg: bool) -> int:
    _ensure_outdir(outdir)
    wp = WaveParams.from_material(cfg.material)
    rows = []
    per_branch_points: dict[int, list[tuple[float, float]]] = {}
    # Past about k = 1e154 the wave matrix overflows: numpy stays quiet and
    # that k gets the typed no-real-branch warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.linspace(cfg.wave.k_min, cfg.wave.k_max,
                             cfg.wave.k_steps):
            try:
                branches = dispersion_branches(k, wp)
            except NoRealBranch as exc:
                print(f"warning: no real branch: {exc}", file=sys.stderr)
                continue
            for index, branch in enumerate(branches):
                try:
                    ratio = amplitude_ratio(k, branch.omega, wp)
                except ZeroDenominator:
                    ratio = math.nan
                speed = branch.omega / k
                rows.append((k, index, branch.omega, branch.u_hat.real,
                             branch.v_hat.real, branch.phi_hat.imag, ratio,
                             speed))
                per_branch_points.setdefault(index, []).append(
                    (k, branch.omega))
        curve = velocity_curve(wp)
    write_csv(os.path.join(outdir, "dispersion.csv"), DISPERSION_HEADER,
              zip(*rows))
    write_csv(os.path.join(outdir, "ratio_velocity.csv"), "ratio,velocity",
              zip(*curve))
    if svg:
        _write_dispersion_svg(os.path.join(outdir, "dispersion.svg"),
                              per_branch_points)
    return 0


def _write_dispersion_svg(path: str, per_branch) -> None:
    """Minimal standalone SVG: one polyline per branch over (k, omega)."""
    width, height, margin = 640, 480, 50
    points = [pt for pts in per_branch.values() for pt in pts]
    if not points:
        raise NoRealBranch("dispersion sweep produced no plottable branch")
    k_lo = min(pt[0] for pt in points)
    k_hi = max(pt[0] for pt in points)
    w_hi = max(pt[1] for pt in points)
    k_span = (k_hi - k_lo) or 1.0
    w_span = w_hi or 1.0

    def to_xy(k, w):
        px = margin + (k - k_lo) / k_span * (width - 2 * margin)
        py = height - margin - w / w_span * (height - 2 * margin)
        return f"{px:.2f},{py:.2f}"

    colors = ("#3b6fb2", "#d07b28", "#3d8a52")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" font-size="14" '
        f'text-anchor="middle">wavenumber k</text>',
        f'<text x="16" y="{height // 2}" font-size="14" text-anchor="middle" '
        f'transform="rotate(-90 16 {height // 2})">angular frequency</text>',
    ]
    for index in sorted(per_branch):
        coords = " ".join(to_xy(k, w) for k, w in per_branch[index])
        parts.append(f'<polyline fill="none" stroke="{colors[index % 3]}" '
                     f'stroke-width="1.5" points="{coords}"/>')
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {path!r}: {exc}") from exc


# --------------------------------------------------------------------------
# homogeneous
# --------------------------------------------------------------------------

def cmd_homogeneous(cfg: ScenarioConfig, outdir: str) -> int:
    _ensure_outdir(outdir)
    p, sel = cfg.material, cfg.model
    roots = homogeneous_roots(p, sel)
    rows = [
        ("trivial_root_zero", 0.0),
        ("trivial_root_pi", math.pi),
        ("nontrivial_cosine", roots.nontrivial_cos),
        ("feasible", 1.0 if roots.feasible else 0.0),
        ("residual_at_zero", homogeneous_residual(0.0, p, sel)),
        ("residual_at_pi", homogeneous_residual(math.pi, p, sel)),
    ]
    if roots.feasible:
        angle = math.acos(roots.nontrivial_cos)
        rows.append(("nontrivial_root", angle))
        rows.append(("residual_at_nontrivial",
                     homogeneous_residual(angle, p, sel)))
    write_csv(os.path.join(outdir, "homogeneous.csv"), "quantity,value",
              zip(*rows))
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _wave_identity_report(scale: float) -> VerificationReport:
    """Plane-wave identities on a fixed realizable preset: branch residuals,
    the ratio/velocity loop, the two speed limits, curve monotonicity, and
    the transverse-displacement-free wave."""
    report = VerificationReport()
    wp = WaveParams()

    det_worst = 0.0
    null_worst = 0.0
    loop_worst = 0.0
    for k in (0.3, 1.0, 2.7):
        coeffs = dispersion_cubic(k, wp)
        for branch in dispersion_branches(k, wp):
            x = branch.omega**2
            value = abs(((coeffs[0] * x + coeffs[1]) * x + coeffs[2]) * x
                        + coeffs[3])
            det_scale = max(abs(coeffs[0] * x**3), abs(coeffs[1] * x**2),
                            abs(coeffs[2] * x), abs(coeffs[3]), 1e-300)
            det_worst = max(det_worst, value / det_scale)

            m = wave_matrix(k, branch.omega, wp)
            vec = branch.amplitudes()
            null_worst = max(
                null_worst,
                float(np.linalg.norm(m @ vec))
                / (float(np.linalg.norm(m)) * float(np.linalg.norm(vec))))

            try:
                ratio = amplitude_ratio(k, branch.omega, wp)
                speed = phase_velocity(ratio, wp)
            except (ZeroDenominator, ImaginarySpeed):
                continue
            loop_worst = max(loop_worst,
                             abs(speed - branch.omega / k) / (branch.omega / k))
    report.add("wave_determinant_residual", det_worst, 1e-10 * scale)
    report.add("wave_nullspace_residual", null_worst, 1e-10 * scale)
    report.add("wave_velocity_loop_closure", loop_worst, 1e-8 * scale)

    report.add("wave_transverse_speed_limit",
               abs(phase_velocity(0.0, wp) - vt(wp)) / vt(wp), 1e-8 * scale)
    report.add("wave_longitudinal_speed_limit",
               abs(phase_velocity(1e12, wp) - vl(wp)) / vl(wp), 1e-8 * scale)

    curve = velocity_curve(wp, samples=200)
    finite = [v for r, v in curve if math.isfinite(r)]
    increasing = all(b >= a for a, b in zip(finite, finite[1:]))
    decreasing = all(b <= a for a, b in zip(finite, finite[1:]))
    report.add("wave_velocity_curve_monotone",
               0.0 if (increasing or decreasing) else 1.0, 0.5)

    tf_worst = max(transverse_free_residual(1.2, 0.9, wp),
                   transverse_free_residual(0.7, 1.3, wp))
    report.add("wave_transverse_free_residual", tf_worst, 1e-10 * scale)
    return report


def _flag_report(scale: float) -> VerificationReport:
    """Convention indicator rows: conditions that hold only in the corrected
    form are checked in that corrected form (see the README notes)."""
    report = VerificationReport()

    # Uniform-rotation residual at a quarter turn reduces to lam + mu only
    # once the couple modulus is absent.
    p0 = MaterialParams(mu=1.7, lam=0.9, mu_c=0.0)
    sel0 = ModelSelector.nonchiral()
    value = homogeneous_residual(0.5 * math.pi, p0, sel0)
    report.add("flag_quarter_turn_residual_needs_zero_couple_modulus",
               abs(value - (p0.lam + p0.mu)), 1e-13 * scale)

    # Realizability of the longitudinal branch: A^2 strictly below
    # mu_c (lam + 2 mu). Indicator checks both sides of the inequality.
    good = WaveParams().realizable()
    bad = WaveParams(a=2.0).realizable()
    report.add("flag_realizability_inequality_orientation",
               0.0 if (good and not bad) else 1.0, 0.5)
    return report


def _verify_state(cfg: ScenarioConfig) -> FieldState:
    """The configured random state, or a fixed one for the other kinds
    (a zero or plane-wave state would leave most checks without signal)."""
    if cfg.initial.kind == "random_smooth":
        return build_initial_state(cfg)
    return random_smooth_state(cfg.grid, 1234, 0.05, 3)


def _write_report(report: VerificationReport, path: str) -> int:
    """Write ``report`` to ``path``, print the pass count and one FAIL line
    per failed check; exit code 0 if every check passed, else 3."""
    report.to_csv(path)
    failures = report.failures()
    print(f"{len(report.checks) - len(failures)}/{len(report.checks)} "
          f"checks passed")
    for failure in failures:
        print(f"FAIL {failure.name}: error {failure.max_abs_error:.3e} "
              f"> tolerance {failure.tolerance:.3e}", file=sys.stderr)
    return 0 if report.all_pass else 3


def cmd_verify(cfg: ScenarioConfig, outdir: str) -> int:
    _ensure_outdir(outdir)
    scale = cfg.verify.tolerance_scale
    report = VerificationReport()

    state = _verify_state(cfg)
    # A huge state overflows in the kernels; the rows it spoils read inf and
    # fail, and that is the report.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report.extend(verify_variational_consistency(
            state, cfg.material, cfg.model, eps_reg=cfg.sim.eps_reg,
            tolerance_scale=scale))

    # Uniform equilibria of the configured model: every reported root must
    # actually zero the residual, to round-off of the moduli it is made of.
    report.add("homogeneous_roots_zero_residual",
               _homogeneous_root_error(cfg.material, cfg.model), 1e-12 * scale)

    report.extend(full_reduction_report().scaled(scale))
    report.extend(_wave_identity_report(scale))
    report.extend(_flag_report(scale))

    return _write_report(report, os.path.join(outdir, "verify_report.csv"))


def cmd_reduce3d(cfg: ScenarioConfig, outdir: str) -> int:
    _ensure_outdir(outdir)
    report = full_reduction_report().scaled(cfg.verify.tolerance_scale)
    return _write_report(report, os.path.join(outdir, "reduction_report.csv"))


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosserat2d",
        description="Planar micropolar elasticity: simulation, dispersion, "
                    "and verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
            ("simulate", "integrate the model in time"),
            ("dispersion", "sweep plane-wave branches"),
            ("homogeneous", "report uniform equilibria"),
            ("verify", "run the verification suite"),
            ("reduce3d", "run the 3D reduction checks")):
        cmd = sub.add_parser(name, help=blurb)
        cmd.add_argument("--config", default=None,
                         help="JSON scenario file (defaults are used if omitted)")
        cmd.add_argument("--out", default=".",
                         help="output directory (created if missing)")
        if name == "dispersion":
            cmd.add_argument("--svg", action="store_true",
                             help="also write dispersion.svg")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = (load_config(args.config) if args.config
               else ScenarioConfig.default())
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        if args.command == "dispersion":
            return cmd_dispersion(cfg, args.out, args.svg)
        if args.command == "homogeneous":
            return cmd_homogeneous(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out)
        return cmd_reduce3d(cfg, args.out)
    except (ConfigError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Cosserat2DError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        # A Python-float power of a huge modulus (L_c**2 past about 1e154,
        # say) raises where numpy would give inf.
        print(f"numerical error: a value overflows a double: {exc.args[-1]}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
