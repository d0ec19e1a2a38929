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

Exit codes: 0 success, 1 configuration, I/O or out-of-memory problem,
2 numerical failure (degenerate state, blow-up, undefined quantity),
3 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys

import numpy as np

from . import workers
from .config import ScenarioConfig, load_config
from .dynamics import (
    homogeneous_residual,
    homogeneous_root_report,
    homogeneous_roots,
    quarter_turn_flag_report,
    step_leapfrog,
    verify_variational_consistency,
)
from .energy import EnergyBreakdown, energy_breakdown
from .errors import (
    ConfigError,
    Cosserat2DError,
    DegenerateDeformation,
    IoError,
    NonFiniteState,
    NoRealBranch,
    WorkerExited,
)
from .fields import FieldState
from .reduction3d import full_reduction_report
from .report import (
    BLOCK_ROWS,
    VerificationReport,
    append_csv,
    write_csv,
    write_lines,
)
from .rng import random_smooth_state
from .waves import (
    BranchTable,
    WaveParams,
    amplitude_ratios,
    dispersion_sweep,
    realizability_flag_report,
    velocity_curve,
    wave_identity_report,
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
    # A wavenumber too large for the grid or the material is one
    # configuration error: the wave matrix overflows to a non-finite entry,
    # and an infinite period count makes round() raise OverflowError.
    try:
        n_periods = max(1, round(cfg.initial.k * grid.lx / (2.0 * math.pi)))
        k = 2.0 * math.pi * n_periods / grid.lx
        finite = np.isfinite(wave_matrix(k, 0.0, wp)).all()
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"initial.k = {cfg.initial.k!r} is too large for a "
                          f"plane wave on grid.lx = {grid.lx!r}: its wave "
                          f"matrix is not finite for this material")
    table = dispersion_sweep([k], wp)
    if table.missing:
        raise NoRealBranch(table.missing[0])
    branch = cfg.initial.branch
    if branch >= len(table.omega):
        raise ConfigError(
            f"initial.branch {branch} does not exist: the model "
            f"has {len(table.omega)} branches at k = {k:.6g}")
    omega = float(table.omega[branch])
    amp = cfg.initial.amplitude

    x, _ = grid.coords()
    phase = np.exp(1j * k * x)
    u_c, v_c, phi_c = (z * phase for z in table.amplitudes[branch].tolist())
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

#: glibc's ``mallopt`` parameters and the values set for the stepping loop:
#: the largest mmap threshold on 64-bit hosts, and a trim threshold above it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_THRESHOLD_BYTES, _MMAP_THRESHOLD_BYTES = 64 << 20, 32 << 20


def _keep_freed_memory() -> None:
    """Ask glibc to keep freed grid-sized arrays on its heap.

    By default glibc maps each array above its mmap threshold on its own and
    returns it to the kernel when freed, so every right-hand side faults its
    temporaries in again, page by page.  Above these thresholds it keeps
    them for the next step.  Where libc has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    except (AttributeError, OSError, TypeError):
        pass


def cmd_simulate(cfg: ScenarioConfig, outdir: str) -> int:
    _keep_freed_memory()
    state = build_initial_state(cfg)
    p, sim = cfg.material, cfg.sim

    timeseries = os.path.join(outdir, "timeseries.csv")
    rows = []

    def record(step: int, current: FieldState, acc) -> None:
        breakdown = energy_breakdown(acc.potential, current, p)
        row = breakdown.csv_row()
        if not math.isfinite(breakdown.total):
            name, value = next(
                (name, value) for name, value
                in zip(EnergyBreakdown.CSV_HEADER.split(","), row)
                if not math.isfinite(value))
            raise NonFiniteState(
                f"energy became non-finite ({name} = {float(value)!r})")
        rows.append((step, step * sim.dt) + row)
        if len(rows) == BLOCK_ROWS:
            append_csv(timeseries, zip(*rows))
            rows.clear()

    # A state that grows without bound overflows in the kernels before its
    # energy row or its fields stop being finite; that typed error is the
    # report.
    # Snapshots are written by forked children while the stepping goes on.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
            workers.run(cfg, state) as (rhs, write):
        # The time series is written as the run goes, so a run that dies
        # keeps every row it computed.
        write_csv(timeseries, "step,time," + EnergyBreakdown.CSV_HEADER, [])
        try:
            for step in range(sim.steps + 1):
                try:
                    if step:
                        state, acc = step_leapfrog(state, sim.dt, rhs, p, acc)
                    else:  # step 0 is the initial state
                        acc = rhs(state, p)
                    record(step, state, acc)
                except (NonFiniteState, DegenerateDeformation,
                        WorkerExited) as exc:
                    raise type(exc)(f"step {step} (t = {step * sim.dt:.6g}): "
                                    f"{exc}") from exc
                if sim.writes_snapshot(step):
                    write(state, os.path.join(outdir,
                                              "snapshot_%06d.csv" % step))
        finally:
            append_csv(timeseries, zip(*rows))
    return 0


# --------------------------------------------------------------------------
# dispersion
# --------------------------------------------------------------------------

def cmd_dispersion(cfg: ScenarioConfig, outdir: str, svg: bool) -> int:
    wp = WaveParams.from_material(cfg.material)
    table = dispersion_sweep(
        np.linspace(cfg.wave.k_min, cfg.wave.k_max, cfg.wave.k_steps), wp)
    for message in table.missing:
        print(f"warning: no real branch: {message}", file=sys.stderr)
    if not len(table.k):
        raise NoRealBranch("dispersion sweep produced no branch at any "
                           "wavenumber")
    # Extreme moduli overflow the ratio: the row reads inf or nan, quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = amplitude_ratios(table.k, table.omega, wp)
        speed = table.omega / table.k
        curve = velocity_curve(wp)
    z = table.amplitudes
    write_csv(os.path.join(outdir, "dispersion.csv"), DISPERSION_HEADER,
              [table.k, table.index, table.omega, z[:, 0].real, z[:, 1].real,
               z[:, 2].imag, ratio, speed])
    write_csv(os.path.join(outdir, "ratio_velocity.csv"), "ratio,velocity",
              zip(*curve))
    if svg:
        _write_dispersion_svg(os.path.join(outdir, "dispersion.svg"), table)
    return 0


def _write_dispersion_svg(path: str, table: BranchTable) -> None:
    """Minimal standalone SVG: one polyline per branch over (k, omega)."""
    width, height, margin = 640, 480, 50
    k_lo = float(table.k.min())
    k_hi = float(table.k.max())
    w_hi = float(table.omega.max())
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
    for index in np.unique(table.index).tolist():
        pick = table.index == index
        coords = " ".join(to_xy(k, w) for k, w in zip(
            table.k[pick].tolist(), table.omega[pick].tolist()))
        parts.append(f'<polyline fill="none" stroke="{colors[index % 3]}" '
                     f'stroke-width="1.5" points="{coords}"/>')
    parts.append("</svg>")
    write_lines(path, [("\n".join(parts) + "\n").encode("utf-8")])


# --------------------------------------------------------------------------
# homogeneous
# --------------------------------------------------------------------------

def cmd_homogeneous(cfg: ScenarioConfig, outdir: str) -> int:
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
    report = VerificationReport()

    state = _verify_state(cfg)
    # A huge state overflows in the kernels; the rows it spoils read inf and
    # fail, and that is the report.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report.extend(verify_variational_consistency(
            state, cfg.material, cfg.model, eps_reg=cfg.sim.eps_reg))

    report.extend(homogeneous_root_report(cfg.material, cfg.model))
    report.extend(full_reduction_report())
    report.extend(wave_identity_report())
    report.extend(quarter_turn_flag_report())
    report.extend(realizability_flag_report())

    return _write_report(report.scaled(cfg.verify.tolerance_scale),
                         os.path.join(outdir, "verify_report.csv"))


def cmd_reduce3d(cfg: ScenarioConfig, outdir: str) -> int:
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
        _ensure_outdir(args.out)
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
    except MemoryError as exc:
        # A grid too large for this machine is a configuration it cannot run.
        print(f"error: out of memory: {exc}", file=sys.stderr)
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
