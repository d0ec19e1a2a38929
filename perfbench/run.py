"""The cosserat2d benchmark.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload sim_polar_256 --seed 1 --seconds 40 --trace 0

Runs the workload's commands through ``cosserat2d.cli.main`` in a closed
loop: one repetition at a time, each in a fresh process with BLAS/OpenMP
threads pinned to 1, until ``--seconds`` have been spent.  Every
repetition's outputs are checked.  Each repetition also times a fixed
calibration kernel (``calibrate.py``) around its commands; ``wall_cal_s``
is the commands' wall time over the kernel's, in seconds of the host the
benchmark was written on, which takes out most of a shared host's drift.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced repetitions alternate and the per-layer metrics and the
tracing overhead are printed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything is
written under ``perfbench/work/``; the full results and the spans go to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import workloads
from spans import LAYERS, self_times_ns

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "work")
DIGESTS = os.path.join(HERE, "digests.json")

#: No repetition may start once this much time has gone, so that a run ends
#: well inside 180 seconds whatever ``--seconds`` says.
HARD_STOP_S = 150.0

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"wall_cal_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "rng.random_smooth_state_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "dynamics.step_ms.p50": "ms",
    "dynamics.step_ms.p90": "ms",
    "dynamics.rhs_ms.p50": "ms",
    "dynamics.rhs_calls_per_step": "count",
    "dynamics.rhs_alloc_mb": "MB",
    "dynamics.verify_s": "s",
    "energy.total_energy_ms.p50": "ms",
    "energy.total_energy_calls_per_step": "count",
    "energy.total_energy_alloc_mb": "MB",
    "energy.potential_total_calls": "count",
    "algebra.polar2_ms_per_step": "ms",
    "algebra.self_ms_per_step": "ms",
    "fields.stencil_ms_per_step": "ms",
    "fields.snapshot_ms.p50": "ms",
    "fields.snapshot_mb_per_s": "MB/s",
    "fields.snapshot_share": "fraction",
    "waves.dispersion_branches_ms.p50": "ms",
    "waves.dispersion_branches_ms.p90": "ms",
    "waves.branches_per_k": "count",
    "reduction3d.report_s": "s",
    "trace.overhead_s": "s",
}

_RHS = ("dynamics.rhs_nonlinear", "dynamics.rhs_chiral")
_ALGEBRA_SMALL = ("algebra.mat_mul", "algebra.rot2", "algebra.transpose2",
                  "algebra.trace2")
_STENCILS = ("fields.deformation_gradients", "fields.grad_scalar",
             "fields.div_vector", "fields.div_matrix")


# --------------------------------------------------------------------------
# one repetition
# --------------------------------------------------------------------------

def run_rep(root: str, w: workloads.Workload, repdir: str, run_id: str,
            trace: bool, timeout: float) -> dict:
    """Run one repetition in a fresh process; return its report (``None``
    fields on a crash) plus the exit status and captured stderr."""
    outdir = os.path.join(repdir, "out")
    os.makedirs(repdir, exist_ok=True)
    config_path = os.path.join(repdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(w.config, fh, indent=1)
    spec = {
        "src": os.path.join(root, "src"),
        "config": config_path,
        "commands": w.argv(config_path, outdir),
        "trace": trace,
        "measure_alloc": trace and w.steps > 0,
        "report": os.path.join(repdir, "report.json"),
    }
    spec_path = os.path.join(repdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), spec_path],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
        status, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        status, stderr = None, f"timed out after {timeout:.0f} s"
    report = None
    if status == 0:
        with open(spec["report"], encoding="utf-8") as fh:
            report = json.load(fh)
    return {"status": status, "stderr": stderr[-2000:], "report": report,
            "outdir": outdir, "trace": trace, "run_id": run_id}


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _floats(cells) -> list[float]:
    return [float(c) for c in cells]


def _read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]


def check_rep(w: workloads.Workload, rep: dict) -> dict:
    """Check one repetition's exit codes and outputs.

    ``failed`` lists what makes the repetition a failed operation (a crash,
    exit code 1 or 2, a missing or non-finite output); ``wrong`` lists
    results that are present but incorrect.  Also returns the sha256 of
    every output file and the information metrics."""
    failed, wrong, info = [], [], {}
    report = rep["report"]
    if report is None:
        failed.append(f"crash (status {rep['status']}): {rep['stderr'].strip()}")
        return {"failed": failed, "wrong": wrong, "info": info, "digests": {}}
    for cmd, code, allowed in zip(w.commands, report["exit_codes"],
                                  w.exit_codes):
        if code in (1, 2):
            failed.append(f"{cmd} exited with {code}")
        elif code not in allowed:
            wrong.append(f"{cmd} exited with {code}")

    digests, snapshot_bytes = {}, 0
    for name in w.expected_files():
        path = os.path.join(rep["outdir"], name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError:
            failed.append(f"missing output {name}")
            continue
        digests[name] = hashlib.sha256(data).hexdigest()
        try:
            _check_file(w, name, data, failed, wrong, info)
        except (ValueError, IndexError) as exc:
            wrong.append(f"{name} does not parse: {exc}")
        if name.startswith("snapshot_"):
            snapshot_bytes += len(data)
    info["snapshot_bytes"] = snapshot_bytes
    extra = sorted(set(os.listdir(rep["outdir"])) - set(w.expected_files())) \
        if os.path.isdir(rep["outdir"]) else []
    if extra:
        wrong.append(f"unexpected outputs {extra}")
    if "verify_report.csv" in digests:
        failing = info.get("failing_checks", [])
        if bool(failing) != (3 in report["exit_codes"]):
            wrong.append("exit codes disagree with the failing report rows")
        unknown = sorted(set(failing) - workloads.KNOWN_FAILING_CHECKS)
        if unknown:
            wrong.append(f"verification checks failed: {unknown}")
    return {"failed": failed, "wrong": wrong, "info": info, "digests": digests}


def _check_file(w, name, data, failed, wrong, info) -> None:
    nx, ny = w.grid
    if name.startswith("snapshot_"):
        body = data.split(b"\n", 1)[1]
        if b"nan" in body or b"inf" in body:
            failed.append(f"non-finite value in {name}")
        rows = body.count(b"\n")
        if rows != nx * ny:
            wrong.append(f"{name} has {rows} rows, not {nx * ny}")
    elif name == "timeseries.csv":
        rows = [_floats(r) for r in _read_csv(data)]
        if not all(math.isfinite(v) for r in rows for v in r):
            failed.append("non-finite value in timeseries.csv")
            return
        if len(rows) != w.steps + 1:
            wrong.append(f"timeseries.csv has {len(rows)} rows, "
                         f"not {w.steps + 1}")
        e0 = rows[0][-1]
        drift = (max(abs(r[-1] - e0) for r in rows) / abs(e0) if e0
                 else math.inf)
        info["energy_drift_rel"] = drift
        if not drift <= workloads.DRIFT_LIMIT:
            wrong.append(f"energy drift {drift:.3e} above "
                         f"{workloads.DRIFT_LIMIT:g}")
    elif name in ("verify_report.csv", "reduction_report.csv"):
        rows = _read_csv(data)
        if not all(math.isfinite(float(r[1])) for r in rows):
            failed.append(f"non-finite error in {name}")
        failing = [r[0] for r in rows if r[3] != "true"]
        info["verify_failed_checks"] = (info.get("verify_failed_checks", 0)
                                        + len(failing))
        info.setdefault("failing_checks", []).extend(failing)
    elif name == "dispersion.csv":
        rows = [_floats(r) for r in _read_csv(data)]
        # k, omega and phase velocity are always finite; the amplitude ratio
        # is NaN where its denominator vanishes.
        if not all(math.isfinite(r[i]) for r in rows for i in (0, 2, 7)):
            failed.append("non-finite frequency in dispersion.csv")
        expected = 3 * w.config["wave"]["k_steps"]
        if len(rows) != expected:
            wrong.append(f"dispersion.csv has {len(rows)} rows, not {expected}")
    elif name == "ratio_velocity.csv":
        rows = [_floats(r) for r in _read_csv(data)]
        # The ratio runs to +inf at the longitudinal end; speeds are finite.
        if not rows or not all(math.isfinite(r[1]) for r in rows):
            failed.append("missing or non-finite speed in ratio_velocity.csv")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def wall_s(report: dict) -> float:
    return sum(report["command_s"])


def wall_cal_s(report: dict) -> float:
    """Wall time scaled by the host's speed at the time: the seconds the
    commands would take on a host where the calibration kernel takes
    ``calibrate.REFERENCE_S``."""
    return (wall_s(report) / statistics.mean(report["calibration_s"])
            * calibrate.REFERENCE_S)


def setup_s(report: dict) -> float:
    return (report["import_s"] + report["load_config_s"]
            + report["initial_state_s"])


def layer_metrics(report: dict, snapshot_bytes: int) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans, counts = report["spans"], report["counts"]
    own = self_times_ns(spans)
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, self_ns in zip(spans, own):
        metrics[span[0].split(".", 1)[0] + ".self_s"] += self_ns / 1e9

    def ms(names, within=None):
        return [(end - start) / 1e6 for name, start, end, parent in spans
                if name in names and (within is None or parent in within)]

    steps = {i for i, s in enumerate(spans) if s[0] == "dynamics.step_leapfrog"}
    n_steps = len(steps)
    step_ms = ms(("dynamics.step_leapfrog",))
    rhs_ms = ms(_RHS, within=steps)
    first_step = min((spans[i][1] for i in steps), default=math.inf)
    energy_in_loop = [s for s in spans
                      if s[0] == "energy.total_energy" and s[1] >= first_step]

    def per_step(names):
        return sum(ms(names)) / n_steps if n_steps else 0.0

    snapshot_ms = ms(("fields.save_snapshot",))
    main_ms = sum(ms(("cli.main",)))
    branch_calls = counts.get("waves.dispersion_branches", 0)
    metrics.update({
        "rng.random_smooth_state_s":
            statistics.median(ms(("rng.random_smooth_state",)) or [0.0]) / 1e3,
        "dynamics.step_ms.p50": percentile(step_ms, 50),
        "dynamics.step_ms.p90": percentile(step_ms, 90),
        "dynamics.rhs_ms.p50": percentile(rhs_ms, 50),
        "dynamics.rhs_calls_per_step": len(rhs_ms) / n_steps if n_steps else 0.0,
        "dynamics.rhs_alloc_mb": report.get("rhs_alloc_mb", 0.0),
        "dynamics.verify_s":
            sum(ms(("dynamics.verify_variational_consistency",))) / 1e3,
        "energy.total_energy_ms.p50":
            percentile(ms(("energy.total_energy",)), 50),
        "energy.total_energy_calls_per_step":
            len(energy_in_loop) / n_steps if n_steps else 0.0,
        "energy.total_energy_alloc_mb": report.get("total_energy_alloc_mb", 0.0),
        "energy.potential_total_calls":
            float(counts.get("energy.potential_total", 0)),
        "algebra.polar2_ms_per_step": per_step(("algebra.polar2",)),
        "algebra.self_ms_per_step": per_step(_ALGEBRA_SMALL),
        "fields.stencil_ms_per_step": per_step(_STENCILS),
        "fields.snapshot_ms.p50": percentile(snapshot_ms, 50),
        "fields.snapshot_mb_per_s": (snapshot_bytes / 2**20
                                     / (sum(snapshot_ms) / 1e3)
                                     if snapshot_ms else 0.0),
        "fields.snapshot_share": sum(snapshot_ms) / main_ms if main_ms else 0.0,
        "waves.dispersion_branches_ms.p50":
            percentile(ms(("waves.dispersion_branches",)), 50),
        "waves.dispersion_branches_ms.p90":
            percentile(ms(("waves.dispersion_branches",)), 90),
        "waves.branches_per_k": (counts.get("waves.branches", 0) / branch_calls
                                 if branch_calls else 0.0),
        "reduction3d.report_s":
            sum(ms(("reduction3d.full_reduction_report",))) / 1e3,
    })
    return metrics


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


# --------------------------------------------------------------------------
# host facts
# --------------------------------------------------------------------------

def last_level_cache() -> str:
    """Size of the largest-level CPU cache, as the kernel reports it."""
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def host_facts(w: workloads.Workload, report: dict | None) -> dict:
    nx, ny = w.grid
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": report["python"] if report else sys.version.split()[0],
        "numpy": report["numpy"] if report else "unknown",
        "last_level_cache": last_level_cache(),
        "largest_working_set_mb": nx * ny * 4 * 8 / 2**20,
        "working_set_note": f"one {nx}x{ny} 2x2 float64 field; it fits in "
                            "the last-level cache, so no bandwidth metric is "
                            "reported and *_alloc_mb are allocated bytes",
        "load": "closed loop: one client, one command at a time, one process "
                "per repetition, BLAS/OpenMP threads = 1",
    }


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def reference_digests(workload: str, seed: int) -> dict | None:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    except (OSError, ValueError):
        return None
    return table.get(workload, {}).get(str(seed))


def measure(root: str, w: workloads.Workload, tag: str, seconds: float,
            trace: bool) -> list[tuple[dict, dict]]:
    """Run and check repetitions back to back until ``seconds`` are spent;
    with ``trace``, odd repetitions are traced."""
    workdir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    needed = 2 if trace else 1
    start = time.perf_counter()
    done = []
    while True:
        i = len(done)
        rep_start = time.perf_counter()
        rep = run_rep(root, w, os.path.join(workdir, f"rep{i}"),
                      f"{tag}-rep{i}", trace and i % 2 == 1,
                      timeout=170.0 - (rep_start - start))
        check = check_rep(w, rep)
        shutil.rmtree(rep["outdir"], ignore_errors=True)
        rep["seconds"] = time.perf_counter() - rep_start
        done.append((rep, check))
        # Stop before a repetition that would overrun the budget.
        projected = time.perf_counter() - start + rep["seconds"]
        if rep["status"] is None or (
                len(done) >= needed
                and (projected > seconds or projected > HARD_STOP_S)):
            break
    shutil.rmtree(workdir, ignore_errors=True)
    return done


def end_to_end_metrics(untraced: list[dict]) -> tuple[dict, dict]:
    samples = {
        "wall_cal_s": [wall_cal_s(r) for r in untraced],
        "setup_s": [setup_s(r) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    medians = {name: statistics.median(values) if values else 0.0
               for name, values in samples.items()}
    return medians, samples


def info_metrics(w: workloads.Workload, done, untraced: list[dict],
                 identical: bool | None) -> dict:
    """Metrics printed for information: name -> (value, unit)."""
    checks = [check["info"] for _, check in done]
    wall = statistics.median(wall_s(r) for r in untraced) if untraced else 0.0
    info = {
        "wall_s": (wall, "s"),
        "calibration_s": (statistics.median(
            t for r in untraced for t in r["calibration_s"])
            if untraced else 0.0, "s"),
    }
    if w.steps:
        nx, ny = w.grid
        info["node_steps_per_s"] = (nx * ny * w.steps / wall if wall else 0.0,
                                    "1/s")
        info["energy_drift_rel"] = (
            max((c["energy_drift_rel"] for c in checks
                 if "energy_drift_rel" in c), default=math.nan), "1")
    if "verify" in w.commands:
        info["verify_failed_checks"] = (
            max((c["verify_failed_checks"] for c in checks
                 if "verify_failed_checks" in c), default=math.nan), "count")
    failed = sum(1 for _, check in done if check["failed"])
    info["failed_ratio"] = (failed / len(done), "1")
    info["outputs_identical"] = (
        "unknown" if identical is None else str(identical).lower(), "bool")
    return info


def per_layer_metrics(traced, untraced_walls: list[float]) -> dict:
    rows = [layer_metrics(report, check["info"].get("snapshot_bytes", 0))
            for report, check in traced]
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        statistics.median(wall_s(report) for report, _ in traced)
        - statistics.median(untraced_walls) if untraced_walls else 0.0)
    return metrics


def write_results(tag: str, results: dict, done) -> None:
    """Write the run's results, and the spans of its traced repetitions."""
    base = os.path.join(WORK, "results", tag)
    os.makedirs(os.path.dirname(base), exist_ok=True)
    with open(base + ".json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    traced = [rep for rep, _ in done if rep["trace"] and rep["report"]]
    if not traced:
        return
    with open(base + ".spans.jsonl", "w", encoding="utf-8") as fh:
        for rep in traced:
            for index, (name, t0, t1, parent) in enumerate(
                    rep["report"]["spans"]):
                fh.write(json.dumps({"run": rep["run_id"], "id": index,
                                     "name": name, "start_ns": t0,
                                     "end_ns": t1, "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cosserat2d", "cli.py")):
        print("error: run from the root of a cosserat2d source checkout "
              "(src/cosserat2d/cli.py not found)", file=sys.stderr)
        return 2

    w = workloads.make(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    done = measure(root, w, tag, args.seconds, bool(args.trace))

    untraced = [rep["report"] for rep, _ in done
                if rep["report"] and not rep["trace"]]
    traced = [(rep["report"], check) for rep, check in done
              if rep["report"] and rep["trace"]]
    failed = sum(1 for _, check in done if check["failed"])
    digests = [check["digests"] for _, check in done if check["digests"]]
    deterministic = all(d == digests[0] for d in digests)
    reference = reference_digests(args.workload, args.seed)
    identical = (None if reference is None or not digests
                 else digests[0] == reference)
    correct = (failed == 0 and deterministic
               and not any(check["wrong"] for _, check in done))
    end_to_end, samples = end_to_end_metrics(untraced)
    info = info_metrics(w, done, untraced, identical)
    per_layer = (per_layer_metrics(traced, [wall_s(r) for r in untraced])
                 if traced else {})
    host = host_facts(w, untraced[0] if untraced else None)

    nx, ny = w.grid
    print(f"workload {args.workload}, seed {args.seed}: grid {nx}x{ny}, "
          f"commands {' + '.join(w.commands)}"
          + (f", {w.steps} steps, model {w.model}" if w.steps else ""))
    for key, value in host.items():
        print(f"host {key} = {value}")
    for i, (rep, check) in enumerate(done):
        r = rep["report"]
        timing = (f"wall {wall_s(r):.4f} s, calibrated {wall_cal_s(r):.4f} s, "
                  f"setup {setup_s(r):.4f} s" if r else "no report")
        problems = "; ".join(check["failed"] + check["wrong"]) or "ok"
        print(f"rep {i} ({'traced' if rep['trace'] else 'untraced'}): "
              f"{timing}: {problems}")
    for name, value in end_to_end.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} "
              f"(median; {spread(samples[name])})")
    for name, (value, unit) in info.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} = {shown} {unit}")
    if not deterministic:
        print("outputs differ between repetitions of the same config")
    for name, value in per_layer.items():
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")

    write_results(tag, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "config": w.config, "host": host, "end_to_end": end_to_end,
        "info": {name: value for name, (value, _) in info.items()},
        "per_layer": per_layer, "digests": digests[0] if digests else {},
        "reps": [{"trace": rep["trace"], "status": rep["status"],
                  "seconds": rep["seconds"],
                  "timings": {k: v for k, v in (rep["report"] or {}).items()
                              if k not in ("spans", "counts")},
                  "failed": check["failed"], "wrong": check["wrong"]}
                 for rep, check in done],
    }, done)

    chosen, units = ((per_layer, PER_LAYER_UNITS) if args.trace
                     else (end_to_end, END_TO_END_UNITS))
    print(json.dumps({
        "correct": correct, "attempted": len(done), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
